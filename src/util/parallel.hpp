/**
 * @file
 * Shared parallel-execution layer: a persistent thread pool plus a
 * chunked parallelFor() used by every hot path (gemm, im2col, the
 * encoders, elementwise ops).
 *
 * Determinism contract: when parallelFor() splits a range, it statically
 * partitions [begin, end) into fixed chunks of at most @p grain
 * iterations whose boundaries depend only on (begin, end, grain) — never
 * on the number of threads or on scheduling order. Kernels must compute
 * every element independently of which chunk delivered it (all callers
 * in this codebase do); under that rule results are bitwise-identical at
 * any thread count, including the single-thread path, which skips
 * chunking entirely and runs fn(begin, end) in one call so 1-thread
 * configurations never pay per-chunk dispatch overhead.
 *
 * Thread count resolution (first use, or after setNumThreads(0)):
 *   1. explicit setNumThreads(n) with n >= 1 wins;
 *   2. else the GIST_THREADS environment variable;
 *   3. else std::thread::hardware_concurrency().
 * A resolved count of 1 disables the pool entirely: parallelFor() runs
 * inline on the caller's thread with zero synchronization.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>

namespace gist {

/**
 * Loop body for parallelFor: processes the half-open range [begin, end).
 *
 * A non-owning callable reference (not std::function): parallelFor is
 * fully synchronous, so the callee never outlives the call expression
 * and nothing needs to be copied — constructing one is two pointer
 * stores, never a heap allocation. That keeps tiny hot-path loops
 * (im2col rows, codec chunks) allocation-free, which the arena's
 * zero-alloc steady-state accounting depends on.
 */
class RangeFn
{
  public:
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, RangeFn> &&
                  std::is_invocable_v<F &, std::int64_t, std::int64_t>>>
    RangeFn(F &&f) // NOLINT: implicit by design, mirrors function_ref
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call_([](void *obj, std::int64_t b, std::int64_t e) {
              (*static_cast<std::remove_reference_t<F> *>(obj))(b, e);
          })
    {
    }

    void
    operator()(std::int64_t begin, std::int64_t end) const
    {
        call_(obj_, begin, end);
    }

  private:
    void *obj_;
    void (*call_)(void *, std::int64_t, std::int64_t);
};

/**
 * Resolve a requested thread count: @p requested >= 1 is taken verbatim;
 * 0 (or negative) consults GIST_THREADS, then hardware_concurrency().
 */
int resolveThreadCount(int requested);

/**
 * Set the global worker count. n >= 1 forces exactly n threads (1 means
 * fully inline execution); n <= 0 re-resolves from the environment.
 * Recreates the persistent pool; cheap if the count is unchanged.
 */
void setNumThreads(int n);

/** Current global thread count (resolving the default on first call). */
int numThreads();

/**
 * Dense index of the calling thread within the persistent pool: pool
 * workers return their spawn index (1 .. numThreads()-1, stable for the
 * worker's lifetime); codec-queue workers return a negative index
 * (-1 .. -numWorkers(), stable likewise), link-queue workers
 * -(kLinkWorkerIndexBase + 1) and below; the parallelFor caller and
 * any thread outside all pools return 0. The tracing layer (src/obs/)
 * registers its per-thread buffers with this index so every worker gets
 * a stable, named display row in the trace.
 */
int currentWorkerIndex();

/** Offset that sets link-queue workers' indices apart (see above). */
inline constexpr int kLinkWorkerIndexBase = 1000;

/**
 * Run fn over [begin, end) in chunks of at most @p grain iterations,
 * spread across the persistent pool. Blocks until every chunk finished.
 *
 * - Chunking is static (see file comment): safe for bitwise-deterministic
 *   kernels as long as each element is computed chunk-independently.
 * - A 1-thread pool, a nested call, or a range that fits one chunk
 *   degenerates to a single plain function call (no chunk loop).
 * - The calling thread participates in multi-thread runs, so tiny jobs
 *   often finish before a worker even wakes.
 * - Nested calls from inside a worker run inline on that worker — no
 *   deadlock, no thread explosion.
 * - @p grain <= 0 is treated as 1.
 */
void parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const RangeFn &fn);

/**
 * Convenience: pick a grain that yields roughly 4 chunks per thread
 * (load-balance slack without per-chunk overhead dominating), but never
 * below @p min_grain, and snap it up to a multiple of @p align so chunk
 * boundaries respect packed-word layouts (8 values/byte for binarize,
 * 3 values/word for FP10, ...).
 */
std::int64_t chooseGrain(std::int64_t range, std::int64_t min_grain,
                         std::int64_t align = 1);

namespace detail {

/** Shared completion record behind a TaskTicket (see below). */
struct TaskState
{
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::exception_ptr error;
};

} // namespace detail

/**
 * Completion handle for one task submitted to the CodecQueue. Cheap to
 * copy (shared_ptr); a default-constructed ticket is "empty" and all
 * operations on it are no-ops, so callers can keep one per stash slot
 * and only pay when a task is actually in flight.
 *
 * wait() blocks until the task ran to completion and rethrows any
 * exception the task threw (once per wait() call, matching the
 * parallelFor error contract).
 */
class TaskTicket
{
  public:
    TaskTicket() = default;

    /** True if this ticket refers to a submitted task. */
    explicit operator bool() const { return state_ != nullptr; }

    /** True if the task has run to completion (false for empty). */
    bool ready() const;

    /** Block until done; rethrow the task's exception. Empty: no-op. */
    void wait() const;

    /** Drop the reference; the ticket becomes empty. */
    void reset() { state_.reset(); }

  private:
    friend class CodecQueue;
    std::shared_ptr<detail::TaskState> state_;
};

/**
 * Aggregate CodecQueue statistics, maintained with plain relaxed
 * atomics inside the queue. Counters are cumulative since process
 * start; callers diff two snapshots for per-step views (the executor
 * does so for ExecStats' codec_* fields). `max_depth` is a watermark
 * since the last markDepth() call.
 */
struct CodecQueueStats
{
    std::uint64_t submitted = 0;     ///< tasks handed to submit()
    std::uint64_t completed = 0;     ///< tasks run to completion
    std::uint64_t queue_wait_ns = 0; ///< total enqueue -> pick-up ns
    std::uint64_t run_ns = 0;        ///< total task execution ns
    std::int64_t depth = 0;          ///< tasks enqueued, not picked up
    std::int64_t max_depth = 0;      ///< depth watermark since markDepth()
};

/**
 * A small dedicated FIFO task queue for asynchronous codec work
 * (stash encode/decode), separate from the data-parallel ThreadPool so
 * codec jobs never contend with parallelFor for the pool's single job
 * slot. Tasks run in strict submission order per worker pick-up; with
 * one worker the execution order equals the submission order exactly,
 * which the executor's encode-before-decode slot protocol relies on for
 * deadlock freedom (a decode task only waits on tickets submitted
 * before it).
 *
 * Determinism: codec workers are marked as "inside a worker", so any
 * nested parallelFor runs inline single-threaded — by the static
 * chunking contract above this is bitwise-identical to running the same
 * codec through the pool, which is what keeps async lossless runs
 * bit-for-bit equal to sync runs.
 *
 * setNumWorkers(0) disables the queue: submit() runs the task inline on
 * the calling thread (still capturing exceptions into the ticket), so
 * callers need no special sync fallback path.
 *
 * Each queue instance owns its worker threads and statistics: the
 * executor embeds one per instance, so two executors in one process
 * never share workers, stall accounting, or jitter state. Destroying a
 * queue drains every submitted task first, so owners must declare it
 * after (destroy it before) any state its tasks touch.
 *
 * The same class runs the executor's tier link (Role::Link): a queue
 * of slow-tier transfers beside the codec queue, whose workers take
 * their own trace rows ("link worker N").
 */
class CodecQueue
{
  public:
    /** What the queue's workers run (selects their worker index). */
    enum class Role { Codec, Link };

    explicit CodecQueue(Role role = Role::Codec);
    ~CodecQueue();

    CodecQueue(const CodecQueue &) = delete;
    CodecQueue &operator=(const CodecQueue &) = delete;

    /**
     * Resize to @p n dedicated worker threads (n <= 0 means inline
     * execution). Drains all in-flight tasks first; cheap when the
     * count is unchanged.
     */
    void setNumWorkers(int n);

    /** Current worker count (0 = inline execution). */
    int numWorkers();

    /** Enqueue a task; returns a ticket completed when the task ran. */
    TaskTicket submit(std::function<void()> fn);

    /** Block until every task submitted so far has completed. */
    void drain();

    /**
     * Point-in-time copy of the queue statistics (see CodecQueueStats).
     * Inline-executed tasks (zero workers) count as submitted/completed
     * with zero queue wait, so sync-fallback runs stay comparable.
     */
    CodecQueueStats stats() const;

    /** Restart the max-depth watermark from the current depth. */
    void markDepth();

    /**
     * Test hook: when @p seed != 0, workers interleave a seeded
     * pseudo-random number of std::this_thread::yield() calls around
     * each task, shaking out ordering assumptions in stress tests.
     * Yields never change task order (FIFO pop under the queue mutex),
     * only timing.
     */
    void setJitter(std::uint64_t seed);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace gist
