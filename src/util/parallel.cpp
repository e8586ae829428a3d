#include "util/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/bits.hpp"
#include "util/logging.hpp"

namespace gist {

namespace {

/** Set while a thread runs chunks of a job, so nested parallelFor()
 *  calls execute inline instead of re-entering (and deadlocking) the
 *  pool. */
thread_local bool tls_in_worker = false;

/** Spawn index of a pool worker; 0 for every other thread. */
thread_local int tls_worker_index = 0;

/**
 * One in-flight parallelFor: a statically chunked range plus an atomic
 * cursor. Which thread claims which chunk is scheduling noise; the chunk
 * boundaries themselves are fixed, which is what determinism needs.
 */
struct Job
{
    std::int64_t begin = 0;
    std::int64_t grain = 1;
    std::int64_t end = 0;
    std::int64_t num_chunks = 0;
    const RangeFn *fn = nullptr;
    std::atomic<std::int64_t> next_chunk{ 0 };
    std::atomic<std::int64_t> done_chunks{ 0 };
    int workers_inside = 0; ///< guarded by the pool's wake_mu_
    std::exception_ptr error;
    std::mutex error_mu;

    /** Claim and run chunks until none remain. */
    void
    work()
    {
        for (;;) {
            const std::int64_t c =
                next_chunk.fetch_add(1, std::memory_order_relaxed);
            if (c >= num_chunks)
                return;
            const std::int64_t lo = begin + c * grain;
            const std::int64_t hi = std::min(end, lo + grain);
            try {
                (*fn)(lo, hi);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!error)
                    error = std::current_exception();
            }
            done_chunks.fetch_add(1, std::memory_order_release);
        }
    }

    bool
    finished() const
    {
        return done_chunks.load(std::memory_order_acquire) == num_chunks;
    }
};

/**
 * Persistent worker pool. Workers sleep on a condition variable between
 * jobs; parallelFor publishes one Job at a time (callers serialize on
 * job_mu_, so independent subsystems can share the pool safely). A job
 * generation counter tells sleeping workers a *new* job arrived, so a
 * worker that already drained the current job does not busy-spin on it.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        static ThreadPool pool;
        return pool;
    }

    int
    numThreads() const
    {
        // Lock-free: parallelFor and chooseGrain read this on every
        // call, and a mutex here put two lock/unlock pairs on the
        // single-thread fast path of small kernels (binarize backward
        // lost ~4% to it). Relaxed is enough — resize() never runs
        // concurrently with work.
        return threads_.load(std::memory_order_relaxed);
    }

    void
    resize(int n)
    {
        std::lock_guard<std::mutex> lock(resize_mu_);
        const int resolved = resolveThreadCount(n);
        if (resolved == threads_.load(std::memory_order_relaxed))
            return;
        stopWorkers();
        threads_.store(resolved, std::memory_order_relaxed);
        startWorkers();
    }

    void
    run(std::int64_t begin, std::int64_t end, std::int64_t grain,
        const RangeFn &fn)
    {
        Job job;
        job.begin = begin;
        job.end = end;
        job.grain = grain;
        job.num_chunks = ceilDiv(end - begin, grain);
        job.fn = &fn;

        // One parallelFor at a time; a second caller blocks here until
        // the pool frees up rather than interleaving two jobs.
        std::lock_guard<std::mutex> job_lock(job_mu_);
        {
            std::lock_guard<std::mutex> lock(wake_mu_);
            current_ = &job;
            ++job_gen_;
        }
        wake_cv_.notify_all();

        // The caller is a full participant: with a busy pool it still
        // makes progress, and tiny jobs often finish before any worker
        // even wakes. Mark it a worker so nested calls run inline.
        tls_in_worker = true;
        job.work();
        tls_in_worker = false;

        // Retire the job only once no worker can still touch it (the
        // job lives on this stack frame).
        {
            std::unique_lock<std::mutex> lock(wake_mu_);
            done_cv_.wait(lock, [&] {
                return job.finished() && job.workers_inside == 0;
            });
            current_ = nullptr;
        }
        if (job.error)
            std::rethrow_exception(job.error);
    }

  private:
    ThreadPool() { resize(0); }

    ~ThreadPool()
    {
        std::lock_guard<std::mutex> lock(resize_mu_);
        stopWorkers();
    }

    void
    startWorkers()
    {
        // threads_ counts the caller, so spawn threads_ - 1 workers.
        stop_ = false;
        const int n = threads_.load(std::memory_order_relaxed);
        for (int i = 1; i < n; ++i)
            workers_.emplace_back([this, i] {
                tls_worker_index = i;
                workerLoop();
            });
    }

    void
    stopWorkers()
    {
        {
            std::lock_guard<std::mutex> lock(wake_mu_);
            stop_ = true;
        }
        wake_cv_.notify_all();
        for (auto &t : workers_)
            t.join();
        workers_.clear();
    }

    void
    workerLoop()
    {
        tls_in_worker = true;
        std::uint64_t seen_gen = 0;
        for (;;) {
            Job *job = nullptr;
            {
                std::unique_lock<std::mutex> lock(wake_mu_);
                wake_cv_.wait(lock, [&] {
                    return stop_ ||
                           (current_ != nullptr && job_gen_ != seen_gen);
                });
                if (stop_)
                    return;
                job = current_;
                seen_gen = job_gen_;
                ++job->workers_inside;
            }
            job->work();
            {
                std::lock_guard<std::mutex> lock(wake_mu_);
                --job->workers_inside;
            }
            // The caller's predicate reads done_chunks and
            // workers_inside; taking wake_mu_ above orders this notify
            // after its predicate check, so the wakeup cannot be lost.
            done_cv_.notify_all();
        }
    }

    std::mutex resize_mu_; ///< serializes resize(); guards workers_
    std::mutex job_mu_;    ///< serializes parallelFor callers
    std::mutex wake_mu_;   ///< guards current_ / job_gen_ / stop_
    std::condition_variable wake_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;
    Job *current_ = nullptr;
    std::uint64_t job_gen_ = 0;
    bool stop_ = false;
    std::atomic<int> threads_{ 0 };
};

} // namespace

int
resolveThreadCount(int requested)
{
    if (requested >= 1)
        return requested;
    if (const char *env = std::getenv("GIST_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<int>(v);
        GIST_WARN("ignoring bad GIST_THREADS value '", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

void
setNumThreads(int n)
{
    ThreadPool::instance().resize(n);
}

int
numThreads()
{
    return ThreadPool::instance().numThreads();
}

int
currentWorkerIndex()
{
    return tls_worker_index;
}

void
parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
            const RangeFn &fn)
{
    if (end <= begin)
        return;
    if (grain <= 0)
        grain = 1;
    // Inline fast paths: single chunk or nested call.
    if (end - begin <= grain || tls_in_worker) {
        fn(begin, end);
        return;
    }
    ThreadPool &pool = ThreadPool::instance();
    if (pool.numThreads() <= 1) {
        // One call covering the whole range: kernels compute elements
        // chunk-independently (see chooseGrain), so skipping the chunk
        // loop keeps results identical while shedding per-chunk dispatch
        // overhead — the difference is what made several 1-thread
        // kernels slower than their pre-pool serial form.
        fn(begin, end);
        return;
    }
    pool.run(begin, end, grain, fn);
}

bool
TaskTicket::ready() const
{
    if (!state_)
        return false;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
}

void
TaskTicket::wait() const
{
    if (!state_)
        return;
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (state_->error)
        std::rethrow_exception(state_->error);
}

/**
 * FIFO queue + dedicated worker threads. One mutex guards the deque and
 * the in-flight count; per-task completion is published through the
 * ticket's own TaskState so waiters never contend with submitters.
 */
struct CodecQueue::Impl
{
    struct Task
    {
        std::function<void()> fn;
        std::shared_ptr<detail::TaskState> state;
        std::uint64_t enqueue_ns = 0; ///< stamp for queue-wait stats
    };

    /** Worker i's index is -(index_base + i); see currentWorkerIndex. */
    int index_base = 0;
    std::mutex mu;                 ///< guards queue / in_flight / stop
    std::condition_variable wake;  ///< workers sleep here
    std::condition_variable idle;  ///< drain() sleeps here
    std::deque<Task> queue;
    std::vector<std::thread> workers;
    int in_flight = 0; ///< tasks popped but not yet completed
    bool stop = false;
    std::atomic<std::uint64_t> jitter{ 0 };

    // Stall-accounting stats: plain relaxed atomics (the executor diffs
    // them per step). All writes are monotonic adds except the depth
    // gauge and its watermark.
    std::atomic<std::uint64_t> submitted{ 0 };
    std::atomic<std::uint64_t> completed{ 0 };
    std::atomic<std::uint64_t> queue_wait_ns{ 0 };
    std::atomic<std::uint64_t> run_ns{ 0 };
    std::atomic<std::int64_t> depth{ 0 };
    std::atomic<std::int64_t> max_depth{ 0 };

    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    void
    noteDepth(std::int64_t d)
    {
        std::int64_t m = max_depth.load(std::memory_order_relaxed);
        while (d > m &&
               !max_depth.compare_exchange_weak(
                   m, d, std::memory_order_relaxed)) {
        }
    }

    /** xorshift step on the shared jitter state; returns 0..3 yields. */
    int
    jitterYields()
    {
        std::uint64_t s = jitter.load(std::memory_order_relaxed);
        if (s == 0)
            return 0;
        std::uint64_t x = s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        jitter.store(x, std::memory_order_relaxed);
        return static_cast<int>(x & 3);
    }

    static void
    complete(const std::shared_ptr<detail::TaskState> &state,
             std::exception_ptr error)
    {
        {
            std::lock_guard<std::mutex> lock(state->mu);
            state->done = true;
            state->error = std::move(error);
        }
        state->cv.notify_all();
    }

    static std::exception_ptr
    runGuarded(const std::function<void()> &fn)
    {
        try {
            fn();
        } catch (...) {
            return std::current_exception();
        }
        return nullptr;
    }

    void
    workerLoop(int spawn_index)
    {
        // Mark the thread as a worker so nested parallelFor from codec
        // kernels runs inline (bitwise-identical by the static chunking
        // contract, and free of pool-mutex contention); the negative
        // index gives the trace layer a distinct "codec worker" (or
        // "link worker") row.
        tls_in_worker = true;
        tls_worker_index = -(index_base + spawn_index);
        for (;;) {
            Task task;
            {
                std::unique_lock<std::mutex> lock(mu);
                wake.wait(lock, [&] { return stop || !queue.empty(); });
                if (stop && queue.empty())
                    return;
                task = std::move(queue.front());
                queue.pop_front();
                ++in_flight;
            }
            depth.fetch_sub(1, std::memory_order_relaxed);
            const std::uint64_t t_pick = nowNs();
            queue_wait_ns.fetch_add(t_pick - task.enqueue_ns,
                                    std::memory_order_relaxed);
            for (int i = jitterYields(); i > 0; --i)
                std::this_thread::yield();
            std::exception_ptr error = runGuarded(task.fn);
            run_ns.fetch_add(nowNs() - t_pick,
                             std::memory_order_relaxed);
            completed.fetch_add(1, std::memory_order_relaxed);
            for (int i = jitterYields(); i > 0; --i)
                std::this_thread::yield();
            complete(task.state, std::move(error));
            {
                std::lock_guard<std::mutex> lock(mu);
                --in_flight;
            }
            idle.notify_all();
        }
    }

    void
    startWorkers(int n)
    {
        stop = false;
        for (int i = 1; i <= n; ++i)
            workers.emplace_back([this, i] { workerLoop(i); });
    }

    void
    stopWorkers()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            stop = true;
        }
        wake.notify_all();
        for (auto &t : workers)
            t.join();
        workers.clear();
    }
};

CodecQueue::CodecQueue(Role role) : impl_(new Impl)
{
    impl_->index_base = role == Role::Link ? kLinkWorkerIndexBase : 0;
}

CodecQueue::~CodecQueue()
{
    impl_->stopWorkers();
}

void
CodecQueue::setNumWorkers(int n)
{
    if (n < 0)
        n = 0;
    if (n == numWorkers())
        return;
    drain();
    impl_->stopWorkers();
    impl_->startWorkers(n);
}

int
CodecQueue::numWorkers()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return static_cast<int>(impl_->workers.size());
}

TaskTicket
CodecQueue::submit(std::function<void()> fn)
{
    GIST_ASSERT(fn != nullptr, "CodecQueue::submit: null task");
    TaskTicket ticket;
    ticket.state_ = std::make_shared<detail::TaskState>();
    impl_->submitted.fetch_add(1, std::memory_order_relaxed);
    bool inline_run = false;
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        if (impl_->workers.empty()) {
            inline_run = true;
        } else {
            impl_->queue.push_back(Impl::Task{ std::move(fn),
                                               ticket.state_,
                                               Impl::nowNs() });
            impl_->noteDepth(
                impl_->depth.fetch_add(1, std::memory_order_relaxed) +
                1);
        }
    }
    if (inline_run) {
        // No workers: run on the calling thread, still routing any
        // exception through the ticket so callers have one error path.
        // Zero queue wait by definition; run time still counts so the
        // overlap metric's denominator covers sync-fallback codec work.
        const std::uint64_t t0 = Impl::nowNs();
        Impl::complete(ticket.state_, Impl::runGuarded(fn));
        impl_->run_ns.fetch_add(Impl::nowNs() - t0,
                                std::memory_order_relaxed);
        impl_->completed.fetch_add(1, std::memory_order_relaxed);
    } else {
        impl_->wake.notify_one();
    }
    return ticket;
}

void
CodecQueue::drain()
{
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->idle.wait(lock, [&] {
        return impl_->queue.empty() && impl_->in_flight == 0;
    });
}

CodecQueueStats
CodecQueue::stats() const
{
    CodecQueueStats s;
    s.submitted = impl_->submitted.load(std::memory_order_relaxed);
    s.completed = impl_->completed.load(std::memory_order_relaxed);
    s.queue_wait_ns =
        impl_->queue_wait_ns.load(std::memory_order_relaxed);
    s.run_ns = impl_->run_ns.load(std::memory_order_relaxed);
    s.depth = impl_->depth.load(std::memory_order_relaxed);
    s.max_depth = impl_->max_depth.load(std::memory_order_relaxed);
    return s;
}

void
CodecQueue::markDepth()
{
    impl_->max_depth.store(impl_->depth.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
}

void
CodecQueue::setJitter(std::uint64_t seed)
{
    impl_->jitter.store(seed, std::memory_order_relaxed);
}

std::int64_t
chooseGrain(std::int64_t range, std::int64_t min_grain, std::int64_t align)
{
    GIST_ASSERT(min_grain > 0 && align > 0, "bad grain parameters");
    // Grain scales with the pool size, so chunk *boundaries* differ
    // across thread counts. Kernels built on chooseGrain must therefore
    // compute each output element independently of its chunk (true for
    // every use in this codebase); kernels whose reduction order follows
    // chunk boundaries should pass a fixed grain to parallelFor instead.
    const auto threads = static_cast<std::int64_t>(numThreads());
    std::int64_t grain = std::max(min_grain, ceilDiv(range, threads * 4));
    grain = roundUp(grain, align);
    return grain;
}

} // namespace gist
