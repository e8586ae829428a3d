/**
 * @file
 * JobManager: the multi-tenant training service core.
 *
 * A registry of concurrent training jobs, each wrapping a fully
 * self-contained executor + trainer (its own graph, dataset, counters,
 * metrics sink, device pool and RNG streams), multiplexed
 * over the shared process thread pool by a single scheduler thread
 * that steps runnable jobs round-robin, one minibatch per turn.
 *
 * Determinism: parallelFor() partitions work by (begin, end, grain)
 * only, so a minibatch computes bitwise-identical results no matter
 * which thread calls it or what ran before. Jobs share no mutable
 * state (per-job counters/sink/pool/queue), so serialized round-robin
 * stepping makes every job's final weights bitwise-identical to the
 * same spec run solo — the property tests/test_job_manager.cpp pins.
 *
 * Admission control: each job is charged its planner-modeled peak
 * pool bytes (serve::modeledPeakBytes); a submission whose charge
 * does not fit the remaining global budget is rejected with a
 * structured error before any runtime is built. Pausing a job
 * releases its charge (pause = checkpoint + full teardown); resume
 * re-admits under the then-current budget.
 *
 * All job work — runtime builds, stepping, snapshots, teardown —
 * happens on the scheduler thread. Public methods post a request,
 * wake the scheduler and (for lifecycle verbs) wait for the
 * acknowledging state change, so they are safe to call from any
 * thread and return with the transition complete.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/job.hpp"

namespace gist::serve {

/** Service-wide knobs. */
struct ServeConfig
{
    /**
     * Global device-memory budget in bytes that admission control
     * allocates job charges from; 0 = unlimited (every job admitted).
     */
    std::uint64_t global_budget_bytes = 0;
    /** Minibatches one job runs per scheduler turn (fairness quantum). */
    int steps_per_turn = 1;
};

/** Outcome of JobManager::submit(). */
struct SubmitResult
{
    bool admitted = false;
    /** Rejection/validation reason when !admitted (names the job id). */
    std::string error;
    /** The job's modeled peak pool bytes (the admission charge). */
    std::uint64_t modeled_peak_bytes = 0;
    /** Global budget bytes left after (or despite) this submission. */
    std::uint64_t budget_remaining_bytes = 0;
};

/** The concurrent job registry + scheduler. */
class JobManager
{
  public:
    explicit JobManager(ServeConfig config = ServeConfig{});
    /** Cancels every live job (tearing down runtimes) and joins. */
    ~JobManager();

    JobManager(const JobManager &) = delete;
    JobManager &operator=(const JobManager &) = delete;

    /**
     * Validate, admit and start @p spec. Blocks until admission is
     * decided (the runtime build happens on the scheduler thread
     * afterwards). Rejections — duplicate id, unknown model, budget
     * exceeded — leave a Rejected registry entry for status().
     */
    SubmitResult submit(const JobSpec &spec);

    /**
     * Pause: snapshot to the job's checkpoint file, tear down the
     * runtime, release the admission charge. Blocks until the job is
     * Paused. Fails (returns false, sets @p err) for unknown ids,
     * jobs without a checkpoint_path, or jobs not Queued/Running.
     */
    bool pause(const std::string &id, std::string *err = nullptr);

    /**
     * Resume a Paused — or checkpointed Failed — job: re-admission
     * check, rebuild, bitwise restore. Blocks until the job is
     * Running again (or the re-admission was rejected).
     */
    bool resume(const std::string &id, std::string *err = nullptr);

    /** Snapshot a Running job between steps without pausing it. */
    bool checkpoint(const std::string &id, std::string *err = nullptr);

    /**
     * Cancel: tear down without a snapshot, release the charge.
     * Valid from any non-terminal state.
     */
    bool cancel(const std::string &id, std::string *err = nullptr);

    /** Point-in-time view; GIST_FATALs on unknown ids. */
    JobStatus status(const std::string &id) const;

    /** All jobs, in submission order. */
    std::vector<JobStatus> list() const;

    /** Block until @p id is Paused or terminal. */
    void wait(const std::string &id);

    /** Block until no job is Queued or Running. */
    void waitAll();

    /** Sum of admitted jobs' modeled peaks (the budget in use). */
    std::uint64_t budgetUsedBytes() const;

    const ServeConfig &config() const { return cfg_; }

  private:
    struct Runtime;
    struct Job;

    void schedulerMain();
    /** Next Running job at/after rr_cursor_, nullptr when none. */
    Job *pickRunnable();
    Job *find(const std::string &id);
    const Job *find(const std::string &id) const;
    /** Build @p job's runtime + admission check (scheduler thread). */
    void buildJob(Job &job, std::unique_lock<std::mutex> &lock);
    /** Step @p job steps_per_turn times (scheduler thread). */
    void stepJob(Job &job, std::unique_lock<std::mutex> &lock);
    /** Fold loop records into the job and drop the runtime. */
    void teardown(Job &job, bool snapshot);
    void releaseCharge(Job &job);

    ServeConfig cfg_;
    mutable std::mutex mu_;
    /** Signals job state changes to lifecycle waiters. */
    std::condition_variable cv_;
    /** Wakes the scheduler when work arrives. */
    std::condition_variable work_cv_;
    std::vector<std::unique_ptr<Job>> jobs_; ///< submission order
    size_t rr_cursor_ = 0;
    std::uint64_t budget_used_ = 0;
    bool stop_ = false;
    std::thread scheduler_;
};

} // namespace gist::serve
