#include "serve/job_manager.hpp"

#include <stdexcept>
#include <utility>

#include "core/schedule_builder.hpp"
#include "graph/executor.hpp"
#include "models/tiny.hpp"
#include "obs/metrics.hpp"
#include "train/dataset.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace gist::serve {

namespace {

bool
isTerminal(JobState s)
{
    return s == JobState::Done || s == JobState::Failed ||
           s == JobState::Cancelled || s == JobState::Rejected;
}

bool
apiFail(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
    return false;
}

} // namespace

/**
 * Everything one admitted job owns while live. Jobs share nothing but
 * the process thread pool: the executor and its device pool keep
 * their own counters, and each job has its own metrics sink and
 * dataset/graph/RNG.
 * Destroying the runtime frees the arena, the codec queue and the
 * device pool (a file tier unlinks its spill files).
 */
struct JobManager::Runtime
{
    SyntheticDataset data;
    Graph graph;
    obs::MetricsSink sink;
    std::unique_ptr<Executor> exec;
    std::unique_ptr<Trainer> trainer;
    std::unique_ptr<TrainLoop> loop;

    explicit Runtime(const SyntheticDataset::Spec &dspec)
        : data(dspec)
    {
    }
};

struct JobManager::Job
{
    JobSpec spec;
    JobState state = JobState::Queued;
    std::uint64_t modeled_peak = 0; ///< informational; kept after release
    bool charged = false; ///< modeled_peak is counted in budget_used_
    std::string error;
    /** Epoch records folded in at pause/finish/teardown. */
    std::vector<EpochRecord> records;
    std::int64_t step = 0;
    int epoch = 0;

    /** Scheduler requests (set by API threads under the lock). */
    bool pending_build = false; ///< build the runtime (submit/resume)
    bool build_resume = false;  ///< build restores the checkpoint
    JobState revert_state = JobState::Queued; ///< on a rejected resume
    bool want_pause = false;
    bool want_cancel = false;
    bool want_checkpoint = false;

    /** Admission verdict handshake for submit()/resume(). */
    bool admission_done = false;
    SubmitResult admission;

    std::unique_ptr<Runtime> rt;
};

JobManager::JobManager(ServeConfig config)
    : cfg_(config)
{
    scheduler_ = std::thread([this] { schedulerMain(); });
}

JobManager::~JobManager()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    scheduler_.join();
    // The scheduler exited; tear down whatever is still live.
    for (auto &job : jobs_)
        if (job->rt) {
            job->rt.reset();
            releaseCharge(*job);
            if (!isTerminal(job->state))
                job->state = JobState::Cancelled;
        }
}

JobManager::Job *
JobManager::find(const std::string &id)
{
    for (auto &job : jobs_)
        if (job->spec.id == id)
            return job.get();
    return nullptr;
}

const JobManager::Job *
JobManager::find(const std::string &id) const
{
    for (const auto &job : jobs_)
        if (job->spec.id == id)
            return job.get();
    return nullptr;
}

SubmitResult
JobManager::submit(const JobSpec &spec)
{
    std::unique_lock<std::mutex> lock(mu_);
    SubmitResult bad;
    if (spec.id.empty()) {
        bad.error = "job spec is missing an id";
        return bad;
    }
    if (find(spec.id)) {
        bad.error = "job '" + spec.id + "': duplicate id";
        return bad;
    }
    if (!knownModel(spec.model)) {
        bad.error = "job '" + spec.id + "': unknown model '" + spec.model +
                    "'";
        return bad;
    }
    jobs_.push_back(std::make_unique<Job>());
    Job &job = *jobs_.back();
    job.spec = spec;
    job.pending_build = true;
    job.build_resume = false;
    job.revert_state = JobState::Rejected;
    work_cv_.notify_all();
    cv_.wait(lock, [&] { return job.admission_done; });
    return job.admission;
}

bool
JobManager::pause(const std::string &id, std::string *err)
{
    std::unique_lock<std::mutex> lock(mu_);
    Job *job = find(id);
    if (!job)
        return apiFail(err, "no such job '" + id + "'");
    if (job->spec.checkpoint_path.empty())
        return apiFail(err, "job '" + id +
                                "': no checkpoint_path, cannot pause");
    if (job->state != JobState::Running)
        return apiFail(err, "job '" + id + "': cannot pause while " +
                                jobStateName(job->state));
    job->want_pause = true;
    work_cv_.notify_all();
    cv_.wait(lock, [&] { return job->state != JobState::Running; });
    if (job->state == JobState::Paused)
        return true;
    return apiFail(err, job->error.empty()
                            ? "job '" + id + "': pause did not land"
                            : job->error);
}

bool
JobManager::resume(const std::string &id, std::string *err)
{
    std::unique_lock<std::mutex> lock(mu_);
    Job *job = find(id);
    if (!job)
        return apiFail(err, "no such job '" + id + "'");
    if (job->spec.checkpoint_path.empty())
        return apiFail(err, "job '" + id +
                                "': no checkpoint_path, cannot resume");
    if (job->state != JobState::Paused && job->state != JobState::Failed)
        return apiFail(err, "job '" + id + "': cannot resume while " +
                                jobStateName(job->state));
    job->revert_state = job->state;
    job->state = JobState::Queued;
    job->pending_build = true;
    job->build_resume = true;
    job->admission_done = false;
    work_cv_.notify_all();
    cv_.wait(lock, [&] { return job->admission_done; });
    if (job->admission.admitted)
        return true;
    return apiFail(err, job->admission.error);
}

bool
JobManager::checkpoint(const std::string &id, std::string *err)
{
    std::unique_lock<std::mutex> lock(mu_);
    Job *job = find(id);
    if (!job)
        return apiFail(err, "no such job '" + id + "'");
    if (job->spec.checkpoint_path.empty())
        return apiFail(err, "job '" + id + "': no checkpoint_path");
    if (job->state != JobState::Running)
        return apiFail(err, "job '" + id + "': cannot checkpoint while " +
                                jobStateName(job->state));
    job->want_checkpoint = true;
    work_cv_.notify_all();
    cv_.wait(lock, [&] {
        return !job->want_checkpoint || job->state != JobState::Running;
    });
    if (job->state == JobState::Running || job->state == JobState::Done ||
        job->state == JobState::Paused)
        return true;
    return apiFail(err, job->error.empty()
                            ? "job '" + id + "': checkpoint did not land"
                            : job->error);
}

bool
JobManager::cancel(const std::string &id, std::string *err)
{
    std::unique_lock<std::mutex> lock(mu_);
    Job *job = find(id);
    if (!job)
        return apiFail(err, "no such job '" + id + "'");
    if (isTerminal(job->state))
        return apiFail(err, "job '" + id + "': cannot cancel while " +
                                jobStateName(job->state));
    if (job->state == JobState::Paused) {
        // No runtime is alive; the transition needs no scheduler help.
        job->state = JobState::Cancelled;
        cv_.notify_all();
        return true;
    }
    job->want_cancel = true;
    work_cv_.notify_all();
    cv_.wait(lock, [&] { return isTerminal(job->state); });
    return true;
}

JobStatus
JobManager::status(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const Job *job = find(id);
    if (!job)
        GIST_FATAL("no such job '", id, "'");
    JobStatus out;
    out.id = job->spec.id;
    out.state = job->state;
    out.step = job->step;
    out.epoch = job->epoch;
    out.modeled_peak_bytes = job->modeled_peak;
    out.error = job->error;
    out.records = job->records;
    return out;
}

std::vector<JobStatus>
JobManager::list() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<JobStatus> out;
    for (const auto &job : jobs_) {
        JobStatus st;
        st.id = job->spec.id;
        st.state = job->state;
        st.step = job->step;
        st.epoch = job->epoch;
        st.modeled_peak_bytes = job->modeled_peak;
        st.error = job->error;
        st.records = job->records;
        out.push_back(std::move(st));
    }
    return out;
}

void
JobManager::wait(const std::string &id)
{
    std::unique_lock<std::mutex> lock(mu_);
    Job *job = find(id);
    if (!job)
        GIST_FATAL("no such job '", id, "'");
    cv_.wait(lock, [&] {
        return job->state == JobState::Paused || isTerminal(job->state);
    });
}

void
JobManager::waitAll()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
        for (const auto &job : jobs_)
            if (job->state == JobState::Queued ||
                job->state == JobState::Running)
                return false;
        return true;
    });
}

std::uint64_t
JobManager::budgetUsedBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return budget_used_;
}

void
JobManager::releaseCharge(Job &job)
{
    if (!job.charged)
        return;
    GIST_ASSERT(budget_used_ >= job.modeled_peak,
                "admission bookkeeping underflow");
    budget_used_ -= job.modeled_peak;
    job.charged = false;
}

void
JobManager::teardown(Job &job, bool snapshot)
{
    if (!job.rt)
        return;
    if (snapshot)
        job.rt->loop->checkpointNow(); // may throw; caller handles
    const auto &recs = job.rt->loop->records();
    job.records.insert(job.records.end(), recs.begin(), recs.end());
    job.step = job.rt->loop->globalStep();
    job.epoch = job.rt->loop->epoch();
    job.rt.reset();
}

void
JobManager::buildJob(Job &job, std::unique_lock<std::mutex> &lock)
{
    job.pending_build = false;
    const JobSpec spec = job.spec;
    const bool resume = job.build_resume;
    lock.unlock();

    // Heavy modeling work runs unlocked; only this thread touches the
    // job's runtime, and the POD fields are written under the lock.
    std::string error;
    std::uint64_t peak = 0;
    try {
        peak = modeledPeakBytes(spec);
    } catch (const std::exception &e) {
        error = "job '" + spec.id + "': " + e.what();
    }

    lock.lock();
    std::uint64_t remaining =
        cfg_.global_budget_bytes > 0
            ? cfg_.global_budget_bytes - budget_used_
            : 0;
    if (error.empty() && cfg_.global_budget_bytes > 0 && peak > remaining)
        error = "job '" + spec.id + "': modeled peak " +
                std::to_string(peak) +
                " bytes exceeds remaining global budget " +
                std::to_string(remaining) + " of " +
                std::to_string(cfg_.global_budget_bytes) + " bytes";
    if (!error.empty()) {
        if (job.want_cancel) {
            job.want_cancel = false;
            job.state = JobState::Cancelled;
        } else {
            job.state = resume ? job.revert_state : JobState::Rejected;
        }
        if (!resume)
            job.error = error;
        job.modeled_peak = peak;
        job.admission.admitted = false;
        job.admission.error = error;
        job.admission.modeled_peak_bytes = peak;
        job.admission.budget_remaining_bytes = remaining;
        job.admission_done = true;
        cv_.notify_all();
        return;
    }
    budget_used_ += peak;
    job.modeled_peak = peak;
    job.charged = true;
    lock.unlock();

    std::unique_ptr<Runtime> rt;
    try {
        SyntheticDataset::Spec dspec;
        dspec.num_train = spec.num_train;
        dspec.num_eval = spec.num_eval;
        dspec.seed = spec.dataset_seed;
        rt = std::make_unique<Runtime>(dspec);
        rt->graph = buildModelGraph(spec);
        Rng rng(spec.seed);
        rt->graph.initParams(rng);
        const BuiltSchedule schedule = buildSchedule(rt->graph, spec.gist);
        rt->exec = std::make_unique<Executor>(rt->graph);
        rt->exec->setJobTag(spec.id);
        applyToExecutor(schedule, *rt->exec);
        rt->trainer = std::make_unique<Trainer>(*rt->exec);
        TrainConfig tc;
        tc.batch_size = spec.batch_size;
        tc.epochs = spec.epochs;
        tc.learning_rate = spec.learning_rate;
        tc.momentum = spec.momentum;
        tc.lr_decay = spec.lr_decay;
        tc.lr_decay_epochs = spec.lr_decay_epochs;
        tc.num_threads = 0; // jobs share the process pool as-is
        tc.metrics_path = spec.metrics_path;
        tc.checkpoint_path = spec.checkpoint_path;
        tc.checkpoint_every_steps = spec.checkpoint_every_steps;
        tc.resume = resume;
        tc.max_steps = spec.max_steps;
        tc.sink = &rt->sink;
        tc.job_id = spec.id;
        rt->loop = std::make_unique<TrainLoop>(*rt->trainer, rt->data, tc);
    } catch (const std::exception &e) {
        rt.reset();
        lock.lock();
        releaseCharge(job);
        job.state = JobState::Failed;
        job.error = "job '" + spec.id + "': " + e.what();
        job.admission.admitted = false;
        job.admission.error = job.error;
        job.admission_done = true;
        cv_.notify_all();
        return;
    }

    lock.lock();
    job.rt = std::move(rt);
    job.step = job.rt->loop->globalStep();
    job.epoch = job.rt->loop->epoch();
    if (job.want_cancel) {
        job.want_cancel = false;
        job.rt.reset();
        releaseCharge(job);
        job.state = JobState::Cancelled;
    } else {
        job.state = JobState::Running;
    }
    job.admission.admitted = true;
    job.admission.error.clear();
    job.admission.modeled_peak_bytes = job.modeled_peak;
    job.admission.budget_remaining_bytes =
        cfg_.global_budget_bytes > 0
            ? cfg_.global_budget_bytes - budget_used_
            : 0;
    job.admission_done = true;
    cv_.notify_all();
}

void
JobManager::stepJob(Job &job, std::unique_lock<std::mutex> &lock)
{
    Runtime *rt = job.rt.get();
    const int quantum = cfg_.steps_per_turn > 0 ? cfg_.steps_per_turn : 1;
    lock.unlock();

    std::string error;
    bool done = false;
    try {
        for (int i = 0; i < quantum && !done; ++i)
            done = !rt->loop->step();
        if (done)
            rt->loop->finish(); // end-of-run snapshot may throw
    } catch (const std::exception &e) {
        error = e.what();
    }

    lock.lock();
    job.step = rt->loop->globalStep();
    job.epoch = rt->loop->epoch();
    if (!error.empty()) {
        job.error = "job '" + job.spec.id + "': " + error;
        teardown(job, /*snapshot=*/false);
        releaseCharge(job);
        job.state = JobState::Failed;
        cv_.notify_all();
    } else if (done) {
        teardown(job, /*snapshot=*/false); // finish() already snapshotted
        releaseCharge(job);
        job.state = JobState::Done;
        cv_.notify_all();
    }
}

JobManager::Job *
JobManager::pickRunnable()
{
    const size_t n = jobs_.size();
    for (size_t k = 0; k < n; ++k) {
        const size_t i = (rr_cursor_ + k) % n;
        Job &job = *jobs_[i];
        if (job.state == JobState::Running && job.rt && !job.want_pause &&
            !job.want_cancel && !job.want_checkpoint) {
            rr_cursor_ = i + 1;
            return &job;
        }
    }
    return nullptr;
}

void
JobManager::schedulerMain()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
        bool worked = false;

        // 1. Runtime builds (new submissions and resume requests), in
        //    submission order. jobs_ can grow while we run unlocked, so
        //    index rather than iterate.
        for (size_t i = 0; i < jobs_.size(); ++i) {
            if (stop_)
                break;
            if (jobs_[i]->pending_build) {
                buildJob(*jobs_[i], lock);
                worked = true;
            }
        }

        // 2. Lifecycle commands, applied between steps.
        for (size_t i = 0; i < jobs_.size() && !stop_; ++i) {
            Job &job = *jobs_[i];
            if (job.want_cancel && !isTerminal(job.state) &&
                !job.pending_build) {
                job.want_cancel = false;
                teardown(job, /*snapshot=*/false);
                releaseCharge(job);
                job.state = JobState::Cancelled;
                cv_.notify_all();
                worked = true;
            } else if (job.want_pause && job.state == JobState::Running) {
                job.want_pause = false;
                try {
                    teardown(job, /*snapshot=*/true);
                    releaseCharge(job);
                    job.state = JobState::Paused;
                } catch (const std::exception &e) {
                    job.error = "job '" + job.spec.id + "': " + e.what();
                    teardown(job, /*snapshot=*/false);
                    releaseCharge(job);
                    job.state = JobState::Failed;
                }
                cv_.notify_all();
                worked = true;
            } else if (job.want_checkpoint &&
                       job.state == JobState::Running) {
                job.want_checkpoint = false;
                try {
                    job.rt->loop->checkpointNow();
                } catch (const std::exception &e) {
                    job.error = "job '" + job.spec.id + "': " + e.what();
                    teardown(job, /*snapshot=*/false);
                    releaseCharge(job);
                    job.state = JobState::Failed;
                }
                cv_.notify_all();
                worked = true;
            } else if (job.want_pause || job.want_checkpoint) {
                // Requested in a state the verb cannot act on anymore
                // (e.g. the job finished first); drop the request so
                // the waiter's predicate can settle.
                job.want_pause = false;
                job.want_checkpoint = false;
                cv_.notify_all();
            }
        }

        // 3. One round-robin turn.
        if (!stop_) {
            if (Job *job = pickRunnable()) {
                stepJob(*job, lock);
                worked = true;
            }
        }

        if (!worked && !stop_) {
            work_cv_.wait(lock, [&] {
                if (stop_)
                    return true;
                for (const auto &job : jobs_)
                    if (job->pending_build || job->want_pause ||
                        job->want_cancel || job->want_checkpoint ||
                        job->state == JobState::Running)
                        return true;
                return false;
            });
        }
    }
}

} // namespace gist::serve
