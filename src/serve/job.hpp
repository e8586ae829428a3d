/**
 * @file
 * Job descriptions for the multi-tenant training service: what one
 * tenant asked to train (model, dataset, hyperparameters, Gist
 * encoding config, lifecycle file paths), the job state machine, and
 * the JSONL job-spec parser the gist_serve driver feeds from.
 *
 * A JobSpec is everything needed to build a fully self-contained run:
 * the JobManager derives a per-job dataset, graph, executor, metrics
 * sink and train loop from it, so concurrent jobs
 * share nothing but the process thread pool.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "train/trainer.hpp"
#include "util/jsonin.hpp"

namespace gist::serve {

/**
 * Lifecycle states of a job.
 *
 *     Queued -> Running -> Done
 *                |  ^  \-> Failed  (resumable when checkpointed)
 *                v  |
 *              Paused -> Cancelled
 *
 * Queued covers both a fresh submission and a paused job whose resume
 * was requested; Running means the scheduler is stepping it. Paused
 * jobs hold no memory: pause snapshots to the job's checkpoint file
 * and tears the runtime down, so resume is a rebuild + bitwise
 * restore. Cancel is valid from any non-terminal state. Done, Failed,
 * Cancelled and Rejected are terminal (Failed jobs may be resumed from
 * their last good checkpoint, which re-enters Queued).
 */
enum class JobState {
    Queued,
    Running,
    Paused,
    Done,
    Failed,
    Cancelled,
    Rejected,
};

/** Human-readable state name ("queued", "running", ...). */
const char *jobStateName(JobState state);

/** One tenant's training request. */
struct JobSpec
{
    /** Unique job id; required, duplicates are rejected at submit. */
    std::string id;
    /** Tiny-model zoo name (models::tinyModels()): "alexnet", ... */
    std::string model = "alexnet";
    std::int64_t batch_size = 8;
    int epochs = 1;
    /** Stop after this many global minibatches (0 = epochs govern). */
    std::int64_t max_steps = 0;
    /** Parameter-init RNG seed. */
    std::uint64_t seed = 1;
    /** Synthetic dataset seed + split sizes. */
    std::uint64_t dataset_seed = 42;
    std::int64_t num_train = 64;
    std::int64_t num_eval = 32;
    float learning_rate = 0.05f;
    float momentum = 0.9f;
    float lr_decay = 1.0f;
    int lr_decay_epochs = 1;
    /**
     * Checkpoint file; required for pause/resume (pause snapshots here
     * and tears down). Written every checkpoint_every_steps steps and
     * at the end of the run, like Trainer.
     */
    std::string checkpoint_path;
    std::int64_t checkpoint_every_steps = 0;
    /** Per-job step/epoch metrics JSONL ("" = no metrics file). */
    std::string metrics_path;
    /** Gist encoding / memory configuration for this job. */
    GistConfig gist = GistConfig::baseline();
};

/**
 * Parse one job-spec JSON object (one line of the gist_serve JSONL
 * input). Recognized members — all optional except "id":
 *
 *   id, model, batch_size, epochs, max_steps, seed, dataset_seed,
 *   num_train, num_eval, lr, momentum, lr_decay, lr_decay_epochs,
 *   checkpoint, checkpoint_every_steps, metrics,
 *   mode ("baseline" | "lossless" | "lossy"),
 *   dpr_format ("fp32" | "fp16" | "fp10" | "fp8"),
 *   mem_budget, device_pool (byte sizes: number or "64m" string),
 *   tier_path, tier_gbps, async (bool), codec_threads
 *
 * Returns false and sets @p err on malformed input (unparseable JSON,
 * missing id, unknown model/mode/format).
 */
bool parseJobSpec(const std::string &json_line, JobSpec &spec,
                  std::string *err);

/** parseJobSpec over an already-parsed object. */
bool parseJobSpec(const JsonValue &obj, JobSpec &spec, std::string *err);

/** Whether @p name names a tiny-zoo model (case-insensitive). */
bool knownModel(const std::string &name);

/**
 * Build @p spec's model graph (uninitialized parameters). The spec's
 * model name must be valid (parseJobSpec enforces this).
 */
Graph buildModelGraph(const JobSpec &spec);

/**
 * The planner-modeled peak feature-map-pool bytes of @p spec: the
 * hybrid planner's planned_peak_bytes when the spec sets a memory
 * budget, else the dynamic-sharing pool peak of the static Table I
 * schedule. This is the number admission control charges against the
 * service's global budget. Builds (and discards) the model graph.
 */
std::uint64_t modeledPeakBytes(const JobSpec &spec);

/** A point-in-time public view of one job. */
struct JobStatus
{
    std::string id;
    JobState state = JobState::Queued;
    /** Global step count (continues across pause/resume). */
    std::int64_t step = 0;
    int epoch = 0;
    /** What admission control charged for this job. */
    std::uint64_t modeled_peak_bytes = 0;
    /** Failure reason (Failed/Rejected), "" otherwise. */
    std::string error;
    /** Epoch records completed so far (across pause/resume cycles). */
    std::vector<EpochRecord> records;
};

} // namespace gist::serve
