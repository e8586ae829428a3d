/**
 * @file
 * Shared helpers for the training-service tests (test_job_manager,
 * test_serve_fuzz, test_serve_faults): a solo-run twin of the
 * JobManager's runtime build — the same spec-to-TrainConfig mapping and
 * the same seeds, run uninterrupted on the calling thread — whose
 * checkpoint bytes and epoch records are the bitwise reference every
 * concurrent/paused/resumed service run must reproduce, plus tiny
 * job-spec factories and comparison utilities.
 *
 * The comparison mechanism is the v2 checkpoint file: its sections hold
 * only training state (weights, batchnorm, RNG streams, momentum,
 * cursor, LR schedule), so two runs of the same spec are equivalent iff
 * their end-of-run checkpoint files are byte-identical. This is what
 * lets the tests compare jobs whose runtimes the JobManager already
 * tore down.
 */

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/gist.hpp"
#include "fuzz_util.hpp"
#include "graph/executor.hpp"
#include "serve/job.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace gist {
namespace servetest {

inline std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + name;
}

/**
 * Point @p spec's output files at per-variant temp paths so a solo
 * reference run and a service run of the same spec never collide.
 */
inline serve::JobSpec
retarget(serve::JobSpec spec, const std::string &suffix)
{
    spec.checkpoint_path = tempPath(spec.id + suffix + ".ckpt");
    if (!spec.gist.tier_path.empty())
        spec.gist.tier_path = tempPath(spec.id + suffix + "_tier");
    return spec;
}

/** What one spec's uninterrupted solo run produced. */
struct SoloRun
{
    std::vector<EpochRecord> records;
    std::vector<std::uint8_t> ckpt_bytes;
};

/**
 * Run @p spec exactly as JobManager::buildJob + the scheduler would —
 * same dataset spec, same param-init RNG, same schedule, same
 * TrainConfig mapping — but solo and uninterrupted. The checkpoint the
 * run leaves behind is the bitwise ground truth for that spec.
 */
inline SoloRun
runSolo(const serve::JobSpec &spec)
{
    SyntheticDataset::Spec dspec;
    dspec.num_train = spec.num_train;
    dspec.num_eval = spec.num_eval;
    dspec.seed = spec.dataset_seed;
    SyntheticDataset data(dspec);
    Graph graph = serve::buildModelGraph(spec);
    Rng rng(spec.seed);
    graph.initParams(rng);
    const BuiltSchedule schedule = buildSchedule(graph, spec.gist);
    Executor exec(graph);
    applyToExecutor(schedule, exec);
    Trainer trainer(exec);
    TrainConfig tc;
    tc.batch_size = spec.batch_size;
    tc.epochs = spec.epochs;
    tc.learning_rate = spec.learning_rate;
    tc.momentum = spec.momentum;
    tc.lr_decay = spec.lr_decay;
    tc.lr_decay_epochs = spec.lr_decay_epochs;
    tc.num_threads = 0;
    tc.checkpoint_path = spec.checkpoint_path;
    tc.checkpoint_every_steps = spec.checkpoint_every_steps;
    tc.max_steps = spec.max_steps;
    SoloRun out;
    out.records = trainer.run(data, tc);
    if (!spec.checkpoint_path.empty())
        out.ckpt_bytes = fuzz::readBytes(spec.checkpoint_path);
    return out;
}

/**
 * A small job spec (4 steps per epoch) the service finishes in well
 * under a second; the per-seed dataset/init seeds make distinct fleets
 * across fuzz cases.
 */
inline serve::JobSpec
tinySpec(const std::string &id, const std::string &model,
         std::uint64_t seed)
{
    serve::JobSpec spec;
    spec.id = id;
    spec.model = model;
    spec.batch_size = 4;
    spec.num_train = 16;
    spec.num_eval = 8;
    spec.epochs = 2;
    spec.seed = seed;
    spec.dataset_seed = seed * 1000 + 7;
    return spec;
}

/**
 * The mixed four-job fleet the concurrency tests interleave: plain
 * baseline, lossless Gist, lossy Gist under a hybrid memory budget, and
 * a device-pool job whose working set exceeds the cap (memory tier).
 */
inline std::vector<serve::JobSpec>
mixedFleet(std::uint64_t seed)
{
    std::vector<serve::JobSpec> fleet;
    fleet.push_back(tinySpec("base-alex", "alexnet", seed));

    serve::JobSpec gist = tinySpec("gist-nin", "nin", seed + 1);
    gist.gist = GistConfig::lossless();
    fleet.push_back(gist);

    serve::JobSpec lossy = tinySpec("lossy-vgg", "vgg16", seed + 2);
    lossy.gist = GistConfig::lossy(DprFormat::Fp16);
    lossy.gist.mem_budget_bytes = 2ull << 20;
    fleet.push_back(lossy);

    serve::JobSpec pool = tinySpec("pool-overfeat", "overfeat", seed + 3);
    pool.gist = GistConfig::lossless();
    pool.gist.device_pool_bytes = 64 * 1024;
    fleet.push_back(pool);
    return fleet;
}

/** "" when the record sequences match exactly, else a description. */
inline std::string
compareRecords(const std::vector<EpochRecord> &want,
               const std::vector<EpochRecord> &got)
{
    std::ostringstream oss;
    if (want.size() != got.size()) {
        oss << "epoch record count " << got.size() << " != " << want.size();
        return oss.str();
    }
    for (size_t i = 0; i < want.size(); ++i) {
        if (want[i].epoch != got[i].epoch ||
            want[i].mean_loss != got[i].mean_loss ||
            want[i].eval_accuracy != got[i].eval_accuracy) {
            oss << "epoch record " << i << " differs: epoch "
                << got[i].epoch << "/" << want[i].epoch << " loss "
                << got[i].mean_loss << "/" << want[i].mean_loss << " acc "
                << got[i].eval_accuracy << "/" << want[i].eval_accuracy;
            return oss.str();
        }
    }
    return "";
}

} // namespace servetest
} // namespace gist
