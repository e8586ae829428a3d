/**
 * @file
 * Weight-checkpoint tests: round trip, resume-equivalence, and the
 * structure-mismatch guards.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/gist.hpp"
#include "models/tiny.hpp"
#include "obs/metrics.hpp"
#include "train/checkpoint.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

std::vector<float>
flatWeights(Graph &g)
{
    std::vector<float> out;
    for (auto &node : g.nodes())
        if (node.layer)
            for (Tensor *p : node.layer->params())
                out.insert(out.end(), p->data(), p->data() + p->numel());
    return out;
}

/** Params + model state (batchnorm running stats), flattened. */
std::vector<float>
flatModel(Graph &g)
{
    std::vector<float> out = flatWeights(g);
    for (auto &node : g.nodes())
        if (node.layer)
            for (Tensor *t : node.layer->stateTensors())
                out.insert(out.end(), t->data(), t->data() + t->numel());
    return out;
}

TEST(Checkpoint, RoundTripIsBitExact)
{
    Graph a = models::tinyVgg(4);
    Rng rng(11);
    a.initParams(rng);
    const auto path = tempPath("ckpt_roundtrip.bin");
    saveWeights(a, path);

    Graph b = models::tinyVgg(4);
    Rng rng2(99); // different init, will be overwritten
    b.initParams(rng2);
    loadWeights(b, path);
    EXPECT_EQ(flatWeights(a), flatWeights(b));
    std::remove(path.c_str());
}

/**
 * The tentpole guarantee: training N steps straight through and
 * training k steps, "crashing", and resuming from the checkpoint must
 * produce bit-identical final weights (and batchnorm state). Exercised
 * mid-epoch and at an exact epoch boundary, with LR decay active and
 * dropout in the model so the RNG-stream and LR-schedule sections are
 * all load-bearing.
 */
void
expectBitwiseResume(Graph (*model)(std::int64_t, std::int64_t),
                    const GistConfig &gist, std::int64_t interrupt_step,
                    const char *tag)
{
    SyntheticDataset::Spec spec;
    spec.num_train = 64;
    spec.num_eval = 32;
    SyntheticDataset data(spec);

    TrainConfig tc;
    tc.batch_size = 16;
    tc.epochs = 3;
    tc.lr_decay = 0.5f;
    tc.lr_decay_epochs = 1;

    // Uninterrupted reference run.
    Graph a = model(16, 8);
    Rng rng_a(5);
    a.initParams(rng_a);
    Executor exec_a(a);
    applyToExecutor(buildSchedule(a, gist), exec_a);
    Trainer trainer_a(exec_a);
    const auto straight = trainer_a.run(data, tc);

    // Same init, interrupted at step k with a checkpoint.
    const auto path = tempPath(tag);
    Graph b = model(16, 8);
    Rng rng_b(5);
    b.initParams(rng_b);
    Executor exec_b(b);
    applyToExecutor(buildSchedule(b, gist), exec_b);
    Trainer trainer_b(exec_b);
    TrainConfig tc_cut = tc;
    tc_cut.checkpoint_path = path;
    tc_cut.max_steps = interrupt_step;
    trainer_b.run(data, tc_cut);

    // Different init: everything must come from the checkpoint.
    Graph c = model(16, 8);
    Rng rng_c(99);
    c.initParams(rng_c);
    Executor exec_c(c);
    applyToExecutor(buildSchedule(c, gist), exec_c);
    Trainer trainer_c(exec_c);
    TrainConfig tc_resume = tc;
    tc_resume.checkpoint_path = path;
    tc_resume.resume = true;
    const auto resumed = trainer_c.run(data, tc_resume);

    EXPECT_EQ(flatModel(a), flatModel(c)) << tag;
    // The final epoch ran fully on both sides: its record must match
    // bit for bit too.
    ASSERT_FALSE(straight.empty());
    ASSERT_FALSE(resumed.empty());
    EXPECT_EQ(straight.back().mean_loss, resumed.back().mean_loss) << tag;
    EXPECT_EQ(straight.back().eval_accuracy, resumed.back().eval_accuracy)
        << tag;
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeMidEpochIsBitwiseIdentical)
{
    expectBitwiseResume(models::tinyAlexnet, GistConfig::baseline(), 5,
                        "ckpt_resume_mid.bin");
}

TEST(Checkpoint, ResumeAtEpochBoundaryIsBitwiseIdentical)
{
    expectBitwiseResume(models::tinyAlexnet, GistConfig::baseline(), 8,
                        "ckpt_resume_boundary.bin");
}

TEST(Checkpoint, ResumeWithGistEncodingsIsBitwiseIdentical)
{
    expectBitwiseResume(models::tinyAlexnet, GistConfig::lossless(), 5,
                        "ckpt_resume_gist.bin");
}

TEST(Checkpoint, ResumeRestoresBatchnormRunningStats)
{
    expectBitwiseResume(models::tinyResnet, GistConfig::baseline(), 5,
                        "ckpt_resume_bn.bin");
}

TEST(Checkpoint, ResumeAppendsMetricsHistory)
{
    SyntheticDataset::Spec spec;
    spec.num_train = 64;
    spec.num_eval = 32;
    SyntheticDataset data(spec);
    const auto ckpt = tempPath("ckpt_metrics.bin");
    const auto metrics = tempPath("ckpt_metrics.jsonl");

    TrainConfig tc;
    tc.batch_size = 16;
    tc.epochs = 3;
    tc.checkpoint_path = ckpt;
    tc.metrics_path = metrics;

    Graph a = models::tinyAlexnet(16, 8);
    Rng rng(5);
    a.initParams(rng);
    Executor exec_a(a);
    applyToExecutor(buildSchedule(a, GistConfig::baseline()), exec_a);
    Trainer trainer_a(exec_a);
    TrainConfig tc_cut = tc;
    tc_cut.max_steps = 5;
    trainer_a.run(data, tc_cut);

    Graph b = models::tinyAlexnet(16, 8);
    Rng rng2(7);
    b.initParams(rng2);
    Executor exec_b(b);
    applyToExecutor(buildSchedule(b, GistConfig::baseline()), exec_b);
    Trainer trainer_b(exec_b);
    TrainConfig tc_resume = tc;
    tc_resume.resume = true;
    trainer_b.run(data, tc_resume);
    obs::metricsClose();

    // The resumed run must extend, not clobber, the metrics file: 5
    // pre-interruption step records plus 7 post-resume ones.
    std::ifstream in(metrics);
    ASSERT_TRUE(in.good());
    std::string line;
    int step_records = 0;
    std::string last_step_line;
    while (std::getline(in, line))
        if (line.find("\"type\":\"step\"") != std::string::npos) {
            ++step_records;
            last_step_line = line;
        }
    EXPECT_EQ(step_records, 12);
    EXPECT_NE(last_step_line.find("\"step\":12"), std::string::npos)
        << last_step_line;
    std::remove(ckpt.c_str());
    std::remove(metrics.c_str());
}

TEST(Checkpoint, RejectsWrongStructure)
{
    Graph a = models::tinyVgg(4);
    Rng rng(1);
    a.initParams(rng);
    const auto path = tempPath("ckpt_mismatch.bin");
    saveWeights(a, path);

    Graph b = models::tinyAlexnet(4);
    Rng rng2(2);
    b.initParams(rng2);
    EXPECT_EXIT(loadWeights(b, path),
                ::testing::ExitedWithCode(1), "");
    std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbageFiles)
{
    const auto path = tempPath("ckpt_garbage.bin");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fputs("not a checkpoint", f);
        std::fclose(f);
    }
    Graph g = models::tinyVgg(4);
    Rng rng(1);
    g.initParams(rng);
    EXPECT_EXIT(loadWeights(g, path),
                ::testing::ExitedWithCode(1), "");
    std::remove(path.c_str());
}

TEST(Profiler, RecordsLayerTimes)
{
    Graph g = models::tinyVgg(8);
    Rng rng(3);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(buildSchedule(g, GistConfig::baseline()), exec);
    exec.setProfile(true);

    Rng drng(4);
    Tensor batch = Tensor::uniform(g.node(0).out_shape, drng, 0.0f,
                                   1.0f);
    std::vector<std::int32_t> labels(8, 0);
    exec.runMinibatch(batch, labels);

    double total_fwd = 0.0;
    for (const auto &node : g.nodes())
        if (node.kind() != LayerKind::Input) {
            EXPECT_GE(exec.lastFwdSeconds(node.id), 0.0);
            total_fwd += exec.lastFwdSeconds(node.id);
        }
    EXPECT_GT(total_fwd, 0.0);
}

TEST(MemoryTrace, CoversEveryScheduleStepAndEndsEmpty)
{
    Graph g = models::tinyAlexnet(8);
    Rng rng(3);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(buildSchedule(g, GistConfig::lossless()), exec);

    Rng drng(4);
    Tensor batch = Tensor::uniform(g.node(0).out_shape, drng, 0.0f,
                                   1.0f);
    std::vector<std::int32_t> labels(8, 1);
    exec.runMinibatch(batch, labels);

    const auto &trace = exec.memoryTrace();
    // One entry per forward step plus one per non-input backward step.
    std::int64_t inputs = 0;
    for (const auto &node : g.nodes())
        inputs += (node.kind() == LayerKind::Input);
    EXPECT_EQ(static_cast<std::int64_t>(trace.size()),
              2 * g.numNodes() - inputs);
    // The peak the meter reports appears in (or above) the trace...
    std::uint64_t max_in_trace = 0;
    for (const MemoryTracePoint &point : trace)
        max_in_trace = std::max(max_in_trace, point.bytes);
    EXPECT_LE(max_in_trace, exec.stats().peak_pool_bytes);
    EXPECT_GT(max_in_trace, 0u);
    // ...and at the end of the minibatch nearly everything is released
    // (the loss layer keeps its tiny probability stash).
    EXPECT_LT(trace.back().bytes, exec.stats().peak_pool_bytes / 10);
}

} // namespace
} // namespace gist
