/**
 * @file
 * Schedule Builder tests: mode flips, representation assignment, the
 * inplace-ReLU rule, config factories, and reconfigurability.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/gist.hpp"
#include "layers/layers.hpp"
#include "models/builder.hpp"
#include "models/tiny.hpp"

namespace gist {
namespace {

Graph
vggBlock()
{
    NetBuilder net(2, 3, 8, 8);
    net.conv(4, 3, 1, 1, "conv1");
    net.relu("relu1"); // ReluConv (feeds conv2)
    net.conv(4, 3, 1, 1, "conv2");
    net.relu("relu2"); // ReluPool
    net.maxpool(2, 2, 0, "pool1");
    net.fc(3, "fc");
    net.loss(3);
    return net.take();
}

NodeId
findNode(const Graph &g, const std::string &name)
{
    for (const auto &node : g.nodes())
        if (node.name == name)
            return node.id;
    ADD_FAILURE() << "node " << name << " not found";
    return -1;
}

TEST(ScheduleBuilder, BinarizeFlipsReluAndPoolModes)
{
    Graph g = vggBlock();
    buildSchedule(g, GistConfig::lossless());

    const auto *relu2 = dynamic_cast<ReluLayer *>(
        g.node(findNode(g, "relu2")).layer.get());
    const auto *pool = dynamic_cast<MaxPoolLayer *>(
        g.node(findNode(g, "pool1")).layer.get());
    EXPECT_EQ(relu2->stashMode(), ReluLayer::StashMode::Mask);
    EXPECT_EQ(pool->stashMode(), MaxPoolLayer::StashMode::IndexMap);

    const auto *relu1 = dynamic_cast<ReluLayer *>(
        g.node(findNode(g, "relu1")).layer.get());
    EXPECT_EQ(relu1->stashMode(), ReluLayer::StashMode::Dense);
}

TEST(ScheduleBuilder, ReprAssignment)
{
    Graph g = vggBlock();
    const auto schedule =
        buildSchedule(g, GistConfig::lossy(DprFormat::Fp16));

    // relu1 feeds conv2: SSDC.
    EXPECT_EQ(schedule.of(findNode(g, "relu1")).repr,
              StashPlan::Repr::Csr);
    // relu2 is binarized: its output is no longer stashed at all.
    const auto &relu2 = schedule.of(findNode(g, "relu2"));
    EXPECT_TRUE(relu2.binarized);
    EXPECT_EQ(relu2.repr, StashPlan::Repr::Dense);
    // pool1 output feeds fc (needs X): Other -> DPR.
    EXPECT_EQ(schedule.of(findNode(g, "pool1")).repr,
              StashPlan::Repr::Dpr);
    // the input image feeds conv1 (needs X): Other -> DPR.
    EXPECT_EQ(schedule.of(0).repr, StashPlan::Repr::Dpr);
}

TEST(ScheduleBuilder, LosslessConfigNeverAssignsDpr)
{
    Graph g = models::tinyVgg(2);
    const auto schedule = buildSchedule(g, GistConfig::lossless());
    for (const auto &d : schedule.decisions)
        EXPECT_NE(d.repr, StashPlan::Repr::Dpr);
}

TEST(ScheduleBuilder, BaselineConfigIsAllDense)
{
    Graph g = models::tinyVgg(2);
    const auto schedule = buildSchedule(g, GistConfig::baseline());
    for (const auto &d : schedule.decisions) {
        EXPECT_EQ(d.repr, StashPlan::Repr::Dense);
        EXPECT_FALSE(d.binarized);
        EXPECT_FALSE(d.inplace);
    }
}

TEST(ScheduleBuilder, InplaceMarksConvReluPairs)
{
    Graph g = vggBlock();
    const auto schedule = buildSchedule(g, GistConfig::lossless());
    // conv outputs are immediately consumed, single-consumer: both relus
    // can overwrite them.
    EXPECT_TRUE(schedule.of(findNode(g, "relu1")).inplace);
    EXPECT_TRUE(schedule.of(findNode(g, "relu2")).inplace);
}

TEST(ScheduleBuilder, NoInplaceWhenProducerIsStashed)
{
    // conv -> bn -> relu: BN needs its input X (the conv output), so
    // the BN output is inplace-able but the conv output is not... and
    // the relu consumes the BN output, which is immediate. Check both.
    NetBuilder net(2, 3, 8, 8);
    net.conv(4, 3, 1, 1, "conv1");
    net.batchnorm("bn1");
    net.relu("relu1");
    net.fc(3);
    net.loss(3);
    Graph g = net.take();
    const auto schedule = buildSchedule(g, GistConfig::lossless());
    // relu's producer is bn whose output is immediate: inplace OK.
    EXPECT_TRUE(schedule.of(findNode(g, "relu1")).inplace);
}

TEST(ScheduleBuilder, NoInplaceOverBranchingProducer)
{
    NetBuilder net(2, 3, 8, 8);
    net.conv(4, 3, 1, 1, "conv1");
    const NodeId conv = net.tip();
    const NodeId relu = net.reluAt(conv, "relu1");
    const NodeId pool = net.maxpoolAt(conv, 2, 2); // second consumer
    net.setTip(relu);
    net.maxpool(2, 2);
    net.add(pool);
    net.fc(3);
    net.loss(3);
    Graph g = net.take();
    const auto schedule = buildSchedule(g, GistConfig::lossless());
    EXPECT_FALSE(schedule.of(relu).inplace);
}

TEST(ScheduleBuilder, NoInplaceOverGraphInput)
{
    NetBuilder net(2, 3, 8, 8);
    net.relu("relu0"); // directly on the input
    net.conv(4, 3, 1, 1);
    net.fc(3);
    net.loss(3);
    Graph g = net.take();
    const auto schedule = buildSchedule(g, GistConfig::lossless());
    EXPECT_FALSE(schedule.of(findNode(g, "relu0")).inplace);
}

TEST(ScheduleBuilder, ReconfigurationResetsModes)
{
    Graph g = vggBlock();
    buildSchedule(g, GistConfig::lossless());
    const auto *relu2 = dynamic_cast<ReluLayer *>(
        g.node(findNode(g, "relu2")).layer.get());
    EXPECT_EQ(relu2->stashMode(), ReluLayer::StashMode::Mask);

    buildSchedule(g, GistConfig::baseline());
    EXPECT_EQ(relu2->stashMode(), ReluLayer::StashMode::Dense);
}

TEST(ScheduleBuilder, SsdcWithoutBinarizeStillCsrsReluConv)
{
    Graph g = vggBlock();
    GistConfig cfg;
    cfg.ssdc = true;
    const auto schedule = buildSchedule(g, cfg);
    EXPECT_EQ(schedule.of(findNode(g, "relu1")).repr,
              StashPlan::Repr::Csr);
    // relu2 stays dense-stashed (no binarize, no dpr).
    EXPECT_EQ(schedule.of(findNode(g, "relu2")).repr,
              StashPlan::Repr::Dense);
    EXPECT_FALSE(schedule.of(findNode(g, "relu2")).binarized);
}

TEST(ScheduleBuilder, DprOnlyConfigCoversAllStashes)
{
    Graph g = vggBlock();
    GistConfig cfg;
    cfg.dpr = true;
    cfg.dpr_format = DprFormat::Fp10;
    const auto schedule = buildSchedule(g, cfg);
    const ScheduleInfo sched(g);
    for (const auto &node : g.nodes()) {
        if (sched.stashed(node.id)) {
            EXPECT_EQ(schedule.of(node.id).repr, StashPlan::Repr::Dpr)
                << node.name;
        }
    }
}

TEST(GistConfig, Factories)
{
    const auto base = GistConfig::baseline();
    EXPECT_FALSE(base.binarize || base.ssdc || base.dpr ||
                 base.inplace_relu);

    const auto lossless = GistConfig::lossless();
    EXPECT_TRUE(lossless.binarize && lossless.ssdc &&
                lossless.inplace_relu);
    EXPECT_FALSE(lossless.dpr);

    const auto lossy = GistConfig::lossy(DprFormat::Fp8);
    EXPECT_TRUE(lossy.dpr);
    EXPECT_EQ(lossy.dpr_format, DprFormat::Fp8);
    // DPR-over-SSDC: the CSR values array is compressed too.
    EXPECT_EQ(lossy.csr.value_format, DprFormat::Fp8);
}

/** Saves the GIST_* overrides resolveConfig() reads; restores them on
 *  scope exit so the rest of the suite sees the environment it ran in. */
class OverrideEnvGuard
{
  public:
    static constexpr const char *kNames[] = {
        "GIST_MEM_BUDGET", "GIST_DEVICE_POOL", "GIST_TIER_PATH",
        "GIST_TIER_GBPS",  "GIST_ASYNC",       "GIST_CODEC_THREADS"
    };

    OverrideEnvGuard()
    {
        for (const char *name : kNames) {
            const char *v = std::getenv(name);
            saved_.push_back(v ? std::optional<std::string>(v)
                               : std::nullopt);
        }
    }
    ~OverrideEnvGuard()
    {
        for (size_t i = 0; i < saved_.size(); ++i) {
            if (saved_[i])
                setenv(kNames[i], saved_[i]->c_str(), 1);
            else
                unsetenv(kNames[i]);
        }
    }

  private:
    std::vector<std::optional<std::string>> saved_;
};

TEST(Config, ResolveConfigAppliesEachOverrideOnce)
{
    OverrideEnvGuard guard;
    const std::string tier_dir = ::testing::TempDir();
    setenv("GIST_MEM_BUDGET", "1g", 1);
    setenv("GIST_DEVICE_POOL", "256k", 1);
    setenv("GIST_TIER_PATH", tier_dir.c_str(), 1);
    setenv("GIST_TIER_GBPS", "2.5", 1);
    setenv("GIST_ASYNC", "1", 1);
    setenv("GIST_CODEC_THREADS", "3", 1);

    GistConfig cfg = GistConfig::lossless();
    cfg.mem_budget_bytes = 123;
    cfg.device_pool_bytes = 456;
    cfg.tier_path = "config_tier";
    cfg.tier_bandwidth_bytes_per_s = 1e6;
    cfg.codec_threads = 2;
    // The environment wins for budget, pool, tier path, tier GB/s,
    // async and codec threads.
    const GistConfig r = resolveConfig(cfg);
    EXPECT_EQ(r.mem_budget_bytes, std::uint64_t{ 1 } << 30);
    EXPECT_EQ(r.device_pool_bytes, 256u * 1024);
    EXPECT_EQ(r.tier_path, tier_dir);
    EXPECT_DOUBLE_EQ(r.tier_bandwidth_bytes_per_s, 2.5e9);
    EXPECT_TRUE(r.async_codec);
    EXPECT_EQ(r.codec_threads, 3);
    // A bad codec thread count warns and keeps the config's.
    setenv("GIST_CODEC_THREADS", "0", 1);
    EXPECT_EQ(resolveConfig(cfg).codec_threads, 2);
    setenv("GIST_CODEC_THREADS", "3", 1);

    // buildSchedule resolves once and keeps the effective config; the
    // planner plans against the resolved budget and pool cap.
    Graph g = vggBlock();
    const BuiltSchedule built = buildSchedule(g, cfg);
    EXPECT_EQ(built.config.mem_budget_bytes, r.mem_budget_bytes);
    EXPECT_TRUE(built.hybrid.active);
    EXPECT_EQ(built.hybrid.budget_bytes, r.mem_budget_bytes);
    EXPECT_EQ(built.config.device_pool_bytes, r.device_pool_bytes);
    EXPECT_EQ(built.config.tier_path, r.tier_path);
    EXPECT_DOUBLE_EQ(built.config.tier_bandwidth_bytes_per_s,
                     r.tier_bandwidth_bytes_per_s);
    EXPECT_EQ(built.config.async_codec, r.async_codec);
    EXPECT_EQ(built.config.codec_threads, r.codec_threads);

    // applyToExecutor reads schedule.config alone: with the environment
    // gone it still applies the resolved values.
    for (const char *name : OverrideEnvGuard::kNames)
        unsetenv(name);
    Executor exec(g);
    applyToExecutor(built, exec);
    EXPECT_TRUE(exec.asyncCodec());
    EXPECT_EQ(exec.codecQueue().numWorkers(), 3);
    ASSERT_NE(exec.devicePool(), nullptr);
    EXPECT_EQ(exec.devicePool()->cap(), 256u * 1024);
    EXPECT_EQ(exec.devicePool()->config().tier_path, tier_dir);
    EXPECT_DOUBLE_EQ(exec.devicePool()->config().tier_bytes_per_second,
                     2.5e9);
}

} // namespace
} // namespace gist
