/**
 * @file
 * Tests for the budget-driven hybrid planner and the executor's real
 * recompute path.
 *
 * Correctness bar: recompute is *lossless by construction* — a replayed
 * forward must reproduce the dropped stash bitwise (batchnorm skips its
 * running-stat update, dropout reuses its captured mask), so training
 * runs that only differ in keep-vs-recompute decisions must produce
 * bit-identical losses, gradients and final weights, in sync and async
 * codec mode alike. The planner side is a property suite: descending
 * budgets yield monotonically non-increasing planned peaks, feasible
 * plans keep the *measured* executor peak at or under the budget, and
 * infeasibility is reported rather than silently overshot.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/gist.hpp"
#include "core/planner.hpp"
#include "models/builder.hpp"
#include "obs/calibrate.hpp"
#include "util/jsonin.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

/**
 * Stash-heavy CNN with every replay hazard represented: batchnorm
 * (running stats must not double-update), dropout (mask must be reused,
 * not regenerated), a residual add (replay segments with joins).
 */
Graph
hazardGraph(std::int64_t batch = 4)
{
    NetBuilder net(batch, 3, 16, 16);
    net.conv(8, 3, 1, 1);
    net.batchnorm();
    net.relu();
    net.conv(8, 3, 1, 1);
    net.relu();
    const NodeId trunk = net.tip();
    net.conv(8, 3, 1, 1);
    net.relu();
    net.conv(8, 3, 1, 1);
    net.add(trunk);
    net.relu();
    net.maxpool(2, 2);
    net.conv(16, 3, 1, 1);
    net.relu();
    net.dropout(0.5f);
    net.fc(5);
    net.loss(5);
    return net.take();
}

struct RunResult
{
    std::vector<float> losses;
    std::vector<float> grads;
    std::vector<float> weights;
    std::uint64_t peak_pool_bytes = 0;
};

/**
 * Train @p steps identical minibatches under @p cfg. When
 * @p force_recompute is set, every stashed slot's plan is overridden to
 * Repr::Recompute after the schedule is applied (the planner-free way
 * to drive the executor's replay machinery directly).
 */
RunResult
runTraining(Graph &&g, std::uint64_t seed, const GistConfig &cfg,
            bool force_recompute, bool async, int steps = 3)
{
    Rng rng(seed + 1);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(buildSchedule(g, cfg), exec);
    if (force_recompute) {
        const ScheduleInfo sched(g);
        StashPlan plan;
        plan.repr = StashPlan::Repr::Recompute;
        for (const auto &node : g.nodes())
            if (sched.stashed(node.id))
                exec.setStashPlan(node.id, plan);
        exec.refreshSchedule();
    }
    exec.setAsyncCodec(async, 2);
    RunResult result;
    Rng drng(seed + 2);
    const std::vector<std::int32_t> labels = { 0, 1, 2, 3 };
    for (int s = 0; s < steps; ++s) {
        const Tensor batch =
            Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
        result.losses.push_back(exec.runMinibatch(batch, labels));
        result.peak_pool_bytes = std::max(
            result.peak_pool_bytes, exec.stats().peak_pool_bytes);
    }
    for (auto &node : g.nodes()) {
        if (!node.layer)
            continue;
        for (Tensor *wg : node.layer->paramGrads())
            result.grads.insert(result.grads.end(), wg->data(),
                                wg->data() + wg->numel());
        for (Tensor *w : node.layer->params())
            result.weights.insert(result.weights.end(), w->data(),
                                  w->data() + w->numel());
    }
    exec.setAsyncCodec(false, 1);
    return result;
}

class RecomputeBitwise : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RecomputeBitwise, AllSlotsRecomputedMatchesKeepSync)
{
    const std::uint64_t seed = GetParam();
    const auto keep = runTraining(hazardGraph(), seed,
                                  GistConfig::baseline(), false, false);
    const auto rec = runTraining(hazardGraph(), seed,
                                 GistConfig::baseline(), true, false);
    EXPECT_EQ(keep.losses, rec.losses);
    EXPECT_EQ(keep.grads, rec.grads);
    EXPECT_EQ(keep.weights, rec.weights);
    // No footprint assertion here: forcing plans post-hoc via
    // setStashPlan() does not re-plan the static buffer layout, so the
    // replay transients land on top of the keep-mode plan. The
    // planner-driven tests below assert the actual memory reduction.
}

TEST_P(RecomputeBitwise, AllSlotsRecomputedMatchesKeepAsync)
{
    // Async codec pipeline on: recompute slots never enter the codec
    // queue themselves, but they coexist with in-flight encodes and
    // prefetched decodes of the remaining encoded slots.
    const std::uint64_t seed = GetParam();
    GistConfig cfg = GistConfig::lossless();
    const auto keep = runTraining(hazardGraph(), seed, cfg, false, true);
    const auto rec = runTraining(hazardGraph(), seed, cfg, true, true);
    EXPECT_EQ(keep.losses, rec.losses);
    EXPECT_EQ(keep.grads, rec.grads);
    EXPECT_EQ(keep.weights, rec.weights);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecomputeBitwise,
                         ::testing::Range<std::uint64_t>(1, 6));

TEST(Recompute, StatsAccountForDroppedAndReplayed)
{
    Graph g = hazardGraph();
    Rng rng(11);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(buildSchedule(g, GistConfig::baseline()), exec);
    const ScheduleInfo sched(g);
    StashPlan plan;
    plan.repr = StashPlan::Repr::Recompute;
    int slots = 0;
    for (const auto &node : g.nodes())
        if (sched.stashed(node.id)) {
            exec.setStashPlan(node.id, plan);
            ++slots;
        }
    exec.refreshSchedule();
    Rng drng(12);
    const std::vector<std::int32_t> labels = { 0, 1, 2, 3 };
    const Tensor batch =
        Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
    exec.runMinibatch(batch, labels);
    const ExecStats &stats = exec.stats();
    EXPECT_GT(slots, 0);
    EXPECT_GT(stats.recompute_segments, 0u);
    EXPECT_GE(stats.recompute_nodes, stats.recompute_segments);
    EXPECT_GT(stats.recompute_dropped_bytes, 0u);
    EXPECT_GT(stats.recompute_seconds, 0.0);
}

/** Build + plan the hazard graph at @p budget, returning the schedule. */
BuiltSchedule
planAt(Graph &g, std::uint64_t budget)
{
    GistConfig cfg = GistConfig::lossless();
    cfg.mem_budget_bytes = budget;
    return buildSchedule(g, cfg);
}

TEST(HybridPlanner, BudgetSweepIsMonotoneAndHonored)
{
    Graph probe = hazardGraph();
    const std::uint64_t keep_peak =
        planAt(probe, std::uint64_t{ 1 } << 40).hybrid.keep_peak_bytes;
    ASSERT_GT(keep_peak, 0u);

    std::uint64_t prev_planned = ~std::uint64_t{ 0 };
    for (const double frac : { 1.0, 0.85, 0.7, 0.55, 0.4, 0.25 }) {
        const auto budget =
            static_cast<std::uint64_t>(static_cast<double>(keep_peak) *
                                       frac);
        Graph g = hazardGraph();
        Rng rng(34);
        g.initParams(rng);
        GistConfig cfg = GistConfig::lossless();
        cfg.mem_budget_bytes = budget;
        const BuiltSchedule schedule = buildSchedule(g, cfg);
        const HybridPlan &plan = schedule.hybrid;
        ASSERT_TRUE(plan.active) << "budget=" << budget;
        EXPECT_EQ(plan.keep_peak_bytes, keep_peak);
        EXPECT_FALSE(plan.slots.empty());

        // Monotonicity: a smaller budget never plans a larger peak.
        EXPECT_LE(plan.planned_peak_bytes, prev_planned)
            << "budget=" << budget;
        prev_planned = plan.planned_peak_bytes;

        if (!plan.feasible)
            continue; // reported, not silently overshot — checked below
        EXPECT_LE(plan.planned_peak_bytes, budget);

        // The modeled peak must upper-bound the measured executor peak.
        Executor exec(g);
        applyToExecutor(schedule, exec);
        Rng drng(35);
        const std::vector<std::int32_t> labels = { 0, 1, 2, 3 };
        std::uint64_t measured = 0;
        for (int s = 0; s < 3; ++s) {
            const Tensor batch =
                Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
            exec.runMinibatch(batch, labels);
            measured =
                std::max(measured, exec.stats().peak_pool_bytes);
        }
        EXPECT_LE(measured, budget) << "budget=" << budget;
    }
}

TEST(HybridPlanner, LosslessBudgetRunMatchesUnbudgetedBitwise)
{
    const auto reference = runTraining(
        hazardGraph(), 42, GistConfig::lossless(), false, false);

    Graph probe = hazardGraph();
    const std::uint64_t keep_peak =
        planAt(probe, std::uint64_t{ 1 } << 40).hybrid.keep_peak_bytes;

    GistConfig cfg = GistConfig::lossless();
    cfg.mem_budget_bytes =
        static_cast<std::uint64_t>(static_cast<double>(keep_peak) * 0.6);
    const auto budgeted =
        runTraining(hazardGraph(), 42, cfg, false, false);
    EXPECT_EQ(reference.losses, budgeted.losses);
    EXPECT_EQ(reference.grads, budgeted.grads);
    EXPECT_EQ(reference.weights, budgeted.weights);
    EXPECT_LT(budgeted.peak_pool_bytes, reference.peak_pool_bytes);
}

TEST(HybridPlanner, InfeasibleBudgetIsReportedNotOvershot)
{
    Graph g = hazardGraph();
    const BuiltSchedule schedule = planAt(g, 4096);
    EXPECT_TRUE(schedule.hybrid.active);
    EXPECT_FALSE(schedule.hybrid.feasible);
    // The minimum-peak plan is still installed and still runnable.
    EXPECT_GT(schedule.hybrid.planned_peak_bytes, 4096u);
    EXPECT_LT(schedule.hybrid.planned_peak_bytes,
              schedule.hybrid.keep_peak_bytes);
}

TEST(HybridPlanner, PlanJsonParsesAndDescribesEverySlot)
{
    Graph g = hazardGraph();
    Graph probe = hazardGraph();
    const std::uint64_t keep_peak =
        planAt(probe, std::uint64_t{ 1 } << 40).hybrid.keep_peak_bytes;
    const BuiltSchedule schedule = planAt(g, keep_peak / 2);
    const std::string json = hybridPlanJson(schedule);
    ASSERT_FALSE(json.empty());
    JsonValue root;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(json, root, &err)) << err;
    EXPECT_EQ(root.stringOr("kind", ""), "gist-hybrid-plan");
    EXPECT_EQ(root.intOr("budget_bytes", -1),
              static_cast<std::int64_t>(keep_peak / 2));
    const JsonValue *slots = root.get("slots");
    ASSERT_NE(slots, nullptr);
    ASSERT_TRUE(slots->isArray());
    EXPECT_EQ(slots->items().size(), schedule.hybrid.slots.size());
    const ScheduleInfo sched(g);
    size_t stashed = 0;
    for (const auto &node : g.nodes())
        if (sched.stashed(node.id))
            ++stashed;
    EXPECT_EQ(schedule.hybrid.slots.size(), stashed);
}

TEST(HybridPlanner, EnvOverridesDriveBudgetAndPlanning)
{
    setenv("GIST_MEM_BUDGET", "1g", 1);
    Graph g = hazardGraph();
    const BuiltSchedule schedule =
        buildSchedule(g, GistConfig::lossless());
    unsetenv("GIST_MEM_BUDGET");
    EXPECT_TRUE(schedule.hybrid.active);
    EXPECT_EQ(schedule.hybrid.budget_bytes,
              std::uint64_t{ 1 } << 30);
    EXPECT_TRUE(schedule.hybrid.feasible); // 1 GB dwarfs the tiny net
}

TEST(HybridPlanner, ByteSizeParser)
{
    EXPECT_EQ(parseByteSize("262144"), 262144u);
    EXPECT_EQ(parseByteSize("64k"), 64u * 1024);
    EXPECT_EQ(parseByteSize("64KB"), 64u * 1024);
    EXPECT_EQ(parseByteSize("1.5m"),
              static_cast<std::uint64_t>(1.5 * 1024 * 1024));
    EXPECT_EQ(parseByteSize("2G"), std::uint64_t{ 2 } << 30);
    // Whitespace between number and suffix is tolerated.
    EXPECT_EQ(parseByteSize("64 k"), 64u * 1024);
    EXPECT_EQ(parseByteSize("2 GB"), std::uint64_t{ 2 } << 30);
    EXPECT_EQ(parseByteSize("0"), 0u);
    // Near the 64-bit edge but representable.
    EXPECT_EQ(parseByteSize("8g"), std::uint64_t{ 8 } << 30);
}

TEST(HybridPlannerDeathTest, ByteSizeParserRejectsMalformedInput)
{
    // A typo'd budget must fail fast, not silently disable the planner.
    EXPECT_EXIT(parseByteSize(""), ::testing::ExitedWithCode(1),
                "empty byte-size");
    EXPECT_EXIT(parseByteSize("bogus"), ::testing::ExitedWithCode(1),
                "malformed byte-size");
    EXPECT_EXIT(parseByteSize("12q"), ::testing::ExitedWithCode(1),
                "malformed byte-size suffix");
    EXPECT_EXIT(parseByteSize("3gb."), ::testing::ExitedWithCode(1),
                "malformed byte-size suffix");
    EXPECT_EXIT(parseByteSize("-1"), ::testing::ExitedWithCode(1),
                "non-negative");
    EXPECT_EXIT(parseByteSize("inf"), ::testing::ExitedWithCode(1),
                "non-negative");
    EXPECT_EXIT(parseByteSize("nan"), ::testing::ExitedWithCode(1),
                "non-negative");
    // value * scale overflowing uint64 must not wrap silently.
    EXPECT_EXIT(parseByteSize("1e30"), ::testing::ExitedWithCode(1),
                "overflows 64 bits");
    EXPECT_EXIT(parseByteSize("999999999999g"), ::testing::ExitedWithCode(1),
                "overflows 64 bits");
}

TEST(HybridPlanner, MissingShapesBumpCounterAndSplitFromCheap)
{
    // A table with one unrelated kernel: every schedule shape misses.
    obs::CalibrationTable table;
    table.entries.push_back({ "unrelated", "numel=1", 4, 1e-6 });
    Graph g = hazardGraph();
    const BuiltSchedule schedule =
        buildSchedule(g, GistConfig::lossless());
    const CostEstimate est = estimateStepCost(g, schedule, table);
    EXPECT_GT(est.missing, 0);
    EXPECT_EQ(est.total(), 0.0);
}

} // namespace
} // namespace gist
