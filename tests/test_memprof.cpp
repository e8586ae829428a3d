/**
 * @file
 * The self-profiling runtime's contracts: the memory-timeline profiler
 * reports a step peak that matches the executor's fmap-pool high-water
 * exactly with per-slot attribution summing to it (sync mode is the
 * exact path — every meter op runs on the main thread); the planner
 * lists the kernel shapes a schedule dispatches; and gist_prof renders
 * the artifacts, hybrid plan included.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/gist.hpp"
#include "core/planner.hpp"
#include "models/builder.hpp"
#include "obs/memprof.hpp"
#include "obs/profreport.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

Graph
chain(std::int64_t batch = 4)
{
    NetBuilder net(batch, 3, 8, 8);
    net.conv(6, 3, 1, 1, "conv1");
    net.relu("relu1");
    net.conv(6, 3, 1, 1, "conv2");
    net.relu("relu2");
    net.maxpool(2, 2, 0, "pool1");
    net.fc(5, "fc");
    net.loss(5);
    return net.take();
}

struct Rig
{
    Graph g;
    std::unique_ptr<Executor> exec;

    explicit Rig(const GistConfig &cfg) : g(chain())
    {
        Rng rng(2);
        g.initParams(rng);
        exec = std::make_unique<Executor>(g);
        applyToExecutor(buildSchedule(g, cfg), *exec);
        exec->setAsyncCodec(false, 1); // sync = the exact-metering path
    }

    void
    step()
    {
        Rng drng(3);
        const Tensor batch =
            Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
        const std::vector<std::int32_t> labels = { 0, 1, 2, 3 };
        exec->runMinibatch(batch, labels);
    }
};

/** Run one profiled step and return the recorded MemProfStep. */
obs::MemProfStep
profiledStep(const GistConfig &cfg)
{
    obs::memprofReset();
    obs::memprofStart(""); // collect-only, no file
    Rig rig(cfg);
    rig.step();
    obs::memprofStop();
    const auto steps = obs::memprofCollect();
    EXPECT_EQ(steps.size(), 1u);
    EXPECT_EQ(steps.back().peak_pool_bytes,
              static_cast<std::int64_t>(
                  rig.exec->stats().peak_pool_bytes));
    return steps.back();
}

std::uint64_t
attributionSum(const obs::MemProfStep &step)
{
    std::uint64_t sum = 0;
    for (const obs::MemProfSlot &slot : step.peak_attribution)
        sum += slot.total();
    return sum;
}

std::int64_t
timelineMax(const obs::MemProfStep &step)
{
    std::int64_t peak = 0;
    for (const obs::MemProfSample &s : step.timeline)
        peak = std::max(peak, s.pool_bytes);
    return peak;
}

TEST(MemProf, BaselinePeakAttributionIsExact)
{
    const auto step = profiledStep(GistConfig::baseline());
    EXPECT_GT(step.peak_pool_bytes, 0);
    EXPECT_EQ(attributionSum(step),
              static_cast<std::uint64_t>(step.peak_pool_bytes));
    EXPECT_EQ(timelineMax(step), step.peak_pool_bytes);
    EXPECT_FALSE(step.peak_node.empty());
    EXPECT_GE(step.peak_sched_step, 0);
    EXPECT_FALSE(step.timeline.empty());
}

TEST(MemProf, EncodedSchedulePeakAttributionIsExact)
{
    // Lossy schedule: encoded stashes flow through the Encoded meter
    // kind; the attribution must still sum to the pool peak exactly.
    const auto step = profiledStep(GistConfig::lossy(DprFormat::Fp16));
    EXPECT_GT(step.peak_pool_bytes, 0);
    EXPECT_EQ(attributionSum(step),
              static_cast<std::uint64_t>(step.peak_pool_bytes));
    EXPECT_EQ(timelineMax(step), step.peak_pool_bytes);

    std::uint64_t encoded = 0;
    for (const obs::MemProfSlot &slot : step.peak_attribution)
        encoded += slot.encoded_bytes;
    EXPECT_GT(encoded, 0u)
        << "lossy schedule shows no encoded bytes at the peak";
}

TEST(MemProf, DisabledRunRecordsNothing)
{
    obs::memprofReset();
    ASSERT_FALSE(obs::memprofEnabled());
    Rig rig(GistConfig::lossless());
    rig.step();
    EXPECT_TRUE(obs::memprofCollect().empty());
}

TEST(MemProf, WritesWellFormedJson)
{
    obs::memprofReset();
    obs::memprofStart("");
    Rig rig(GistConfig::lossless());
    rig.step();
    obs::memprofStop();

    const std::string path =
        ::testing::TempDir() + "gist_memprof_test.json";
    ASSERT_TRUE(obs::memprofWrite(path));
    JsonValue root;
    std::string err;
    ASSERT_TRUE(obs::loadJsonFile(path, root, &err)) << err;
    EXPECT_EQ(root.stringOr("kind", ""), "gist-memprof");
    const JsonValue *steps = root.get("steps");
    ASSERT_NE(steps, nullptr);
    ASSERT_TRUE(steps->isArray());
    ASSERT_FALSE(steps->items().empty());
    const JsonValue &st = steps->items().front();
    EXPECT_GT(st.intOr("peak_pool_bytes", 0), 0);
    ASSERT_NE(st.get("peak_attribution"), nullptr);
    ASSERT_NE(st.get("timeline"), nullptr);
    std::remove(path.c_str());
}

TEST(PlannerCost, CollectsScheduleShapesAndPricesThem)
{
    Graph g = chain();
    const BuiltSchedule schedule =
        buildSchedule(g, GistConfig::lossy(DprFormat::Fp16));
    const auto shapes = collectKernelShapes(g, schedule);
    ASSERT_FALSE(shapes.empty());

    bool has_gemm = false, has_im2col = false, has_codec = false;
    for (const KernelShape &ks : shapes) {
        has_gemm |= ks.kernel == "gemm";
        has_im2col |= ks.kernel == "im2col";
        has_codec |= ks.kernel.find("_encode") != std::string::npos;
        EXPECT_GT(ks.work_bytes, 0u) << ks.kernel << " " << ks.shape;
        EXPECT_GT(ks.calls, 0u);
    }
    EXPECT_TRUE(has_gemm);
    EXPECT_FALSE(has_im2col) << "no step runs im2col";
    EXPECT_TRUE(has_codec) << "lossy schedule emitted no codec kernels";
}

TEST(PlannerCost, GemmRowsAreTheGemmsAStepRuns)
{
    // A stride-1 conv on the network input (no dX), a stride-2 conv
    // (four dX phases) whose encoded input backward reads in decode
    // tiles of 2 images, and an FC layer: the gemm rows must be the
    // GEMMs one traced step runs, shape for shape and call for call.
    NetBuilder net(10, 3, 8, 8);
    net.conv(6, 3, 1, 1, "conv1");
    net.relu("relu1");
    net.conv(5, 3, 2, 1, "conv2");
    net.relu("relu2");
    net.fc(4, "fc");
    net.loss(4);
    Graph g = net.take();
    Rng rng(2);
    g.initParams(rng);
    GistConfig cfg = GistConfig::lossy(DprFormat::Fp16);
    cfg.elide_decode_buffer = true;
    const BuiltSchedule schedule = buildSchedule(g, cfg);
    std::map<std::string, std::uint64_t> want;
    for (const KernelShape &ks : collectKernelShapes(g, schedule))
        if (ks.kernel == "gemm")
            want[ks.shape] += ks.calls;

    Executor exec(g);
    applyToExecutor(schedule, exec);
    exec.setAsyncCodec(false, 1);
    Rng drng(3);
    const std::vector<std::int32_t> labels = { 0, 1, 2, 3, 0,
                                               1, 2, 3, 0, 1 };
    obs::traceStart(""); // memory-only
    exec.runMinibatch(Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f),
                      labels);
    obs::traceStop();
    const auto events = obs::traceCollect();
    obs::traceReset();
    std::map<std::string, std::uint64_t> got;
    for (const auto &e : events) {
        if (e.cat != "compute" || e.name.rfind("gemm ", 0) != 0)
            continue;
        long long m = 0, n = 0, k = 0;
        ASSERT_EQ(3, std::sscanf(e.name.c_str() + e.name.rfind(' ') + 1,
                                 "%lldx%lldx%lld", &m, &n, &k))
            << e.name;
        ++got["m=" + std::to_string(m) + ",n=" + std::to_string(n) +
              ",k=" + std::to_string(k)];
    }
    EXPECT_EQ(want, got);
    EXPECT_EQ(want["m=5,n=54,k=32"], 5u) << "conv2 dW in 2-image tiles";
}

TEST(ProfReport, RendersSectionsFromArtifacts)
{
    JsonValue trace;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(
        R"({"traceEvents": [
             {"ph":"X","cat":"fwd","name":"fwd conv1","ts":0,
              "dur":1000,"tid":0},
             {"ph":"X","cat":"stall","name":"stall decode conv1",
              "ts":1000,"dur":500,"tid":0},
             {"ph":"X","cat":"compute","name":"gemm conv-dw 10x100x50",
              "ts":1500,"dur":2,"tid":0},
             {"ph":"X","cat":"compute","name":"gemm 100x100x100",
              "ts":1510,"dur":20,"tid":0},
             {"ph":"X","cat":"compute","name":"gemm 100x100x100",
              "ts":1540,"dur":20,"tid":0}]})",
        trace, &err))
        << err;
    std::vector<JsonValue> metrics(1);
    ASSERT_TRUE(JsonValue::parse(
        R"({"type":"step","codec_stall_seconds":0.5,"codec_stalls":2,
            "codec_queue_wait_seconds":0.1,"overlap_efficiency":0.75,
            "codec_queue_peak_depth":3})",
        metrics[0], &err))
        << err;
    JsonValue memprof;
    ASSERT_TRUE(JsonValue::parse(
        R"({"kind":"gist-memprof","steps":[
             {"step":0,"peak_pool_bytes":2048,"peak_sched_step":1,
              "peak_node":"conv1","arena_high_water":512,
              "peak_attribution":[
                {"node":"conv1","value_bytes":2048,"grad_bytes":0,
                 "encoded_bytes":0,"aux_bytes":0,"total_bytes":2048}],
              "timeline":[]}]})",
        memprof, &err))
        << err;

    const std::string report =
        obs::renderProfReport(&trace, &metrics, &memprof, {});
    EXPECT_NE(report.find("top spans"), std::string::npos);
    EXPECT_NE(report.find("critical path"), std::string::npos);
    EXPECT_NE(report.find("stall"), std::string::npos);
    EXPECT_NE(report.find("peak memory attribution"), std::string::npos);
    EXPECT_NE(report.find("conv1"), std::string::npos);
    // GFLOP/s per GEMM kind, from the m x n x k in the span names.
    EXPECT_NE(report.find("GEMM throughput by kind"), std::string::npos);
    EXPECT_NE(report.find("  conv-dw           1      0.002      0.000"
                          "     50.00\n"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("  gemm              2      0.040      0.004"
                          "    100.00\n"),
              std::string::npos)
        << report;

    // All-null inputs still render (sections are skipped with notes).
    const std::string empty =
        obs::renderProfReport(nullptr, nullptr, nullptr, {});
    EXPECT_NE(empty.find("gist_prof"), std::string::npos);

    // Without a "plan" member the hybrid section renders its hint.
    EXPECT_NE(report.find("hybrid plan vs actual"), std::string::npos);
    EXPECT_NE(report.find("GIST_MEM_BUDGET"), std::string::npos);
}

TEST(ProfReport, RendersHybridPlanVsActual)
{
    JsonValue memprof;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(
        R"({"kind":"gist-memprof","steps":[
             {"step":0,"peak_pool_bytes":3000,"peak_sched_step":1,
              "peak_node":"conv1","arena_high_water":512,
              "peak_attribution":[],"timeline":[]}],
            "plan":{"kind":"gist-hybrid-plan","version":2,
              "budget_bytes":4096,"feasible":true,
              "keep_peak_bytes":8192,"planned_peak_bytes":3100,
              "est_overhead_seconds":0.001,
              "slots":[
                {"node":1,"name":"relu1","category":"relu_conv",
                 "repr":"csr","fp32_bytes":4096,"stored_bytes":2048,
                 "est_seconds":0.0005},
                {"node":3,"name":"conv2","category":"other",
                 "repr":"recompute","fp32_bytes":8192,"stored_bytes":0,
                 "est_seconds":0.0003},
                {"node":5,"name":"fc1","category":"other",
                 "repr":"keep","fp32_bytes":1024,"stored_bytes":1024,
                 "est_seconds":0}]}})",
        memprof, &err))
        << err;

    const std::string report =
        obs::renderProfReport(nullptr, nullptr, &memprof, {});
    EXPECT_NE(report.find("feasible"), std::string::npos);
    EXPECT_NE(report.find("3 stash slots: 1 kept, 2 re-represented"),
              std::string::npos);
    // Re-represented slots render largest-fp32 first; kept slots don't.
    const auto rec = report.find("recompute");
    const auto csr = report.find("csr");
    EXPECT_NE(rec, std::string::npos);
    EXPECT_NE(csr, std::string::npos);
    EXPECT_LT(rec, csr);
    EXPECT_EQ(report.find("fc1"), std::string::npos);
    // Measured (3000) fits the 4096 budget: no over-budget flag.
    EXPECT_EQ(report.find("OVER BUDGET"), std::string::npos);

    // An infeasible, over-budget run is called out.
    JsonValue memprof2;
    ASSERT_TRUE(JsonValue::parse(
        R"({"kind":"gist-memprof","steps":[
             {"step":0,"peak_pool_bytes":9000}],
            "plan":{"kind":"gist-hybrid-plan","budget_bytes":4096,
              "feasible":false,
              "keep_peak_bytes":9000,"planned_peak_bytes":8500,
              "slots":[]}})",
        memprof2, &err))
        << err;
    const std::string report2 =
        obs::renderProfReport(nullptr, nullptr, &memprof2, {});
    EXPECT_NE(report2.find("INFEASIBLE"), std::string::npos);
    EXPECT_NE(report2.find("OVER BUDGET"), std::string::npos);
}

} // namespace
} // namespace gist
