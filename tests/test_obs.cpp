/**
 * @file
 * Observability tests: span tracer (disabled path, nesting across pool
 * workers, Chrome-JSON output, ring overflow), counters and gauges
 * (exactness under parallelFor — run under TSan in CI), the JSONL
 * metrics sink, and per-executor ExecStats isolation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "core/gist.hpp"
#include "models/builder.hpp"
#include "models/tiny.hpp"
#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Brace/bracket balance with string-literal awareness — a cheap
 *  structural validity check for the emitted JSON. */
bool
balancedJson(const std::string &text)
{
    int depth = 0;
    bool in_str = false;
    bool esc = false;
    for (char ch : text) {
        if (in_str) {
            if (esc)
                esc = false;
            else if (ch == '\\')
                esc = true;
            else if (ch == '"')
                in_str = false;
            continue;
        }
        if (ch == '"')
            in_str = true;
        else if (ch == '{' || ch == '[')
            ++depth;
        else if (ch == '}' || ch == ']')
            if (--depth < 0)
                return false;
    }
    return depth == 0 && !in_str;
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    ASSERT_FALSE(obs::traceEnabled());
    obs::traceReset();
    const std::uint64_t before = obs::traceEventCount();
    for (int i = 0; i < 100; ++i) {
        GIST_TRACE_SCOPE("test", "never recorded");
    }
    EXPECT_EQ(obs::traceEventCount(), before);
}

TEST(Trace, SpansNestAcrossPoolWorkers)
{
    setNumThreads(4);
    obs::traceReset();
    obs::traceStart("");
    // Chunks are claimed dynamically, so on a single-CPU machine the
    // caller could drain all of them before a worker wakes. Holding the
    // first arrival until a second thread joins (bounded, so a broken
    // pool fails the tid assertion instead of hanging) forces at least
    // two threads to record spans.
    std::atomic<int> arrived{ 0 };
    parallelFor(0, 8, 1, [&](std::int64_t lo, std::int64_t hi) {
        GIST_TRACE_SCOPE_F("test", "outer %lld",
                           static_cast<long long>(lo));
        arrived.fetch_add(1, std::memory_order_relaxed);
        for (int spin = 0;
             arrived.load(std::memory_order_relaxed) < 2 && spin < 100000;
             ++spin)
            std::this_thread::yield();
        for (std::int64_t i = lo; i < hi; ++i) {
            GIST_TRACE_SCOPE("test", "inner");
        }
    });
    obs::traceStop();

    std::vector<obs::TraceEventData> outer;
    std::vector<obs::TraceEventData> inner;
    for (const auto &e : obs::traceCollect()) {
        if (e.cat != "test")
            continue;
        (e.name == "inner" ? inner : outer).push_back(e);
    }
    EXPECT_EQ(outer.size(), 8u);
    EXPECT_EQ(inner.size(), 8u);

    // Every inner span lies inside an outer span on the same thread row.
    for (const auto &in : inner) {
        bool contained = false;
        for (const auto &out : outer) {
            if (out.tid != in.tid)
                continue;
            if (out.ts_ns <= in.ts_ns &&
                in.ts_ns + in.dur_ns <= out.ts_ns + out.dur_ns) {
                contained = true;
                break;
            }
        }
        EXPECT_TRUE(contained)
            << "inner span at ts=" << in.ts_ns << " tid=" << in.tid
            << " not contained in any outer span";
    }

    // With a 4-thread pool and 8 chunks the work spans several threads.
    std::set<int> tids;
    for (const auto &e : outer)
        tids.insert(e.tid);
    EXPECT_GE(tids.size(), 2u);
}

TEST(Trace, FileIsValidJsonWithMonotonicTimestamps)
{
    const std::string path = "test_obs_trace.json";
    obs::traceReset();
    obs::traceStart(path);
    for (int i = 0; i < 32; ++i) {
        GIST_TRACE_SCOPE_F("test", "span \"%d\"\n", i); // needs escaping
    }
    obs::traceStop();

    const std::string text = slurp(path);
    ASSERT_FALSE(text.empty());
    EXPECT_TRUE(balancedJson(text));
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
    // The quote and newline in the span name must be escaped.
    EXPECT_NE(text.find("span \\\""), std::string::npos);
    EXPECT_NE(text.find("\\n"), std::string::npos);

    // "ts" values appear in non-decreasing order.
    double prev = -1.0;
    size_t pos = 0;
    int count = 0;
    while ((pos = text.find("\"ts\": ", pos)) != std::string::npos) {
        pos += 6;
        const double ts = std::strtod(text.c_str() + pos, nullptr);
        EXPECT_GE(ts, prev);
        prev = ts;
        ++count;
    }
    EXPECT_GE(count, 32);
    std::remove(path.c_str());
}

TEST(Trace, RingOverflowDropsInsteadOfWrapping)
{
    obs::traceReset();
    obs::traceStart("");
    const std::uint64_t cap = obs::traceCapacityPerThread();
    for (std::uint64_t i = 0; i < cap + 100; ++i) {
        GIST_TRACE_SCOPE("test", "overflow");
    }
    obs::traceStop();
    EXPECT_GE(obs::traceDroppedEvents(), 100u);
    EXPECT_EQ(obs::traceCollect().size(), cap);
    obs::traceReset();
}

TEST(Counters, CounterIsExactUnderParallelFor)
{
    setNumThreads(4);
    obs::Counter c;
    const std::int64_t n = 100000;
    parallelFor(0, n, 1000, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
            c.add(1);
    });
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(n));
}

TEST(Counters, GaugeTracksPeak)
{
    obs::Gauge g;
    g.add(100);
    g.add(50);
    g.sub(120);
    EXPECT_EQ(g.current(), 30);
    EXPECT_EQ(g.peak(), 150);
    g.resetPeak();
    EXPECT_EQ(g.peak(), 30);

    // Balanced concurrent add/sub returns to the starting level.
    g.set(0);
    parallelFor(0, 10000, 100, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
            g.add(8);
            g.sub(8);
        }
    });
    EXPECT_EQ(g.current(), 0);
}

TEST(Metrics, JsonlOneRecordPerLineWithEscaping)
{
    const std::string path = "test_obs_metrics.jsonl";
    obs::metricsOpen(path);
    ASSERT_TRUE(obs::metricsEnabled());
    EXPECT_EQ(obs::metricsPath(), path);

    obs::JsonLine a;
    a.field("type", "step")
        .field("step", static_cast<std::int64_t>(1))
        .field("loss", 0.5)
        .field("note", "quote\" slash\\ nl\n");
    obs::metricsWrite(a);

    obs::JsonLine b;
    b.field("type", "epoch").field("nan", std::nan(""));
    obs::metricsWrite(b);
    obs::metricsClose();
    EXPECT_FALSE(obs::metricsEnabled());

    std::ifstream in(path);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);
    for (const auto &l : lines) {
        EXPECT_TRUE(balancedJson(l)) << l;
        EXPECT_EQ(l.front(), '{');
        EXPECT_EQ(l.back(), '}');
    }
    EXPECT_NE(lines[0].find("\"loss\":0.5"), std::string::npos);
    EXPECT_NE(lines[0].find("quote\\\" slash\\\\ nl\\n"),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"nan\":null"), std::string::npos);
    std::remove(path.c_str());
}

/** Deterministic minibatch @p step for @p g's input shape. */
Tensor
seededBatch(const Graph &g, std::uint64_t step)
{
    Tensor batch(g.node(0).out_shape);
    Rng drng(100 + step);
    for (std::int64_t i = 0; i < batch.numel(); ++i)
        batch.at(i) = drng.uniform(-1.0f, 1.0f);
    return batch;
}

/** The count and byte fields of ExecStats (timings excluded). */
std::vector<std::uint64_t>
countFields(const ExecStats &s)
{
    return { s.encoded_bytes,      s.dense_bytes_replaced,
             s.peak_pool_bytes,    s.recompute_segments,
             s.recompute_nodes,    s.recompute_dropped_bytes,
             s.tier_evictions,     s.tier_fetches,
             s.tier_bytes_out,     s.tier_bytes_in };
}

/** A tiny VGG with its own executor, run sync under @p cfg. */
struct StatsRun
{
    Graph graph;
    Executor exec;

    explicit StatsRun(const GistConfig &cfg)
        : graph(models::tinyVgg(16)), exec(graph)
    {
        Rng rng(1);
        graph.initParams(rng);
        applyToExecutor(buildSchedule(graph, cfg), exec);
        exec.setAsyncCodec(false);
    }

    std::vector<std::uint64_t>
    step(std::uint64_t i)
    {
        std::vector<std::int32_t> labels;
        for (std::int64_t n = 0; n < graph.node(0).out_shape.n(); ++n)
            labels.push_back(
                static_cast<std::int32_t>((n + i) % models::kTinyClasses));
        exec.runMinibatch(seededBatch(graph, i), labels);
        return countFields(exec.stats());
    }
};

TEST(Obs, ExecutorStatsStayPerExecutorWhenInterleaved)
{
    // Each executor owns every count it takes, so two executors
    // stepped alternately in one process report exactly what each
    // reports when run alone.
    GistConfig lossless = GistConfig::lossless();
    GistConfig capped = GistConfig::lossy(DprFormat::Fp16);
    capped.device_pool_bytes = 256 * 1024;
    constexpr std::uint64_t kSteps = 3;

    std::vector<std::vector<std::uint64_t>> solo_a, solo_b;
    {
        StatsRun a(lossless);
        for (std::uint64_t i = 0; i < kSteps; ++i)
            solo_a.push_back(a.step(i));
    }
    {
        StatsRun b(capped);
        for (std::uint64_t i = 0; i < kSteps; ++i)
            solo_b.push_back(b.step(i));
    }
    EXPECT_GT(solo_a[0][0], 0u) << "lossless run encoded nothing";
    EXPECT_GT(solo_a[0][2], 0u) << "no pool bytes metered";
    EXPECT_GT(solo_b[0][6], 0u) << "the 256 KiB cap evicted nothing";

    StatsRun a(lossless);
    StatsRun b(capped);
    for (std::uint64_t i = 0; i < kSteps; ++i) {
        EXPECT_EQ(a.step(i), solo_a[i]) << "lossless, step " << i;
        EXPECT_EQ(b.step(i), solo_b[i]) << "fp16 capped, step " << i;
    }
}

} // namespace
} // namespace gist
