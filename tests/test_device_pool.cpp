/**
 * @file
 * Tiered-memory engine tests: TierStore round trips and throttling,
 * DevicePool-capped execution vs the unbounded run (bitwise, sync and
 * async x jitter on the codec and link queues), the cap's one-node
 * slack contract, transfers on the link worker, swap-all plans,
 * slow-tier failure surfacing, checkpoint resume with the tier active,
 * and the hybrid planner's budget sweep with Swap eligible.
 *
 * The load-bearing property is the tentpole guarantee: a model whose
 * working set exceeds the device cap trains bit-identically to the
 * unbounded run — eviction and prefetch-back may only move bytes, never
 * change them or their consumption order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/gist.hpp"
#include "memory/device_pool.hpp"
#include "memory/tier.hpp"
#include "models/builder.hpp"
#include "models/tiny.hpp"
#include "obs/trace.hpp"
#include "train/trainer.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** Random stash-heavy CNN (same family as the async executor tests). */
Graph
randomGraph(std::uint64_t seed, std::int64_t batch = 4)
{
    Rng rng(seed);
    const std::int64_t img = 16;
    NetBuilder net(batch, 3, img, img);
    std::int64_t spatial = img;
    const int segments = 2 + static_cast<int>(rng.uniformInt(3));
    for (int s = 0; s < segments; ++s) {
        const std::int64_t channels = 4 + 4 * rng.uniformInt(4);
        switch (rng.uniformInt(4)) {
          case 0:
            net.conv(channels, 3, 1, 1);
            net.relu();
            break;
          case 1:
            net.conv(channels, 3, 1, 1);
            net.batchnorm();
            net.relu();
            break;
          case 2:
            net.conv(channels, 3, 1, 1);
            net.relu();
            if (spatial >= 4) {
                net.maxpool(2, 2);
                spatial /= 2;
            }
            break;
          default: {
            net.conv(channels, 3, 1, 1);
            net.relu();
            const NodeId trunk = net.tip();
            net.conv(channels, 3, 1, 1);
            net.relu();
            net.conv(channels, 3, 1, 1);
            net.add(trunk);
            net.relu();
            break;
          }
        }
    }
    net.fc(5);
    net.loss(5);
    return net.take();
}

struct PoolSpec
{
    bool attach = false;
    std::uint64_t cap = 0;
    double bps = 0.0;
    std::string tier_path;
};

struct RunResult
{
    std::vector<float> losses;
    std::vector<float> grads;
    std::uint64_t peak_bytes = 0;
    std::uint64_t tier_evictions = 0;
    std::uint64_t tier_fetches = 0;
    std::uint64_t tier_bytes_out = 0;
    std::uint64_t tier_bytes_in = 0;
    std::uint64_t tier_resident_after = 0;
    /** Every step's forward memoryTrace() points. */
    std::vector<MemoryTracePoint> fwd_trace;
};

/**
 * Train @p steps identical minibatches; optionally attach a DevicePool
 * and/or force every (non-binarized) stash slot to Repr::Swap. Jitter
 * is set on the codec and link queues for async arms and cleared on
 * return.
 */
RunResult
runSteps(Graph &&g, std::uint64_t seed, const GistConfig &cfg,
         const PoolSpec &pool, bool async, int workers,
         std::uint64_t jitter_seed, int steps = 3, bool swap_all = false)
{
    Rng rng(seed + 1);
    g.initParams(rng);
    Executor exec(g);
    BuiltSchedule schedule = buildSchedule(g, cfg);
    if (swap_all) {
        const ScheduleInfo sched(g);
        for (const auto &node : g.nodes())
            if (sched.stashed(node.id) &&
                !schedule.of(node.id).binarized)
                schedule.decisions[static_cast<size_t>(node.id)].repr =
                    StashPlan::Repr::Swap;
    }
    applyToExecutor(schedule, exec);
    if (pool.attach) {
        DevicePoolConfig pc;
        pc.cap_bytes = pool.cap;
        pc.tier_bytes_per_second = pool.bps;
        pc.tier_path = pool.tier_path;
        exec.setDevicePool(std::make_shared<DevicePool>(pc));
    }
    exec.codecQueue().setJitter(async ? jitter_seed : 0);
    exec.linkQueue().setJitter(async && jitter_seed != 0
                                   ? jitter_seed ^ 0x5bd1e995
                                   : 0);
    exec.setAsyncCodec(async, workers);

    RunResult result;
    Rng drng(seed + 2);
    const std::vector<std::int32_t> labels = { 0, 1, 2, 3 };
    for (int s = 0; s < steps; ++s) {
        const Tensor batch =
            Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
        result.losses.push_back(exec.runMinibatch(batch, labels));
        const ExecStats &st = exec.stats();
        result.peak_bytes = std::max(result.peak_bytes,
                                     st.peak_pool_bytes);
        result.tier_evictions += st.tier_evictions;
        result.tier_fetches += st.tier_fetches;
        result.tier_bytes_out += st.tier_bytes_out;
        result.tier_bytes_in += st.tier_bytes_in;
        for (const MemoryTracePoint &point : exec.memoryTrace())
            if (point.step < g.numNodes())
                result.fwd_trace.push_back(point);
    }
    for (auto &node : g.nodes())
        if (node.layer)
            for (Tensor *w : node.layer->paramGrads())
                result.grads.insert(result.grads.end(), w->data(),
                                    w->data() + w->numel());
    if (exec.devicePool())
        result.tier_resident_after = exec.devicePool()->residentBytes();
    exec.codecQueue().setJitter(0);
    exec.linkQueue().setJitter(0);
    return result;
}

// ---------------------------------------------------------------------
// TierStore unit tests
// ---------------------------------------------------------------------

TEST(TierStore, MemoryTierRoundTripsBlobs)
{
    auto tier = makeMemoryTier();
    std::vector<std::uint8_t> blob(4096);
    for (size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<std::uint8_t>(i * 7 + 3);
    tier->store(42, blob.data(), blob.size());
    EXPECT_EQ(tier->storedBytes(42), blob.size());
    EXPECT_EQ(tier->residentBytes(), blob.size());

    std::vector<std::uint8_t> back(blob.size());
    tier->fetch(42, back.data(), back.size());
    EXPECT_EQ(blob, back);
    EXPECT_EQ(tier->stats().stores, 1u);
    EXPECT_EQ(tier->stats().fetches, 1u);
    EXPECT_EQ(tier->stats().bytes_out, blob.size());
    EXPECT_EQ(tier->stats().bytes_in, blob.size());

    tier->erase(42);
    EXPECT_EQ(tier->storedBytes(42), 0u);
    EXPECT_EQ(tier->residentBytes(), 0u);
    EXPECT_THROW(tier->fetch(42, back.data(), back.size()),
                 std::runtime_error);
}

TEST(TierStore, FileTierRoundTripsBlobs)
{
    const std::string dir = tempPath("gist_file_tier");
    auto tier = makeFileTier(dir);
    EXPECT_STREQ(tier->kind(), "file");
    std::vector<std::uint8_t> blob(1 << 16);
    for (size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<std::uint8_t>(i ^ (i >> 8));
    tier->store(7, blob.data(), blob.size());
    EXPECT_EQ(tier->storedBytes(7), blob.size());

    std::vector<std::uint8_t> back(blob.size());
    tier->fetch(7, back.data(), back.size());
    EXPECT_EQ(blob, back);
    tier->erase(7);
    EXPECT_EQ(tier->residentBytes(), 0u);
}

TEST(TierStore, MemoryTierThrottlePacesTransfers)
{
    // 1 MB at 20 MB/s = 50 ms per direction; assert a generous lower
    // bound so the test is immune to scheduler slop in one direction.
    auto tier = makeMemoryTier(20e6);
    std::vector<std::uint8_t> blob(1 << 20, 0xaa);
    const auto t0 = std::chrono::steady_clock::now();
    tier->store(1, blob.data(), blob.size());
    tier->fetch(1, blob.data(), blob.size());
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_GE(secs, 0.08) << "throttle did not pace 2x 50 ms transfers";
    EXPECT_GE(tier->stats().write_ns + tier->stats().read_ns, 80000000u);
}

TEST(TierStore, MemoryTierThrottleHoldsRateOnSmallTransfers)
{
    // Short transfers are where a sleeping throttle loses bandwidth:
    // each 64 KiB store at 1 GB/s sleeps ~65 us. Only the lower bound
    // is asserted (the link never runs faster than configured); how
    // close it comes to the rate depends on the host's timers, so the
    // effective rate is reported, not checked.
    constexpr double kBps = 1e9;
    constexpr int kTransfers = 64;
    auto tier = makeMemoryTier(kBps);
    std::vector<std::uint8_t> blob(64 << 10, 0x5a);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kTransfers; ++i)
        tier->store(i, blob.data(), blob.size());
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    const double ideal =
        static_cast<double>(kTransfers) * static_cast<double>(blob.size()) /
        kBps;
    EXPECT_GE(secs, ideal) << "throttle moved bytes faster than its rate";
    const TierStats st = tier->stats();
    ASSERT_GT(st.write_ns, 0u);
    EXPECT_EQ(st.bytes_out,
              static_cast<std::uint64_t>(kTransfers) * blob.size());
    const double gbps =
        static_cast<double>(st.bytes_out) / static_cast<double>(st.write_ns);
    std::printf("effective throttled rate: %.3f GB/s (configured %.3f)\n",
                gbps, kBps * 1e-9);
}

TEST(TierStore, FileTierUnusableDirectoryThrows)
{
    // mkdir under a plain file cannot succeed, even for root.
    EXPECT_THROW(makeFileTier("/dev/null/gist_tier"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Capped execution: the bitwise tentpole
// ---------------------------------------------------------------------

class DevicePoolBitwise : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DevicePoolBitwise, CappedMatchesUnboundedBitwise)
{
    const std::uint64_t seed = GetParam();
    const GistConfig cfg = GistConfig::lossless();
    const auto unbounded =
        runSteps(randomGraph(seed), seed, cfg, {}, false, 0, 0);
    ASSERT_GT(unbounded.peak_bytes, 0u);

    PoolSpec pool;
    pool.attach = true;
    pool.cap = unbounded.peak_bytes / 2; // working set exceeds the cap

    const auto capped_sync =
        runSteps(randomGraph(seed), seed, cfg, pool, false, 0, 0);
    EXPECT_GT(capped_sync.tier_evictions, 0u)
        << "cap " << pool.cap << " evicted nothing; test is vacuous";
    EXPECT_EQ(unbounded.losses, capped_sync.losses);
    EXPECT_EQ(unbounded.grads, capped_sync.grads);
    EXPECT_EQ(capped_sync.tier_resident_after, 0u)
        << "tier still resident after the minibatch";

    const int workers = 1 + static_cast<int>(seed % 3);
    const auto capped_async = runSteps(randomGraph(seed), seed, cfg,
                                       pool, true, workers,
                                       /*jitter_seed=*/seed * 2 + 1);
    EXPECT_GT(capped_async.tier_evictions, 0u);
    EXPECT_EQ(unbounded.losses, capped_async.losses)
        << "workers=" << workers;
    EXPECT_EQ(unbounded.grads, capped_async.grads)
        << "workers=" << workers;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DevicePoolBitwise,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(DevicePool, TinyCapWithJitterStaysBitwiseAndAlive)
{
    // A near-zero cap forces eviction of every candidate the moment it
    // retires and fetch-back right before use — maximal overlap of the
    // encode -> evict -> fetch -> decode chains across the codec and
    // link queues, with one starved codec worker and yield jitter on
    // both queues. Deadlock would show as a ctest timeout.
    for (std::uint64_t seed = 31; seed < 34; ++seed) {
        const auto plain = runSteps(randomGraph(seed), seed,
                                    GistConfig::lossless(), {}, false, 0,
                                    0);
        PoolSpec pool;
        pool.attach = true;
        pool.cap = 1;
        const auto tiny = runSteps(randomGraph(seed), seed,
                                   GistConfig::lossless(), pool, true, 1,
                                   seed);
        EXPECT_GT(tiny.tier_evictions, 0u) << "seed=" << seed;
        EXPECT_EQ(plain.losses, tiny.losses) << "seed=" << seed;
        EXPECT_EQ(plain.grads, tiny.grads) << "seed=" << seed;
        for (const float loss : tiny.losses)
            EXPECT_TRUE(std::isfinite(loss)) << "seed=" << seed;
    }
}

TEST(DevicePool, LinkJitterStressStaysBitwise)
{
    // Starved-worker stress across the two queues: one codec worker,
    // the link worker, seeded yield jitter on both, caps from 1 byte
    // (everything evictable goes) to 0.3x the unbounded peak (the
    // one-node slack in play). Evicts wait on encodes and decodes on
    // fetches across the queues; a cross-queue deadlock shows as a
    // ctest timeout, a reordering as a mismatch against the uncapped
    // sync run. Odd seeds run lossy FP16 (DPR), even ones lossless.
    for (std::uint64_t seed = 41; seed < 45; ++seed) {
        const GistConfig cfg = seed % 2 ? GistConfig::lossy(DprFormat::Fp16)
                                        : GistConfig::lossless();
        const auto plain =
            runSteps(randomGraph(seed), seed, cfg, {}, false, 0, 0);
        for (const std::uint64_t cap :
             { std::uint64_t{ 1 }, plain.peak_bytes * 3 / 10 }) {
            PoolSpec pool;
            pool.attach = true;
            pool.cap = cap;
            const auto capped = runSteps(randomGraph(seed), seed, cfg,
                                         pool, true, 1, seed * 131 + cap);
            EXPECT_GT(capped.tier_evictions, 0u)
                << "seed=" << seed << " cap=" << cap;
            EXPECT_EQ(plain.losses, capped.losses)
                << "seed=" << seed << " cap=" << cap;
            EXPECT_EQ(plain.grads, capped.grads)
                << "seed=" << seed << " cap=" << cap;
            EXPECT_EQ(capped.tier_resident_after, 0u)
                << "seed=" << seed << " cap=" << cap;
        }
    }
}

TEST(DevicePool, CapHoldsWithinOneNodeOfEvictCredit)
{
    // The enforcement contract behind pipelined eviction: after every
    // forward node the level is at most the cap plus what that node's
    // own evicts still have in flight (they hide behind the next
    // node's compute), unless nothing was left to evict. Checked on
    // async capped runs under jitter, where evicts really are in
    // flight when the node ends.
    //
    // The measured peak of the same capped runs stays what it was
    // before evicts were pipelined. Async peaks move from run to run
    // with codec and link timing (an encode's transient, an evict
    // landing a node later), so the pin is on the sync runs, whose
    // transfers finish inline: these are the peaks the executor
    // measured with every evict waited on at once.
    const std::uint64_t kSyncCappedPeak[] = { 133216, 59047, 99840,
                                              196608 };
    int points = 0;
    int over_cap_on_credit = 0;
    for (std::uint64_t seed = 51; seed < 55; ++seed) {
        const GistConfig cfg = GistConfig::lossless();
        const auto plain =
            runSteps(randomGraph(seed), seed, cfg, {}, false, 0, 0);
        PoolSpec pool;
        pool.attach = true;
        pool.cap = plain.peak_bytes * 3 / 10;
        const auto sync =
            runSteps(randomGraph(seed), seed, cfg, pool, false, 0, 0);
        EXPECT_EQ(sync.peak_bytes, kSyncCappedPeak[seed - 51])
            << "seed=" << seed;
        EXPECT_EQ(plain.losses, sync.losses) << "seed=" << seed;
        const auto capped = runSteps(randomGraph(seed), seed, cfg, pool,
                                     true, 1, seed * 3 + 1);
        ASSERT_GT(capped.tier_evictions, 0u) << "seed=" << seed;
        ASSERT_FALSE(capped.fwd_trace.empty());
        for (const MemoryTracePoint &p : capped.fwd_trace) {
            ++points;
            EXPECT_TRUE(p.bytes <= pool.cap + p.evict_credit ||
                        p.nothing_evictable)
                << "seed=" << seed << " step=" << p.step
                << " level=" << p.bytes << " cap=" << pool.cap
                << " credit=" << p.evict_credit;
            over_cap_on_credit +=
                p.bytes > pool.cap && p.bytes <= pool.cap + p.evict_credit;
        }
        EXPECT_EQ(plain.losses, capped.losses) << "seed=" << seed;
    }
    EXPECT_GT(points, 0);
    std::printf("%d forward points, %d above the cap within their own "
                "evict credit\n",
                points, over_cap_on_credit);
}

TEST(DevicePool, TieredInceptionPeakHoldsUnderPipelinedEviction)
{
    // perfbench's inception-tiered workload: tiny Inception, batch 32,
    // lossy FP16, async with one codec worker, a 384 KiB device pool
    // over a 1 GB/s memory tier, with its seed-5 data and init. Its
    // measured peak was 1212416 B at most while every evict was waited
    // on at once; the one-node slack and link-idle fetch-ahead lift the
    // level between cap checks but must not lift that peak.
    constexpr std::uint64_t kSeed = 5;
    SyntheticDataset::Spec spec;
    spec.num_train = 1024;
    spec.num_eval = 0;
    spec.classes = models::kTinyClasses;
    spec.channels = models::kTinyChannels;
    spec.image = models::kTinyImage;
    spec.seed = kSeed;
    const SyntheticDataset data(spec);
    GistConfig cfg = GistConfig::lossy(DprFormat::Fp16);
    cfg.async_codec = true;
    cfg.codec_threads = 1;
    cfg.device_pool_bytes = 393216;
    cfg.tier_bandwidth_bytes_per_s = 1e9;
    Graph g = models::tinyInception(32);
    Rng rng(kSeed * 0x9e3779b97f4a7c15ULL + 17);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(buildSchedule(g, cfg), exec);
    ASSERT_NE(exec.devicePool(), nullptr);
    Trainer trainer(exec);
    TrainConfig tc;
    tc.batch_size = 32;
    tc.epochs = 1;
    tc.learning_rate = 0.02f;
    tc.clip_grad_norm = 5.0f;
    TrainLoop loop(trainer, data, tc);
    std::uint64_t evictions = 0;
    for (int s = 0; s < 8 && loop.step(); ++s) {
        EXPECT_LE(exec.stats().peak_pool_bytes, 1212416u) << "step " << s;
        evictions += exec.stats().tier_evictions;
    }
    EXPECT_GT(evictions, 0u);
}

TEST(DevicePool, TierTransfersRunOnTheLinkWorker)
{
    // Every evict and fetch runs on the link worker (its own trace row,
    // index <= -kLinkWorkerIndexBase), never on a codec worker: checked
    // on a capped lossless run (overflow evicts) and on a compressed
    // swap-all run (Swap evicts chained after their encodes). The swap
    // run has no cap, so nothing holds the forward back, and its slow
    // link makes each evict outlast the next slots' encodes: on >= 2
    // cores some encode runs on a codec worker while an evict is on the
    // link — the overlap the separate link exists for.
    const std::uint64_t seed = 23;
    const auto plain = runSteps(randomGraph(seed), seed,
                                GistConfig::lossless(), {}, false, 0, 0);
    PoolSpec capped_pool;
    capped_pool.attach = true;
    capped_pool.cap = plain.peak_bytes * 3 / 10;
    GistConfig swap_cfg = GistConfig::baseline();
    swap_cfg.ssdc = true; // CSR-compressed swaps of the ReLU->conv slots
    PoolSpec slow_link;
    slow_link.attach = true;
    slow_link.bps = 20e6;
    obs::traceStart(""); // memory-only
    const auto capped = runSteps(randomGraph(seed), seed,
                                 GistConfig::lossless(), capped_pool, true,
                                 2, 0);
    const auto swapped = runSteps(randomGraph(seed), seed, swap_cfg,
                                  slow_link, true, 2, 0, 2,
                                  /*swap_all=*/true);
    obs::traceStop();
    const auto events = obs::traceCollect();
    obs::traceReset();
    ASSERT_GT(capped.tier_evictions, 0u);
    ASSERT_GT(swapped.tier_evictions, 0u);
    EXPECT_EQ(plain.losses, capped.losses);
    // CSR swaps are lossless, so the swap run's two steps match the
    // plain run's first two.
    EXPECT_EQ(std::vector<float>(plain.losses.begin(),
                                 plain.losses.begin() + 2),
              swapped.losses);

    int on_link = 0;
    int elsewhere = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> evicts;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> encodes;
    for (const auto &e : events) {
        if (e.cat == "evict" || e.cat == "fetch") {
            if (e.worker_index <= -kLinkWorkerIndexBase)
                ++on_link;
            else
                ++elsewhere;
            if (e.cat == "evict")
                evicts.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
        } else if (e.cat == "encode" && e.worker_index < 0 &&
                   e.worker_index > -kLinkWorkerIndexBase) {
            encodes.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
        }
    }
    EXPECT_GT(on_link, 0) << "no evict/fetch span on the link worker";
    EXPECT_EQ(elsewhere, 0)
        << "evict/fetch spans ran off the link worker";
    ASSERT_FALSE(encodes.empty()) << "no encode ran on a codec worker";

    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "single core: overlap not guaranteed";
    const bool overlapped =
        std::any_of(encodes.begin(), encodes.end(), [&](const auto &c) {
            return std::any_of(
                evicts.begin(), evicts.end(), [&](const auto &v) {
                    return c.first < v.second && v.first < c.second;
                });
        });
    EXPECT_TRUE(overlapped)
        << "no encode span overlapped an evict span in the trace";
}

TEST(DevicePool, SwapAllPlanMatchesDenseBaselineBitwise)
{
    // Raw (uncompressed) swap transfers are pure byte moves, so a plan
    // that swaps every stash slot must be bit-identical to the dense
    // baseline — in sync mode and under async jitter.
    const std::uint64_t seed = 11;
    const GistConfig cfg = GistConfig::baseline();
    const auto dense =
        runSteps(randomGraph(seed), seed, cfg, {}, false, 0, 0);
    const auto swap_sync = runSteps(randomGraph(seed), seed, cfg, {},
                                    false, 0, 0, 3, /*swap_all=*/true);
    EXPECT_GT(swap_sync.tier_evictions, 0u);
    EXPECT_EQ(dense.losses, swap_sync.losses);
    EXPECT_EQ(dense.grads, swap_sync.grads);

    const auto swap_async = runSteps(randomGraph(seed), seed, cfg, {},
                                     true, 2, seed * 2 + 1, 3, true);
    EXPECT_EQ(dense.losses, swap_async.losses);
    EXPECT_EQ(dense.grads, swap_async.grads);
}

TEST(DevicePool, CompressedSwapIsDeterministicAcrossModes)
{
    // CSR/DPR-compressed transfers: sync and async must agree bitwise
    // (lossy DPR is deterministic, so the arms still match each other).
    // Seed 23 has a Dense-mode max-pool, whose input and output must
    // travel losslessly (swapCodecFor).
    GistConfig cfg = GistConfig::baseline();
    cfg.ssdc = true;
    cfg.dpr = true;
    cfg.dpr_format = DprFormat::Fp16;
    for (const std::uint64_t seed : { 13u, 23u }) {
        SCOPED_TRACE(seed);
        const auto raw = runSteps(randomGraph(seed), seed,
                                  GistConfig::baseline(), {}, false, 0, 0,
                                  3, /*swap_all=*/true);
        const auto sync = runSteps(randomGraph(seed), seed, cfg, {}, false,
                                   0, 0, 3, /*swap_all=*/true);
        EXPECT_GT(sync.tier_evictions, 0u);
        EXPECT_LT(sync.tier_bytes_out, raw.tier_bytes_out)
            << "CSR/DPR-compressed evictions should move fewer bytes "
               "than raw fp32 swaps";
        const auto async = runSteps(randomGraph(seed), seed, cfg, {}, true,
                                    2, seed * 2 + 1, 3, true);
        EXPECT_EQ(sync.losses, async.losses);
        EXPECT_EQ(sync.grads, async.grads);
        EXPECT_EQ(sync.tier_bytes_out, async.tier_bytes_out)
            << "compressed transfer volume must not depend on timing";
    }
}

TEST(DevicePool, StatsArePopulatedOnCappedRuns)
{
    const std::uint64_t seed = 17;
    const auto unbounded = runSteps(randomGraph(seed), seed,
                                    GistConfig::lossless(), {}, false, 0,
                                    0);
    PoolSpec pool;
    pool.attach = true;
    pool.cap = unbounded.peak_bytes / 2;
    const auto capped = runSteps(randomGraph(seed), seed,
                                 GistConfig::lossless(), pool, false, 0,
                                 0);
    EXPECT_GT(capped.tier_evictions, 0u);
    EXPECT_EQ(capped.tier_evictions, capped.tier_fetches)
        << "every eviction must be fetched back";
    EXPECT_GT(capped.tier_bytes_out, 0u);
    EXPECT_EQ(capped.tier_bytes_out, capped.tier_bytes_in);
    EXPECT_EQ(capped.tier_resident_after, 0u);
}

TEST(DevicePool, FileTierWriteFailureSurfacesAsError)
{
    // Delete the spill directory after the pool opens it: the next
    // eviction's store fails and the error must surface as an exception
    // from runMinibatch (via the ticket rethrow path), not a crash or
    // silent corruption.
    const std::string dir = tempPath("gist_gone_tier");
    Graph g = randomGraph(19);
    Rng rng(20);
    g.initParams(rng);
    Executor exec(g);
    BuiltSchedule schedule = buildSchedule(g, GistConfig::baseline());
    const ScheduleInfo sched(g);
    for (const auto &node : g.nodes())
        if (sched.stashed(node.id))
            schedule.decisions[static_cast<size_t>(node.id)].repr =
                StashPlan::Repr::Swap;
    applyToExecutor(schedule, exec);
    DevicePoolConfig pc;
    pc.tier_path = dir;
    exec.setDevicePool(std::make_shared<DevicePool>(pc));
    ASSERT_EQ(std::remove(dir.c_str()), 0)
        << "could not remove tier dir";

    exec.setAsyncCodec(false, 0);
    Rng drng(21);
    const Tensor batch =
        Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
    const std::vector<std::int32_t> labels = { 0, 1, 2, 3 };
    EXPECT_THROW(exec.runMinibatch(batch, labels), std::runtime_error);
}

// ---------------------------------------------------------------------
// Checkpoint resume with the tier active
// ---------------------------------------------------------------------

TEST(DevicePool, CheckpointResumeWithTierIsBitwise)
{
    SyntheticDataset::Spec spec;
    spec.num_train = 48;
    spec.num_eval = 16;
    SyntheticDataset data(spec);
    TrainConfig tc;
    tc.batch_size = 16;
    tc.epochs = 2;

    GistConfig cfg = GistConfig::lossless();
    cfg.device_pool_bytes = 64 * 1024; // far below the working set

    const auto flat = [](Graph &g) {
        std::vector<float> out;
        for (auto &node : g.nodes())
            if (node.layer) {
                for (Tensor *p : node.layer->params())
                    out.insert(out.end(), p->data(),
                               p->data() + p->numel());
                for (Tensor *t : node.layer->stateTensors())
                    out.insert(out.end(), t->data(),
                               t->data() + t->numel());
            }
        return out;
    };

    Graph a = models::tinyAlexnet(16, 8);
    Rng rng_a(5);
    a.initParams(rng_a);
    Executor exec_a(a);
    applyToExecutor(buildSchedule(a, cfg), exec_a);
    ASSERT_NE(exec_a.devicePool(), nullptr)
        << "device_pool_bytes did not attach a pool";
    Trainer trainer_a(exec_a);
    trainer_a.run(data, tc);

    const auto path = tempPath("ckpt_tier_resume.bin");
    Graph b = models::tinyAlexnet(16, 8);
    Rng rng_b(5);
    b.initParams(rng_b);
    Executor exec_b(b);
    applyToExecutor(buildSchedule(b, cfg), exec_b);
    Trainer trainer_b(exec_b);
    TrainConfig tc_cut = tc;
    tc_cut.checkpoint_path = path;
    tc_cut.max_steps = 3;
    trainer_b.run(data, tc_cut);

    Graph c = models::tinyAlexnet(16, 8);
    Rng rng_c(99); // different init: everything from the checkpoint
    c.initParams(rng_c);
    Executor exec_c(c);
    applyToExecutor(buildSchedule(c, cfg), exec_c);
    Trainer trainer_c(exec_c);
    TrainConfig tc_resume = tc;
    tc_resume.checkpoint_path = path;
    tc_resume.resume = true;
    trainer_c.run(data, tc_resume);

    EXPECT_EQ(flat(a), flat(c));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Planner: Swap in the budget sweep
// ---------------------------------------------------------------------

TEST(DevicePoolPlanner, BudgetSweepWithSwapIsMonotoneAndFeasible)
{
    Graph probe = models::tinyVgg(8);
    GistConfig cfg = GistConfig::lossless();
    cfg.device_pool_bytes = 1; // makes Swap an eligible choice
    cfg.mem_budget_bytes = 1ull << 40;
    const BuiltSchedule top = buildSchedule(probe, cfg);
    ASSERT_TRUE(top.hybrid.active);
    const std::uint64_t keep = top.hybrid.keep_peak_bytes;
    ASSERT_GT(keep, 0u);

    std::uint64_t prev_peak = ~0ull;
    for (const double f : { 0.95, 0.8, 0.65, 0.5, 0.35, 0.2 }) {
        Graph g = models::tinyVgg(8);
        GistConfig c = cfg;
        c.mem_budget_bytes = static_cast<std::uint64_t>(
            static_cast<double>(keep) * f);
        const BuiltSchedule s = buildSchedule(g, c);
        ASSERT_TRUE(s.hybrid.active) << "f=" << f;
        EXPECT_LE(s.hybrid.planned_peak_bytes, prev_peak)
            << "budget sweep not monotone at f=" << f;
        if (s.hybrid.feasible) {
            EXPECT_LE(s.hybrid.planned_peak_bytes, c.mem_budget_bytes)
                << "feasible plan exceeds its budget at f=" << f;
        }
        prev_peak = s.hybrid.planned_peak_bytes;
        const std::string json = hybridPlanJson(s);
        EXPECT_NE(json.find("\"tier_bytes\""), std::string::npos);
    }
}

TEST(DevicePoolPlanner, SwapSlotsExecuteUnderTheirPlan)
{
    // Build a schedule whose planner may choose Swap, then force one
    // representative slot to Swap and verify the full apply-and-run
    // path works with the planner-configured pool (cap + codec).
    Graph g = models::tinyVgg(8);
    GistConfig cfg = GistConfig::lossless();
    cfg.device_pool_bytes = 1ull << 20;
    BuiltSchedule schedule = buildSchedule(g, cfg);
    const ScheduleInfo sched(g);
    bool forced = false;
    for (const auto &node : g.nodes()) {
        if (!forced && sched.stashed(node.id) &&
            !schedule.of(node.id).binarized) {
            schedule.decisions[static_cast<size_t>(node.id)].repr =
                StashPlan::Repr::Swap;
            forced = true;
        }
    }
    ASSERT_TRUE(forced);
    Rng rng(3);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(schedule, exec);
    ASSERT_NE(exec.devicePool(), nullptr);
    EXPECT_EQ(exec.devicePool()->cap(), cfg.device_pool_bytes);

    Rng drng(4);
    const Tensor batch =
        Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
    std::vector<std::int32_t> labels(
        static_cast<size_t>(g.node(0).out_shape.dim(0)), 1);
    const float loss = exec.runMinibatch(batch, labels);
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(exec.stats().tier_evictions, 0u);
}

TEST(DevicePoolPlanner, MaxPoolPairsStayExactAtTightBudgets)
{
    // Without Binarize a ReLU -> max-pool pair stays in Dense mode, whose
    // backward finds each argmax as the first input tap equal to the
    // output. CSR values stay FP32 here, so DPR is the only lossy
    // choice; a plan that keeps the pool's input and stores its output
    // DPR panics ("maxpool argmax not found"). Seed 14 is a graph whose
    // tight-budget plans pick that pair when DPR is eligible for it,
    // with and without a 1-byte cap.
    GistConfig cfg = GistConfig::baseline();
    cfg.ssdc = true;
    cfg.dpr = true;
    cfg.dpr_format = DprFormat::Fp16;
    for (const std::uint64_t seed : { 14u, 23u }) {
        for (const std::uint64_t cap : { 0u, 1u }) {
            GistConfig c = cfg;
            c.device_pool_bytes = cap;
            c.mem_budget_bytes = 1ull << 40;
            Graph probe = randomGraph(seed);
            const std::uint64_t keep =
                buildSchedule(probe, c).hybrid.keep_peak_bytes;
            for (const double f : { 0.8, 0.3, 0.01 }) {
                SCOPED_TRACE(::testing::Message() << "seed " << seed
                                                  << " cap " << cap
                                                  << " f " << f);
                c.mem_budget_bytes = static_cast<std::uint64_t>(
                    static_cast<double>(keep) * f);
                Graph g = randomGraph(seed);
                const BuiltSchedule s = buildSchedule(g, c);
                int matched = 0;
                for (const ScheduleDecision &d : s.decisions) {
                    if (!d.pool_matched)
                        continue;
                    ++matched;
                    EXPECT_NE(d.repr, StashPlan::Repr::Dpr);
                    if (d.repr == StashPlan::Repr::Swap)
                        EXPECT_NE(swapCodecFor(s.config, d),
                                  StashPlan::SwapCodec::Dpr);
                }
                EXPECT_EQ(matched, 2) << "one Dense-mode max-pool pair";
                const auto run =
                    runSteps(randomGraph(seed), seed, c, {}, false, 0, 0, 2);
                EXPECT_TRUE(std::isfinite(run.losses.back()));
            }
        }
    }
}

} // namespace
} // namespace gist
