/**
 * @file
 * Concurrency stress tests for the async codec pipeline: random graphs
 * x random codec-worker counts x injected yield jitter, asserting that
 * async execution is bit-for-bit identical to the synchronous fallback
 * (lossless AND lossy — quantization is deterministic), that a single
 * starved codec worker can never deadlock (decode tasks wait only on
 * the same slot's earlier-submitted encode, so FIFO order suffices),
 * and that encode/decode spans really run on codec workers (negative
 * worker_index in the trace). Overlap with main-thread compute is
 * asserted from the trace only when the machine has >= 2 cores; a
 * gate of two test layers makes an encode run inside a main-thread
 * forward, so the overlap does not depend on how fast a codec worker
 * wakes up.
 *
 * The whole file runs under the CI TSan job with GIST_ASYNC=1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gist.hpp"
#include "layers/layers.hpp"
#include "models/builder.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

/**
 * Random well-formed CNN (trunk of conv/relu/pool segments with
 * residual and concat branches) — every ReLU/pool feeding a conv is a
 * stash the codec pipeline must encode and prefetch-decode.
 */
Graph
randomGraph(std::uint64_t seed, std::int64_t batch = 4)
{
    Rng rng(seed);
    const std::int64_t img = 16;
    NetBuilder net(batch, 3, img, img);
    std::int64_t spatial = img;
    const int segments = 2 + static_cast<int>(rng.uniformInt(4));
    for (int s = 0; s < segments; ++s) {
        const std::int64_t channels = 4 + 4 * rng.uniformInt(4);
        switch (rng.uniformInt(5)) {
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
          case 3: {
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
          default: {
            const NodeId trunk = net.tip();
            NodeId a = net.reluAt(net.convAt(trunk, channels, 1));
            NodeId b = net.reluAt(net.convAt(trunk, channels, 3, 1, 1));
            net.concat({ a, b });
            break;
          }
        }
    }
    net.fc(5);
    net.loss(5);
    return net.take();
}

/** Fixed stash-heavy net for the trace and starvation tests. */
Graph
stashHeavyGraph(std::int64_t batch = 4)
{
    NetBuilder net(batch, 3, 16, 16);
    net.conv(8, 3, 1, 1);
    net.relu();
    net.conv(8, 3, 1, 1);
    net.relu();
    net.maxpool(2, 2);
    net.conv(16, 3, 1, 1);
    net.relu();
    net.conv(16, 3, 1, 1);
    net.relu();
    net.maxpool(2, 2);
    net.fc(5);
    net.loss(5);
    return net.take();
}

/** What the two CodecGateLayer nodes of one graph share. */
struct CodecGate
{
    CodecQueue *queue = nullptr;
    std::atomic<bool> open{ true };
};

/**
 * Identity layer that pins codec spans inside a main-thread forward
 * span, whatever the scheduler does. The holding layer parks every
 * codec worker on a blocker task; the stash encodes submitted after it
 * queue up behind the blockers. The releasing layer opens the gate and
 * returns only once all of that work has run, so those encodes start
 * and end inside its forward span. The blockers give up after 10 s, so
 * a schedule that joined an encode in between fails instead of hanging.
 */
class CodecGateLayer : public Layer
{
  public:
    CodecGateLayer(CodecGate &gate, bool hold) : gate_(gate), hold_(hold) {}

    LayerKind kind() const override { return LayerKind::Dropout; }
    Shape outputShape(std::span<const Shape> in) const override
    {
        return in[0];
    }
    BackwardNeeds backwardNeeds() const override { return { false, false }; }

    void
    forward(const FwdCtx &ctx) override
    {
        const Tensor &x = *ctx.inputs[0];
        std::copy_n(x.data(), x.numel(), ctx.output->data());
        CodecQueue *queue = gate_.queue;
        if (!queue)
            return;
        if (hold_) {
            gate_.open.store(false);
            for (int w = 0; w < queue->numWorkers(); ++w)
                queue->submit([&gate = gate_] {
                    const auto deadline = std::chrono::steady_clock::now() +
                                          std::chrono::seconds(10);
                    while (!gate.open.load() &&
                           std::chrono::steady_clock::now() < deadline)
                        std::this_thread::yield();
                });
            return;
        }
        const std::uint64_t submitted = queue->stats().submitted;
        gate_.open.store(true);
        while (queue->stats().completed < submitted)
            std::this_thread::yield();
    }

    void
    backward(const BwdCtx &ctx) override
    {
        if (Tensor *dx = ctx.d_inputs[0])
            for (std::int64_t i = 0; i < dx->numel(); ++i)
                dx->at(i) += ctx.d_output->at(i);
    }

  private:
    CodecGate &gate_;
    bool hold_;
};

/**
 * stashHeavyGraph() with a gate around the first CSR stash's encode:
 * held after conv1, released after conv2 (which retires relu1).
 */
Graph
codecGateGraph(CodecGate &gate)
{
    Graph g;
    const auto name = [&](const char *base) {
        return base + std::to_string(g.numNodes());
    };
    const auto conv = [&](NodeId in, std::int64_t out_c) {
        return g.addNode(name("conv"),
                         std::make_unique<ConvLayer>(
                             g.node(in).out_shape.c(),
                             ConvSpec::square(out_c, 3, 1, 1)),
                         { in });
    };
    const auto relu = [&](NodeId in) {
        return g.addNode(name("relu"), std::make_unique<ReluLayer>(), { in });
    };
    const auto pool = [&](NodeId in) {
        return g.addNode(name("pool"),
                         std::make_unique<MaxPoolLayer>(
                             PoolSpec::square(2, 2)),
                         { in });
    };
    const auto gateAt = [&](NodeId in, bool hold) {
        return g.addNode(name("gate"),
                         std::make_unique<CodecGateLayer>(gate, hold),
                         { in });
    };
    NodeId t = g.addInput("data", Shape::nchw(4, 3, 16, 16));
    t = conv(relu(gateAt(conv(t, 8), true)), 8);
    t = pool(relu(gateAt(t, false)));
    t = pool(relu(conv(relu(conv(t, 16)), 16)));
    t = g.addNode("fc", std::make_unique<FcLayer>(16 * 4 * 4, 5), { t });
    g.addNode("loss", std::make_unique<SoftmaxCrossEntropyLayer>(5), { t });
    return g;
}

struct StepResult
{
    std::vector<float> losses;
    std::vector<float> grads;
};

/**
 * Train @p steps identical minibatches and collect every loss and
 * parameter gradient. The async arms set jitter so codec workers yield
 * at randomized points; jitter is always cleared again on return.
 */
StepResult
runSteps(Graph &&g, std::uint64_t seed, const GistConfig &cfg, bool async,
         int workers, std::uint64_t jitter_seed, int steps = 3)
{
    Rng rng(seed + 1);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(buildSchedule(g, cfg), exec);
    exec.codecQueue().setJitter(async ? jitter_seed : 0);
    exec.setAsyncCodec(async, workers);
    StepResult result;
    Rng drng(seed + 2);
    const std::vector<std::int32_t> labels = { 0, 1, 2, 3 };
    for (int s = 0; s < steps; ++s) {
        const Tensor batch =
            Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
        result.losses.push_back(exec.runMinibatch(batch, labels));
    }
    for (auto &node : g.nodes())
        if (node.layer)
            for (Tensor *w : node.layer->paramGrads())
                result.grads.insert(result.grads.end(), w->data(),
                                    w->data() + w->numel());
    exec.codecQueue().setJitter(0);
    return result;
}

class AsyncExecutor : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AsyncExecutor, LosslessAsyncMatchesSyncBitwise)
{
    const std::uint64_t seed = GetParam();
    const int workers = 1 + static_cast<int>(seed % 3);
    const auto sync =
        runSteps(randomGraph(seed), seed, GistConfig::lossless(), false,
                 workers, 0);
    const auto async =
        runSteps(randomGraph(seed), seed, GistConfig::lossless(), true,
                 workers, /*jitter_seed=*/seed * 2 + 1);
    EXPECT_EQ(sync.losses, async.losses) << "workers=" << workers;
    EXPECT_EQ(sync.grads, async.grads) << "workers=" << workers;
}

TEST_P(AsyncExecutor, ElidedLosslessAsyncMatchesSyncBitwise)
{
    const std::uint64_t seed = GetParam();
    GistConfig cfg = GistConfig::lossless();
    cfg.elide_decode_buffer = true;
    const auto sync = runSteps(randomGraph(seed), seed, cfg, false, 2, 0);
    const auto async =
        runSteps(randomGraph(seed), seed, cfg, true, 2, seed * 2 + 1);
    EXPECT_EQ(sync.losses, async.losses);
    EXPECT_EQ(sync.grads, async.grads);
}

TEST_P(AsyncExecutor, LossyAsyncIsDeterministic)
{
    const std::uint64_t seed = GetParam();
    const auto sync = runSteps(randomGraph(seed), seed,
                               GistConfig::lossy(DprFormat::Fp16), false,
                               2, 0);
    const auto async =
        runSteps(randomGraph(seed), seed, GistConfig::lossy(DprFormat::Fp16),
                 true, 2, seed * 2 + 1);
    EXPECT_EQ(sync.losses, async.losses);
    EXPECT_EQ(sync.grads, async.grads);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncExecutor,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(AsyncExecutorStress, SingleStarvedWorkerNeverDeadlocks)
{
    // One codec worker, yield jitter on: every decode task waits on the
    // same slot's encode ticket inside the only worker thread. FIFO
    // submission order (encode before decode) is the no-deadlock
    // argument; this test is the regression net for it. A deadlock
    // shows up as a ctest timeout.
    for (std::uint64_t seed = 21; seed < 25; ++seed) {
        const auto result =
            runSteps(randomGraph(seed), seed, GistConfig::lossless(), true,
                     /*workers=*/1, /*jitter_seed=*/seed);
        for (const float loss : result.losses)
            EXPECT_TRUE(std::isfinite(loss)) << "seed=" << seed;
    }
}

TEST(AsyncExecutorStress, StallCountersZeroSyncNonzeroQueueWaitAsync)
{
    // Sync mode never creates codec tickets — every encode/decode runs
    // inline on the main thread — so the per-step stall accounting must
    // read exactly zero. Async with one starved worker must observe
    // queue wait (enqueue -> pickup) on the codec tasks.
    Graph g = stashHeavyGraph();
    Rng rng(5);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(buildSchedule(g, GistConfig::lossless()), exec);
    exec.setAsyncCodec(false, 1);

    Rng drng(6);
    const std::vector<std::int32_t> labels = { 0, 1, 2, 3 };
    const Tensor batch =
        Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
    exec.runMinibatch(batch, labels);
    EXPECT_EQ(exec.stats().codec_stalls, 0u);
    EXPECT_EQ(exec.stats().codec_stall_ns, 0u);
    EXPECT_EQ(exec.stats().codec_queue_wait_ns, 0u);
    EXPECT_EQ(exec.stats().codec_run_ns, 0u);
    EXPECT_EQ(exec.stats().codec_queue_peak_depth, 0);
    EXPECT_DOUBLE_EQ(exec.stats().overlap_efficiency, 1.0);

    exec.setAsyncCodec(true, /*workers=*/1);
    exec.codecQueue().setJitter(31); // stretch worker pickup
    exec.runMinibatch(batch, labels);
    exec.codecQueue().setJitter(0);
    EXPECT_GT(exec.stats().codec_run_ns, 0u)
        << "async step dispatched no codec tasks";
    EXPECT_GT(exec.stats().codec_queue_wait_ns, 0u)
        << "codec tasks reported zero enqueue->pickup time";
    EXPECT_GT(exec.stats().codec_queue_peak_depth, 0);
    EXPECT_GE(exec.stats().overlap_efficiency, 0.0);
    EXPECT_LE(exec.stats().overlap_efficiency, 1.0);
}

TEST(AsyncExecutorStress, CodecSpansRunOnCodecWorkers)
{
    CodecGate gate;
    Graph g = codecGateGraph(gate);
    Rng rng(8);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(buildSchedule(g, GistConfig::lossless()), exec);
    exec.setAsyncCodec(true, /*workers=*/2);
    gate.queue = &exec.codecQueue();
    obs::traceStart(""); // memory-only
    Rng drng(9);
    const std::vector<std::int32_t> labels = { 0, 1, 2, 3 };
    for (int s = 0; s < 3; ++s)
        exec.runMinibatch(
            Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f),
            labels);
    obs::traceStop();
    const auto events = obs::traceCollect();
    obs::traceReset();

    int encode_on_worker = 0;
    int decode_on_worker = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> codec_spans;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> compute_spans;
    for (const auto &e : events) {
        if (e.cat == "encode" || e.cat == "decode") {
            if (e.worker_index < 0) {
                ++(e.cat == "encode" ? encode_on_worker : decode_on_worker);
                codec_spans.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
            }
        } else if ((e.cat == "fwd" || e.cat == "bwd") &&
                   e.worker_index == 0) {
            compute_spans.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
        }
    }
    EXPECT_GT(encode_on_worker, 0)
        << "no encode span ran on a codec worker";
    EXPECT_GT(decode_on_worker, 0)
        << "no decode span ran on a codec worker";

    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "single core: overlap not guaranteed";
    // On >= 2 cores at least one codec span must overlap main-thread
    // compute — the pipeline's whole point (fig09 rerun: GIST_ASYNC=1).
    bool overlapped = false;
    for (const auto &c : codec_spans) {
        for (const auto &m : compute_spans)
            if (c.first < m.second && m.first < c.second) {
                overlapped = true;
                break;
            }
        if (overlapped)
            break;
    }
    EXPECT_TRUE(overlapped)
        << "no codec span overlapped fwd/bwd compute in the trace";
}

} // namespace
} // namespace gist
