#include "core/planner.hpp"

#include <algorithm>
#include <cstdio>

#include "layers/conv.hpp"
#include "perf/gpu_model.hpp"
#include "tensor/gemm.hpp"
#include "util/logging.hpp"

namespace gist {

namespace {

/** Input shapes of a node (for workspace/aux queries). */
std::vector<Shape>
inputShapes(const Graph &graph, const Node &node)
{
    std::vector<Shape> shapes;
    for (NodeId in : node.inputs)
        shapes.push_back(graph.node(in).out_shape);
    return shapes;
}

} // namespace

bool
inMfrPool(DataClass cls)
{
    switch (cls) {
      case DataClass::StashedFmap:
      case DataClass::ImmediateFmap:
      case DataClass::GradientMap:
      case DataClass::EncodedFmap:
      case DataClass::DecodeScratch:
        return true;
      case DataClass::Weight:
      case DataClass::WeightGrad:
      case DataClass::Workspace:
        return false;
    }
    return false;
}

std::vector<PlannedBuffer>
planBuffers(const Graph &graph, const BuiltSchedule &schedule,
            const SparsityModel &sparsity)
{
    const ScheduleInfo sched(graph);
    const int last_step = graph.numSteps() - 1;
    std::vector<PlannedBuffer> buffers;

    // Which nodes are overwritten inplace by their ReLU consumer; the
    // merged buffer is emitted at the ReLU with the parent's birth step.
    std::vector<bool> absorbed(static_cast<size_t>(graph.numNodes()),
                               false);
    for (const auto &node : graph.nodes())
        if (schedule.of(node.id).inplace)
            absorbed[static_cast<size_t>(node.inputs[0])] = true;

    for (const auto &node : graph.nodes()) {
        const NodeId id = node.id;
        const size_t first_buffer = buffers.size();
        const auto &decision = schedule.of(id);
        const std::uint64_t fp32_bytes =
            static_cast<std::uint64_t>(node.out_shape.numel()) * 4;

        // ---- The output feature map ----
        if (!absorbed[static_cast<size_t>(id)]) {
            int birth = graph.fwdStep(id);
            if (decision.inplace)
                birth = graph.fwdStep(node.inputs[0]);

            if (!sched.stashed(id)) {
                buffers.push_back({ node.name + ":fmap",
                                    DataClass::ImmediateFmap, fp32_bytes,
                                    { birth, sched.lastFwdRead(id) },
                                    true });
            } else if (decision.repr == StashPlan::Repr::Dense) {
                buffers.push_back({ node.name + ":fmap",
                                    DataClass::StashedFmap, fp32_bytes,
                                    { birth, sched.lastBwdRead(id) },
                                    true });
            } else if (decision.repr == StashPlan::Repr::Recompute) {
                // Recompute stores nothing across the gap: the FP32 map
                // dies at its last forward read and a replayed copy
                // serves the backward reads. (The replay's transient
                // segment scaffolding is modeled by the hybrid planner's
                // evaluation, not here — it depends on which *other*
                // slots are dropped.)
                buffers.push_back({ node.name + ":fmap",
                                    DataClass::ImmediateFmap, fp32_bytes,
                                    { birth, sched.lastFwdRead(id) },
                                    true });
                buffers.push_back({ node.name + ":rem",
                                    DataClass::StashedFmap, fp32_bytes,
                                    { sched.firstBwdRead(id),
                                      sched.lastBwdRead(id) },
                                    true });
            } else if (decision.repr == StashPlan::Repr::Swap) {
                // Swap: the map leaves the device across the gap. What
                // stays resident is only the transfer scaffolding — the
                // encoded form (when the transfer is compressed) exists
                // momentarily around the eviction and again around the
                // fetch, and the fetched copy serves the backward reads.
                const int last_fwd = sched.lastFwdRead(id);
                const int first_bwd = sched.firstBwdRead(id);
                const int last_bwd = sched.lastBwdRead(id);
                buffers.push_back({ node.name + ":fmap",
                                    DataClass::ImmediateFmap, fp32_bytes,
                                    { birth, last_fwd }, true });
                const StashPlan::SwapCodec codec =
                    swapCodecFor(schedule.config, decision);
                if (codec != StashPlan::SwapCodec::None) {
                    const std::uint64_t enc_bytes =
                        codec == StashPlan::SwapCodec::Csr
                            ? csrBytesForSparsity(
                                  schedule.config.csr,
                                  node.out_shape.numel(),
                                  sparsity.at(graph, id))
                            : dprEncodedBytes(schedule.config.dpr_format,
                                              node.out_shape.numel());
                    buffers.push_back({ node.name + ":enc",
                                        DataClass::EncodedFmap, enc_bytes,
                                        { last_fwd, last_fwd }, true });
                    buffers.push_back({ node.name + ":enc",
                                        DataClass::EncodedFmap, enc_bytes,
                                        { first_bwd, first_bwd }, true });
                    buffers.push_back({ node.name + ":dec",
                                        DataClass::DecodeScratch,
                                        fp32_bytes,
                                        { first_bwd, last_bwd }, true });
                } else {
                    buffers.push_back({ node.name + ":rem",
                                        DataClass::StashedFmap,
                                        fp32_bytes,
                                        { first_bwd, last_bwd }, true });
                }
            } else {
                // Encoded stash: the FP32 copy becomes immediately
                // consumed, the encoded form bridges the temporal gap,
                // and (unless elided) a decode buffer serves the
                // backward reads — paper Figure 2.
                const int last_fwd = sched.lastFwdRead(id);
                const int first_bwd = sched.firstBwdRead(id);
                const int last_bwd = sched.lastBwdRead(id);
                buffers.push_back({ node.name + ":fmap",
                                    DataClass::ImmediateFmap, fp32_bytes,
                                    { birth, last_fwd }, true });
                std::uint64_t enc_bytes = 0;
                if (decision.repr == StashPlan::Repr::Csr) {
                    enc_bytes = csrBytesForSparsity(
                        schedule.config.csr, node.out_shape.numel(),
                        sparsity.at(graph, id));
                } else {
                    enc_bytes = dprEncodedBytes(schedule.config.dpr_format,
                                                node.out_shape.numel());
                }
                buffers.push_back({ node.name + ":enc",
                                    DataClass::EncodedFmap, enc_bytes,
                                    { last_fwd, first_bwd }, true });
                if (!schedule.config.elide_decode_buffer) {
                    buffers.push_back({ node.name + ":dec",
                                        DataClass::DecodeScratch,
                                        fp32_bytes,
                                        { first_bwd, last_bwd }, true });
                }
            }
        }

        if (node.kind() == LayerKind::Input) {
            for (size_t b = first_buffer; b < buffers.size(); ++b)
                buffers[b].origin_node = id;
            continue;
        }

        // ---- The gradient map of this node's output ----
        // Written by the backward passes of this node's consumers
        // (earliest first), consumed by this node's own backward step.
        const auto &consumers = sched.consumers(id);
        if (!consumers.empty()) {
            int first_writer = graph.bwdStep(id);
            for (NodeId c : consumers)
                first_writer = std::min(first_writer, graph.bwdStep(c));
            buffers.push_back({ node.name + ":grad",
                                DataClass::GradientMap, fp32_bytes,
                                { first_writer, graph.bwdStep(id) },
                                true });
        }

        const auto in_shapes = inputShapes(graph, node);

        // ---- Layer-internal aux stash ----
        const std::uint64_t aux =
            node.layer->auxStashBytes(in_shapes);
        if (aux > 0) {
            const bool gist_aux = decision.binarized;
            buffers.push_back({ node.name + ":aux",
                                gist_aux ? DataClass::EncodedFmap
                                         : DataClass::StashedFmap,
                                aux,
                                { graph.fwdStep(id), graph.bwdStep(id) },
                                true });
        }

        // ---- Workspace (forward and backward invocations) ----
        const std::uint64_t ws = node.layer->workspaceBytes(in_shapes);
        if (ws > 0) {
            buffers.push_back({ node.name + ":ws_f", DataClass::Workspace,
                                ws,
                                { graph.fwdStep(id), graph.fwdStep(id) },
                                true });
            buffers.push_back({ node.name + ":ws_b", DataClass::Workspace,
                                ws,
                                { graph.bwdStep(id), graph.bwdStep(id) },
                                true });
        }

        // ---- Parameters ----
        std::uint64_t param_bytes = 0;
        for (Tensor *p : node.layer->params())
            param_bytes += static_cast<std::uint64_t>(p->numel()) * 4;
        if (param_bytes > 0) {
            buffers.push_back({ node.name + ":w", DataClass::Weight,
                                param_bytes, { 0, last_step }, false });
            buffers.push_back({ node.name + ":dw", DataClass::WeightGrad,
                                param_bytes, { 0, last_step }, false });
        }

        for (size_t b = first_buffer; b < buffers.size(); ++b)
            buffers[b].origin_node = id;
    }
    return buffers;
}

PlanSummary
summarize(const std::vector<PlannedBuffer> &buffers, bool investigation)
{
    PlanSummary summary;
    summary.raw = bytesByClass(buffers);
    summary.weights = summary.raw[DataClass::Weight];
    summary.weight_grads = summary.raw[DataClass::WeightGrad];
    // Workspace is shared across layers (disjoint single-step lifetimes),
    // so its contribution is the maximum, not the sum.
    for (const auto &buf : buffers)
        if (buf.cls == DataClass::Workspace)
            summary.workspace = std::max(summary.workspace, buf.bytes);

    std::vector<PlannedBuffer> pool;
    for (const auto &buf : buffers) {
        if (!inMfrPool(buf.cls))
            continue;
        PlannedBuffer copy = buf;
        if (investigation && (buf.cls == DataClass::StashedFmap ||
                              buf.cls == DataClass::EncodedFmap)) {
            copy.shareable = false;
        }
        pool.push_back(std::move(copy));
        summary.pool_raw += buf.bytes;
    }
    summary.pool_static = allocateCntkStyle(pool).total_bytes;
    summary.pool_dynamic = dynamicPeak(pool);
    return summary;
}

PlanSummary
planModel(Graph &graph, const GistConfig &config,
          const SparsityModel &sparsity, bool investigation)
{
    const BuiltSchedule schedule = buildSchedule(graph, config);
    const auto buffers = planBuffers(graph, schedule, sparsity);
    return summarize(buffers, investigation);
}

namespace {

/** Add @p calls calls of (@p kernel, @p shape) to @p out, merged into
 *  the row with the same keys when there is one. */
void
addShape(std::vector<KernelShape> &out, const char *kernel,
         const char *shape, std::uint64_t work, std::uint64_t calls)
{
    for (KernelShape &ks : out) {
        if (ks.kernel == kernel && ks.shape == shape) {
            ks.calls += calls;
            return;
        }
    }
    out.push_back({ kernel, shape, work, calls });
}

/** Add @p calls calls of an m x n x k GEMM; one call moves A + B + C
 *  (fp32). */
void
addGemm(std::vector<KernelShape> &out, std::int64_t m, std::int64_t n,
        std::int64_t k, std::uint64_t calls)
{
    char key[96];
    std::snprintf(key, sizeof key, "m=%lld,n=%lld,k=%lld",
                  static_cast<long long>(m), static_cast<long long>(n),
                  static_cast<long long>(k));
    addShape(out, "gemm", key,
             4ull * static_cast<std::uint64_t>(m * k + k * n + m * n), calls);
}

} // namespace

// Cold: perfbench calls it once per traced run, off the step path.
[[gnu::cold]] std::vector<KernelShape>
collectKernelShapes(const Graph &graph, const BuiltSchedule &schedule)
{
    const ScheduleInfo sched(graph);
    std::vector<KernelShape> out;
    // The codec slot @p id's stash runs: Recompute stores nothing (no
    // codec), Swap runs its transfer codec when the transfer is
    // compressed.
    const auto codecOf = [&schedule](NodeId id) {
        const ScheduleDecision &d = schedule.of(id);
        switch (d.repr) {
        case StashPlan::Repr::Csr:
            return StashPlan::SwapCodec::Csr;
        case StashPlan::Repr::Dpr:
            return StashPlan::SwapCodec::Dpr;
        case StashPlan::Repr::Swap:
            return swapCodecFor(schedule.config, d);
        default:
            return StashPlan::SwapCodec::None;
        }
    };
    for (const auto &node : graph.nodes()) {
        const NodeId id = node.id;

        // ---- Codec kernels: one encode + one decode per encoded stash.
        const StashPlan::SwapCodec codec = codecOf(id);
        const bool emit_csr = codec == StashPlan::SwapCodec::Csr;
        const bool emit_dpr = codec == StashPlan::SwapCodec::Dpr;
        if (sched.stashed(id) && (emit_csr || emit_dpr)) {
            const std::int64_t numel = node.out_shape.numel();
            const std::uint64_t fp32 =
                static_cast<std::uint64_t>(numel) * 4;
            char key[48];
            if (emit_csr) {
                std::snprintf(key, sizeof key, "numel=%lld",
                              static_cast<long long>(numel));
                addShape(out, "csr_encode", key, fp32, 1);
                addShape(out, "csr_decode", key, fp32, 1);
            } else {
                std::snprintf(key, sizeof key, "fmt=%s,numel=%lld",
                              dprFormatName(schedule.config.dpr_format),
                              static_cast<long long>(numel));
                addShape(out, "dpr_encode", key, fp32, 1);
                addShape(out, "dpr_decode", key, fp32, 1);
            }
        }

        // ---- Compute kernels: the GEMMs the layers run, at their
        // (m, n, k).
        if (node.kind() == LayerKind::Conv) {
            const auto *conv =
                static_cast<const ConvLayer *>(node.layer.get());
            const NodeId in_id = node.inputs[0];
            const Shape &in = graph.node(in_id).out_shape;
            const ConvGeometry g = conv->geometry(in);
            const std::int64_t batch = in.n();
            const std::int64_t out_c = conv->spec().out_channels;
            const std::int64_t k = g.colRows();
            const std::int64_t p = g.colCols();
            // Forward: one GEMM over the batch (gemmConv).
            addGemm(out, out_c, batch * p, k, 1);
            // dX, unless the input is the network's: one GEMM per
            // sub-pixel phase (gemmConvDx).
            if (graph.node(in_id).kind() != LayerKind::Input)
                for (std::int64_t rh = 0; rh < g.stride_h; ++rh)
                    for (std::int64_t rw = 0; rw < g.stride_w; ++rw) {
                        const PhaseAxis ph = phaseAxis(
                            rh, g.stride_h, g.pad_h, g.kernel_h, g.in_h);
                        const PhaseAxis pw = phaseAxis(
                            rw, g.stride_w, g.pad_w, g.kernel_w, g.in_w);
                        const std::int64_t n = batch * ph.size * pw.size;
                        const std::int64_t taps = ph.taps * pw.taps;
                        if (n > 0 && taps > 0)
                            addGemm(out, g.in_c, n, out_c * taps, 1);
                    }
            // dW: the whole batch when X is read dense, else one GEMM
            // per decode tile of an encoded stash (gemmConvDw).
            const std::int64_t tile =
                schedule.config.elide_decode_buffer &&
                        codecOf(in_id) != StashPlan::SwapCodec::None
                    ? std::min(batch, ConvLayer::decodeTileImages(g))
                    : batch;
            addGemm(out, out_c, k, tile * p,
                    static_cast<std::uint64_t>(batch / tile));
            if (batch % tile != 0)
                addGemm(out, out_c, k, batch % tile * p, 1);
        } else if (node.kind() == LayerKind::Fc) {
            const Node &in = graph.node(node.inputs[0]);
            const std::int64_t batch = in.out_shape.dim(0);
            const std::int64_t in_f = in.out_shape.numel() / batch;
            const std::int64_t out_f = node.out_shape.numel() / batch;
            // Forward Y = X * W^T, backward dX = dY * W (unless the
            // input is the network's) and dW = dY^T * X — whole-batch
            // GEMMs.
            addGemm(out, batch, out_f, in_f, 1);
            if (in.kind() != LayerKind::Input)
                addGemm(out, batch, in_f, out_f, 1);
            addGemm(out, out_f, in_f, batch, 1);
        }
    }
    return out;
}

// ================== The budget-driven hybrid planner ==================

namespace {

/**
 * Prices the planner's per-slot choices with the static roofline model
 * (perf/gpu_model.hpp). Absolute numbers are model estimates, but the
 * planner only compares choices against each other.
 */
class HybridCost
{
  public:
    HybridCost(const Graph &graph, const GistConfig &config)
        : graph_(graph),
          // Slow-tier link speed, for pricing Swap transfers: a
          // configured throttle wins, else the modeled host link.
          tier_bw_(config.tier_bandwidth_bytes_per_s > 0.0
                       ? config.tier_bandwidth_bytes_per_s
                       : params_.pcie_bandwidth),
          fwd_memo_(static_cast<size_t>(graph.numNodes()), -1.0)
    {
    }

    /**
     * Encode + decode seconds for storing slot @p id encoded: each is
     * one streaming read + one write of the dense bytes.
     */
    double
    codecSeconds(NodeId id) const
    {
        return 2.0 * streamSeconds(2 * fp32Bytes(id));
    }

    /** Seconds to move @p bytes one way across the slow tier. */
    double
    tierSeconds(std::uint64_t bytes) const
    {
        return static_cast<double>(bytes) / tier_bw_;
    }

    /** Seconds to re-run node @p id's forward once (replay pricing). */
    double
    fwdSeconds(NodeId id)
    {
        double &memo = fwd_memo_[static_cast<size_t>(id)];
        if (memo < 0.0) {
            const Node &node = graph_.node(id);
            // Replaying the input slot is a copy of the minibatch.
            memo = node.kind() == LayerKind::Input
                       ? streamSeconds(2 * fp32Bytes(id))
                       : estimateLayerTime(graph_, node, params_).fwd;
        }
        return memo;
    }

  private:
    std::uint64_t
    fp32Bytes(NodeId id) const
    {
        return static_cast<std::uint64_t>(
                   graph_.node(id).out_shape.numel()) *
               4;
    }

    double
    streamSeconds(std::uint64_t bytes) const
    {
        return static_cast<double>(bytes) / params_.mem_bandwidth;
    }

    const Graph &graph_;
    GpuModelParams params_{};
    double tier_bw_;
    std::vector<double> fwd_memo_;
};

/** One simulated forward-replay the executor would run. */
struct ReplayEvent
{
    NodeId target = -1;           ///< dropped slot whose read triggers it
    int step = 0;                 ///< backward step of the trigger
    std::vector<NodeId> segment;  ///< forwards re-run (topological)
    std::vector<NodeId> decoded;  ///< encoded ancestors decoded early
};

/**
 * Mirror of Executor::ensureRecomputed()/replaySegment() over the
 * candidate representation vector: sweep the backward schedule tracking
 * per-slot availability and record every replay the executor would
 * issue — which slot triggers it, at which step, which forwards it
 * re-runs, and which of those stay resident afterwards (exactly the
 * executor's keep rule: stashed with a pending read at or after the
 * trigger). Chained drops share one event, as they share one replay.
 */
std::vector<ReplayEvent>
simulateReplays(const Graph &graph, const ScheduleInfo &sched,
                const std::vector<StashPlan::Repr> &repr)
{
    enum class Avail : char { Empty, Dense, Encoded };
    const auto n = static_cast<size_t>(graph.numNodes());
    std::vector<Avail> avail(n, Avail::Empty);
    for (size_t i = 0; i < n; ++i) {
        if (!sched.stashed(static_cast<NodeId>(i)))
            continue;
        switch (repr[i]) {
          case StashPlan::Repr::Dense:
            avail[i] = Avail::Dense;
            break;
          case StashPlan::Repr::Csr:
          case StashPlan::Repr::Dpr:
          case StashPlan::Repr::Swap:
            // Swap behaves like an encoded stash for replay purposes:
            // the slot is fetched back (and decoded) before its first
            // backward read, so it can serve as a replay frontier.
            avail[i] = Avail::Encoded;
            break;
          case StashPlan::Repr::Recompute:
            avail[i] = Avail::Empty;
            break;
        }
    }

    std::vector<ReplayEvent> events;
    const auto ensure = [&](NodeId target, int step) {
        auto &a = avail[static_cast<size_t>(target)];
        if (a == Avail::Dense)
            return;
        if (a == Avail::Encoded) {
            a = Avail::Dense; // the normal decode-before-first-read
            return;
        }
        ReplayEvent ev;
        ev.target = target;
        ev.step = step;
        std::vector<char> visited(n, 0);
        std::vector<NodeId> stack{ target };
        while (!stack.empty()) {
            const NodeId id = stack.back();
            stack.pop_back();
            if (visited[static_cast<size_t>(id)])
                continue;
            visited[static_cast<size_t>(id)] = 1;
            if (avail[static_cast<size_t>(id)] == Avail::Dense)
                continue;
            if (avail[static_cast<size_t>(id)] == Avail::Encoded) {
                ev.decoded.push_back(id);
                avail[static_cast<size_t>(id)] = Avail::Dense;
                continue;
            }
            ev.segment.push_back(id);
            for (NodeId in : graph.node(id).inputs)
                stack.push_back(in);
        }
        std::sort(ev.segment.begin(), ev.segment.end());
        for (const NodeId s : ev.segment)
            avail[static_cast<size_t>(s)] =
                (sched.stashed(s) && sched.lastBwdRead(s) >= step)
                    ? Avail::Dense
                    : Avail::Empty;
        events.push_back(std::move(ev));
    };

    for (auto i = static_cast<std::int64_t>(n) - 1; i >= 0; --i) {
        const auto id = static_cast<NodeId>(i);
        const Node &node = graph.node(id);
        if (node.kind() == LayerKind::Input)
            continue;
        const int step = graph.bwdStep(id);
        const BackwardNeeds needs = node.layer->backwardNeeds();
        if (needs.input)
            for (NodeId in : node.inputs)
                ensure(in, step);
        if (needs.output)
            ensure(id, step);
        for (NodeId in : node.inputs)
            if (sched.stashed(in) && sched.lastBwdRead(in) == step)
                avail[static_cast<size_t>(in)] = Avail::Empty;
        if (sched.stashed(id) && sched.lastBwdRead(id) == step)
            avail[static_cast<size_t>(id)] = Avail::Empty;
    }
    return events;
}

/** One candidate plan, evaluated: modeled footprint and overhead. */
struct PlanEval
{
    std::uint64_t peak = 0;          ///< max pool bytes over the steps
    double seconds = 0.0;            ///< codec + replay time per step
    std::vector<std::int64_t> live;  ///< per-step modeled pool bytes
    std::vector<double> slot_seconds; ///< per-node overhead attribution
};

PlanEval
evaluatePlan(const Graph &graph, const ScheduleInfo &sched,
             const BuiltSchedule &base,
             const std::vector<StashPlan::Repr> &repr,
             const SparsityModel &sparsity, HybridCost &cost)
{
    BuiltSchedule cand = base;
    for (size_t i = 0; i < repr.size(); ++i)
        cand.decisions[i].repr = repr[i];
    std::vector<PlannedBuffer> buffers =
        planBuffers(graph, cand, sparsity);

    PlanEval ev;
    ev.slot_seconds.assign(repr.size(), 0.0);

    // Replay scaffolding: transient segment forwards are all resident at
    // the trigger step (the executor releases them right after the
    // replay loop); kept forwards are already modeled by their ":rem"
    // buffer. Early-decoded ancestors only need extra modeling when the
    // decode-scratch buffer is elided from the plan.
    for (const ReplayEvent &re : simulateReplays(graph, sched, repr)) {
        double seg_seconds = 0.0;
        for (const NodeId s : re.segment) {
            seg_seconds += cost.fwdSeconds(s);
            if (sched.stashed(s) && sched.lastBwdRead(s) >= re.step)
                continue;
            const Node &sn = graph.node(s);
            buffers.push_back(
                { sn.name + ":replay", DataClass::ImmediateFmap,
                  static_cast<std::uint64_t>(sn.out_shape.numel()) * 4,
                  { re.step, re.step }, true, s });
        }
        if (base.config.elide_decode_buffer) {
            for (const NodeId d : re.decoded) {
                const Node &dn = graph.node(d);
                buffers.push_back(
                    { dn.name + ":replay_dec", DataClass::DecodeScratch,
                      static_cast<std::uint64_t>(dn.out_shape.numel()) *
                          4,
                      { re.step, sched.lastBwdRead(d) }, true, d });
            }
        }
        ev.seconds += seg_seconds;
        ev.slot_seconds[static_cast<size_t>(re.target)] += seg_seconds;
    }

    for (const auto &node : graph.nodes()) {
        if (!sched.stashed(node.id))
            continue;
        const auto r = repr[static_cast<size_t>(node.id)];
        if (r == StashPlan::Repr::Csr || r == StashPlan::Repr::Dpr) {
            const double s = cost.codecSeconds(node.id);
            ev.seconds += s;
            ev.slot_seconds[static_cast<size_t>(node.id)] += s;
        } else if (r == StashPlan::Repr::Swap) {
            // Swap pays the round trip over the slow tier, plus the
            // transfer codec when the eviction is compressed (the cDMA
            // idea: fewer bytes on the link buys back stall time).
            const StashPlan::SwapCodec codec =
                swapCodecFor(base.config, base.of(node.id));
            std::uint64_t moved =
                static_cast<std::uint64_t>(node.out_shape.numel()) * 4;
            double s = 0.0;
            if (codec == StashPlan::SwapCodec::Csr) {
                moved = csrBytesForSparsity(base.config.csr,
                                            node.out_shape.numel(),
                                            sparsity.at(graph, node.id));
                s += cost.codecSeconds(node.id);
            } else if (codec == StashPlan::SwapCodec::Dpr) {
                moved = dprEncodedBytes(base.config.dpr_format,
                                        node.out_shape.numel());
                s += cost.codecSeconds(node.id);
            }
            s += cost.tierSeconds(moved) + cost.tierSeconds(moved);
            ev.seconds += s;
            ev.slot_seconds[static_cast<size_t>(node.id)] += s;
        }
    }

    const int steps = graph.numSteps();
    std::vector<std::int64_t> delta(static_cast<size_t>(steps) + 1, 0);
    for (const PlannedBuffer &b : buffers) {
        if (!inMfrPool(b.cls))
            continue;
        const int s = std::clamp(b.live.start, 0, steps - 1);
        const int e = std::clamp(b.live.end, s, steps - 1);
        delta[static_cast<size_t>(s)] +=
            static_cast<std::int64_t>(b.bytes);
        delta[static_cast<size_t>(e) + 1] -=
            static_cast<std::int64_t>(b.bytes);
    }
    ev.live.resize(static_cast<size_t>(steps));
    std::int64_t run = 0;
    for (int t = 0; t < steps; ++t) {
        run += delta[static_cast<size_t>(t)];
        ev.live[static_cast<size_t>(t)] = run;
        ev.peak = std::max(ev.peak, static_cast<std::uint64_t>(
                                        std::max<std::int64_t>(run, 0)));
    }
    return ev;
}

} // namespace

void
optimizeHybridSchedule(const Graph &graph, BuiltSchedule &schedule,
                       std::uint64_t budget_bytes)
{
    const ScheduleInfo sched(graph);
    const auto n = static_cast<size_t>(graph.numNodes());

    // CSR sizes are planned at twice the sparsity model's density
    // (equivalently: half the modeled zeros are assumed real). The
    // margin keeps feasible plans feasible in the executor even when
    // early-training sparsity undershoots the model — a budget is a
    // promise, an optimistic size estimate would break it.
    const auto margined = [](double sparsity) {
        return std::max(0.0, 1.0 - 2.0 * (1.0 - sparsity));
    };
    const SparsityModel planning_sparsity(margined(0.70),
                                          margined(0.40));

    HybridCost cost(graph, schedule.config);

    // Upgrade targets per stash slot, gated like the static Table I
    // assignment (CSR needs SSDC and a ReluConv slot, DPR needs the DPR
    // flag), except that a pool-matched slot takes only exact encodings
    // (csrEligible / dprEligible). Recompute is always available (it is
    // lossless and needs no codec).
    std::vector<std::vector<StashPlan::Repr>> upgrades(n);
    for (const auto &node : graph.nodes()) {
        if (!sched.stashed(node.id))
            continue;
        auto &up = upgrades[static_cast<size_t>(node.id)];
        if (csrEligible(schedule.config, schedule.of(node.id)))
            up.push_back(StashPlan::Repr::Csr);
        if (dprEligible(schedule.config, schedule.of(node.id)))
            up.push_back(StashPlan::Repr::Dpr);
        if (schedule.config.device_pool_bytes > 0)
            up.push_back(StashPlan::Repr::Swap);
        up.push_back(StashPlan::Repr::Recompute);
    }

    std::vector<StashPlan::Repr> repr(n, StashPlan::Repr::Dense);
    PlanEval cur =
        evaluatePlan(graph, sched, schedule, repr, planning_sparsity,
                     cost);
    const std::uint64_t keep_peak = cur.peak;

    // Greedy move chain. Each iteration applies the single-slot upgrade
    // with the lowest seconds-per-byte-of-peak-relief. Relief is the
    // byte mass removed from the peak plateau — everything above the
    // highest live level *below* the current peak — so ties across
    // several peak steps score by how many of them a move clears, and a
    // deep cut scores by how far it cuts. Moves may never raise the
    // modeled peak. The chain is budget-independent (the budget only
    // decides where along it we stop), which makes budget sweeps yield
    // monotonically non-increasing planned peaks.
    while (budget_bytes > 0 && cur.peak > budget_bytes) {
        std::int64_t plateau_floor = 0;
        for (const std::int64_t v : cur.live)
            if (v >= 0 && static_cast<std::uint64_t>(v) < cur.peak)
                plateau_floor = std::max(plateau_floor, v);

        double best_score = 0.0;
        NodeId best_slot = -1;
        StashPlan::Repr best_to = StashPlan::Repr::Dense;
        PlanEval best_eval;
        for (const auto &node : graph.nodes()) {
            const auto idx = static_cast<size_t>(node.id);
            if (upgrades[idx].empty())
                continue;
            for (const StashPlan::Repr to : upgrades[idx]) {
                // Allowed transitions: Dense -> anything eligible,
                // Csr/Dpr -> Recompute. Never downgrade here (the
                // revert pass owns that direction).
                if (repr[idx] == to)
                    continue;
                if (repr[idx] != StashPlan::Repr::Dense &&
                    to != StashPlan::Repr::Recompute)
                    continue;
                if (repr[idx] == StashPlan::Repr::Recompute)
                    continue;
                auto cand = repr;
                cand[idx] = to;
                PlanEval e = evaluatePlan(graph, sched, schedule, cand,
                                          planning_sparsity, cost);
                if (e.peak > cur.peak)
                    continue;
                double relief = 0.0;
                for (size_t t = 0; t < cur.live.size(); ++t) {
                    const auto above = [&](std::int64_t v) {
                        return static_cast<double>(
                            std::max<std::int64_t>(v - plateau_floor,
                                                   0));
                    };
                    relief += above(cur.live[t]) - above(e.live[t]);
                }
                if (relief <= 0.0)
                    continue;
                const double dt =
                    std::max(e.seconds - cur.seconds, 1e-12);
                const double score = dt / relief;
                if (best_slot < 0 || score < best_score) {
                    best_score = score;
                    best_slot = node.id;
                    best_to = to;
                    best_eval = std::move(e);
                }
            }
        }
        if (best_slot < 0)
            break; // no single move relieves the peak any further
        repr[static_cast<size_t>(best_slot)] = best_to;
        cur = std::move(best_eval);
    }

    const bool feasible =
        budget_bytes == 0 || cur.peak <= budget_bytes;

    // Revert pass: walk the chosen choices from most to least expensive
    // and undo any the peak turned out not to need. A revert must leave
    // the modeled peak exactly unchanged — looser would let different
    // budgets land on different peaks for the same chain state and
    // break the sweep's monotonicity.
    std::vector<NodeId> chosen;
    for (size_t i = 0; i < n; ++i)
        if (repr[i] != StashPlan::Repr::Dense && sched.stashed(
                static_cast<NodeId>(i)))
            chosen.push_back(static_cast<NodeId>(i));
    std::sort(chosen.begin(), chosen.end(), [&](NodeId a, NodeId b) {
        const double sa = cur.slot_seconds[static_cast<size_t>(a)];
        const double sb = cur.slot_seconds[static_cast<size_t>(b)];
        return sa != sb ? sa > sb : a < b;
    });
    for (const NodeId id : chosen) {
        const auto idx = static_cast<size_t>(id);
        std::vector<StashPlan::Repr> alts{ StashPlan::Repr::Dense };
        if (repr[idx] == StashPlan::Repr::Recompute ||
            repr[idx] == StashPlan::Repr::Swap)
            for (const StashPlan::Repr up : upgrades[idx])
                if (up != StashPlan::Repr::Recompute && up != repr[idx])
                    alts.push_back(up);
        for (const StashPlan::Repr alt : alts) {
            auto cand = repr;
            cand[idx] = alt;
            PlanEval e = evaluatePlan(graph, sched, schedule, cand,
                                      planning_sparsity, cost);
            if (e.peak != cur.peak || e.seconds >= cur.seconds)
                continue;
            repr = std::move(cand);
            cur = std::move(e);
            break;
        }
    }

    // Publish: rewrite the decisions and fill the plan summary.
    HybridPlan &plan = schedule.hybrid;
    plan.active = true;
    plan.feasible = feasible;
    plan.budget_bytes = budget_bytes;
    plan.keep_peak_bytes = keep_peak;
    plan.planned_peak_bytes = cur.peak;
    plan.est_overhead_seconds = cur.seconds;
    for (const auto &node : graph.nodes()) {
        if (!sched.stashed(node.id))
            continue;
        const auto idx = static_cast<size_t>(node.id);
        schedule.decisions[idx].repr = repr[idx];
        HybridSlot slot;
        slot.node = node.id;
        slot.name = node.name;
        slot.category = schedule.of(node.id).category;
        slot.repr = repr[idx];
        slot.fp32_bytes =
            static_cast<std::uint64_t>(node.out_shape.numel()) * 4;
        switch (repr[idx]) {
          case StashPlan::Repr::Dense:
            slot.stored_bytes = slot.fp32_bytes;
            break;
          case StashPlan::Repr::Csr:
            slot.stored_bytes = csrBytesForSparsity(
                schedule.config.csr, node.out_shape.numel(),
                planning_sparsity.at(graph, node.id));
            break;
          case StashPlan::Repr::Dpr:
            slot.stored_bytes = dprEncodedBytes(
                schedule.config.dpr_format, node.out_shape.numel());
            break;
          case StashPlan::Repr::Recompute:
            slot.stored_bytes = 0;
            break;
          case StashPlan::Repr::Swap: {
            // Nothing stays device-resident across the gap; what the
            // choice costs is the per-direction tier traffic.
            slot.stored_bytes = 0;
            const StashPlan::SwapCodec codec =
                swapCodecFor(schedule.config, schedule.of(node.id));
            switch (codec) {
              case StashPlan::SwapCodec::Csr:
                slot.tier_bytes = csrBytesForSparsity(
                    schedule.config.csr, node.out_shape.numel(),
                    planning_sparsity.at(graph, node.id));
                break;
              case StashPlan::SwapCodec::Dpr:
                slot.tier_bytes = dprEncodedBytes(
                    schedule.config.dpr_format,
                    node.out_shape.numel());
                break;
              case StashPlan::SwapCodec::None:
                slot.tier_bytes = slot.fp32_bytes;
                break;
            }
            break;
          }
        }
        slot.est_seconds = cur.slot_seconds[idx];
        plan.slots.push_back(std::move(slot));
    }
    if (!feasible)
        GIST_WARN("mem budget ", budget_bytes,
                  " bytes is infeasible: even the most aggressive "
                  "hybrid plan peaks at ",
                  cur.peak, " bytes (all-keep peak ", keep_peak,
                  "); proceeding with the minimum-peak plan");
}

} // namespace gist
