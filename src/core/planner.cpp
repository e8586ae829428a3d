#include "core/planner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>

#include "layers/conv.hpp"
#include "perf/gpu_model.hpp"
#include "tensor/im2col.hpp"
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
                    swapCodecFor(schedule.config, decision.category);
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

std::string
gemmKey(std::int64_t m, std::int64_t n, std::int64_t k)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "m=%lld,n=%lld,k=%lld",
                  static_cast<long long>(m), static_cast<long long>(n),
                  static_cast<long long>(k));
    return buf;
}

/** Bytes one m x n x k GEMM touches (A + B + C, fp32). */
std::uint64_t
gemmBytes(std::int64_t m, std::int64_t n, std::int64_t k)
{
    return 4ull * static_cast<std::uint64_t>(m * k + k * n + m * n);
}

} // namespace

std::vector<KernelShape>
collectKernelShapes(const Graph &graph, const BuiltSchedule &schedule)
{
    const ScheduleInfo sched(graph);
    std::vector<KernelShape> out;
    const auto add = [&out](std::string kernel, std::string shape,
                            std::uint64_t work, std::uint64_t calls) {
        for (KernelShape &ks : out) {
            if (ks.kernel == kernel && ks.shape == shape) {
                ks.calls += calls;
                return;
            }
        }
        out.push_back(
            { std::move(kernel), std::move(shape), work, calls });
    };

    for (const auto &node : graph.nodes()) {
        const NodeId id = node.id;
        const auto &decision = schedule.of(id);

        // ---- Codec kernels: one encode + one decode per encoded stash.
        // Recompute stores nothing (no codec); Swap runs the transfer
        // codec's encode/decode when the transfer is compressed.
        bool emit_csr = decision.repr == StashPlan::Repr::Csr;
        bool emit_dpr = decision.repr == StashPlan::Repr::Dpr;
        if (decision.repr == StashPlan::Repr::Swap) {
            const StashPlan::SwapCodec codec =
                swapCodecFor(schedule.config, decision.category);
            emit_csr = codec == StashPlan::SwapCodec::Csr;
            emit_dpr = codec == StashPlan::SwapCodec::Dpr;
        }
        if (sched.stashed(id) && (emit_csr || emit_dpr)) {
            const std::int64_t numel = node.out_shape.numel();
            const std::uint64_t fp32 =
                static_cast<std::uint64_t>(numel) * 4;
            char key[48];
            if (emit_csr) {
                std::snprintf(key, sizeof key, "numel=%lld",
                              static_cast<long long>(numel));
                add("csr_encode", key, fp32, 1);
                add("csr_decode", key, fp32, 1);
            } else {
                std::snprintf(key, sizeof key, "fmt=%s,numel=%lld",
                              dprFormatName(schedule.config.dpr_format),
                              static_cast<long long>(numel));
                add("dpr_encode", key, fp32, 1);
                add("dpr_decode", key, fp32, 1);
            }
        }

        // ---- Compute kernels at the schedule's shapes.
        if (node.kind() == LayerKind::Conv) {
            const auto *conv =
                static_cast<const ConvLayer *>(node.layer.get());
            const ConvSpec &spec = conv->spec();
            const Shape &in = graph.node(node.inputs[0]).out_shape;
            const ConvGeometry g{ in.c(),        in.h(),
                                  in.w(),        spec.kernel_h,
                                  spec.kernel_w, spec.stride_h,
                                  spec.stride_w, spec.pad_h,
                                  spec.pad_w };
            const auto batch = static_cast<std::uint64_t>(in.n());
            const std::int64_t m = spec.out_channels;
            const std::int64_t n = g.colCols();
            const std::int64_t k = g.colRows();
            char key[160];
            std::snprintf(key, sizeof key,
                          "c=%lld,h=%lld,w=%lld,kh=%lld,kw=%lld,"
                          "sh=%lld,sw=%lld,ph=%lld,pw=%lld",
                          static_cast<long long>(in.c()),
                          static_cast<long long>(in.h()),
                          static_cast<long long>(in.w()),
                          static_cast<long long>(spec.kernel_h),
                          static_cast<long long>(spec.kernel_w),
                          static_cast<long long>(spec.stride_h),
                          static_cast<long long>(spec.stride_w),
                          static_cast<long long>(spec.pad_h),
                          static_cast<long long>(spec.pad_w));
            add("im2col", key,
                4ull * static_cast<std::uint64_t>(
                           in.c() * in.h() * in.w() + k * n),
                batch);
            // Forward Y = W * cols, backward dW = dY * cols^T and
            // dcols = W^T * dY — one GEMM per image each.
            add("gemm", gemmKey(m, n, k), gemmBytes(m, n, k), batch);
            add("gemm", gemmKey(m, k, n), gemmBytes(m, k, n), batch);
            add("gemm", gemmKey(k, n, m), gemmBytes(k, n, m), batch);
        } else if (node.kind() == LayerKind::Fc) {
            const Shape &in = graph.node(node.inputs[0]).out_shape;
            const std::int64_t batch = in.dim(0);
            const std::int64_t in_f = in.numel() / batch;
            const std::int64_t out_f = node.out_shape.numel() / batch;
            // Forward Y = X * W^T, backward dX = dY * W and
            // dW = dY^T * X — whole-batch GEMMs.
            add("gemm", gemmKey(batch, out_f, in_f),
                gemmBytes(batch, out_f, in_f), 1);
            add("gemm", gemmKey(batch, in_f, out_f),
                gemmBytes(batch, in_f, out_f), 1);
            add("gemm", gemmKey(out_f, in_f, batch),
                gemmBytes(out_f, in_f, batch), 1);
        }
    }
    return out;
}

CostEstimate
estimateStepCost(const Graph &graph, const BuiltSchedule &schedule,
                 const obs::CalibrationTable &table)
{
    CostEstimate est;
    const KernelShape *worst_missing = nullptr;
    std::uint64_t worst_work = 0;
    const auto shapes = collectKernelShapes(graph, schedule);
    for (const KernelShape &ks : shapes) {
        double seconds;
        if (const obs::CalibrationEntry *e =
                table.find(ks.kernel, ks.shape)) {
            seconds = e->seconds;
        } else {
            seconds = table.secondsFor(ks.kernel, ks.work_bytes);
            if (seconds < 0.0) {
                ++est.missing;
                const std::uint64_t work = ks.work_bytes * ks.calls;
                if (!worst_missing || work > worst_work) {
                    worst_missing = &ks;
                    worst_work = work;
                }
                continue;
            }
        }
        const double total = seconds * static_cast<double>(ks.calls);
        if (ks.kernel == "gemm")
            est.gemm_seconds += total;
        else if (ks.kernel == "im2col")
            est.im2col_seconds += total;
        else if (ks.kernel.ends_with("_encode"))
            est.encode_seconds += total;
        else if (ks.kernel.ends_with("_decode"))
            est.decode_seconds += total;
    }
    if (est.missing > 0) {
        // Warn once per process, not per call: schedule sweeps price
        // hundreds of configs against one table and every one of them
        // would repeat the same complaint.
        static std::atomic<bool> warned{ false };
        if (!warned.exchange(true)) {
            GIST_WARN("calibration table has no entry for ",
                      est.missing, " kernel shape(s); largest dropped: ",
                      worst_missing->kernel, "[", worst_missing->shape,
                      "] (", worst_work,
                      " work bytes/step costed as zero)");
        }
    }
    return est;
}

// ================== The budget-driven hybrid planner ==================

namespace {

/**
 * Prices the planner's per-slot choices. With a calibration table the
 * measured entries rule (exact key, then log-log work_bytes
 * interpolation); shapes the table has never seen fall back to a
 * bandwidth estimate and are recorded in the missing set. With no
 * table everything is priced by the static roofline model
 * (perf/gpu_model.hpp) — absolute numbers are then model estimates,
 * but the planner only compares choices against each other.
 */
class HybridCost
{
  public:
    HybridCost(const Graph &graph, const GistConfig &config,
               const obs::CalibrationTable *table)
        : graph_(graph), config_(config), table_(table),
          fwd_memo_(static_cast<size_t>(graph.numNodes()), -1.0)
    {
        if (table_) {
            // Host stream-bandwidth proxy for kernels the table cannot
            // price directly (elementwise forwards, copies): the best
            // measured codec throughput — codecs are memory-bound, so
            // their peak GB/s is what a streaming pass achieves here.
            for (const auto &e : table_->entries)
                if (e.kernel.ends_with("_encode") ||
                    e.kernel.ends_with("_decode"))
                    host_bw_ = std::max(host_bw_, e.gbps() * 1e9);
            if (host_bw_ <= 0.0)
                for (const auto &e : table_->entries)
                    host_bw_ = std::max(host_bw_, e.gbps() * 1e9);
        }
        if (host_bw_ <= 0.0)
            host_bw_ = params_.mem_bandwidth;
        // Slow-tier link speed, for pricing Swap transfers: a measured
        // throttle from the config wins, else the modeled host link.
        tier_bw_ = config.tier_bandwidth_bytes_per_s > 0.0
                       ? config.tier_bandwidth_bytes_per_s
                       : params_.pcie_bandwidth;
    }

    /** Distinct (kernel, shape) keys that had to be priced statically. */
    int missingCount() const
    {
        return static_cast<int>(missing_.size());
    }

    /** Encode + decode seconds for storing slot @p id as @p repr. */
    double
    codecSeconds(NodeId id, StashPlan::Repr repr)
    {
        const Node &node = graph_.node(id);
        const std::int64_t numel = node.out_shape.numel();
        const auto fp32 = static_cast<std::uint64_t>(numel) * 4;
        char key[48];
        const char *enc;
        const char *dec;
        if (repr == StashPlan::Repr::Csr) {
            std::snprintf(key, sizeof key, "numel=%lld",
                          static_cast<long long>(numel));
            enc = "csr_encode";
            dec = "csr_decode";
        } else {
            std::snprintf(key, sizeof key, "fmt=%s,numel=%lld",
                          dprFormatName(config_.dpr_format),
                          static_cast<long long>(numel));
            enc = "dpr_encode";
            dec = "dpr_decode";
        }
        double total = 0.0;
        for (const char *kernel : { enc, dec }) {
            const double s = kernelSeconds(kernel, key, fp32);
            // Static fallback: one read + one write of the dense bytes.
            total += s >= 0.0 ? s
                              : 2.0 * static_cast<double>(fp32) / host_bw_;
        }
        return total;
    }

    /**
     * Seconds to move @p bytes one way across the slow tier. Prefers a
     * calibrated tier_write/tier_read bandwidth fit when the table has
     * one; otherwise the configured/modeled link speed.
     */
    double
    tierSeconds(const char *kernel, std::uint64_t bytes)
    {
        if (table_) {
            const double s = table_->secondsFor(kernel, bytes);
            if (s >= 0.0)
                return s;
        }
        return static_cast<double>(bytes) / tier_bw_;
    }

    /** Seconds to re-run node @p id's forward once (replay pricing). */
    double
    fwdSeconds(NodeId id)
    {
        double &memo = fwd_memo_[static_cast<size_t>(id)];
        if (memo >= 0.0)
            return memo;
        const Node &node = graph_.node(id);
        const std::uint64_t out_bytes =
            static_cast<std::uint64_t>(node.out_shape.numel()) * 4;
        if (node.kind() == LayerKind::Input) {
            // Replaying the input slot is a copy of the minibatch.
            return memo = 2.0 * static_cast<double>(out_bytes) / host_bw_;
        }
        if (!table_) {
            // Static roofline — self-consistent with the static codec
            // fallback above (same GpuModelParams bandwidth).
            return memo = estimateLayerTime(graph_, node, params_).fwd;
        }
        if (node.kind() == LayerKind::Conv) {
            const auto *conv =
                static_cast<const ConvLayer *>(node.layer.get());
            const ConvSpec &spec = conv->spec();
            const Shape &in = graph_.node(node.inputs[0]).out_shape;
            const ConvGeometry g{ in.c(),        in.h(),
                                  in.w(),        spec.kernel_h,
                                  spec.kernel_w, spec.stride_h,
                                  spec.stride_w, spec.pad_h,
                                  spec.pad_w };
            const std::int64_t m = spec.out_channels;
            const std::int64_t n = g.colCols();
            const std::int64_t k = g.colRows();
            char key[160];
            std::snprintf(key, sizeof key,
                          "c=%lld,h=%lld,w=%lld,kh=%lld,kw=%lld,"
                          "sh=%lld,sw=%lld,ph=%lld,pw=%lld",
                          static_cast<long long>(in.c()),
                          static_cast<long long>(in.h()),
                          static_cast<long long>(in.w()),
                          static_cast<long long>(spec.kernel_h),
                          static_cast<long long>(spec.kernel_w),
                          static_cast<long long>(spec.stride_h),
                          static_cast<long long>(spec.stride_w),
                          static_cast<long long>(spec.pad_h),
                          static_cast<long long>(spec.pad_w));
            const std::uint64_t col_work =
                4ull * static_cast<std::uint64_t>(
                           in.c() * in.h() * in.w() + k * n);
            double per_image = tableOrBandwidth("im2col", key, col_work);
            per_image += tableOrBandwidth("gemm", gemmKey(m, n, k),
                                          gemmBytes(m, n, k));
            return memo = per_image * static_cast<double>(in.n());
        }
        if (node.kind() == LayerKind::Fc) {
            const Shape &in = graph_.node(node.inputs[0]).out_shape;
            const std::int64_t batch = in.dim(0);
            const std::int64_t in_f = in.numel() / batch;
            const std::int64_t out_f =
                node.out_shape.numel() / batch;
            return memo = tableOrBandwidth(
                       "gemm", gemmKey(batch, out_f, in_f),
                       gemmBytes(batch, out_f, in_f));
        }
        // Elementwise-ish layers: a streaming pass over inputs + output.
        std::uint64_t moved = out_bytes;
        for (NodeId in : node.inputs)
            moved += static_cast<std::uint64_t>(
                         graph_.node(in).out_shape.numel()) *
                     4;
        return memo = static_cast<double>(moved) / host_bw_;
    }

  private:
    /** Table price; -1 when the table cannot price it (key recorded). */
    double
    kernelSeconds(const std::string &kernel, const std::string &shape,
                  std::uint64_t work_bytes)
    {
        if (!table_)
            return -1.0;
        if (const obs::CalibrationEntry *e = table_->find(kernel, shape))
            return e->seconds;
        const double s = table_->secondsFor(kernel, work_bytes);
        if (s >= 0.0)
            return s;
        missing_.insert(kernel + "|" + shape);
        return -1.0;
    }

    double
    tableOrBandwidth(const std::string &kernel, const std::string &shape,
                     std::uint64_t work_bytes)
    {
        const double s = kernelSeconds(kernel, shape, work_bytes);
        return s >= 0.0 ? s
                        : static_cast<double>(work_bytes) / host_bw_;
    }

    const Graph &graph_;
    const GistConfig &config_;
    const obs::CalibrationTable *table_;
    GpuModelParams params_{};
    double host_bw_ = 0.0;
    double tier_bw_ = 0.0;
    std::vector<double> fwd_memo_;
    std::set<std::string> missing_;
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
            const double s = cost.codecSeconds(node.id, r);
            ev.seconds += s;
            ev.slot_seconds[static_cast<size_t>(node.id)] += s;
        } else if (r == StashPlan::Repr::Swap) {
            // Swap pays the round trip over the slow tier, plus the
            // transfer codec when the eviction is compressed (the cDMA
            // idea: fewer bytes on the link buys back stall time).
            const StashPlan::SwapCodec codec =
                swapCodecFor(base.config, base.of(node.id).category);
            std::uint64_t moved =
                static_cast<std::uint64_t>(node.out_shape.numel()) * 4;
            double s = 0.0;
            if (codec == StashPlan::SwapCodec::Csr) {
                moved = csrBytesForSparsity(base.config.csr,
                                            node.out_shape.numel(),
                                            sparsity.at(graph, node.id));
                s += cost.codecSeconds(node.id, StashPlan::Repr::Csr);
            } else if (codec == StashPlan::SwapCodec::Dpr) {
                moved = dprEncodedBytes(base.config.dpr_format,
                                        node.out_shape.numel());
                s += cost.codecSeconds(node.id, StashPlan::Repr::Dpr);
            }
            s += cost.tierSeconds("tier_write", moved) +
                 cost.tierSeconds("tier_read", moved);
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
                       std::uint64_t budget_bytes,
                       const obs::CalibrationTable *table)
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

    HybridCost cost(graph, schedule.config, table);

    // Upgrade targets per stash slot, gated exactly like the static
    // Table I assignment: CSR needs SSDC enabled and a ReluConv slot,
    // DPR needs the DPR flag; recompute is always available (it is
    // lossless and needs no codec).
    std::vector<std::vector<StashPlan::Repr>> upgrades(n);
    for (const auto &node : graph.nodes()) {
        if (!sched.stashed(node.id))
            continue;
        auto &up = upgrades[static_cast<size_t>(node.id)];
        if (schedule.config.ssdc &&
            schedule.of(node.id).category == StashCategory::ReluConv)
            up.push_back(StashPlan::Repr::Csr);
        if (schedule.config.dpr)
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
    plan.calibrated = table != nullptr;
    plan.budget_bytes = budget_bytes;
    plan.keep_peak_bytes = keep_peak;
    plan.planned_peak_bytes = cur.peak;
    plan.est_overhead_seconds = cur.seconds;
    plan.missing_shapes = cost.missingCount();
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
            const StashPlan::SwapCodec codec = swapCodecFor(
                schedule.config, schedule.of(node.id).category);
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
