/**
 * @file
 * The memory planner: turns a (Schedule-Builder-rewritten) graph into
 * planned buffers with lifetimes, runs the allocator policies over them,
 * and reports footprints / Memory Footprint Ratios.
 *
 * This is the analytical path used for the paper's full-scale networks:
 * footprints depend only on shapes, lifetimes and the allocator, so no
 * tensor data is ever materialized.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/schedule_builder.hpp"
#include "core/sparsity.hpp"
#include "memory/allocator.hpp"
#include "memory/report.hpp"

namespace gist {

/** Enumerate all planned buffers for @p graph under @p schedule. */
std::vector<PlannedBuffer> planBuffers(const Graph &graph,
                                       const BuiltSchedule &schedule,
                                       const SparsityModel &sparsity);

/** The classes that participate in the paper's MFR pool (weights,
 *  weight gradients and workspace are excluded, Section V-A). */
bool inMfrPool(DataClass cls);

/** Footprint summary of one configuration. */
struct PlanSummary
{
    /** Raw per-class byte totals (before any sharing). */
    std::map<DataClass, std::uint64_t> raw;
    /** MFR-pool footprint under CNTK-style static sharing. */
    std::uint64_t pool_static = 0;
    /** MFR-pool footprint under simulated dynamic allocation. */
    std::uint64_t pool_dynamic = 0;
    /** MFR-pool bytes with no sharing at all. */
    std::uint64_t pool_raw = 0;
    /** Raw bytes outside the pool (weights, grads, workspace). */
    std::uint64_t weights = 0;
    std::uint64_t weight_grads = 0;
    std::uint64_t workspace = 0;
};

/**
 * Summarize @p buffers.
 * @param investigation forbid sharing for stashed/encoded fmaps (the
 *        paper's investigation baseline).
 */
PlanSummary summarize(const std::vector<PlannedBuffer> &buffers,
                      bool investigation);

/**
 * Convenience: configure @p graph with @p config, plan, and summarize.
 * Mutates the graph's layer modes (call again to re-plan another config).
 */
PlanSummary planModel(Graph &graph, const GistConfig &config,
                      const SparsityModel &sparsity,
                      bool investigation = false);

/**
 * One kernel invocation class a schedule implies: the kernel, a shape
 * key, the bytes one call moves, and how many calls one training step
 * issues. Its only consumer is perfbench's kernel replay.
 */
struct KernelShape
{
    std::string kernel;           ///< "gemm", "im2col", "csr_encode", ...
    std::string shape;            ///< human key, e.g. "m=64,n=784,k=576"
    std::uint64_t work_bytes = 0; ///< bytes one call moves
    std::uint64_t calls = 0;      ///< invocations per training step
};

/**
 * Enumerate the kernel shapes one minibatch of @p graph dispatches under
 * @p schedule: one "gemm" row per GEMM a layer runs, at its (m, n, k) —
 * a conv's forward over the batch, each of its dX sub-pixel phases
 * (none when its input is the network's), and its dW over the batch or
 * per decode tile of an encoded stash (ConvLayer::decodeTileImages()),
 * an FC layer's three whole-batch GEMMs — and one encode + one decode
 * per encoded stash slot. No row names im2col or col2im: no step runs
 * them. Shapes with identical (kernel, shape) keys are merged with
 * summed calls.
 */
std::vector<KernelShape> collectKernelShapes(const Graph &graph,
                                             const BuiltSchedule &schedule);

/**
 * The budget-driven hybrid planner (the `--mem-budget` tentpole).
 *
 * Re-chooses the storage representation of every stashed slot in
 * @p schedule among {keep FP32, CSR, DPR, recompute, swap} — CSR and
 * DPR where csrEligible() / dprEligible() allow them, swap when a
 * device pool cap is set, recompute always — minimizing the
 * estimated per-step overhead subject to the modeled peak of the
 * feature-map pool staying at or under @p budget_bytes.
 *
 * Greedy over the liveness graph: starting from all-keep it applies
 * the single-slot upgrade with the best seconds-per-byte score at the
 * peak until the plan fits (tied-peak steps are handled by scoring
 * byte reduction *at the peak level* rather than the raw max). The
 * move chain never raises the modeled peak, so sweeping descending
 * budgets yields monotonically non-increasing planned peaks. A final
 * revert pass downgrades expensive choices the peak turned out not to
 * need. When even the most aggressive plan overshoots, the minimum-peak
 * plan is kept and HybridPlan::feasible is false (with a warning).
 *
 * Choices are priced by the static roofline model in
 * perf/gpu_model.hpp. Results land in @p schedule: decisions[].repr is
 * rewritten and schedule.hybrid is filled (plan summary + per-slot
 * table for the JSON artifacts).
 */
void optimizeHybridSchedule(const Graph &graph, BuiltSchedule &schedule,
                            std::uint64_t budget_bytes);

} // namespace gist
