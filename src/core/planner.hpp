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

#include <map>
#include <vector>

#include "core/schedule_builder.hpp"
#include "core/sparsity.hpp"
#include "memory/allocator.hpp"
#include "memory/report.hpp"
#include "obs/calibrate.hpp"

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
 * One kernel invocation class a schedule implies: the calibration key
 * (kernel, shape), the bytes one call moves, and how many calls one
 * training step issues. This is the bridge between the static schedule
 * and the measured per-host table tools/gist_calibrate writes.
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
 * @p schedule: per-image conv im2col + forward/backward GEMMs, per-node
 * FC GEMMs, and one encode + one decode per encoded stash slot. Shapes
 * with identical (kernel, shape) keys are merged with summed calls.
 */
std::vector<KernelShape> collectKernelShapes(const Graph &graph,
                                             const BuiltSchedule &schedule);

/** Per-kernel-family cost split of estimateStepCost(). */
struct CostEstimate
{
    double encode_seconds = 0.0;
    double decode_seconds = 0.0;
    double gemm_seconds = 0.0;
    double im2col_seconds = 0.0;
    /** Kernel shapes the table had no entry for (costed as zero). */
    int missing = 0;

    double total() const
    {
        return encode_seconds + decode_seconds + gemm_seconds +
               im2col_seconds;
    }
};

/**
 * Estimated seconds per training step of @p graph under @p schedule,
 * priced from a measured calibration @p table: exact (kernel, shape)
 * entries when present, work_bytes interpolation otherwise. Kernels the
 * table has never seen contribute zero and bump CostEstimate::missing,
 * so callers can tell a cheap schedule from an unpriced one (the
 * hybrid plan JSON reports the count as "missing_shapes"). The first
 * call that drops shapes warns on stderr naming the largest one
 * dropped — a silently-unpriced schedule looks exactly like a cheap
 * one otherwise.
 */
CostEstimate estimateStepCost(const Graph &graph,
                              const BuiltSchedule &schedule,
                              const obs::CalibrationTable &table);

/**
 * The budget-driven hybrid planner (the `--mem-budget` tentpole).
 *
 * Re-chooses the storage representation of every stashed slot in
 * @p schedule among {keep FP32, CSR, DPR, recompute} — CSR only where
 * the config enables SSDC and the slot classifies ReluConv, DPR only
 * where the config enables DPR, recompute always — minimizing the
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
 * Choices are priced by @p table (measured host calibration, log-log
 * interpolated for unmeasured shapes) when non-null, otherwise by the
 * static roofline model in perf/gpu_model.hpp. Results land in
 * @p schedule: decisions[].repr is rewritten and schedule.hybrid is
 * filled (plan summary + per-slot table for the JSON artifacts).
 */
void optimizeHybridSchedule(const Graph &graph, BuiltSchedule &schedule,
                            std::uint64_t budget_bytes,
                            const obs::CalibrationTable *table);

} // namespace gist
