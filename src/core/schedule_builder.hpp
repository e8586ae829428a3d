/**
 * @file
 * Gist's Schedule Builder (paper Section IV-B).
 *
 * Given an execution graph and a GistConfig it
 *  1. pattern-matches the stash categories (classify.hpp),
 *  2. rewrites the execution: flips ReLU layers into sign-mask mode and
 *     MaxPool layers into argmax-map mode for Binarize pairs, and assigns
 *     CSR/DPR StashPlans (the runtime encode/decode functions) to the
 *     remaining stashed feature maps,
 *  3. produces the per-buffer liveness the memory allocator consumes
 *     (planner.hpp drives step 3).
 */

#pragma once

#include <vector>

#include "core/classify.hpp"
#include "core/config.hpp"
#include "graph/executor.hpp"

namespace gist {

/** What the Schedule Builder decided for each node's output. */
struct ScheduleDecision
{
    StashCategory category = StashCategory::NotStashed;
    StashPlan::Repr repr = StashPlan::Repr::Dense;
    bool binarized = false;    ///< ReLU mask + pool map applied
    bool inplace = false;      ///< output aliases its producer's buffer
    /**
     * A Dense-mode max-pool reads this map (as its input or its output)
     * by value in backward: it finds each argmax as the first input tap
     * equal to the output, so a pair quantized differently breaks it.
     */
    bool pool_matched = false;
};

/** One stash slot's outcome from the budget-driven hybrid planner. */
struct HybridSlot
{
    NodeId node = -1;
    std::string name;
    StashCategory category = StashCategory::Other;
    StashPlan::Repr repr = StashPlan::Repr::Dense;
    std::uint64_t fp32_bytes = 0;   ///< dense bytes the choice governs
    std::uint64_t stored_bytes = 0; ///< modeled bytes across the gap
    std::uint64_t tier_bytes = 0;   ///< bytes moved per direction (swap)
    double est_seconds = 0.0;       ///< modeled per-step overhead
};

/**
 * Summary of the hybrid planner's run (active only when a memory
 * budget was set). The modeled peak is a conservative upper bound of
 * the executor's measured ExecStats::peak_pool_bytes, so feasible
 * plans keep the measured peak at or under the budget too.
 */
struct HybridPlan
{
    bool active = false;      ///< a budget was set and planning ran
    bool feasible = true;     ///< planned peak fits the budget
    std::uint64_t budget_bytes = 0;
    std::uint64_t keep_peak_bytes = 0;    ///< all-keep modeled peak
    std::uint64_t planned_peak_bytes = 0; ///< chosen-plan modeled peak
    double est_overhead_seconds = 0.0;    ///< codec + replay per step
    std::vector<HybridSlot> slots;        ///< one per stash slot
};

/**
 * The rewritten schedule: per-node decisions plus the effective config
 * (the caller's config with resolveConfig()'s env overrides applied).
 */
struct BuiltSchedule
{
    GistConfig config;
    std::vector<ScheduleDecision> decisions;
    HybridPlan hybrid; ///< inactive unless a mem budget drove the build

    const ScheduleDecision &
    of(NodeId id) const
    {
        return decisions[static_cast<size_t>(id)];
    }
};

/**
 * Whether a per-slot choice (the hybrid planner's, or a Swap slot's
 * transfer codec) may store @p decision's map CSR-encoded: SSDC is on,
 * the slot is ReluConv, and a pool-matched slot is stored exactly (CSR
 * with FP32 values).
 */
bool csrEligible(const GistConfig &config, const ScheduleDecision &decision);

/**
 * Whether a per-slot choice may store @p decision's map DPR-encoded:
 * DPR is on and the slot is not pool-matched (DPR is lossy below FP32).
 */
bool dprEligible(const GistConfig &config, const ScheduleDecision &decision);

/**
 * The transfer codec a Swap slot compresses with before eviction (the
 * cDMA idea: stack the paper's encodings on the slow-tier transfer).
 * Deterministic from config + decision so the planner's pricing, the
 * buffer model and applyToExecutor() always agree: CSR when eligible,
 * else DPR when eligible, else raw FP32. A pool-matched slot therefore
 * always travels losslessly.
 */
StashPlan::SwapCodec swapCodecFor(const GistConfig &config,
                                  const ScheduleDecision &decision);

/**
 * The hybrid plan as a JSON object string (single line), the payload
 * applyToExecutor() emits into the metrics JSONL ("plan" record) and
 * the memprof JSON so gist_prof can show plan-vs-actual. Empty when
 * the plan is inactive.
 */
std::string hybridPlanJson(const BuiltSchedule &schedule);

/**
 * Apply @p config to @p graph: set layer modes (mutates ReLU/MaxPool
 * layers) and compute per-node decisions. Call with the graph in
 * baseline mode or any previous mode; modes are (re)set absolutely.
 * The environment overrides are read here, once (resolveConfig()).
 */
BuiltSchedule buildSchedule(Graph &graph, const GistConfig &config);

/**
 * Install the runtime side of @p schedule on an executor: StashPlans for
 * CSR/DPR nodes (layer modes were already set by buildSchedule), the
 * device pool, elide and the async codec, all read from
 * schedule.config alone. A positive num_threads also resizes the
 * process-global thread pool, which every executor shares.
 */
void applyToExecutor(const BuiltSchedule &schedule, Executor &exec);

} // namespace gist
