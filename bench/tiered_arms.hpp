/**
 * @file
 * Shared machinery for the measured tiered-memory comparisons
 * (ext_cdma, fig15's measured section): run a tiny model with every
 * stash slot swapped through the DevicePool's slow tier and report
 * timing plus transfer/stall accounting.
 *
 * The arms map onto the swap strategies the paper compares:
 *  - naive swap: sync codec path — every eviction/fetch/transfer runs
 *    inline on the main thread (compute blocks on the tier).
 *  - vDNN: async codec path — transfers run on the executor's link
 *    worker (its own thread beside the codec workers, like a DMA
 *    engine beside compute), and the backward pass fetches ahead in
 *    consumption order whenever the link is idle, so only uncovered
 *    transfer time stalls compute.
 *  - compressed DMA (cDMA): vDNN whose evictions are CSR/DPR-encoded
 *    on the codec workers before they cross the slow link, shrinking
 *    transfer volume.
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/gist.hpp"
#include "models/tiny.hpp"
#include "util/rng.hpp"

namespace gist::bench {

/** One measured swap-strategy arm. */
struct TieredArm
{
    double s_per_mb = 0.0;          ///< best-of timed minibatches
    std::uint64_t peak_bytes = 0;   ///< max measured pool peak
    std::uint64_t bytes_out = 0;    ///< device -> tier, summed
    std::uint64_t bytes_in = 0;     ///< tier -> device, summed
    double tier_seconds = 0.0;      ///< transfer wall time, summed
    double stall_seconds = 0.0;     ///< main-thread codec-join blocks
    std::uint64_t evictions = 0;
    float last_loss = 0.0f;
};

/**
 * Build @p entry at @p batch under @p cfg, optionally force every
 * stash slot to Repr::Swap (@p swap_all — the transfer codec follows
 * cfg per swapCodecFor), and run @p steps + 1 identical minibatches
 * (first is warm-up). Counters are summed over the timed steps.
 */
inline TieredArm
runTieredArm(const models::ModelEntry &entry, std::int64_t batch,
             GistConfig cfg, bool swap_all, bool async, int steps)
{
    cfg.async_codec = async;
    Graph g = entry.build(batch);
    Rng rng(7);
    g.initParams(rng);
    BuiltSchedule schedule = buildSchedule(g, cfg);
    if (swap_all) {
        const ScheduleInfo sched(g);
        for (auto &node : g.nodes())
            if (sched.stashed(node.id) &&
                !schedule.of(node.id).binarized)
                schedule.decisions[static_cast<size_t>(node.id)].repr =
                    StashPlan::Repr::Swap;
    }
    Executor exec(g);
    applyToExecutor(schedule, exec);

    Rng drng(8);
    std::vector<std::int32_t> labels(static_cast<size_t>(batch));
    for (std::int64_t i = 0; i < batch; ++i)
        labels[static_cast<size_t>(i)] =
            static_cast<std::int32_t>(i % models::kTinyClasses);
    const Tensor input =
        Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);

    const auto now = [] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    };
    TieredArm arm;
    arm.s_per_mb = 1e30;
    for (int s = 0; s < steps + 1; ++s) {
        const double t0 = now();
        arm.last_loss = exec.runMinibatch(input, labels);
        const double dt = now() - t0;
        const ExecStats &st = exec.stats();
        arm.peak_bytes = std::max(arm.peak_bytes, st.peak_pool_bytes);
        if (s == 0)
            continue; // warm-up
        arm.s_per_mb = std::min(arm.s_per_mb, dt);
        arm.bytes_out += st.tier_bytes_out;
        arm.bytes_in += st.tier_bytes_in;
        arm.tier_seconds +=
            static_cast<double>(st.tier_write_ns + st.tier_read_ns) /
            1e9;
        arm.stall_seconds +=
            static_cast<double>(st.codec_stall_ns) / 1e9;
        arm.evictions += st.tier_evictions;
    }
    return arm;
}

} // namespace gist::bench
