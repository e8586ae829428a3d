/**
 * @file
 * GistConfig: which of the paper's optimizations are switched on.
 *
 * Table I mapping:
 *   ReLU->Pool stashes  -> Binarize          (lossless)
 *   ReLU/Pool->Conv     -> SSDC              (lossless)
 *   other stashes       -> DPR               (lossy)
 *   immediately consumed-> inplace ReLU      (lossless)
 *
 * resolveConfig() is the one place that reads the GIST_* environment
 * overrides of these fields; buildSchedule() calls it once and keeps
 * the result as BuiltSchedule::config, the effective config.
 */

#pragma once

#include <cstdint>
#include <string>

#include "encodings/csr.hpp"
#include "encodings/dpr.hpp"

namespace gist {

/**
 * Parse a human byte-size string: a non-negative number with an
 * optional k/m/g (or kb/mb/gb, any case) suffix, e.g. "64m", "1.5G",
 * "262144". Malformed input (empty string, no digits, negative or
 * non-finite value, unknown suffix, or a product that overflows 64
 * bits) is a hard error: a silently-zero budget would quietly disable
 * the planner the caller asked for.
 */
std::uint64_t parseByteSize(const std::string &text);

/** Enabled Gist optimizations and their parameters. */
struct GistConfig
{
    bool binarize = false;     ///< Binarize on ReLU->Pool pairs
    bool ssdc = false;         ///< CSR stash on ReLU/Pool->Conv fmaps
    bool dpr = false;          ///< DPR on remaining stashed fmaps
    DprFormat dpr_format = DprFormat::Fp16;
    bool inplace_relu = false; ///< ReLU overwrites its (immediate) input
    /**
     * "Optimized software" (Section V-H): conv and FC backward read
     * their encoded stashed inputs piece by piece, so no full FP32
     * decode buffer is materialized. The planner leaves that buffer out
     * of its memory model, and applyToExecutor() turns the chunked reads
     * on (Executor::setElideDecode). Results are bitwise the same.
     */
    bool elide_decode_buffer = false;
    /**
     * Ignored; kept so perfbench compiles. Remove with the next
     * benchmark change.
     */
    bool fused_consume = true;
    /** CSR layout (narrow 1-byte indices by default). */
    CsrConfig csr{};
    /**
     * Worker threads for the parallel hot paths (gemm, im2col, the
     * encoders). 0 = leave the global pool as configured (first use
     * auto-resolves from GIST_THREADS, then hardware concurrency);
     * 1 runs everything inline. Applied by applyToExecutor() and
     * Trainer::run().
     */
    int num_threads = 0;
    /**
     * Asynchronous codec pipeline: submit stash encodes to dedicated
     * codec worker(s) right after the producing forward and prefetch
     * decodes one backward node ahead, so codec time overlaps compute
     * instead of landing on the critical path. Lossless configs stay
     * bitwise-identical to sync runs. Default off (the sync fallback);
     * the GIST_ASYNC environment variable (0/1) overrides it.
     */
    bool async_codec = false;
    /**
     * Dedicated codec-queue worker threads when async_codec is on
     * (clamped to >= 1). GIST_CODEC_THREADS overrides it; a value
     * below 1 is ignored with a warning.
     */
    int codec_threads = 1;
    /**
     * Chrome trace-event JSON output file. Non-empty starts the span
     * tracer in applyToExecutor(); the file is written on traceStop()
     * or at process exit. Equivalent to setting GIST_TRACE=<path>.
     */
    std::string trace_path;
    /**
     * JSONL metrics sink (one record per trainer step/epoch). Non-empty
     * opens the sink in applyToExecutor(). Equivalent to
     * GIST_METRICS=<path>.
     */
    std::string metrics_path;
    /**
     * Memory-timeline profiler output JSON (per-step peak attribution
     * and fig15-style samples). Non-empty starts the profiler in
     * applyToExecutor(); the file is written at memprofStop() or at
     * process exit. Equivalent to GIST_MEMPROF=<path>.
     */
    std::string memprof_path;
    /**
     * Peak feature-map-pool budget in bytes. 0 (the default) keeps the
     * static Table I assignment above. Non-zero hands every stash slot
     * to the cost-model-driven hybrid planner (core/planner.cpp), which
     * chooses per slot among {keep FP32, CSR, DPR, recompute} — gated
     * by the binarize/ssdc/dpr flags — minimizing estimated step time
     * subject to the modeled peak staying at or under the budget. The
     * GIST_MEM_BUDGET environment variable (bytes, k/m/g suffixes)
     * overrides it.
     */
    std::uint64_t mem_budget_bytes = 0;
    /**
     * Device feature-map pool cap in bytes (the tiered-memory engine).
     * 0 (the default) = unbounded device, no eviction. Non-zero bounds
     * the metered pool: stash slots overflowing the cap are evicted to
     * the pool's slow tier through the executor's link queue and
     * fetched back before their backward reads (memory/device_pool.hpp,
     * Executor::linkQueue()). Also
     * unlocks the planner's per-slot "swap" choice. GIST_DEVICE_POOL
     * (bytes, k/m/g suffixes) overrides it.
     */
    std::uint64_t device_pool_bytes = 0;
    /**
     * Slow-tier spill directory. Non-empty uses a file-backed tier
     * (one file per evicted slot); empty uses the in-memory tier.
     * GIST_TIER_PATH overrides it.
     */
    std::string tier_path;
    /**
     * Modeled device<->tier link bandwidth, bytes/second. Throttles the
     * in-memory tier (deterministic stall experiments) and prices the
     * planner's swap choice. 0 = unthrottled transfers priced at the
     * PCIe bandwidth of the roofline model. GIST_TIER_GBPS (in GB/s)
     * overrides it.
     */
    double tier_bandwidth_bytes_per_s = 0.0;

    /** No optimizations: the CNTK baseline. */
    static GistConfig baseline() { return GistConfig{}; }

    /** All lossless optimizations: Binarize + SSDC + inplace. */
    static GistConfig
    lossless()
    {
        GistConfig cfg;
        cfg.binarize = true;
        cfg.ssdc = true;
        cfg.inplace_relu = true;
        return cfg;
    }

    /** Lossless plus DPR at the given width (DPR also packs CSR values). */
    static GistConfig
    lossy(DprFormat fmt)
    {
        GistConfig cfg = lossless();
        cfg.dpr = true;
        cfg.dpr_format = fmt;
        cfg.csr.value_format = fmt;
        return cfg;
    }
};

/**
 * @p config with every GIST_* environment override applied:
 * GIST_MEM_BUDGET, GIST_DEVICE_POOL, GIST_TIER_PATH, GIST_TIER_GBPS,
 * GIST_ASYNC and GIST_CODEC_THREADS replace their field when set. A
 * malformed byte size is fatal (parseByteSize); a GIST_CODEC_THREADS
 * below 1 warns and keeps the config value. The process-wide knobs
 * (GIST_THREADS, GIST_SIMD, GIST_ARENA, GIST_TRACE, GIST_METRICS,
 * GIST_MEMPROF) are not config fields and are read at their first use.
 */
GistConfig resolveConfig(GistConfig config);

} // namespace gist
