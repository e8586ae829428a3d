/**
 * @file
 * Runtime for the execution graph with Gist stash management.
 *
 * The executor materializes each node's output feature map, retires it at
 * its last forward use (releasing FP32 storage for immediately-consumed
 * maps, or encoding it per the node's StashPlan for stashed maps), and
 * decodes encoded stashes right before their first backward use — the
 * runtime realization of paper Figure 2's lifetime split.
 *
 * Binarize is not a StashPlan: the Schedule Builder instead flips the ReLU
 * layer into sign-mask mode and the MaxPool layer into argmax-map mode,
 * after which their outputs simply stop being stashed (BackwardNeeds no
 * longer mention them) and the masks/maps ride along as layer aux stash.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "encodings/csr.hpp"
#include "encodings/dpr.hpp"
#include "graph/codec_points.hpp"
#include "graph/graph.hpp"
#include "memory/device_pool.hpp"
#include "obs/counters.hpp"
#include "obs/memprof.hpp"
#include "util/parallel.hpp"

namespace gist {

/** Loss layers additionally accept labels and report the scalar loss. */
class LossLayer : public Layer
{
  public:
    virtual void setLabels(std::span<const std::int32_t> labels) = 0;
    virtual float lastLoss() const = 0;
};

/** How a stashed feature map is stored between its two uses. */
struct StashPlan
{
    /**
     * Dense keeps the FP32 buffer; Csr/Dpr encode it at the last
     * forward read and decode before the first backward read.
     * Recompute stores *nothing*: the buffer is dropped at retire time
     * and the minimal producer forward segment is re-run on demand when
     * the backward pass first reads the slot (gradient-checkpointing
     * folded into the same per-slot plan space as the encodings).
     * Swap moves the stash off-device into the executor's DevicePool
     * tier at retire time (vDNN-style offload; optionally compressing
     * on the way per swap_codec — the cDMA idea) and fetches it back
     * ahead of the first backward read.
     */
    enum class Repr { Dense, Csr, Dpr, Recompute, Swap };

    /** Transfer encoding for Repr::Swap (None = raw FP32 offload). */
    enum class SwapCodec { None, Csr, Dpr };

    Repr repr = Repr::Dense;
    CsrConfig csr{};                   ///< for Repr::Csr / SwapCodec::Csr
    DprFormat dpr = DprFormat::Fp32;   ///< for Repr::Dpr / SwapCodec::Dpr
    SwapCodec swap_codec = SwapCodec::None; ///< for Repr::Swap
};

/**
 * Per-minibatch execution statistics.
 *
 * These are per-run *views* of the process-global instruments in
 * obs::MetricRegistry ("gist.encode.bytes", "gist.fmap_pool.bytes", ...):
 * the executor snapshots the registry at minibatch start and stores the
 * deltas here, so per-run numbers and cumulative telemetry always agree.
 */
struct ExecStats
{
    float loss = 0.0f;
    double encode_seconds = 0.0;
    double decode_seconds = 0.0;
    std::uint64_t encoded_bytes = 0;       ///< bytes of encoded stashes
    std::uint64_t dense_bytes_replaced = 0; ///< FP32 bytes they replaced
    /**
     * Peak bytes of simultaneously-resident feature-map-pool storage
     * (values, gradients, encoded stashes, layer aux) observed during
     * the minibatch — the executor-side ground truth the planner's
     * dynamicPeak() predicts.
     */
    std::uint64_t peak_pool_bytes = 0;

    /**
     * Async-pipeline stall accounting (all zero in sync mode, where
     * codec work never goes through tickets). A "stall" is the main
     * thread blocking on a codec ticket that was not ready — the
     * serialized share of codec time. Queue wait / run time are the
     * CodecQueue's own per-ticket deltas for this minibatch.
     */
    std::uint64_t codec_stall_ns = 0;   ///< main-thread block time
    std::uint64_t codec_stalls = 0;     ///< number of blocking joins
    std::uint64_t codec_queue_wait_ns = 0; ///< enqueue -> pick-up total
    std::uint64_t codec_run_ns = 0;        ///< codec task execution total
    std::int64_t codec_queue_peak_depth = 0; ///< max queued this step

    /**
     * Recompute accounting: forward-replay time spent rematerializing
     * dropped stashes this minibatch, how many segments were replayed,
     * how many node forwards they re-ran, and the FP32 bytes the drops
     * freed at retire time (the recompute analogue of
     * dense_bytes_replaced).
     */
    double recompute_seconds = 0.0;
    std::uint64_t recompute_segments = 0;
    std::uint64_t recompute_nodes = 0;
    std::uint64_t recompute_dropped_bytes = 0;
    /**
     * Share of codec run time hidden under main-thread compute:
     * 1 - stall/run (clamped to [0,1]); 1.0 when no codec work ran.
     */
    double overlap_efficiency = 1.0;

    /**
     * Tiered-memory accounting (all zero without a DevicePool): slot
     * evictions to / fetches from the slow tier this minibatch, the
     * transferred bytes, and the wall time the transfers took on the
     * codec workers (overlapped with compute in async mode, on the
     * critical path in sync mode).
     */
    std::uint64_t tier_evictions = 0;
    std::uint64_t tier_fetches = 0;
    std::uint64_t tier_bytes_out = 0; ///< device -> tier
    std::uint64_t tier_bytes_in = 0;  ///< tier -> device
    std::uint64_t tier_write_ns = 0;
    std::uint64_t tier_read_ns = 0;
};

/** Executes forward/backward minibatches over a Graph. */
class Executor
{
  public:
    /**
     * @param registry instrument registry this executor meters into.
     * nullptr (the default) uses the process-global registry — the
     * single-run configuration. A multi-job service passes one registry
     * per job, which makes the executor fully self-contained: the pool
     * gauge, codec counters and ExecStats deltas of concurrent
     * executors never touch each other.
     */
    explicit Executor(Graph &graph,
                      obs::MetricRegistry *registry = nullptr);

    /** Set the stash storage plan for node @p id's output. */
    void setStashPlan(NodeId id, StashPlan plan);

    /**
     * Quantize every feature map right after it is produced (and every
     * gradient map / weight gradient right after it is computed) — the
     * paper's "All-FP16" comparison arm. Fp32 disables it.
     */
    void setForwardQuantize(DprFormat fmt) { forward_quantize = fmt; }

    /** Collect per-ReLU-output sparsity each minibatch (small cost). */
    void setCollectSparsity(bool on) { collect_sparsity = on; }

    /** Record per-node forward/backward seconds each minibatch. */
    void setProfile(bool on) { profile = on; }

    /**
     * "Optimized software" (paper Section V-H): conv and FC backward
     * read their encoded (CSR or DPR) stashed inputs piece by piece
     * instead of materializing a full FP32 decode buffer. Conv decodes
     * a tile of images ahead of gemmConvDw, FC one KC slice inside
     * gemmPackedB's B pack; both are bitwise-identical to a full decode.
     * Usually set via GistConfig::elide_decode_buffer.
     */
    void setElideDecode(bool on) { elide_decode = on; }

    /**
     * Asynchronous codec pipeline: submit each stash encode to the
     * dedicated codec queue right after the producing layer's forward
     * retires it, and prefetch each decode one backward node ahead of
     * its consumer; the main thread blocks on the slot's ticket only
     * when the codec work has not finished yet. Each stash slot moves
     * through FP32_LIVE -> ENCODING -> ENCODED -> DECODING -> READY,
     * tracked by (BufState, encode/decode tickets) with all state
     * transitions on the main thread. Codec workers run their kernels
     * inline single-threaded, so lossless async runs are bitwise
     * identical to sync runs. Default off (sync fallback); usually set
     * via GistConfig::async_codec / GIST_ASYNC.
     *
     * @p workers sizes this executor's codec queue (clamped to >= 1
     * when @p on).
     */
    void setAsyncCodec(bool on, int workers = 1);

    /** True when the async codec pipeline is enabled. */
    bool asyncCodec() const { return async_codec; }

    /**
     * This executor's own codec queue (workers, stats, jitter). Each
     * executor owns one, so two executors in a process never share
     * FIFO ordering or stall accounting. Test hooks (setJitter) and
     * stat probes go through here.
     */
    CodecQueue &codecQueue() { return codec_queue_; }

    /**
     * Attach a bounded device pool + slow tier. With pool->cap() > 0,
     * stash slots overflowing the cap are evicted to the tier through
     * the codec queue after their last forward read and prefetched back
     * ahead of their backward reads; Repr::Swap plans always route
     * through the tier. Evicted contents round-trip bit-exactly, so
     * results are bitwise-identical to an unbounded run. nullptr
     * detaches. Must not be changed mid-minibatch.
     */
    void setDevicePool(std::shared_ptr<DevicePool> pool);

    /** The attached device pool (nullptr when unbounded / detached). */
    DevicePool *devicePool() const { return device_pool_.get(); }

    /**
     * Size the shared thread pool driving gemm/im2col/encode/decode.
     * n >= 1 forces that count; n == 0 keeps the current (auto-resolved)
     * setting. The pool is process-global, so this affects every
     * executor.
     */
    void setNumThreads(int n);

    /** Current thread count of the shared pool. */
    int numThreads() const;

    /** Seconds spent in node @p id's forward at the last minibatch. */
    double lastFwdSeconds(NodeId id) const;
    /** Seconds spent in node @p id's backward at the last minibatch. */
    double lastBwdSeconds(NodeId id) const;

    /**
     * Resident feature-map-pool bytes after every schedule step of the
     * last minibatch (entries: step index, bytes) — the executor-side
     * counterpart of the planner's liveness sweep.
     */
    const std::vector<std::pair<int, std::uint64_t>> &
    memoryTrace() const
    {
        return memory_trace;
    }

    /** Re-derive use records after layer modes changed. */
    void refreshSchedule();

    /**
     * One training step: forward + backward. Weight update is the
     * trainer's job (see train/).
     * @return the minibatch loss.
     */
    float runMinibatch(const Tensor &input,
                       std::span<const std::int32_t> labels);

    /** Inference-only forward pass; all node outputs stay materialized. */
    void forwardOnly(const Tensor &input);

    /** Node output value (must be materialized). */
    const Tensor &value(NodeId id) const;

    const ExecStats &stats() const { return last_stats; }

    /** Sparsity of node @p id's output at the last minibatch (-1 if off). */
    double lastSparsity(NodeId id) const;

    /** CSR compression ratio achieved for node @p id (-1 if not CSR). */
    double lastCsrRatio(NodeId id) const;

    Graph &graph() { return graph_; }
    const ScheduleInfo &schedule() const;

    /** The registry this executor meters into (global by default). */
    obs::MetricRegistry &registry() { return *registry_; }

    /**
     * Tag this executor's observability records with a job id: memprof
     * steps carry it as their "job" member and trace spans around
     * minibatches name it, so a multi-job process can split its
     * artifacts per job. Empty (the default) leaves records untagged.
     */
    void setJobTag(std::string tag) { job_tag_ = std::move(tag); }
    const std::string &jobTag() const { return job_tag_; }

  private:
    /**
     * Evicted = the slot's contents live in the DevicePool tier (an
     * evict was *submitted*; the transfer may still be in flight on a
     * codec worker). tier_form records what was shipped.
     */
    enum class BufState { Empty, Dense, Encoded, Evicted };

    /** What an Evicted slot holds in the tier. */
    enum class TierForm { None, Dense, Csr, Dpr };

    struct NodeState
    {
        Tensor value;
        Tensor grad;
        BufState state = BufState::Empty;
        StashPlan plan;
        CsrBuffer csr;
        DprBuffer dpr;
        /**
         * Async pipeline tickets. BufState stays the main thread's
         * authoritative view (Encoded = encode *submitted*); a non-empty
         * ticket means a codec worker may still own the slot's buffers,
         * so the main thread joins the ticket before touching them.
         * The tier tickets chain FIFO per slot: evict waits on encode,
         * fetch waits on evict, decode waits on fetch — each captured
         * at submission, so every task only waits on earlier-submitted
         * tickets and the queue stays deadlock-free at any worker count.
         */
        TaskTicket encode_job;
        TaskTicket decode_job;
        TaskTicket evict_job;
        TaskTicket fetch_job;
        /** What the tier blob holds while state == Evicted. */
        TierForm tier_form = TierForm::None;
        /** Host staging buffer for encoded tier blobs (not metered:
         *  it stands in for the DMA engine's bounce buffer). */
        std::vector<std::uint8_t> xfer;
        /** Stored blob size while tier-resident (0 otherwise). */
        std::uint64_t tier_bytes = 0;
        /** Device bytes an in-flight evict will free (credit against
         *  the pool gauge until the worker finishes the transfer). */
        std::uint64_t evict_estimate = 0;
        double sparsity = -1.0;
        double csr_ratio = -1.0;
        double fwd_seconds = 0.0;
        double bwd_seconds = 0.0;
    };

    void retireAfterForward(NodeId id);
    void materialize(NodeId id);
    Tensor &ensureGrad(NodeId id);
    void releaseStash(NodeId id);

    /**
     * Rematerialize a Recompute-dropped stash (no-op otherwise) before
     * the backward pass at schedule step @p at_step reads it.
     */
    void ensureRecomputed(NodeId id, int at_step);
    /**
     * Re-run the minimal producer forward segment that rebuilds @p
     * target's output: walk ancestors until a materialized (or
     * decodable) frontier, replay the empty ones in topological order
     * with FwdCtx::replay set, then release replayed intermediates with
     * no pending backward read at or after @p at_step. Dropped stashes
     * on the path are rebuilt by the same replay, so one segment serves
     * a chain of Recompute slots.
     */
    void replaySegment(NodeId target, int at_step);

    /** Codec-queue task bodies (run on codec workers in async mode). */
    void encodeSlot(NodeId id);
    void decodeSlot(NodeId id);

    /**
     * Tier path (all submissions on the main thread). submitEvict moves
     * a Dense or Encoded slot into the tier through the codec queue
     * (chained after any in-flight encode) and flips it to Evicted;
     * submitFetch chains the transfer back after the evict;
     * joinFetch blocks until the blob is back on "device" and restores
     * Dense/Encoded. evictSlot/fetchSlot are the worker-side bodies.
     */
    void submitEvict(NodeId id);
    void submitFetch(NodeId id);
    void joinFetch(NodeId id);
    void evictSlot(NodeId id);
    void fetchSlot(NodeId id);

    /**
     * Overflow control, called at schedule-step boundaries: while the
     * metered pool level (minus bytes already credited to in-flight
     * evicts) exceeds the cap, pick the evictable stash with the
     * furthest next read and submit its eviction; if the level still
     * exceeds the cap hard-join the oldest in-flight evict
     * (backpressure). Never blocks waiting for space only the caller
     * could free — when nothing is evictable the overshoot is allowed,
     * which is what keeps the loop deadlock-free.
     */
    void enforcePoolCap(int cur_step);

    /**
     * Submit decode prefetches for @p consumer's dense stash reads,
     * skipping slots @p chunked_reader is about to read tile-by-tile.
     */
    void submitDecodes(NodeId consumer, NodeId chunked_reader = -1);
    /** Join the encode ticket so the encoding is safe to read/release. */
    void joinEncode(NodeId id);
    /** Ensure the slot is materialized, preferring the prefetched decode. */
    void awaitDense(NodeId id);
    /**
     * Join @p ticket, counting (and tracing) a stall when it was not
     * ready yet — the per-join probe behind ExecStats' stall fields.
     */
    void joinTicket(const TaskTicket &ticket, const char *what,
                    NodeId id);

    /** What a metered byte delta is storage for (memprof attribution). */
    enum class MemKind : int { Value = 0, Grad = 1, Encoded = 2, Aux = 3 };

    /** Per-slot resident-byte account, one column per MemKind. */
    struct SlotAccount
    {
        std::array<std::atomic<std::uint64_t>, 4> bytes{};
    };

    /** Memory-meter bookkeeping (feature-map pool only). */
    void meterAdd(NodeId id, MemKind kind, std::uint64_t bytes);
    void meterSub(NodeId id, MemKind kind, std::uint64_t bytes);
    std::uint64_t auxBytesOf(NodeId id) const;

    /** New-peak probe: capture the attribution snapshot when @p level
     *  sets a strict step maximum (rare path, under mp_mu). */
    void notePoolLevel(std::int64_t level);
    /** Append one timeline sample at a schedule-step boundary. */
    void memprofSample(int sched_step, NodeId node, const char *phase);
    /** Reset per-step memprof scratch (accounts, peak, timeline). */
    void memprofBeginStep();
    /** Assemble and record the step's MemProfStep. */
    void memprofFinishStep();

    /**
     * Registry-backed instruments (see ExecStats). The memory meter is
     * the "gist.fmap_pool.bytes" gauge; encode/decode time and byte
     * counters split per encoding so compression ratios are derivable
     * from the registry alone.
     */
    struct Telemetry
    {
        explicit Telemetry(obs::MetricRegistry &registry);
        obs::Counter &encode_ns;
        obs::Counter &decode_ns;
        obs::Counter &encoded_bytes;
        obs::Counter &dense_bytes_replaced;
        obs::Counter &csr_encoded_bytes;
        obs::Counter &csr_dense_bytes;
        obs::Counter &dpr_encoded_bytes;
        obs::Counter &dpr_dense_bytes;
        obs::Counter &sparsity_zero_elems;
        obs::Counter &sparsity_total_elems;
        obs::Counter &minibatches;
        obs::Counter &codec_stall_ns;
        obs::Counter &codec_stalls;
        obs::Counter &codec_queue_wait_ns;
        obs::Counter &codec_run_ns;
        obs::Counter &recompute_ns;
        obs::Counter &recompute_segments;
        obs::Counter &recompute_nodes;
        obs::Counter &recompute_dropped_bytes;
        obs::Gauge &codec_queue_depth;
        obs::Gauge &pool_bytes;
    };

    Graph &graph_;
    /** Instrument registry (never null; see the constructor). Declared
     *  before tele so the Telemetry references resolve against it. */
    obs::MetricRegistry *registry_;
    /** Job id tag for memprof/trace records; empty = untagged. */
    std::string job_tag_;
    std::unique_ptr<ScheduleInfo> sched;
    CodecPoints codec_points;
    std::vector<NodeState> states;
    DprFormat forward_quantize = DprFormat::Fp32;
    bool collect_sparsity = false;
    bool profile = false;
    bool elide_decode = false;
    bool async_codec = false;
    /** Minibatch input of the in-flight runMinibatch, for replaying an
     *  Input-node stash (the cheapest possible recompute: a memcpy). */
    const Tensor *cur_input_ = nullptr;

    /** Does @p consumer read its encoded inputs tile-by-tile? */
    bool chunkedReader(NodeId consumer) const;
    std::vector<std::pair<int, std::uint64_t>> memory_trace;
    ExecStats last_stats;
    Telemetry tele;

    /** Bounded device pool + slow tier (nullptr = unbounded device). */
    std::shared_ptr<DevicePool> device_pool_;
    /** Device bytes in-flight evicts will free once their workers run
     *  (written by workers, read by enforcePoolCap). */
    std::atomic<std::uint64_t> pending_evict_bytes_{ 0 };
    /** Submission-ordered ids with an outstanding evict ticket — the
     *  backpressure join order (main thread only). */
    std::deque<NodeId> evict_fifo_;

    /**
     * Memory-profiler scratch (only touched when memprofEnabled()).
     * Accounts and the encoded-level tally are relaxed atomics because
     * codec workers meter concurrently in async mode; the capture
     * snapshot (attribution at the peak) lives under mp_mu. Timeline
     * samples are main-thread only. See obs/memprof.hpp for the
     * sync-exact / async-best-effort contract.
     */
    std::unique_ptr<SlotAccount[]> mem_accounts;
    std::atomic<std::int64_t> encoded_level{ 0 };
    std::atomic<int> cur_sched_step{ -1 };
    std::atomic<std::int64_t> mp_peak_fast{ 0 }; ///< lock-free probe
    std::mutex mp_mu; ///< guards the four fields below
    std::int64_t mp_peak = 0;
    int mp_peak_step = -1;
    std::vector<std::array<std::uint64_t, 4>> mp_attr;
    std::vector<obs::MemProfSample> mp_samples; ///< main thread only

    /**
     * The executor's own codec queue. Declared last so it is destroyed
     * first: its destructor drains every in-flight encode/evict/fetch/
     * decode task while the node states those tasks touch are still
     * alive.
     */
    CodecQueue codec_queue_;
};

} // namespace gist
