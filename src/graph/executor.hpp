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
 * Per-minibatch execution statistics: the one place a caller reads what
 * the executor counted. Every field covers the last runMinibatch()
 * alone. The counts come from the executor's own instruments (zeroed
 * at each minibatch start), its CodecQueue's stats and its DevicePool's
 * TierStats (both diffed across the minibatch).
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
     * thread blocking on a codec or tier ticket that was not ready —
     * the serialized share of codec and transfer time. Queue wait / run
     * time are the per-ticket deltas for this minibatch, summed over the
     * codec queue and the tier link queue; the peak depth is the deeper
     * of the two.
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
     * link worker (overlapped with compute in async mode, on the
     * critical path in sync mode).
     */
    std::uint64_t tier_evictions = 0;
    std::uint64_t tier_fetches = 0;
    std::uint64_t tier_bytes_out = 0; ///< device -> tier
    std::uint64_t tier_bytes_in = 0;  ///< tier -> device
    std::uint64_t tier_write_ns = 0;
    std::uint64_t tier_read_ns = 0;
};

/**
 * One memoryTrace() entry: the feature-map-pool level after a schedule
 * step. With a capped DevicePool the level is the one the step's cap
 * check read last, next to what that check allowed for: a step may
 * leave the level above the cap by the bytes its own evicts still have
 * in flight (they get the next node's compute to hide behind), or by
 * more only when nothing was left to evict.
 */
struct MemoryTracePoint
{
    int step = 0;
    std::uint64_t bytes = 0; ///< resident pool bytes
    /** Device bytes credited to evicts submitted at this step and
     *  still in flight when the level was read. */
    std::uint64_t evict_credit = 0;
    /** The cap check found no evictable stash while over the cap. */
    bool nothing_evictable = false;
};

/** Executes forward/backward minibatches over a Graph. */
class Executor
{
  public:
    /**
     * The executor owns every count it takes (the pool gauge, codec
     * and recompute counters, its codec queue and device pool), so two
     * executors in one process never touch each other's ExecStats.
     */
    explicit Executor(Graph &graph);

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
     * when @p on). With a device pool attached, async mode also starts
     * the one link worker (see linkQueue()).
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
     * This executor's tier link: the queue that runs every evict
     * (serialize + store) and fetch (fetch + deserialize), so transfers
     * never wait behind an encode or decode and vice versa. It has one
     * worker in async mode with a device pool attached (one transfer
     * at a time, like one DMA channel) and none otherwise (transfers
     * run inline). Tasks on either queue wait only on tickets submitted
     * earlier by the main thread, which keeps the pair deadlock-free.
     */
    CodecQueue &linkQueue() { return link_queue_; }

    /**
     * Attach a bounded device pool + slow tier. With pool->cap() > 0,
     * stash slots overflowing the cap are evicted to the tier through
     * the link queue after their last forward read and fetched back
     * ahead of their backward reads; Repr::Swap plans always route
     * through the tier. Evicted contents round-trip bit-exactly, so
     * results are bitwise-identical to an unbounded run. nullptr
     * detaches. Must not be changed mid-minibatch.
     */
    void setDevicePool(std::shared_ptr<DevicePool> pool);

    /** The attached device pool (nullptr when unbounded / detached). */
    DevicePool *devicePool() const { return device_pool_.get(); }

    /** Seconds spent in node @p id's forward at the last minibatch. */
    double lastFwdSeconds(NodeId id) const;
    /** Seconds spent in node @p id's backward at the last minibatch. */
    double lastBwdSeconds(NodeId id) const;

    /**
     * Resident feature-map-pool bytes after every schedule step of the
     * last minibatch — the executor-side counterpart of the planner's
     * liveness sweep.
     */
    const std::vector<MemoryTracePoint> &
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
     * evict was *submitted*; the transfer may still be in flight on the
     * link worker). tier_form records what was shipped.
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
         * ticket means a worker may still own the slot's buffers, so
         * the main thread joins the ticket before touching them.
         * The tier tickets chain per slot across the two queues: evict
         * (link) waits on encode (codec), fetch (link) waits on evict,
         * decode (codec) waits on fetch — each captured at submission,
         * so every task only waits on earlier-submitted tickets and the
         * queues stay deadlock-free at any codec worker count.
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
        /** Schedule step whose cap check submitted the last evict. */
        int evict_step = -1;
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

    /** One link worker iff async with a device pool, else inline. */
    void sizeLinkQueue();

    /**
     * Tier path (all submissions on the main thread). submitEvict moves
     * a Dense or Encoded slot into the tier through the link queue
     * (chained after any in-flight encode), flips it to Evicted and
     * records @p at_step as the step that submitted it; submitFetch
     * chains the transfer back after the evict; joinFetch blocks until
     * the blob is back on "device" and restores Dense/Encoded.
     * evictSlot/fetchSlot are the worker-side bodies.
     */
    void submitEvict(NodeId id, int at_step);
    void submitFetch(NodeId id);
    void joinFetch(NodeId id);
    void evictSlot(NodeId id);
    void fetchSlot(NodeId id);

    /**
     * Link-idle fetch-ahead (backward, async, capped pool): when no
     * transfer is queued or running on the link, start the fetch of the
     * evicted slot with the earliest first backward read, so the link
     * drains the tier in consumption order without waiting for the
     * one-node decode prefetch to ask for it. Link occupancy bounds it:
     * at most one transfer is started per backward node, and only onto
     * an idle link.
     */
    void fetchAhead();

    /** The evictable stash with the furthest next read, or -1. */
    NodeId evictCandidate(int cur_step) const;
    /** Bytes credited to step @p step's evicts still in flight. */
    std::uint64_t inFlightEvictCredit(int step) const;

    /**
     * Overflow control, called at schedule-step boundaries: while the
     * metered pool level (minus bytes already credited to in-flight
     * evicts) exceeds the cap, pick the evictable stash with the
     * furthest next read and submit its eviction. Backpressure then
     * joins the oldest in-flight evict while the level exceeds the cap
     * by more than this step's own in-flight evict credit, so an evict
     * hides behind one node of compute and only earlier steps' evicts
     * are waited on. Never blocks waiting for space only the caller
     * could free — when nothing is evictable the overshoot is allowed,
     * which is what keeps the loop deadlock-free. Returns the trace
     * point for @p cur_step.
     */
    MemoryTracePoint enforcePoolCap(int cur_step);

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
     * The executor's own instruments; ExecStats is filled from them at
     * the end of each minibatch. beginStep() zeroes the per-step
     * counters and the pool meter, so each reads this minibatch alone.
     * Codec workers bump them in async mode, hence the atomics.
     */
    struct Telemetry
    {
        obs::Counter encode_ns;
        obs::Counter decode_ns;
        obs::Counter encoded_bytes;
        obs::Counter dense_bytes_replaced;
        obs::Counter codec_stall_ns;
        obs::Counter codec_stalls;
        obs::Counter recompute_ns;
        obs::Counter recompute_segments;
        obs::Counter recompute_nodes;
        obs::Counter recompute_dropped_bytes;
        /** Feature-map-pool memory meter (ExecStats::peak_pool_bytes,
         *  the DevicePool cap check, memprof's pool level). */
        obs::Gauge pool_bytes;
        /** Minibatches run (main thread only); memprof's step index. */
        std::uint64_t minibatches = 0;

        void
        beginStep()
        {
            for (obs::Counter *c :
                 { &encode_ns, &decode_ns, &encoded_bytes,
                   &dense_bytes_replaced, &codec_stall_ns, &codec_stalls,
                   &recompute_ns, &recompute_segments, &recompute_nodes,
                   &recompute_dropped_bytes })
                c->reset();
            pool_bytes.set(0);
            pool_bytes.resetPeak();
        }
    };

    Graph &graph_;
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
    std::vector<MemoryTracePoint> memory_trace;
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
    /** The last task submitted to the link queue: when it is done the
     *  link is idle (one worker, FIFO). Main thread only. */
    TaskTicket link_tail_;

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
     * The executor's own codec queue and tier link. Declared last so
     * they are destroyed first: each destructor drains its in-flight
     * tasks while the node states those tasks touch are still alive.
     * The codec queue goes first; its decodes may wait on fetches, and
     * the link queue is still running them.
     */
    CodecQueue link_queue_{ CodecQueue::Role::Link };
    CodecQueue codec_queue_;
};

} // namespace gist
