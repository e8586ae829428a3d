#include "graph/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "memory/arena.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace gist {

namespace {

std::uint64_t
nanosSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Does this plan's encoded form live in the CsrBuffer (vs DprBuffer)?
 * Repr::Swap reuses the same codecs for its transfer compression, so
 * every "which buffer" branch routes through here.
 */
bool
planUsesCsr(const StashPlan &plan)
{
    return plan.repr == StashPlan::Repr::Csr ||
           (plan.repr == StashPlan::Repr::Swap &&
            plan.swap_codec == StashPlan::SwapCodec::Csr);
}

/** Does this plan encode at all before retiring the FP32 buffer? */
bool
planEncodes(const StashPlan &plan)
{
    switch (plan.repr) {
    case StashPlan::Repr::Csr:
    case StashPlan::Repr::Dpr:
        return true;
    case StashPlan::Repr::Swap:
        return plan.swap_codec != StashPlan::SwapCodec::None;
    case StashPlan::Repr::Dense:
    case StashPlan::Repr::Recompute:
        return false;
    }
    return false;
}

} // namespace

Executor::Telemetry::Telemetry(obs::MetricRegistry &registry)
    : encode_ns(registry.counter("gist.encode.ns")),
      decode_ns(registry.counter("gist.decode.ns")),
      encoded_bytes(
          registry.counter("gist.encode.bytes")),
      dense_bytes_replaced(registry.counter(
          "gist.encode.dense_bytes_replaced")),
      csr_encoded_bytes(
          registry.counter("gist.csr.encoded_bytes")),
      csr_dense_bytes(
          registry.counter("gist.csr.dense_bytes")),
      dpr_encoded_bytes(
          registry.counter("gist.dpr.encoded_bytes")),
      dpr_dense_bytes(
          registry.counter("gist.dpr.dense_bytes")),
      sparsity_zero_elems(
          registry.counter("gist.sparsity.zero_elems")),
      sparsity_total_elems(registry.counter(
          "gist.sparsity.total_elems")),
      minibatches(
          registry.counter("gist.exec.minibatches")),
      codec_stall_ns(
          registry.counter("gist.codec.stall_ns")),
      codec_stalls(
          registry.counter("gist.codec.stalls")),
      codec_queue_wait_ns(registry.counter(
          "gist.codec.queue_wait_ns")),
      codec_run_ns(
          registry.counter("gist.codec.run_ns")),
      recompute_ns(
          registry.counter("gist.recompute.ns")),
      recompute_segments(registry.counter(
          "gist.recompute.segments")),
      recompute_nodes(
          registry.counter("gist.recompute.nodes")),
      recompute_dropped_bytes(registry.counter(
          "gist.recompute.dropped_bytes")),
      codec_queue_depth(
          registry.gauge("gist.codec.queue_depth")),
      pool_bytes(registry.gauge("gist.fmap_pool.bytes"))
{
}

Executor::Executor(Graph &graph, obs::MetricRegistry *registry)
    : graph_(graph),
      registry_(registry ? registry : &obs::MetricRegistry::instance()),
      states(static_cast<size_t>(graph.numNodes())),
      tele(*registry_),
      mem_accounts(new SlotAccount[static_cast<size_t>(graph.numNodes())])
{
    for (std::int64_t i = 0; i < graph_.numNodes(); ++i)
        states[static_cast<size_t>(i)].value = Tensor::placeholder(
            graph_.node(static_cast<NodeId>(i)).out_shape);
}

void
Executor::setStashPlan(NodeId id, StashPlan plan)
{
    GIST_ASSERT(id >= 0 && id < graph_.numNodes(), "bad node id");
    states[static_cast<size_t>(id)].plan = std::move(plan);
}

void
Executor::setNumThreads(int n)
{
    if (n > 0)
        gist::setNumThreads(n);
}

int
Executor::numThreads() const
{
    return gist::numThreads();
}

void
Executor::refreshSchedule()
{
    sched = std::make_unique<ScheduleInfo>(graph_);
    // Encode-ready / decode-prefetch points depend on the layers'
    // current modes (Binarize flips change BackwardNeeds), so they are
    // rebuilt together with the use records.
    codec_points = buildCodecPoints(graph_, *sched);
}

void
Executor::setAsyncCodec(bool on, int workers)
{
    async_codec = on;
    if (on)
        codec_queue_.setNumWorkers(std::max(1, workers));
    else
        codec_queue_.setNumWorkers(0); // inline execution (sync fallback)
}

void
Executor::setDevicePool(std::shared_ptr<DevicePool> pool)
{
    // Quiesce any in-flight evict/fetch against the old pool first.
    codec_queue_.drain();
    device_pool_ = std::move(pool);
    pending_evict_bytes_.store(0, std::memory_order_relaxed);
    evict_fifo_.clear();
}

const ScheduleInfo &
Executor::schedule() const
{
    GIST_ASSERT(sched != nullptr, "schedule not built yet");
    return *sched;
}

void
Executor::meterAdd(NodeId id, MemKind kind, std::uint64_t bytes)
{
    const std::int64_t level =
        tele.pool_bytes.add(static_cast<std::int64_t>(bytes));
    if (!obs::memprofEnabled())
        return;
    mem_accounts[static_cast<size_t>(id)]
        .bytes[static_cast<size_t>(kind)]
        .fetch_add(bytes, std::memory_order_relaxed);
    if (kind == MemKind::Encoded)
        encoded_level.fetch_add(static_cast<std::int64_t>(bytes),
                                std::memory_order_relaxed);
    notePoolLevel(level);
}

void
Executor::meterSub(NodeId id, MemKind kind, std::uint64_t bytes)
{
    GIST_ASSERT(tele.pool_bytes.current() >=
                    static_cast<std::int64_t>(bytes),
                "memory meter underflow");
    tele.pool_bytes.sub(static_cast<std::int64_t>(bytes));
    if (!obs::memprofEnabled())
        return;
    mem_accounts[static_cast<size_t>(id)]
        .bytes[static_cast<size_t>(kind)]
        .fetch_sub(bytes, std::memory_order_relaxed);
    if (kind == MemKind::Encoded)
        encoded_level.fetch_sub(static_cast<std::int64_t>(bytes),
                                std::memory_order_relaxed);
}

/**
 * New-peak probe, called on every metered add while memprof is on. The
 * fast path is one relaxed load + compare; only a strict new step peak
 * takes mp_mu and copies the per-slot accounts. In sync mode every
 * meter op happens on the main thread, so the snapshot taken here sums
 * to the pool level exactly; in async mode it is a best-effort capture
 * under concurrent codec-worker metering (see obs/memprof.hpp).
 */
void
Executor::notePoolLevel(std::int64_t level)
{
    if (level <= mp_peak_fast.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(mp_mu);
    if (level <= mp_peak)
        return;
    mp_peak = level;
    mp_peak_fast.store(level, std::memory_order_relaxed);
    mp_peak_step = cur_sched_step.load(std::memory_order_relaxed);
    const std::int64_t n = graph_.numNodes();
    mp_attr.resize(static_cast<size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        for (size_t k = 0; k < 4; ++k)
            mp_attr[static_cast<size_t>(i)][k] =
                mem_accounts[static_cast<size_t>(i)].bytes[k].load(
                    std::memory_order_relaxed);
}

void
Executor::memprofSample(int sched_step, NodeId node, const char *phase)
{
    obs::MemProfSample s;
    s.sched_step = sched_step;
    s.node = node >= 0 ? graph_.node(node).name : std::string();
    s.phase = phase;
    s.pool_bytes = tele.pool_bytes.current();
    s.arena_bytes = static_cast<std::int64_t>(
        WorkspaceArena::instance().reservedBytes());
    s.encoded_bytes = encoded_level.load(std::memory_order_relaxed);
    s.tier_bytes =
        device_pool_
            ? static_cast<std::int64_t>(device_pool_->residentBytes())
            : 0;
    mp_samples.push_back(std::move(s));
}

void
Executor::memprofBeginStep()
{
    const std::int64_t n = graph_.numNodes();
    for (std::int64_t i = 0; i < n; ++i)
        for (size_t k = 0; k < 4; ++k)
            mem_accounts[static_cast<size_t>(i)].bytes[k].store(
                0, std::memory_order_relaxed);
    encoded_level.store(0, std::memory_order_relaxed);
    cur_sched_step.store(-1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mp_mu);
    mp_peak = 0;
    mp_peak_fast.store(0, std::memory_order_relaxed);
    mp_peak_step = -1;
    mp_attr.clear();
    mp_samples.clear();
}

void
Executor::memprofFinishStep()
{
    obs::MemProfStep step;
    step.step = tele.minibatches.value() - 1;
    step.job = job_tag_;
    step.arena_high_water = static_cast<std::int64_t>(
        WorkspaceArena::instance().stepHighWaterBytes());
    std::lock_guard<std::mutex> lock(mp_mu);
    step.peak_pool_bytes = mp_peak;
    step.peak_sched_step = mp_peak_step;
    const std::int64_t n = graph_.numNodes();
    const int half = static_cast<int>(n);
    if (mp_peak_step >= 0 && mp_peak_step < 2 * half) {
        const NodeId at = mp_peak_step < half
                              ? static_cast<NodeId>(mp_peak_step)
                              : static_cast<NodeId>(2 * half - 1 -
                                                    mp_peak_step);
        step.peak_node = graph_.node(at).name;
    }
    for (size_t i = 0; i < mp_attr.size(); ++i) {
        const auto &a = mp_attr[i];
        if (a[0] + a[1] + a[2] + a[3] == 0)
            continue;
        obs::MemProfSlot slot;
        slot.node = graph_.node(static_cast<NodeId>(i)).name;
        slot.value_bytes = a[0];
        slot.grad_bytes = a[1];
        slot.encoded_bytes = a[2];
        slot.aux_bytes = a[3];
        step.peak_attribution.push_back(std::move(slot));
    }
    // Synthesize the peak itself as a timeline point so the series'
    // maximum equals the reported peak (boundary samples alone can
    // miss mid-node transients such as a decode's value+encoded
    // overlap).
    obs::MemProfSample peak;
    peak.sched_step = mp_peak_step;
    peak.node = step.peak_node;
    peak.phase = "peak";
    peak.pool_bytes = mp_peak;
    peak.arena_bytes = step.arena_high_water;
    peak.encoded_bytes = -1; // not sampled at the peak instant
    step.timeline = std::move(mp_samples);
    step.timeline.push_back(std::move(peak));
    mp_samples.clear();
    obs::memprofRecordStep(std::move(step));
}

std::uint64_t
Executor::auxBytesOf(NodeId id) const
{
    const auto &node = graph_.node(id);
    if (!node.layer)
        return 0;
    std::vector<Shape> in_shapes;
    for (NodeId in : node.inputs)
        in_shapes.push_back(graph_.node(in).out_shape);
    return node.layer->auxStashBytes(in_shapes);
}

const Tensor &
Executor::value(NodeId id) const
{
    const auto &st = states[static_cast<size_t>(id)];
    GIST_ASSERT(st.state == BufState::Dense, "node ", id,
                " output is not materialized");
    return st.value;
}

double
Executor::lastSparsity(NodeId id) const
{
    return states[static_cast<size_t>(id)].sparsity;
}

double
Executor::lastFwdSeconds(NodeId id) const
{
    return states[static_cast<size_t>(id)].fwd_seconds;
}

double
Executor::lastBwdSeconds(NodeId id) const
{
    return states[static_cast<size_t>(id)].bwd_seconds;
}

double
Executor::lastCsrRatio(NodeId id) const
{
    return states[static_cast<size_t>(id)].csr_ratio;
}

void
Executor::retireAfterForward(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    if (st.state != BufState::Dense)
        return; // already retired (e.g. node feeding the same consumer
                // through two edges)

    if (collect_sparsity) {
        st.sparsity = st.value.sparsity();
        tele.sparsity_zero_elems.add(static_cast<std::uint64_t>(
            std::llround(st.sparsity *
                         static_cast<double>(st.value.numel()))));
        tele.sparsity_total_elems.add(
            static_cast<std::uint64_t>(st.value.numel()));
    }

    if (!sched->stashed(id)) {
        meterSub(id, MemKind::Value, st.value.bytes());
        st.value.releaseStorage();
        st.state = BufState::Empty;
        return;
    }

    if (st.plan.repr == StashPlan::Repr::Dense)
        return; // stays materialized until its last backward read

    if (st.plan.repr == StashPlan::Repr::Recompute) {
        // Store nothing: drop the buffer now, replay the producer
        // segment when the backward pass first reads this slot.
        tele.recompute_dropped_bytes.add(st.value.bytes());
        meterSub(id, MemKind::Value, st.value.bytes());
        st.value.releaseStorage();
        st.state = BufState::Empty;
        return;
    }

    if (st.plan.repr == StashPlan::Repr::Swap) {
        // vDNN-style offload: the stash always leaves the device at
        // retire time, optionally compressed on the way (the cDMA
        // idea). Raw swaps ship the FP32 buffer directly; codec swaps
        // encode first and the evict chains after the encode ticket.
        GIST_ASSERT(device_pool_ != nullptr, "node ", id,
                    " has a Swap plan but no device pool is attached");
        if (planEncodes(st.plan)) {
            if (async_codec)
                st.encode_job =
                    codec_queue_.submit([this, id] { encodeSlot(id); });
            else
                encodeSlot(id);
            st.state = BufState::Encoded;
        }
        submitEvict(id);
        return;
    }

    // Slot ENCODING: state flips to Encoded on the main thread at
    // submission; the codec worker owns the slot's buffers until the
    // encode ticket is joined (joinEncode/awaitDense/releaseStash).
    if (async_codec) {
        st.encode_job =
            codec_queue_.submit([this, id] { encodeSlot(id); });
    } else {
        encodeSlot(id);
    }
    st.state = BufState::Encoded;
}

/**
 * Encode the slot per its plan and retire the FP32 buffer. Runs inline
 * in sync mode, on a codec worker in async mode; every instrument it
 * touches (counters, the pool gauge) is lock-free and the slot buffers
 * are owned by this task until its ticket is joined.
 */
void
Executor::encodeSlot(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    const bool is_csr = planUsesCsr(st.plan);
    GIST_TRACE_SCOPE_F("encode", "encode %s %s", is_csr ? "csr" : "dpr",
                       graph_.node(id).name.c_str());
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t encoded_bytes = 0;
    if (is_csr) {
        st.csr.setConfig(st.plan.csr); // retarget, keep allocations
        st.csr.encode(st.value.span());
        st.csr_ratio = st.csr.compressionRatio();
        encoded_bytes = st.csr.bytes();
        tele.csr_encoded_bytes.add(encoded_bytes);
        tele.csr_dense_bytes.add(st.value.bytes());
    } else {
        st.dpr.encode(st.plan.dpr, st.value.span());
        encoded_bytes = st.dpr.bytes();
        tele.dpr_encoded_bytes.add(encoded_bytes);
        tele.dpr_dense_bytes.add(st.value.bytes());
    }
    tele.encode_ns.add(nanosSince(t0));
    tele.encoded_bytes.add(encoded_bytes);
    tele.dense_bytes_replaced.add(st.value.bytes());
    meterAdd(id, MemKind::Encoded, encoded_bytes);
    meterSub(id, MemKind::Value, st.value.bytes());
    st.value.releaseStorage();
}

/**
 * Decode the slot back to FP32. The caller guarantees the encode has
 * completed (sync mode: trivially; async mode: the decode task waits on
 * the slot's encode ticket before calling this). The main-thread
 * BufState flip to Dense happens when the decode ticket is joined.
 */
void
Executor::decodeSlot(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    GIST_TRACE_SCOPE_F("decode", "decode %s %s",
                       planUsesCsr(st.plan) ? "csr" : "dpr",
                       graph_.node(id).name.c_str());
    const auto t0 = std::chrono::steady_clock::now();
    st.value.reallocate();
    meterAdd(id, MemKind::Value, st.value.bytes());
    if (planUsesCsr(st.plan)) {
        st.csr.decode(st.value.span());
        meterSub(id, MemKind::Encoded, st.csr.bytes());
        st.csr.reset(); // keep capacity for next step's encode
    } else {
        st.dpr.decode(st.value.span());
        meterSub(id, MemKind::Encoded, st.dpr.bytes());
        st.dpr.reset();
    }
    tele.decode_ns.add(nanosSince(t0));
}

void
Executor::materialize(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    if (st.state == BufState::Dense)
        return;
    GIST_ASSERT(st.state == BufState::Encoded, "node ", id,
                " has no stashed value to materialize");
    decodeSlot(id);
    st.state = BufState::Dense;
}

void
Executor::submitEvict(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    GIST_ASSERT(device_pool_ != nullptr, "evict without a device pool");
    GIST_ASSERT(st.state == BufState::Dense ||
                    st.state == BufState::Encoded,
                "node ", id, " is not evictable in its current state");
    GIST_ASSERT(!st.evict_job && !st.fetch_job && !st.decode_job,
                "node ", id, " has tier/decode work in flight");
    if (st.state == BufState::Dense) {
        st.tier_form = TierForm::Dense;
        st.evict_estimate = st.value.bytes();
    } else {
        const bool is_csr = planUsesCsr(st.plan);
        st.tier_form = is_csr ? TierForm::Csr : TierForm::Dpr;
        // Device bytes the transfer will free. With the encode still in
        // flight the CSR size is unknown (nnz-dependent), so credit the
        // FP32 upper bound; DPR is exactly sized by format and numel.
        if (st.encode_job && !st.encode_job.ready())
            st.evict_estimate =
                is_csr ? st.value.bytes()
                       : dprEncodedBytes(st.plan.dpr, st.value.numel());
        else
            st.evict_estimate = is_csr ? st.csr.bytes() : st.dpr.bytes();
    }
    // Credit before submit: with zero workers the task runs inline and
    // debits the credit before submit() returns.
    pending_evict_bytes_.fetch_add(st.evict_estimate,
                                   std::memory_order_relaxed);
    // The evict task waits on the slot's own encode ticket first — the
    // same earlier-submitted-only chaining that keeps decode prefetch
    // deadlock-free at any worker count.
    const TaskTicket after = st.encode_job;
    st.evict_job = codec_queue_.submit([this, id, after] {
        after.wait();
        evictSlot(id);
    });
    st.state = BufState::Evicted;
    evict_fifo_.push_back(id);
}

/**
 * Worker-side evict body: move the slot's device-resident payload
 * (dense FP32 or a serialized encoding) into the tier and release the
 * device bytes. The slot's buffers are owned by this task until its
 * ticket is joined.
 */
void
Executor::evictSlot(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    GIST_TRACE_SCOPE_F("evict", "evict %s", graph_.node(id).name.c_str());
    if (st.tier_form == TierForm::Dense) {
        const std::uint64_t bytes = st.value.bytes();
        device_pool_->store(id, st.value.data(), bytes);
        st.tier_bytes = bytes;
        meterSub(id, MemKind::Value, bytes);
        st.value.releaseStorage();
    } else {
        const bool is_csr = st.tier_form == TierForm::Csr;
        const std::uint64_t blob =
            is_csr ? st.csr.serializedBytes() : st.dpr.serializedBytes();
        st.xfer.resize(blob);
        if (is_csr)
            st.csr.serialize(st.xfer.data());
        else
            st.dpr.serialize(st.xfer.data());
        device_pool_->store(id, st.xfer.data(), blob);
        st.tier_bytes = blob;
        const std::uint64_t enc = is_csr ? st.csr.bytes() : st.dpr.bytes();
        meterSub(id, MemKind::Encoded, enc);
        if (is_csr)
            st.csr.reset(); // keep capacity for the fetch-back
        else
            st.dpr.reset();
    }
    pending_evict_bytes_.fetch_sub(st.evict_estimate,
                                   std::memory_order_relaxed);
}

void
Executor::submitFetch(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    if (st.state != BufState::Evicted || st.fetch_job)
        return;
    const TaskTicket after = st.evict_job; // fetch never passes its evict
    st.fetch_job = codec_queue_.submit([this, id, after] {
        after.wait();
        fetchSlot(id);
    });
}

/** Worker-side fetch body: bring the tier blob back onto the device. */
void
Executor::fetchSlot(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    GIST_TRACE_SCOPE_F("fetch", "fetch %s", graph_.node(id).name.c_str());
    if (st.tier_form == TierForm::Dense) {
        st.value.reallocate();
        meterAdd(id, MemKind::Value, st.value.bytes());
        device_pool_->fetch(id, st.value.data(), st.tier_bytes);
    } else {
        st.xfer.resize(st.tier_bytes);
        device_pool_->fetch(id, st.xfer.data(), st.tier_bytes);
        if (st.tier_form == TierForm::Csr) {
            st.csr.deserialize(st.xfer.data(), st.tier_bytes);
            meterAdd(id, MemKind::Encoded, st.csr.bytes());
        } else {
            st.dpr.deserialize(st.xfer.data(), st.tier_bytes);
            meterAdd(id, MemKind::Encoded, st.dpr.bytes());
        }
    }
    device_pool_->erase(id);
    st.tier_bytes = 0;
}

void
Executor::joinFetch(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    if (!st.fetch_job)
        return;
    joinTicket(st.fetch_job, "fetch", id);
    st.fetch_job.reset();
    st.evict_job.reset();  // fetch waited on it already
    st.encode_job.reset(); // evict waited on it already
    st.state = st.tier_form == TierForm::Dense ? BufState::Dense
                                               : BufState::Encoded;
    st.tier_form = TierForm::None;
}

void
Executor::enforcePoolCap(int cur_step)
{
    if (!device_pool_ || device_pool_->cap() == 0)
        return;
    const auto cap = static_cast<std::int64_t>(device_pool_->cap());
    // In-flight evicts are credited against the level so one overflow
    // does not trigger a cascade of duplicate evictions while the
    // workers catch up.
    const auto level = [&] {
        return tele.pool_bytes.current() -
               static_cast<std::int64_t>(pending_evict_bytes_.load(
                   std::memory_order_relaxed));
    };
    while (level() > cap) {
        // Pick the evictable stash whose backward read is furthest in
        // the future (Belady-style, on the known schedule): stashed,
        // past its forward reads, not yet into its backward reads, and
        // with no tier/decode work in flight. Encode-in-flight is fine
        // (the evict chains after it).
        NodeId best = -1;
        int best_read = -1;
        const std::int64_t n = graph_.numNodes();
        for (std::int64_t i = 0; i < n; ++i) {
            const auto id = static_cast<NodeId>(i);
            const auto &st = states[static_cast<size_t>(i)];
            if (!sched->stashed(id) ||
                st.plan.repr == StashPlan::Repr::Recompute)
                continue;
            if (st.state != BufState::Dense &&
                st.state != BufState::Encoded)
                continue;
            if (st.evict_job || st.fetch_job || st.decode_job)
                continue;
            if (sched->lastFwdRead(id) > cur_step)
                continue; // still feeding forward consumers
            const int next_read = sched->firstBwdRead(id);
            if (next_read <= cur_step)
                continue; // its backward reads have begun
            if (next_read > best_read ||
                (next_read == best_read && id < best)) {
                best = id;
                best_read = next_read;
            }
        }
        if (best < 0)
            break; // nothing evictable: allow the transient overshoot
        submitEvict(best);
    }
    // Hard backpressure: when the *actual* level is still above the cap
    // the producer has outrun the tier link; block on the oldest
    // in-flight evict (counted as a stall) instead of racing further
    // ahead. Never waits for anything but already-submitted transfers,
    // so this cannot deadlock; with an empty FIFO the overshoot stands
    // (the tier is unbounded, the device cap is a target).
    while (tele.pool_bytes.current() > cap && !evict_fifo_.empty()) {
        const NodeId vid = evict_fifo_.front();
        evict_fifo_.pop_front();
        auto &vst = states[static_cast<size_t>(vid)];
        if (vst.evict_job) {
            joinTicket(vst.evict_job, "evict", vid);
            vst.evict_job.reset();
        }
    }
}

bool
Executor::chunkedReader(NodeId consumer) const
{
    if (!elide_decode)
        return false;
    const LayerKind kind = graph_.node(consumer).kind();
    return kind == LayerKind::Conv || kind == LayerKind::Fc;
}

void
Executor::submitDecodes(NodeId consumer, NodeId chunked_reader)
{
    if (consumer < 0)
        return;
    // Slots the currently-executing consumer reads tile-by-tile (elide
    // mode) must not decode concurrently: the decode resets the very
    // encoding the chunked read walks. Defer those to the consumer's
    // own step.
    const bool hold = chunked_reader >= 0 && chunkedReader(chunked_reader);
    for (const DecodeTarget &t :
         codec_points.decode_targets[static_cast<size_t>(consumer)]) {
        auto &st = states[static_cast<size_t>(t.slot)];
        const NodeId slot = t.slot;
        if (st.state == BufState::Evicted) {
            // Prefetch-back: start the tier transfer now so it overlaps
            // the preceding backward compute like a decode prefetch.
            submitFetch(slot);
            if (st.tier_form == TierForm::Dense || st.decode_job)
                continue; // awaitDense joins the fetch / already chained
            if (t.chunkable && chunkedReader(consumer))
                continue; // fetch suffices; consumer walks the encoding
            if (hold) {
                const auto &ins = graph_.node(chunked_reader).inputs;
                if (std::find(ins.begin(), ins.end(), slot) != ins.end())
                    continue;
            }
            // Chain the decode behind the fetch (FIFO, earlier-submitted
            // only — the same deadlock-freedom argument as below).
            const TaskTicket after_fetch = st.fetch_job;
            st.decode_job = codec_queue_.submit([this, slot, after_fetch] {
                after_fetch.wait();
                decodeSlot(slot);
            });
            continue;
        }
        if (st.state != BufState::Encoded)
            continue; // dense plan, already decoded, or released
        if (st.decode_job)
            continue; // already in flight (submitted one node ahead)
        if (t.chunkable && chunkedReader(consumer))
            continue; // consumer reads the encoding tile-by-tile
        if (hold) {
            const auto &ins = graph_.node(chunked_reader).inputs;
            if (std::find(ins.begin(), ins.end(), t.slot) != ins.end())
                continue;
        }
        // The decode task waits on the slot's own encode ticket first:
        // with the FIFO queue a popped task only ever waits on
        // earlier-submitted tasks (already popped), so every worker
        // count down to one is deadlock-free.
        const TaskTicket after = st.encode_job;
        st.decode_job = codec_queue_.submit([this, slot, after] {
            after.wait();
            decodeSlot(slot);
        });
    }
}

/**
 * Join a codec ticket, classifying the join: ready tickets cost one
 * mutex acquisition; a not-ready ticket means the main thread is now
 * serialized behind codec work, so the blocked time is counted (and
 * traced) as a stall — the numerator of the overlap-efficiency metric.
 */
void
Executor::joinTicket(const TaskTicket &ticket, const char *what,
                     NodeId id)
{
    if (!ticket)
        return;
    if (ticket.ready()) {
        ticket.wait(); // no block; still the single rethrow path
        return;
    }
    GIST_TRACE_SCOPE_F("stall", "stall %s %s", what,
                       graph_.node(id).name.c_str());
    const auto t0 = std::chrono::steady_clock::now();
    ticket.wait();
    tele.codec_stall_ns.add(nanosSince(t0));
    tele.codec_stalls.add(1);
}

void
Executor::joinEncode(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    if (st.encode_job) {
        joinTicket(st.encode_job, "encode", id);
        st.encode_job.reset();
    }
}

void
Executor::awaitDense(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    if (st.decode_job) {
        // Blocks only if the prefetch came early.
        joinTicket(st.decode_job, "decode", id);
        st.decode_job.reset();
        st.encode_job.reset(); // decode waited on it already
        st.fetch_job.reset();  // (and, for evicted slots, on these two)
        st.evict_job.reset();
        st.tier_form = TierForm::None;
        st.state = BufState::Dense;
        return;
    }
    if (st.state == BufState::Dense)
        return;
    if (st.state == BufState::Evicted) {
        // No decode chained (raw swap, chunk-held, or sync mode): bring
        // the blob back, then decode inline if it came back encoded.
        submitFetch(id); // no-op when the prefetch is already in flight
        joinFetch(id);
        if (st.state == BufState::Dense)
            return;
        materialize(id);
        return;
    }
    // No prefetch in flight (e.g. elide-skipped slot read densely after
    // all): fall back to the synchronous decode path.
    joinEncode(id);
    materialize(id);
}

Tensor &
Executor::ensureGrad(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    if (st.grad.empty()) {
        st.grad = Tensor(graph_.node(id).out_shape);
        meterAdd(id, MemKind::Grad, st.grad.bytes());
    }
    return st.grad;
}

void
Executor::releaseStash(NodeId id)
{
    auto &st = states[static_cast<size_t>(id)];
    // Join any in-flight codec/tier work first so the buffers (and the
    // memory meter) are quiescent before the release bookkeeping.
    if (st.decode_job) {
        joinTicket(st.decode_job, "release", id);
        st.decode_job.reset();
        st.encode_job.reset();
        st.fetch_job.reset();
        st.evict_job.reset();
        st.tier_form = TierForm::None;
        st.state = BufState::Dense;
    } else if (st.fetch_job) {
        joinFetch(id); // -> Dense or Encoded
    } else if (st.evict_job) {
        joinTicket(st.evict_job, "release", id);
        st.evict_job.reset();
        st.encode_job.reset(); // evict waited on it already
    } else {
        joinEncode(id);
    }
    if (st.state == BufState::Dense) {
        meterSub(id, MemKind::Value, st.value.bytes());
    } else if (st.state == BufState::Encoded) {
        meterSub(id, MemKind::Encoded,
                 planUsesCsr(st.plan) ? st.csr.bytes() : st.dpr.bytes());
    } else if (st.state == BufState::Evicted) {
        // Released while tier-resident (its device bytes were already
        // un-metered by the evict); just drop the blob.
        device_pool_->erase(id);
        st.tier_bytes = 0;
        st.tier_form = TierForm::None;
    }
    st.value.releaseStorage();
    st.csr.clear();
    st.dpr.clear();
    st.xfer.clear();
    st.xfer.shrink_to_fit();
    st.state = BufState::Empty;
}

void
Executor::ensureRecomputed(NodeId id, int at_step)
{
    const auto &st = states[static_cast<size_t>(id)];
    if (st.plan.repr != StashPlan::Repr::Recompute ||
        st.state != BufState::Empty || !sched->stashed(id))
        return;
    replaySegment(id, at_step);
}

void
Executor::replaySegment(NodeId target, int at_step)
{
    GIST_TRACE_SCOPE_F("replay", "replay %s",
                       graph_.node(target).name.c_str());
    const auto t0 = std::chrono::steady_clock::now();

    // Find the minimal producer segment: walk ancestors from the target
    // until a materialized frontier. Dense ancestors are available as
    // is; encoded ancestors decode in place (always cheaper than
    // replaying past them, and their decode was due by their own first
    // backward read anyway — this just moves it earlier); only empty
    // ancestors are re-run.
    std::vector<NodeId> segment;
    std::vector<char> visited(static_cast<size_t>(graph_.numNodes()), 0);
    std::vector<NodeId> stack{ target };
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        if (visited[static_cast<size_t>(id)])
            continue;
        visited[static_cast<size_t>(id)] = 1;
        auto &st = states[static_cast<size_t>(id)];
        if (st.state == BufState::Dense)
            continue;
        if (st.state == BufState::Encoded ||
            st.state == BufState::Evicted) {
            awaitDense(id); // joins in-flight codec/tier work first
            continue;
        }
        segment.push_back(id);
        for (NodeId in : graph_.node(id).inputs)
            stack.push_back(in);
    }
    std::sort(segment.begin(), segment.end());

    // Re-run the forward bodies in topological order. FwdCtx::replay
    // keeps training state (BN running stats, dropout RNG) untouched so
    // the rebuilt values are bitwise-identical to the dropped ones.
    for (const NodeId id : segment) {
        auto &node = graph_.node(id);
        auto &st = states[static_cast<size_t>(id)];
        if (st.value.empty())
            st.value.reallocate();
        meterAdd(id, MemKind::Value, st.value.bytes());
        if (node.kind() == LayerKind::Input) {
            GIST_ASSERT(cur_input_ != nullptr,
                        "no minibatch input to replay from");
            st.value = *cur_input_;
        } else {
            FwdCtx ctx;
            for (NodeId in : node.inputs) {
                const auto &in_st = states[static_cast<size_t>(in)];
                GIST_ASSERT(in_st.state == BufState::Dense,
                            "replay input of node ", id,
                            " not materialized");
                ctx.inputs.push_back(&in_st.value);
            }
            ctx.output = &st.value;
            ctx.training = true;
            ctx.replay = true;
            GIST_TRACE_SCOPE_F("fwd", "replay %s", node.name.c_str());
            node.layer->forward(ctx);
            if (forward_quantize != DprFormat::Fp32 &&
                node.kind() != LayerKind::SoftmaxLoss)
                dprQuantizeInPlace(forward_quantize, st.value.span());
        }
        st.state = BufState::Dense;
    }

    // Keep replayed slots with a pending backward read at or after the
    // triggering step — the normal lastBwdRead release path owns them
    // from here (so one replay serves every dropped slot on the chain).
    // Everything else was segment scaffolding; release it.
    for (const NodeId id : segment) {
        if (sched->stashed(id) && sched->lastBwdRead(id) >= at_step)
            continue;
        auto &st = states[static_cast<size_t>(id)];
        meterSub(id, MemKind::Value, st.value.bytes());
        st.value.releaseStorage();
        st.state = BufState::Empty;
    }

    tele.recompute_ns.add(nanosSince(t0));
    tele.recompute_segments.add(1);
    tele.recompute_nodes.add(segment.size());
}

void
Executor::forwardOnly(const Tensor &input)
{
    if (!sched)
        refreshSchedule();
    for (std::int64_t i = 0; i < graph_.numNodes(); ++i) {
        const auto id = static_cast<NodeId>(i);
        auto &node = graph_.node(id);
        auto &st = states[static_cast<size_t>(i)];
        if (st.value.empty())
            st.value.reallocate();
        if (node.kind() == LayerKind::Input) {
            GIST_ASSERT(input.shape() == node.out_shape,
                        "input shape ", input.shape().toString(),
                        " does not match graph input ",
                        node.out_shape.toString());
            st.value = input;
        } else {
            FwdCtx ctx;
            for (NodeId in : node.inputs)
                ctx.inputs.push_back(&states[static_cast<size_t>(in)].value);
            ctx.output = &st.value;
            ctx.training = false;
            GIST_TRACE_SCOPE_F("fwd", "fwd %s", node.name.c_str());
            node.layer->forward(ctx);
        }
        st.state = BufState::Dense;
    }
}

float
Executor::runMinibatch(const Tensor &input,
                       std::span<const std::int32_t> labels)
{
    if (!sched)
        refreshSchedule();
    GIST_TRACE_SCOPE("exec", "minibatch");
    // Rewind the workspace arena while no kernels are in flight: any
    // region that overflowed last step regrows to its high-water size,
    // so warm steps serve all scratch without touching the heap.
    WorkspaceArena::instance().beginStep();
    last_stats = ExecStats{};
    cur_input_ = &input;
    tele.minibatches.add(1);
    // Per-run deltas of the shared instruments (see ExecStats docs).
    const std::uint64_t encode_ns0 = tele.encode_ns.value();
    const std::uint64_t decode_ns0 = tele.decode_ns.value();
    const std::uint64_t encoded_bytes0 = tele.encoded_bytes.value();
    const std::uint64_t dense_replaced0 = tele.dense_bytes_replaced.value();
    const std::uint64_t stall_ns0 = tele.codec_stall_ns.value();
    const std::uint64_t stalls0 = tele.codec_stalls.value();
    const std::uint64_t recompute_ns0 = tele.recompute_ns.value();
    const std::uint64_t recompute_segments0 =
        tele.recompute_segments.value();
    const std::uint64_t recompute_nodes0 = tele.recompute_nodes.value();
    const std::uint64_t recompute_dropped0 =
        tele.recompute_dropped_bytes.value();
    const CodecQueueStats q0 = codec_queue_.stats();
    codec_queue_.markDepth();
    const TierStats tier0 =
        device_pool_ ? device_pool_->stats() : TierStats{};
    evict_fifo_.clear(); // stale ids only; all tickets joined by now
    tele.pool_bytes.set(0);
    tele.pool_bytes.resetPeak();
    memory_trace.clear();
    const bool memprof = obs::memprofEnabled();
    if (memprof)
        memprofBeginStep();

    const auto n = graph_.numNodes();
    GIST_ASSERT(n > 0, "empty graph");
    auto *loss_layer = dynamic_cast<LossLayer *>(
        graph_.node(static_cast<NodeId>(n - 1)).layer.get());
    GIST_ASSERT(loss_layer != nullptr,
                "last graph node must be a loss layer for training");
    loss_layer->setLabels(labels);

    // ---- Forward pass ----
    for (std::int64_t i = 0; i < n; ++i) {
        const auto id = static_cast<NodeId>(i);
        auto &node = graph_.node(id);
        auto &st = states[static_cast<size_t>(i)];
        cur_sched_step.store(graph_.fwdStep(id),
                             std::memory_order_relaxed);
        if (st.value.empty())
            st.value.reallocate();
        // Count at production time whether the storage is fresh or was
        // left materialized by an interleaved forwardOnly() pass.
        meterAdd(id, MemKind::Value, st.value.bytes());
        if (node.kind() == LayerKind::Input) {
            GIST_ASSERT(input.shape() == node.out_shape,
                        "input shape mismatch");
            st.value = input;
        } else {
            FwdCtx ctx;
            for (NodeId in : node.inputs) {
                const auto &in_st = states[static_cast<size_t>(in)];
                GIST_ASSERT(in_st.state == BufState::Dense,
                            "input of node ", id, " not materialized");
                ctx.inputs.push_back(&in_st.value);
            }
            ctx.output = &st.value;
            ctx.training = true;
            const auto t_fwd = std::chrono::steady_clock::now();
            {
                GIST_TRACE_SCOPE_F("fwd", "fwd %s", node.name.c_str());
                node.layer->forward(ctx);
            }
            if (profile)
                st.fwd_seconds = secondsSince(t_fwd);
            meterAdd(id, MemKind::Aux,
                     auxBytesOf(id)); // masks/maps/BN stats captured
            if (forward_quantize != DprFormat::Fp32 &&
                node.kind() != LayerKind::SoftmaxLoss) {
                dprQuantizeInPlace(forward_quantize, st.value.span());
            }
        }
        st.state = BufState::Dense;

        // Retire every buffer whose last forward read just happened.
        for (NodeId in : node.inputs)
            if (sched->lastFwdRead(in) == graph_.fwdStep(id))
                retireAfterForward(in);
        if (sched->lastFwdRead(id) == graph_.fwdStep(id))
            retireAfterForward(id);
        enforcePoolCap(graph_.fwdStep(id));
        memory_trace.emplace_back(
            graph_.fwdStep(id),
            static_cast<std::uint64_t>(tele.pool_bytes.current()));
        if (memprof)
            memprofSample(graph_.fwdStep(id), id, "fwd");
    }

    // ---- Backward pass ----
    for (std::int64_t i = n - 1; i >= 0; --i) {
        const auto id = static_cast<NodeId>(i);
        auto &node = graph_.node(id);
        if (node.kind() == LayerKind::Input)
            continue;
        cur_sched_step.store(graph_.bwdStep(id),
                             std::memory_order_relaxed);

        const BackwardNeeds needs = node.layer->backwardNeeds();
        // Rematerialize Recompute-dropped stashes this node is about to
        // read, before the decode/materialize paths run (those assert
        // an encoded slot).
        if (needs.input)
            for (NodeId in : node.inputs)
                ensureRecomputed(in, graph_.bwdStep(id));
        if (needs.output)
            ensureRecomputed(id, graph_.bwdStep(id));
        // Can this consumer read the encoded stash tile-by-tile instead
        // of forcing a full decode? (Conv and FC backward both can.)
        auto chunked_ok = [&](NodeId in) {
            const auto &in_st = states[static_cast<size_t>(in)];
            return chunkedReader(id) &&
                   in_st.state == BufState::Encoded;
        };
        if (async_codec) {
            // Make sure this node's own dense reads are in flight (a
            // no-op when the previous iteration prefetched them), then
            // prefetch the next backward node's decodes so they overlap
            // this node's backward compute.
            submitDecodes(id);
            submitDecodes(codec_points.next_bwd[static_cast<size_t>(i)],
                          id);
        }
        // Land tier-resident reads back on device first. Slots with a
        // chained decode resolve through awaitDense below; the rest
        // (raw swaps, chunk-held fetches, sync mode) join their fetch
        // here so the chunked_ok probe sees the restored BufState.
        auto landFetched = [&](NodeId slot) {
            auto &slot_st = states[static_cast<size_t>(slot)];
            if (slot_st.state == BufState::Evicted && !slot_st.decode_job) {
                submitFetch(slot);
                joinFetch(slot);
            }
        };
        if (needs.input)
            for (NodeId in : node.inputs)
                landFetched(in);
        if (needs.output)
            landFetched(id);
        if (needs.input)
            for (NodeId in : node.inputs) {
                if (!chunked_ok(in)) {
                    if (async_codec)
                        awaitDense(in);
                    else
                        materialize(in);
                } else if (async_codec) {
                    joinEncode(in); // chunked read of the encoding
                }
            }
        if (needs.output) {
            if (async_codec)
                awaitDense(id);
            else
                materialize(id);
        }

        BwdCtx ctx;
        for (NodeId in : node.inputs) {
            const auto &in_st = states[static_cast<size_t>(in)];
            ctx.inputs.push_back(
                needs.input && in_st.state == BufState::Dense
                    ? &in_st.value
                    : nullptr);
            EncodedStash stash;
            if (needs.input && chunked_ok(in)) {
                if (planUsesCsr(in_st.plan))
                    stash.csr = &in_st.csr;
                else
                    stash.dpr = &in_st.dpr;
            }
            ctx.encoded_inputs.push_back(stash);
        }
        const auto &st = states[static_cast<size_t>(i)];
        ctx.output = (needs.output && st.state == BufState::Dense)
                         ? &st.value
                         : nullptr;
        const bool is_loss = (i == n - 1);
        ctx.d_output = is_loss ? nullptr
                               : &ensureGrad(id); // consumers accumulated
        for (NodeId in : node.inputs) {
            if (graph_.node(in).kind() == LayerKind::Input) {
                ctx.d_inputs.push_back(nullptr);
            } else {
                Tensor &g = ensureGrad(in);
                ctx.d_inputs.push_back(&g);
            }
        }

        const auto t_bwd = std::chrono::steady_clock::now();
        {
            GIST_TRACE_SCOPE_F("bwd", "bwd %s", node.name.c_str());
            node.layer->backward(ctx);
        }
        if (profile)
            states[static_cast<size_t>(i)].bwd_seconds =
                secondsSince(t_bwd);

        if (forward_quantize != DprFormat::Fp32) {
            for (Tensor *d : ctx.d_inputs)
                if (d)
                    dprQuantizeInPlace(forward_quantize, d->span());
            for (Tensor *wg : node.layer->paramGrads())
                dprQuantizeInPlace(forward_quantize, wg->span());
        }

        // The node's own gradient map is consumed; release it.
        auto &own = states[static_cast<size_t>(i)];
        if (!own.grad.empty())
            meterSub(id, MemKind::Grad, own.grad.bytes());
        own.grad.releaseStorage();
        meterSub(id, MemKind::Aux, auxBytesOf(id));
        node.layer->releaseAuxStash();

        // Release stashes whose last backward read just happened.
        const int step = graph_.bwdStep(id);
        for (NodeId in : node.inputs)
            if (sched->stashed(in) && sched->lastBwdRead(in) == step)
                releaseStash(in);
        if (sched->stashed(id) && sched->lastBwdRead(id) == step)
            releaseStash(id);
        enforcePoolCap(step);
        memory_trace.emplace_back(
            step, static_cast<std::uint64_t>(tele.pool_bytes.current()));
        if (memprof)
            memprofSample(step, id, "bwd");
    }

    last_stats.loss = loss_layer->lastLoss();
    last_stats.encode_seconds =
        static_cast<double>(tele.encode_ns.value() - encode_ns0) * 1e-9;
    last_stats.decode_seconds =
        static_cast<double>(tele.decode_ns.value() - decode_ns0) * 1e-9;
    last_stats.encoded_bytes = tele.encoded_bytes.value() - encoded_bytes0;
    last_stats.dense_bytes_replaced =
        tele.dense_bytes_replaced.value() - dense_replaced0;
    last_stats.peak_pool_bytes =
        static_cast<std::uint64_t>(tele.pool_bytes.peak());
    last_stats.recompute_seconds =
        static_cast<double>(tele.recompute_ns.value() - recompute_ns0) *
        1e-9;
    last_stats.recompute_segments =
        tele.recompute_segments.value() - recompute_segments0;
    last_stats.recompute_nodes =
        tele.recompute_nodes.value() - recompute_nodes0;
    last_stats.recompute_dropped_bytes =
        tele.recompute_dropped_bytes.value() - recompute_dropped0;
    cur_input_ = nullptr;

    // Stall accounting: per-step deltas of the stall counters (bumped
    // by joinTicket) and of the CodecQueue's own per-ticket stats,
    // mirrored into the registry so snapshot-based tools see them.
    const CodecQueueStats q1 = codec_queue_.stats();
    last_stats.codec_stall_ns = tele.codec_stall_ns.value() - stall_ns0;
    last_stats.codec_stalls = tele.codec_stalls.value() - stalls0;
    last_stats.codec_queue_wait_ns = q1.queue_wait_ns - q0.queue_wait_ns;
    last_stats.codec_run_ns = q1.run_ns - q0.run_ns;
    last_stats.codec_queue_peak_depth = q1.max_depth;
    tele.codec_queue_wait_ns.add(last_stats.codec_queue_wait_ns);
    tele.codec_run_ns.add(last_stats.codec_run_ns);
    tele.codec_queue_depth.set(q1.max_depth);
    if (last_stats.codec_run_ns > 0) {
        const double stall = static_cast<double>(
            std::min(last_stats.codec_stall_ns, last_stats.codec_run_ns));
        last_stats.overlap_efficiency =
            1.0 - stall / static_cast<double>(last_stats.codec_run_ns);
    }

    // Tier traffic: per-step deltas of the DevicePool's cumulative
    // transfer statistics.
    if (device_pool_) {
        const TierStats tier1 = device_pool_->stats();
        last_stats.tier_evictions = tier1.stores - tier0.stores;
        last_stats.tier_fetches = tier1.fetches - tier0.fetches;
        last_stats.tier_bytes_out = tier1.bytes_out - tier0.bytes_out;
        last_stats.tier_bytes_in = tier1.bytes_in - tier0.bytes_in;
        last_stats.tier_write_ns = tier1.write_ns - tier0.write_ns;
        last_stats.tier_read_ns = tier1.read_ns - tier0.read_ns;
    }

    if (memprof)
        memprofFinishStep();
    return last_stats.loss;
}

} // namespace gist
