#include "core/schedule_builder.hpp"

#include <cstdio>
#include <memory>

#include "core/planner.hpp"
#include "memory/device_pool.hpp"
#include "layers/pool.hpp"
#include "layers/relu.hpp"
#include "obs/memprof.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace gist {

bool
csrEligible(const GistConfig &config, const ScheduleDecision &decision)
{
    return config.ssdc && decision.category == StashCategory::ReluConv &&
           (!decision.pool_matched ||
            config.csr.value_format == DprFormat::Fp32);
}

bool
dprEligible(const GistConfig &config, const ScheduleDecision &decision)
{
    return config.dpr && !decision.pool_matched;
}

StashPlan::SwapCodec
swapCodecFor(const GistConfig &config, const ScheduleDecision &decision)
{
    if (csrEligible(config, decision))
        return StashPlan::SwapCodec::Csr;
    if (dprEligible(config, decision))
        return StashPlan::SwapCodec::Dpr;
    return StashPlan::SwapCodec::None;
}

BuiltSchedule
buildSchedule(Graph &graph, const GistConfig &config)
{
    BuiltSchedule built;
    built.config = resolveConfig(config);
    built.decisions.assign(static_cast<size_t>(graph.numNodes()), {});

    const auto categories = classifyStashes(graph);
    for (size_t i = 0; i < categories.size(); ++i)
        built.decisions[i].category = categories[i];

    // Reset every switchable layer to its baseline mode first so a
    // schedule can be rebuilt with a different config.
    for (auto &node : graph.nodes()) {
        if (auto *relu = dynamic_cast<ReluLayer *>(
                const_cast<Layer *>(node.layer.get()))) {
            relu->setStashMode(ReluLayer::StashMode::Dense);
        } else if (auto *pool = dynamic_cast<MaxPoolLayer *>(
                       const_cast<Layer *>(node.layer.get()))) {
            pool->setStashMode(MaxPoolLayer::StashMode::Dense);
        }
    }

    // Binarize: flip ReLU->Pool pairs into mask/argmax-map modes. After
    // the flip neither the ReLU output nor the pool input/output is
    // needed in the backward pass.
    if (config.binarize) {
        for (auto &node : graph.nodes()) {
            const auto idx = static_cast<size_t>(node.id);
            if (built.decisions[idx].category != StashCategory::ReluPool)
                continue;
            auto *relu = dynamic_cast<ReluLayer *>(node.layer.get());
            GIST_ASSERT(relu, "ReluPool category on a non-ReLU node");
            relu->setStashMode(ReluLayer::StashMode::Mask);
            built.decisions[idx].binarized = true;
            // The single consumer is the MaxPool (classification rule).
            for (auto &consumer : graph.nodes()) {
                if (consumer.inputs.size() == 1 &&
                    consumer.inputs[0] == node.id &&
                    consumer.kind() == LayerKind::MaxPool) {
                    auto *pool = dynamic_cast<MaxPoolLayer *>(
                        consumer.layer.get());
                    pool->setStashMode(MaxPoolLayer::StashMode::IndexMap);
                    built.decisions[static_cast<size_t>(consumer.id)]
                        .binarized = true;
                }
            }
        }
    }

    // A max-pool left in Dense mode matches its input against its output.
    for (const auto &node : graph.nodes()) {
        const auto *pool =
            dynamic_cast<const MaxPoolLayer *>(node.layer.get());
        if (pool && pool->stashMode() == MaxPoolLayer::StashMode::Dense) {
            built.decisions[static_cast<size_t>(node.id)].pool_matched =
                true;
            built.decisions[static_cast<size_t>(node.inputs[0])]
                .pool_matched = true;
        }
    }

    // Stashedness with the new modes decides the storage representation.
    const ScheduleInfo sched(graph);
    for (auto &node : graph.nodes()) {
        const auto idx = static_cast<size_t>(node.id);
        auto &decision = built.decisions[idx];
        if (!sched.stashed(node.id)) {
            decision.repr = StashPlan::Repr::Dense;
        } else if (config.ssdc &&
                   decision.category == StashCategory::ReluConv) {
            decision.repr = StashPlan::Repr::Csr;
        } else if (config.dpr) {
            decision.repr = StashPlan::Repr::Dpr;
        } else {
            decision.repr = StashPlan::Repr::Dense;
        }
    }

    // A Dense-mode max-pool's input and output must carry one value
    // rounding: exact FP32 (Dense, or CSR with FP32 values), CSR's value
    // format, or DPR's format. Where a pair's roundings differ, its
    // lossy side is stored Dense. A map can belong to several pairs, so
    // repeat until no pair changes.
    const auto rounding = [&](NodeId id) {
        const StashPlan::Repr repr =
            built.decisions[static_cast<size_t>(id)].repr;
        if (repr == StashPlan::Repr::Csr)
            return config.csr.value_format;
        if (repr == StashPlan::Repr::Dpr)
            return config.dpr_format;
        return DprFormat::Fp32;
    };
    for (bool changed = true; changed;) {
        changed = false;
        for (const auto &node : graph.nodes()) {
            const auto *pool =
                dynamic_cast<const MaxPoolLayer *>(node.layer.get());
            if (!pool ||
                pool->stashMode() != MaxPoolLayer::StashMode::Dense ||
                rounding(node.id) == rounding(node.inputs[0]))
                continue;
            for (const NodeId id : { node.id, node.inputs[0] }) {
                if (rounding(id) != DprFormat::Fp32) {
                    built.decisions[static_cast<size_t>(id)].repr =
                        StashPlan::Repr::Dense;
                    changed = true;
                }
            }
        }
    }

    // Inplace ReLU: the output may overwrite its producer's buffer when
    // the producer's map is immediately consumed and feeds only this ReLU.
    if (config.inplace_relu) {
        std::vector<int> consumer_count(
            static_cast<size_t>(graph.numNodes()), 0);
        for (const auto &node : graph.nodes())
            for (NodeId in : node.inputs)
                ++consumer_count[static_cast<size_t>(in)];
        for (const auto &node : graph.nodes()) {
            if (node.kind() != LayerKind::Relu)
                continue;
            const NodeId parent = node.inputs[0];
            if (graph.node(parent).kind() == LayerKind::Input)
                continue;
            if (consumer_count[static_cast<size_t>(parent)] != 1)
                continue;
            if (sched.stashed(parent))
                continue;
            built.decisions[static_cast<size_t>(node.id)].inplace = true;
        }
    }

    // Memory budget: hand every stash slot to the hybrid planner, which
    // re-chooses the representations (keep / CSR / DPR / recompute, and
    // swap when a device pool cap is set) against the budget.
    const std::uint64_t budget = built.config.mem_budget_bytes;
    if (budget > 0)
        optimizeHybridSchedule(graph, built, budget);

    return built;
}

std::string
hybridPlanJson(const BuiltSchedule &schedule)
{
    const HybridPlan &plan = schedule.hybrid;
    if (!plan.active)
        return {};
    const auto reprName = [](StashPlan::Repr r) {
        switch (r) {
          case StashPlan::Repr::Dense: return "keep";
          case StashPlan::Repr::Csr: return "csr";
          case StashPlan::Repr::Dpr: return "dpr";
          case StashPlan::Repr::Recompute: return "recompute";
          case StashPlan::Repr::Swap: return "swap";
        }
        return "?";
    };
    char buf[256];
    std::string out = "{\"kind\": \"gist-hybrid-plan\", \"version\": 2,";
    std::snprintf(buf, sizeof buf,
                  " \"budget_bytes\": %llu, \"feasible\": %s,"
                  " \"keep_peak_bytes\": %llu,"
                  " \"planned_peak_bytes\": %llu,"
                  " \"est_overhead_seconds\": %.9g, \"slots\": [",
                  static_cast<unsigned long long>(plan.budget_bytes),
                  plan.feasible ? "true" : "false",
                  static_cast<unsigned long long>(plan.keep_peak_bytes),
                  static_cast<unsigned long long>(
                      plan.planned_peak_bytes),
                  plan.est_overhead_seconds);
    out += buf;
    bool first = true;
    for (const HybridSlot &slot : plan.slots) {
        // Node names come from model builders (identifier-style); no
        // escaping machinery needed for a diagnostics artifact.
        std::snprintf(buf, sizeof buf,
                      "%s{\"node\": %d, \"name\": \"%s\","
                      " \"category\": \"%s\", \"repr\": \"%s\","
                      " \"fp32_bytes\": %llu, \"stored_bytes\": %llu,"
                      " \"tier_bytes\": %llu, \"est_seconds\": %.9g}",
                      first ? "" : ", ", slot.node, slot.name.c_str(),
                      stashCategoryName(slot.category),
                      reprName(slot.repr),
                      static_cast<unsigned long long>(slot.fp32_bytes),
                      static_cast<unsigned long long>(slot.stored_bytes),
                      static_cast<unsigned long long>(slot.tier_bytes),
                      slot.est_seconds);
        out += buf;
        first = false;
    }
    out += "]}";
    return out;
}

void
applyToExecutor(const BuiltSchedule &schedule, Executor &exec)
{
    const auto &graph = exec.graph();
    for (const auto &node : graph.nodes()) {
        const auto &decision = schedule.of(node.id);
        StashPlan plan;
        switch (decision.repr) {
          case StashPlan::Repr::Dense:
            plan.repr = StashPlan::Repr::Dense;
            break;
          case StashPlan::Repr::Csr:
            plan.repr = StashPlan::Repr::Csr;
            plan.csr = schedule.config.csr;
            break;
          case StashPlan::Repr::Dpr:
            plan.repr = StashPlan::Repr::Dpr;
            plan.dpr = schedule.config.dpr_format;
            break;
          case StashPlan::Repr::Recompute:
            plan.repr = StashPlan::Repr::Recompute;
            break;
          case StashPlan::Repr::Swap:
            plan.repr = StashPlan::Repr::Swap;
            plan.swap_codec = swapCodecFor(schedule.config, decision);
            if (plan.swap_codec == StashPlan::SwapCodec::Csr)
                plan.csr = schedule.config.csr;
            else if (plan.swap_codec == StashPlan::SwapCodec::Dpr)
                plan.dpr = schedule.config.dpr_format;
            break;
        }
        exec.setStashPlan(node.id, plan);
    }
    // Bounded device: attach the pool + slow tier whenever a cap is set
    // or the plan contains swap slots (a pure-swap plan still needs the
    // tier even on an unbounded device).
    {
        bool any_swap = false;
        for (const auto &decision : schedule.decisions)
            any_swap |= decision.repr == StashPlan::Repr::Swap;
        if (schedule.config.device_pool_bytes > 0 || any_swap) {
            DevicePoolConfig pc;
            pc.cap_bytes = schedule.config.device_pool_bytes;
            pc.tier_path = schedule.config.tier_path;
            pc.tier_bytes_per_second =
                schedule.config.tier_bandwidth_bytes_per_s;
            exec.setDevicePool(std::make_shared<DevicePool>(pc));
        } else {
            exec.setDevicePool(nullptr);
        }
    }
    exec.setElideDecode(schedule.config.elide_decode_buffer);
    if (schedule.config.num_threads > 0)
        setNumThreads(schedule.config.num_threads);
    exec.setAsyncCodec(schedule.config.async_codec,
                       schedule.config.codec_threads);
    if (!schedule.config.trace_path.empty())
        obs::traceStart(schedule.config.trace_path);
    if (!schedule.config.metrics_path.empty())
        obs::metricsOpen(schedule.config.metrics_path);
    if (!schedule.config.memprof_path.empty())
        obs::memprofStart(schedule.config.memprof_path);
    // Surface the hybrid plan in the run's artifacts, so gist_prof can
    // put plan-vs-actual side by side: one "plan" record in the metrics
    // JSONL and a "plan" object in the memprof JSON.
    if (schedule.hybrid.active) {
        const std::string plan_json = hybridPlanJson(schedule);
        if (obs::metricsEnabled()) {
            obs::JsonLine line;
            line.field("record", "plan").raw("plan", plan_json);
            obs::metricsWrite(line);
        }
        obs::memprofSetPlan(plan_json);
    }
    exec.refreshSchedule();
}

} // namespace gist
