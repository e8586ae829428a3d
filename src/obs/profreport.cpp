#include "obs/profreport.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace gist::obs {

namespace {

/** printf into a std::string (report lines are short and fixed-form). */
std::string
fmt(const char *f, ...)
{
    char buf[512];
    va_list args;
    va_start(args, f);
    std::vsnprintf(buf, sizeof(buf), f, args);
    va_end(args);
    return buf;
}

std::string
bytesHuman(double b)
{
    if (b >= 1024.0 * 1024.0)
        return fmt("%8.2f MiB", b / (1024.0 * 1024.0));
    if (b >= 1024.0)
        return fmt("%8.2f KiB", b / 1024.0);
    return fmt("%8.0f B  ", b);
}

struct SpanAgg
{
    double total_ms = 0.0;
    std::uint64_t count = 0;
};

void
sectionTopSpans(const JsonValue &trace, int top_k, std::ostringstream &out)
{
    const JsonValue *events = trace.get("traceEvents");
    if (!events || !events->isArray()) {
        out << "  (no traceEvents array)\n";
        return;
    }
    std::map<std::string, SpanAgg> by_name; // "cat name" -> agg
    double wall_lo = 0.0, wall_hi = 0.0;
    bool any = false;
    for (const JsonValue &e : events->items()) {
        if (e.stringOr("ph", "") != "X")
            continue;
        const double ts = e.numberOr("ts", 0.0);
        const double dur = e.numberOr("dur", 0.0);
        if (!any || ts < wall_lo)
            wall_lo = ts;
        if (!any || ts + dur > wall_hi)
            wall_hi = ts + dur;
        any = true;
        SpanAgg &agg =
            by_name[e.stringOr("cat", "?") + " " + e.stringOr("name", "?")];
        agg.total_ms += dur / 1e3;
        ++agg.count;
    }
    if (!any) {
        out << "  (no spans)\n";
        return;
    }
    const double wall_ms = (wall_hi - wall_lo) / 1e3;
    out << fmt("  wall clock covered: %.2f ms, %zu distinct spans\n",
               wall_ms, by_name.size());
    std::vector<std::pair<std::string, SpanAgg>> rows(by_name.begin(),
                                                      by_name.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.total_ms > b.second.total_ms;
    });
    out << "  total ms     count   mean ms   % wall  span\n";
    for (size_t i = 0;
         i < rows.size() && i < static_cast<size_t>(top_k); ++i) {
        const auto &[name, agg] = rows[i];
        out << fmt("  %9.3f  %8llu  %8.3f  %6.1f%%  %s\n", agg.total_ms,
                   static_cast<unsigned long long>(agg.count),
                   agg.total_ms / static_cast<double>(agg.count),
                   wall_ms > 0.0 ? 100.0 * agg.total_ms / wall_ms : 0.0,
                   name.c_str());
    }
}

/**
 * GEMM throughput by kind: the GEMM entry points name their spans
 * "gemm [<kind> ]<m>x<n>x<k>" (tensor/gemm.cpp), so each span did 2 * m
 * * n * k flops in its duration. Kinds: conv (forward), conv-dx (one
 * span per sub-pixel phase), conv-dw, packed-b, and plain gemm.
 */
void
sectionGemm(const JsonValue &trace, std::ostringstream &out)
{
    const JsonValue *events = trace.get("traceEvents");
    if (!events || !events->isArray()) {
        out << "  (no traceEvents array)\n";
        return;
    }
    struct KindAgg
    {
        double ms = 0.0, flops = 0.0;
        std::uint64_t calls = 0;
    };
    std::map<std::string, KindAgg> by_kind;
    for (const JsonValue &e : events->items()) {
        const std::string name = e.stringOr("name", "");
        if (e.stringOr("ph", "") != "X" || name.rfind("gemm ", 0) != 0)
            continue;
        const size_t dims = name.rfind(' ');
        long long m = 0, n = 0, k = 0;
        if (std::sscanf(name.c_str() + dims + 1, "%lldx%lldx%lld", &m, &n,
                        &k) != 3)
            continue;
        KindAgg &agg = by_kind[dims > 4 ? name.substr(5, dims - 5) : "gemm"];
        agg.ms += e.numberOr("dur", 0.0) / 1e3;
        agg.flops += 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                     static_cast<double>(k);
        ++agg.calls;
    }
    if (by_kind.empty()) {
        out << "  (no gemm spans)\n";
        return;
    }
    out << "  kind          calls   total ms      GFLOP   GFLOP/s\n";
    for (const auto &[kind, agg] : by_kind)
        out << fmt("  %-10s %8llu %10.3f %10.3f %9.2f\n", kind.c_str(),
                   static_cast<unsigned long long>(agg.calls), agg.ms,
                   agg.flops / 1e9,
                   agg.ms > 0.0 ? agg.flops / (agg.ms * 1e6) : 0.0);
}

/**
 * Main-thread (tid 0) fwd/bwd time per node: the executor runs the
 * schedule serially on the main thread, so these totals ARE the
 * per-node critical path; codec-worker time only matters when it
 * surfaces as a "stall" span.
 */
void
sectionCriticalPath(const JsonValue &trace, int top_k,
                    std::ostringstream &out)
{
    const JsonValue *events = trace.get("traceEvents");
    if (!events || !events->isArray()) {
        out << "  (no traceEvents array)\n";
        return;
    }
    struct NodeTime
    {
        double fwd_ms = 0.0, bwd_ms = 0.0, stall_ms = 0.0;
    };
    std::map<std::string, NodeTime> by_node;
    double total = 0.0;
    for (const JsonValue &e : events->items()) {
        if (e.stringOr("ph", "") != "X" || e.intOr("tid", -1) != 0)
            continue;
        const std::string cat = e.stringOr("cat", "");
        const std::string name = e.stringOr("name", "");
        const double ms = e.numberOr("dur", 0.0) / 1e3;
        // Span names are "fwd <node>" / "bwd <node>" / "stall <kind>
        // <node>": attribute to the node label after the prefix.
        const size_t sp = name.rfind(' ');
        if (sp == std::string::npos)
            continue;
        const std::string node = name.substr(sp + 1);
        if (cat == "fwd")
            by_node[node].fwd_ms += ms;
        else if (cat == "bwd")
            by_node[node].bwd_ms += ms;
        else if (cat == "stall")
            by_node[node].stall_ms += ms;
        else
            continue;
        total += ms;
    }
    if (by_node.empty()) {
        out << "  (no fwd/bwd spans on the main thread)\n";
        return;
    }
    std::vector<std::pair<std::string, NodeTime>> rows(by_node.begin(),
                                                       by_node.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.fwd_ms + a.second.bwd_ms + a.second.stall_ms >
               b.second.fwd_ms + b.second.bwd_ms + b.second.stall_ms;
    });
    out << fmt("  main-thread node time: %.3f ms\n", total);
    out << "   total ms    fwd ms    bwd ms  stall ms    cum%  node\n";
    double cum = 0.0;
    for (size_t i = 0;
         i < rows.size() && i < static_cast<size_t>(top_k); ++i) {
        const auto &[node, t] = rows[i];
        const double row = t.fwd_ms + t.bwd_ms + t.stall_ms;
        cum += row;
        out << fmt("  %9.3f %9.3f %9.3f %9.3f  %5.1f%%  %s\n", row,
                   t.fwd_ms, t.bwd_ms, t.stall_ms,
                   total > 0.0 ? 100.0 * cum / total : 0.0, node.c_str());
    }
}

void
sectionStalls(const JsonValue *trace,
              const std::vector<JsonValue> *metrics,
              std::ostringstream &out)
{
    if (trace) {
        double stall_ms = 0.0;
        std::uint64_t stalls = 0;
        if (const JsonValue *events = trace->get("traceEvents");
            events && events->isArray()) {
            for (const JsonValue &e : events->items()) {
                if (e.stringOr("cat", "") != "stall")
                    continue;
                stall_ms += e.numberOr("dur", 0.0) / 1e3;
                ++stalls;
            }
        }
        out << fmt("  trace: %llu stall spans, %.3f ms blocked\n",
                   static_cast<unsigned long long>(stalls), stall_ms);
        const JsonValue *dropped = trace->get("droppedByThread");
        const double drop_total =
            trace->get("otherData")
                ? trace->get("otherData")->numberOr("dropped_events", 0.0)
                : 0.0;
        if (drop_total > 0.0 || (dropped && !dropped->items().empty()))
            out << fmt("  WARNING: trace truncated, %.0f events dropped"
                       " — totals above undercount\n",
                       drop_total);
    }
    if (!metrics) {
        out << "  (no metrics.jsonl: per-step stall counters missing)\n";
        return;
    }
    std::uint64_t steps = 0, stalls = 0;
    double stall_s = 0.0, wait_s = 0.0, overlap_sum = 0.0;
    double depth_max = 0.0;
    for (const JsonValue &r : *metrics) {
        if (r.stringOr("type", "") != "step")
            continue;
        ++steps;
        stall_s += r.numberOr("codec_stall_seconds", 0.0);
        stalls += static_cast<std::uint64_t>(r.numberOr("codec_stalls", 0));
        wait_s += r.numberOr("codec_queue_wait_seconds", 0.0);
        overlap_sum += r.numberOr("overlap_efficiency", 1.0);
        depth_max = std::max(
            depth_max, r.numberOr("codec_queue_peak_depth", 0.0));
    }
    if (steps == 0) {
        out << "  (no step records in metrics.jsonl)\n";
        return;
    }
    out << fmt("  steps: %llu   blocking joins: %llu   main-thread"
               " stall: %.3f s\n",
               static_cast<unsigned long long>(steps),
               static_cast<unsigned long long>(stalls), stall_s);
    out << fmt("  codec queue wait: %.3f s   peak queue depth: %.0f\n",
               wait_s, depth_max);
    out << fmt("  mean overlap efficiency: %.3f (1.0 = codec fully"
               " hidden under compute)\n",
               overlap_sum / static_cast<double>(steps));
}

void
sectionMemory(const JsonValue &memprof, int top_k, std::ostringstream &out)
{
    const JsonValue *steps = memprof.get("steps");
    if (!steps || !steps->isArray() || steps->items().empty()) {
        out << "  (no steps in memprof timeline)\n";
        return;
    }
    // Report the step with the largest peak — the one that sizes the
    // device memory the run needs.
    const JsonValue *worst = &steps->items().front();
    for (const JsonValue &s : steps->items())
        if (s.numberOr("peak_pool_bytes", 0.0) >
            worst->numberOr("peak_pool_bytes", 0.0))
            worst = &s;
    out << fmt("  worst step: %lld (of %zu recorded)\n",
               worst->intOr("step", -1), steps->items().size());
    out << fmt("  peak pool: %s at schedule step %lld (%s)\n",
               bytesHuman(worst->numberOr("peak_pool_bytes", 0.0)).c_str(),
               worst->intOr("peak_sched_step", -1),
               worst->stringOr("peak_node", "?").c_str());
    out << fmt("  arena high-water: %s\n",
               bytesHuman(worst->numberOr("arena_high_water", 0.0)).c_str());
    const JsonValue *attr = worst->get("peak_attribution");
    if (!attr || !attr->isArray())
        return;
    std::vector<const JsonValue *> rows;
    for (const JsonValue &slot : attr->items())
        rows.push_back(&slot);
    std::sort(rows.begin(), rows.end(),
              [](const JsonValue *a, const JsonValue *b) {
                  return a->numberOr("total_bytes", 0.0) >
                         b->numberOr("total_bytes", 0.0);
              });
    const double peak = worst->numberOr("peak_pool_bytes", 0.0);
    out << "         total       value        grad     encoded"
           "         aux  % peak  slot\n";
    for (size_t i = 0;
         i < rows.size() && i < static_cast<size_t>(top_k); ++i) {
        const JsonValue &s = *rows[i];
        out << fmt(
            "  %s %s %s %s %s  %5.1f%%  %s\n",
            bytesHuman(s.numberOr("total_bytes", 0.0)).c_str(),
            bytesHuman(s.numberOr("value_bytes", 0.0)).c_str(),
            bytesHuman(s.numberOr("grad_bytes", 0.0)).c_str(),
            bytesHuman(s.numberOr("encoded_bytes", 0.0)).c_str(),
            bytesHuman(s.numberOr("aux_bytes", 0.0)).c_str(),
            peak > 0.0 ? 100.0 * s.numberOr("total_bytes", 0.0) / peak
                       : 0.0,
            s.stringOr("node", "?").c_str());
    }
}

void
sectionPlan(const JsonValue &memprof, int top_k, std::ostringstream &out)
{
    const JsonValue *plan = memprof.get("plan");
    if (!plan || !plan->isObject()) {
        out << "  (no hybrid plan in memprof timeline — run with"
               " GIST_MEM_BUDGET to plan one)\n";
        return;
    }
    // Measured peak: max over the timeline's steps, the same number
    // sectionMemory reports — the plan's promise is against this.
    double measured = 0.0;
    if (const JsonValue *steps = memprof.get("steps"))
        if (steps->isArray())
            for (const JsonValue &s : steps->items())
                measured = std::max(
                    measured, s.numberOr("peak_pool_bytes", 0.0));
    const JsonValue *feasible = plan->get("feasible");
    const double budget = plan->numberOr("budget_bytes", 0.0);
    const double planned = plan->numberOr("planned_peak_bytes", 0.0);
    out << fmt("  budget: %s (%s)\n", bytesHuman(budget).c_str(),
               feasible && feasible->isBool() && feasible->asBool()
                   ? "feasible"
                   : "INFEASIBLE");
    out << fmt("  planned peak: %s   keep-everything peak: %s   "
               "measured peak: %s%s\n",
               bytesHuman(planned).c_str(),
               bytesHuman(plan->numberOr("keep_peak_bytes", 0.0)).c_str(),
               measured > 0.0 ? bytesHuman(measured).c_str() : "?",
               measured > budget && budget > 0.0 ? "  ** OVER BUDGET **"
                                                 : "");
    const JsonValue *slots = plan->get("slots");
    if (!slots || !slots->isArray())
        return;
    int keep = 0, changed = 0;
    std::vector<const JsonValue *> rows;
    for (const JsonValue &s : slots->items()) {
        if (s.stringOr("repr", "keep") == std::string("keep")) {
            ++keep;
            continue;
        }
        ++changed;
        rows.push_back(&s);
    }
    out << fmt("  %d stash slots: %d kept, %d re-represented\n",
               keep + changed, keep, changed);
    std::sort(rows.begin(), rows.end(),
              [](const JsonValue *a, const JsonValue *b) {
                  return a->numberOr("fp32_bytes", 0.0) >
                         b->numberOr("fp32_bytes", 0.0);
              });
    if (!rows.empty())
        out << "  repr            fp32      stored  est s/step  slot\n";
    for (size_t i = 0;
         i < rows.size() && i < static_cast<size_t>(top_k); ++i) {
        const JsonValue &s = *rows[i];
        out << fmt("  %-9s %s %s   %.6f  %s\n",
                   s.stringOr("repr", "?").c_str(),
                   bytesHuman(s.numberOr("fp32_bytes", 0.0)).c_str(),
                   bytesHuman(s.numberOr("stored_bytes", 0.0)).c_str(),
                   s.numberOr("est_seconds", 0.0),
                   s.stringOr("name", "?").c_str());
    }
}

} // namespace

bool
loadJsonFile(const std::string &path, JsonValue &out, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    std::string perr;
    if (!JsonValue::parse(text, out, &perr)) {
        if (err)
            *err = path + ": " + perr;
        return false;
    }
    return true;
}

bool
loadJsonLines(const std::string &path, std::vector<JsonValue> &out,
              std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonValue v;
        std::string perr;
        if (!JsonValue::parse(line, v, &perr)) {
            if (err)
                *err = path + ":" + std::to_string(lineno) + ": " + perr;
            return false;
        }
        out.push_back(std::move(v));
    }
    return true;
}

std::string
renderProfReport(const JsonValue *trace,
                 const std::vector<JsonValue> *metrics,
                 const JsonValue *memprof, const ProfReportOptions &opts)
{
    std::ostringstream out;
    out << "== gist_prof report ==\n\n";

    out << "-- top spans by total time --\n";
    if (trace)
        sectionTopSpans(*trace, opts.top_k, out);
    else
        out << "  (no trace.json given)\n";

    out << "\n-- GEMM throughput by kind --\n";
    if (trace)
        sectionGemm(*trace, out);
    else
        out << "  (no trace.json given)\n";

    out << "\n-- per-node critical path (main thread) --\n";
    if (trace)
        sectionCriticalPath(*trace, opts.top_k, out);
    else
        out << "  (no trace.json given)\n";

    out << "\n-- async codec stalls --\n";
    sectionStalls(trace, metrics, out);

    out << "\n-- peak memory attribution --\n";
    if (memprof)
        sectionMemory(*memprof, opts.top_k, out);
    else
        out << "  (no memprof timeline given)\n";

    out << "\n-- hybrid plan vs actual --\n";
    if (memprof)
        sectionPlan(*memprof, opts.top_k, out);
    else
        out << "  (no memprof timeline given)\n";

    return out.str();
}

} // namespace gist::obs
