#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/memprof.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace gist::obs {

namespace detail {
std::atomic<bool> g_trace_on{ false };
} // namespace detail

namespace {

constexpr std::uint32_t kCapacity = 1 << 16; ///< events per thread

/** Fixed-size storage for one span (name copied, category by pointer). */
struct RawEvent
{
    char name[48];
    const char *cat;
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;
};

/**
 * One thread's ring. Only the owning thread writes; it publishes the
 * count of committed events through `head` (release), so any reader
 * that loads `head` (acquire) may safely read events[0 .. head).
 * A full buffer drops events instead of wrapping — overwritten slots
 * would race with a concurrent flush.
 */
struct ThreadBuf
{
    std::vector<RawEvent> events{ kCapacity };
    std::atomic<std::uint32_t> head{ 0 };
    std::atomic<std::uint64_t> dropped{ 0 };
    int tid = 0;
    int worker_index = 0;
};

struct TraceState
{
    std::mutex mu;
    std::vector<std::shared_ptr<ThreadBuf>> bufs;
    std::string path;
};

TraceState &
state()
{
    // Intentionally leaked: scopes and the atexit flush hook may fire
    // during static teardown, after function-local statics are gone.
    static TraceState *s = new TraceState;
    return *s;
}

/** Trace epoch: fixed at process start so timestamps are comparable. */
std::chrono::steady_clock::time_point
epoch()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

// Buffers are shared_ptrs so the registry keeps a thread's events alive
// (and flushable) after the thread exits — pool workers die on resize.
thread_local std::shared_ptr<ThreadBuf> tls_buf_owner;
thread_local ThreadBuf *tls_buf = nullptr;

ThreadBuf &
localBuf()
{
    if (!tls_buf) {
        auto buf = std::make_shared<ThreadBuf>();
        buf->worker_index = currentWorkerIndex();
        TraceState &s = state();
        std::lock_guard<std::mutex> lock(s.mu);
        buf->tid = static_cast<int>(s.bufs.size());
        s.bufs.push_back(buf);
        tls_buf_owner = buf;
        tls_buf = buf.get();
    }
    return *tls_buf;
}

/** Flush-at-exit, registered once the tracer or sink is first opened. */
void
ensureAtexitFlush()
{
    static const bool registered = [] {
        std::atexit([] {
            traceStop();
            memprofStop();
            metricsClose();
        });
        return true;
    }();
    (void)registered;
}

void
escapeJson(const char *in, std::string &out)
{
    for (const char *p = in; *p; ++p) {
        const unsigned char c = static_cast<unsigned char>(*p);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
}

/**
 * Reads GIST_TRACE / GIST_METRICS once at static-init time so a plain
 * `GIST_TRACE=trace.json ./binary` works with no code changes; the
 * artifacts are flushed by the atexit hook.
 */
struct EnvInit
{
    EnvInit()
    {
        if (const char *t = std::getenv("GIST_TRACE"); t && *t)
            traceStart(t);
        if (const char *m = std::getenv("GIST_METRICS"); m && *m)
            metricsOpen(m);
        if (const char *p = std::getenv("GIST_MEMPROF"); p && *p) {
            memprofStart(p);
            ensureAtexitFlush();
        }
    }
};
EnvInit g_env_init;

} // namespace

namespace detail {

std::uint64_t
traceNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch())
            .count());
}

void
traceRecord(const char *cat, const char *name, std::uint64_t ts_ns,
            std::uint64_t dur_ns)
{
    if (!g_trace_on.load(std::memory_order_relaxed))
        return; // tracing stopped between scope entry and exit
    ThreadBuf &b = localBuf();
    const std::uint32_t h = b.head.load(std::memory_order_relaxed);
    if (h >= kCapacity) {
        b.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    RawEvent &e = b.events[h];
    std::snprintf(e.name, sizeof(e.name), "%s", name);
    e.cat = cat;
    e.ts_ns = ts_ns;
    e.dur_ns = dur_ns;
    b.head.store(h + 1, std::memory_order_release);
}

} // namespace detail

void
TraceScope::copyName(const char *name)
{
    std::snprintf(name_, sizeof(name_), "%s", name);
}

void
TraceScope::beginf(const char *cat, const char *fmt, ...)
{
    cat_ = cat;
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(name_, sizeof(name_), fmt, args);
    va_end(args);
    t0_ = detail::traceNowNs();
}

void
traceStart(const std::string &path)
{
    epoch(); // pin the clock origin before the first span
    {
        TraceState &s = state();
        std::lock_guard<std::mutex> lock(s.mu);
        s.path = path;
    }
    if (!path.empty())
        ensureAtexitFlush();
    detail::g_trace_on.store(true, std::memory_order_release);
}

void
traceStop()
{
    detail::g_trace_on.store(false, std::memory_order_release);
    std::string path;
    {
        TraceState &s = state();
        std::lock_guard<std::mutex> lock(s.mu);
        path.swap(s.path); // write once; a later stop is a no-op
    }
    if (!path.empty())
        traceWrite(path);
}

std::string
tracePath()
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.path;
}

std::vector<TraceEventData>
traceCollect()
{
    std::vector<TraceEventData> out;
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto &buf : s.bufs) {
        const std::uint32_t n = buf->head.load(std::memory_order_acquire);
        for (std::uint32_t i = 0; i < n; ++i) {
            const RawEvent &e = buf->events[i];
            out.push_back({ e.name, e.cat, e.ts_ns, e.dur_ns, buf->tid,
                            buf->worker_index });
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEventData &a, const TraceEventData &b) {
                         return a.ts_ns < b.ts_ns;
                     });
    return out;
}

bool
traceWrite(const std::string &path)
{
    const auto events = traceCollect();
    const std::uint64_t dropped = traceDroppedEvents();

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        GIST_WARN("cannot open trace file '", path, "'");
        return false;
    }

    std::fprintf(f, "{\n  \"displayTimeUnit\": \"ms\",\n");
    std::fprintf(f,
                 "  \"otherData\": {\"dropped_events\": %llu},\n",
                 static_cast<unsigned long long>(dropped));
    std::fprintf(f, "  \"traceEvents\": [\n");

    // Thread-name metadata rows first, then the spans in ts order.
    bool first = true;
    {
        TraceState &s = state();
        std::lock_guard<std::mutex> lock(s.mu);
        for (const auto &buf : s.bufs) {
            char tname[32];
            if (buf->worker_index > 0)
                std::snprintf(tname, sizeof(tname), "pool worker %d",
                              buf->worker_index);
            else if (buf->worker_index <= -kLinkWorkerIndexBase)
                std::snprintf(tname, sizeof(tname), "link worker %d",
                              -buf->worker_index - kLinkWorkerIndexBase);
            else if (buf->worker_index < 0)
                std::snprintf(tname, sizeof(tname), "codec worker %d",
                              -buf->worker_index);
            else if (buf->tid == 0)
                std::snprintf(tname, sizeof(tname), "main");
            else
                std::snprintf(tname, sizeof(tname), "thread %d",
                              buf->tid);
            std::fprintf(f,
                         "%s    {\"name\": \"thread_name\", \"ph\": \"M\","
                         " \"pid\": 1, \"tid\": %d,"
                         " \"args\": {\"name\": \"%s\"}}",
                         first ? "" : ",\n", buf->tid, tname);
            first = false;
        }
    }

    std::string name;
    for (const auto &e : events) {
        name.clear();
        escapeJson(e.name.c_str(), name);
        std::fprintf(f,
                     "%s    {\"name\": \"%s\", \"cat\": \"%s\","
                     " \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f,"
                     " \"pid\": 1, \"tid\": %d}",
                     first ? "" : ",\n", name.c_str(), e.cat.c_str(),
                     static_cast<double>(e.ts_ns) / 1e3,
                     static_cast<double>(e.dur_ns) / 1e3, e.tid);
        first = false;
    }
    // Footer: per-thread drop accounting. A truncated trace must not
    // look complete — every thread that overflowed its ring gets a row,
    // and a top-level warning string makes the loss obvious to both
    // humans and the gist_prof report.
    std::fprintf(f, "\n  ]");
    if (dropped > 0) {
        std::fprintf(f, ",\n  \"droppedByThread\": [");
        bool dfirst = true;
        TraceState &s = state();
        std::lock_guard<std::mutex> lock(s.mu);
        for (const auto &buf : s.bufs) {
            const std::uint64_t d =
                buf->dropped.load(std::memory_order_relaxed);
            if (d == 0)
                continue;
            std::fprintf(f,
                         "%s\n    {\"tid\": %d, \"worker_index\": %d,"
                         " \"dropped\": %llu}",
                         dfirst ? "" : ",", buf->tid, buf->worker_index,
                         static_cast<unsigned long long>(d));
            dfirst = false;
        }
        std::fprintf(f,
                     "\n  ],\n  \"warning\": \"trace truncated: %llu"
                     " events dropped (ring capacity %u/thread)\"",
                     static_cast<unsigned long long>(dropped),
                     kCapacity);
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    if (dropped > 0)
        GIST_WARN("trace '", path, "' is truncated: ", dropped,
                  " events dropped (ring capacity ", kCapacity,
                  " per thread)");
    GIST_INFORM("trace written to ", path, " (", events.size(),
                " spans, ", dropped, " dropped)");
    return true;
}

void
traceReset()
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto &buf : s.bufs) {
        buf->head.store(0, std::memory_order_release);
        buf->dropped.store(0, std::memory_order_relaxed);
    }
}

std::uint64_t
traceEventCount()
{
    std::uint64_t n = 0;
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto &buf : s.bufs)
        n += buf->head.load(std::memory_order_acquire);
    return n;
}

std::uint64_t
traceDroppedEvents()
{
    std::uint64_t n = 0;
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto &buf : s.bufs)
        n += buf->dropped.load(std::memory_order_relaxed);
    return n;
}

std::uint64_t
traceCapacityPerThread()
{
    return kCapacity;
}

} // namespace gist::obs
