/**
 * @file
 * Span tracer: RAII scopes recorded into per-thread ring buffers and
 * written out as Chrome trace-event JSON (loadable in chrome://tracing
 * or https://ui.perfetto.dev).
 *
 * Design constraints, in priority order:
 *  1. Zero overhead when off: GIST_TRACE_SCOPE compiles to one relaxed
 *     atomic load + branch; nothing else runs.
 *  2. Race-free when on: each thread appends to its own fixed-capacity
 *     buffer (registered on first use; pool workers are identified via
 *     gist::currentWorkerIndex() from util/parallel). The only
 *     cross-thread communication is the buffer's head index, published
 *     with release semantics and read by the writer with acquire, so a
 *     flush can run while other threads keep recording.
 *  3. Bounded memory: a full buffer drops further events (counted and
 *     reported in the trace's otherData) rather than reallocating.
 *
 * Enabling: traceStart(path) programmatically, the GistConfig::trace_path
 * field, or the GIST_TRACE=<path> environment variable (picked up at
 * static-init time; the file is written at traceStop() or process exit).
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gist::obs {

namespace detail {

extern std::atomic<bool> g_trace_on;

/** Nanoseconds on the trace clock (steady, process-relative). */
std::uint64_t traceNowNs();

/**
 * Append one complete span to the calling thread's buffer.
 * @p cat must be a string literal (stored by pointer); @p name is
 * copied (truncated to the event's fixed name field).
 */
void traceRecord(const char *cat, const char *name, std::uint64_t ts_ns,
                 std::uint64_t dur_ns);

} // namespace detail

/** Is the tracer recording? One relaxed load — safe on any hot path. */
inline bool
traceEnabled()
{
    return detail::g_trace_on.load(std::memory_order_relaxed);
}

/**
 * Start recording. @p path is where traceStop() (or process exit)
 * writes the Chrome trace; an empty path records in memory only
 * (drain with traceCollect(), used by the tests).
 */
void traceStart(const std::string &path);

/** Stop recording and write the trace file (if a path was given). */
void traceStop();

/** Path traceStop() will write to; empty if memory-only or stopped. */
std::string tracePath();

/** Write the events recorded so far to @p path; keeps recording. */
bool traceWrite(const std::string &path);

/** Drop all buffered events. Call only while no thread is recording. */
void traceReset();

/** Events committed across all thread buffers. */
std::uint64_t traceEventCount();

/** Events dropped because a thread's buffer filled up. */
std::uint64_t traceDroppedEvents();

/** Per-thread buffer capacity in events. */
std::uint64_t traceCapacityPerThread();

/** A decoded span, for tests and the JSON writer. */
struct TraceEventData
{
    std::string name;
    std::string cat;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    int tid = 0;          ///< buffer registration order (trace row id)
    int worker_index = 0; ///< gist::currentWorkerIndex() of the thread
};

/** Snapshot of every committed event, sorted by start timestamp. */
std::vector<TraceEventData> traceCollect();

/**
 * RAII span. Inactive (default-constructed) scopes cost one branch in
 * the destructor. Use via the GIST_TRACE_SCOPE macros.
 */
class TraceScope
{
  public:
    TraceScope() = default;
    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    /** Arm the scope with a literal category and a copied name. */
    void
    begin(const char *cat, const char *name)
    {
        cat_ = cat;
        copyName(name);
        t0_ = detail::traceNowNs();
    }

    /** Arm with a printf-formatted name (composed only when tracing). */
    void beginf(const char *cat, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));

    ~TraceScope()
    {
        if (cat_)
            detail::traceRecord(cat_, name_, t0_,
                                detail::traceNowNs() - t0_);
    }

  private:
    void copyName(const char *name);

    char name_[48] = { 0 };
    const char *cat_ = nullptr;
    std::uint64_t t0_ = 0;
};

} // namespace gist::obs

#define GIST_OBS_CONCAT2(a, b) a##b
#define GIST_OBS_CONCAT(a, b) GIST_OBS_CONCAT2(a, b)

/**
 * Trace the enclosing scope as one span. @p cat must be a string
 * literal; @p name may be any C string (copied). When tracing is off
 * this is a single branch.
 */
#define GIST_TRACE_SCOPE(cat, name)                                          \
    ::gist::obs::TraceScope GIST_OBS_CONCAT(gist_trace_scope_, __LINE__);    \
    if (::gist::obs::traceEnabled())                                         \
        GIST_OBS_CONCAT(gist_trace_scope_, __LINE__).begin((cat), (name))

/** Same, with a printf-style name (formatted only when tracing is on). */
#define GIST_TRACE_SCOPE_F(cat, ...)                                         \
    ::gist::obs::TraceScope GIST_OBS_CONCAT(gist_trace_scope_, __LINE__);    \
    if (::gist::obs::traceEnabled())                                         \
        GIST_OBS_CONCAT(gist_trace_scope_, __LINE__).beginf((cat),           \
                                                            __VA_ARGS__)
