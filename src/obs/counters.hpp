/**
 * @file
 * Counter and Gauge: lock-free numeric instruments.
 *
 * Counter: monotonically increasing uint64 (bytes encoded, nanoseconds
 * spent). Gauge: a level with built-in peak tracking (the executor's
 * feature-map-pool memory meter). Each is a plain value owned by the
 * object that updates it, which is also the one that reports it (the
 * executor through ExecStats); there is no name and no lookup. All
 * mutation is relaxed atomics, so codec workers and pool threads may
 * bump them while the owner reads.
 *
 * Derived quantities stay out of the instruments by design: a
 * compression ratio is dense_bytes / encoded_bytes of two counters —
 * integer counters compose race-free where a stored double would not.
 */

#pragma once

#include <atomic>
#include <cstdint>

namespace gist::obs {

/** Monotonic event/byte/time accumulator. */
class Counter
{
  public:
    void
    add(std::uint64_t n)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        v_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{ 0 };
};

/** A level (can rise and fall) that remembers its high-water mark. */
class Gauge
{
  public:
    /** @return the level right after this add (for peak attribution). */
    std::int64_t
    add(std::int64_t n)
    {
        const std::int64_t now =
            cur_.fetch_add(n, std::memory_order_relaxed) + n;
        updatePeak(now);
        return now;
    }

    void
    sub(std::int64_t n)
    {
        cur_.fetch_sub(n, std::memory_order_relaxed);
    }

    void
    set(std::int64_t v)
    {
        cur_.store(v, std::memory_order_relaxed);
        updatePeak(v);
    }

    std::int64_t
    current() const
    {
        return cur_.load(std::memory_order_relaxed);
    }

    std::int64_t
    peak() const
    {
        return peak_.load(std::memory_order_relaxed);
    }

    /** Restart peak tracking from the current level. */
    void
    resetPeak()
    {
        peak_.store(cur_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    }

  private:
    void
    updatePeak(std::int64_t v)
    {
        std::int64_t p = peak_.load(std::memory_order_relaxed);
        while (v > p &&
               !peak_.compare_exchange_weak(p, v,
                                            std::memory_order_relaxed)) {
        }
    }

    std::atomic<std::int64_t> cur_{ 0 };
    std::atomic<std::int64_t> peak_{ 0 };
};

} // namespace gist::obs
