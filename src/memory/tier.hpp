/**
 * @file
 * Slow-tier byte stores backing the bounded device pool.
 *
 * A TierStore holds opaque per-slot blobs that were evicted from the
 * (simulated) device: the executor serializes a stash slot's buffers,
 * store()s them under the slot id, and fetch()es the exact bytes back
 * before the slot's backward read. Two implementations:
 *
 *  - MemoryTierStore: blobs live in host vectors. An optional
 *    bytes-per-second throttle emulates a slow link (PCIe-class) by
 *    sleeping each transfer to the configured bandwidth (the sleeping
 *    thread's timer slack is cut to 1 ns, so short sleeps wake on time
 *    and the link delivers that bandwidth); transfers are
 *    serialized on one mutex on purpose — a single DMA channel, so two
 *    concurrent evictions queue behind each other exactly like they
 *    would on one PCIe stream. Throttle 0 makes round trips plain
 *    memcpys (what the deterministic tests use).
 *  - FileTierStore: one file per slot under a spill directory — the
 *    "train a model bigger than memory" configuration. Any I/O failure
 *    (unwritable directory, short write, missing blob) throws
 *    std::runtime_error with the failing path, which propagates through
 *    the transfer's ticket to the training loop as a clean error.
 *
 * Both stores are thread-safe: an executor's link worker stores and
 * fetches while its main thread erases released slots.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace gist {

/** Cumulative transfer statistics of one tier store. */
struct TierStats
{
    std::uint64_t stores = 0;      ///< store() calls (evictions)
    std::uint64_t fetches = 0;     ///< fetch() calls
    std::uint64_t bytes_out = 0;   ///< device -> tier bytes
    std::uint64_t bytes_in = 0;    ///< tier -> device bytes
    std::uint64_t write_ns = 0;    ///< time inside store()
    std::uint64_t read_ns = 0;     ///< time inside fetch()
};

/** Abstract slow-tier blob store, keyed by stash slot id. */
class TierStore
{
  public:
    virtual ~TierStore() = default;

    /** Store @p bytes of @p data under @p key (replaces any previous). */
    virtual void store(std::int64_t key, const void *data,
                       std::uint64_t bytes) = 0;

    /** Read the blob stored under @p key back into @p dst
     *  (@p bytes must equal the stored size). */
    virtual void fetch(std::int64_t key, void *dst,
                       std::uint64_t bytes) = 0;

    /** Size of the blob stored under @p key; 0 when absent. */
    virtual std::uint64_t storedBytes(std::int64_t key) const = 0;

    /** Drop the blob under @p key (no-op when absent). */
    virtual void erase(std::int64_t key) = 0;

    /** Total bytes currently resident in the tier. */
    virtual std::uint64_t residentBytes() const = 0;

    /** Point-in-time copy of the transfer statistics. */
    virtual TierStats stats() const = 0;

    /** "memory" or "file" (diagnostics). */
    virtual const char *kind() const = 0;
};

/**
 * In-memory tier. @p bytes_per_second > 0 throttles every transfer to
 * that bandwidth (sleeping the transferring thread); 0 is unthrottled.
 */
std::unique_ptr<TierStore> makeMemoryTier(double bytes_per_second = 0.0);

/**
 * File-backed tier spilling one file per slot under @p dir (created if
 * missing). Throws std::runtime_error when the directory cannot be
 * created; store/fetch throw on any I/O failure.
 */
std::unique_ptr<TierStore> makeFileTier(const std::string &dir);

} // namespace gist
