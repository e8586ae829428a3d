/**
 * @file
 * DevicePool: a byte cap on the simulated device's feature-map pool,
 * with a slow tier behind it.
 *
 * The executor's memory meter (its pool gauge, ExecStats::
 * peak_pool_bytes) stands in for device memory; the pool does not
 * allocate anything itself. What it owns is the *overflow path*: when
 * the metered level exceeds cap(), the executor evicts stash slots
 * through store() into the pool's TierStore and fetches them back
 * before their backward reads. The tier counts and times its own
 * traffic (stats(), which the executor turns into ExecStats' per-step
 * tier_* fields) and its resident level (residentBytes()).
 *
 * cap() == 0 disables enforcement (an unbounded device); the store
 * still works, which is what the planner's pure-swap plans use.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "memory/tier.hpp"

namespace gist {

/** How to build a DevicePool (from GistConfig / env / bench flags). */
struct DevicePoolConfig
{
    /** Device pool byte cap; 0 = unbounded (no overflow eviction). */
    std::uint64_t cap_bytes = 0;
    /** Spill directory for a file tier; empty = in-memory tier. */
    std::string tier_path;
    /**
     * Slow-link bandwidth in bytes/second for the memory tier's
     * throttle (0 = unthrottled). Ignored by the file tier, whose
     * speed is the filesystem's own.
     */
    double tier_bytes_per_second = 0.0;
};

/** The bounded device pool + its slow tier. */
class DevicePool
{
  public:
    /** Builds the tier (file when tier_path set, else memory). Throws
     *  std::runtime_error when a file tier's directory is unusable. */
    explicit DevicePool(const DevicePoolConfig &config);

    /** The device byte cap (0 = unbounded). */
    std::uint64_t cap() const { return config_.cap_bytes; }

    /** Evict: move @p bytes of @p data for slot @p key into the tier. */
    void
    store(std::int64_t key, const void *data, std::uint64_t bytes)
    {
        tier_->store(key, data, bytes);
    }

    /** Fetch slot @p key's blob back (@p bytes = its stored size). */
    void
    fetch(std::int64_t key, void *dst, std::uint64_t bytes)
    {
        tier_->fetch(key, dst, bytes);
    }

    /** Stored blob size of slot @p key (0 when not tier-resident). */
    std::uint64_t
    storedBytes(std::int64_t key) const
    {
        return tier_->storedBytes(key);
    }

    /** Drop slot @p key from the tier. */
    void erase(std::int64_t key) { tier_->erase(key); }

    /** Bytes currently tier-resident. */
    std::uint64_t residentBytes() const { return tier_->residentBytes(); }

    /** Cumulative transfer statistics of the tier. */
    TierStats stats() const { return tier_->stats(); }

    /** "memory" or "file". */
    const char *tierKind() const { return tier_->kind(); }

    const DevicePoolConfig &config() const { return config_; }

  private:
    DevicePoolConfig config_;
    std::unique_ptr<TierStore> tier_;
};

} // namespace gist
