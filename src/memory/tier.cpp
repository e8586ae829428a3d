#include "memory/tier.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

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

/**
 * Let the calling thread's timed sleeps wake on time. Linux stretches
 * each sleep by the thread's timer slack (50 us by default) so it can
 * batch wakeups; a throttled 64 KiB transfer at 1 GB/s sleeps ~65 us,
 * so the default slack alone cost the emulated link a third of its
 * bandwidth. The slack is a per-thread attribute of this process, set
 * once per thread to 1 ns (the smallest the kernel accepts).
 */
void
tightenTimerSlack()
{
#if defined(__linux__) && defined(PR_SET_TIMERSLACK)
    thread_local const bool done = [] {
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        return true;
    }();
    (void)done;
#endif
}

/** Shared stat bookkeeping for both stores (guarded by the store mutex). */
struct StatsAccum
{
    TierStats s;

    void
    noteStore(std::uint64_t bytes, std::uint64_t ns)
    {
        ++s.stores;
        s.bytes_out += bytes;
        s.write_ns += ns;
    }

    void
    noteFetch(std::uint64_t bytes, std::uint64_t ns)
    {
        ++s.fetches;
        s.bytes_in += bytes;
        s.read_ns += ns;
    }
};

class MemoryTierStore final : public TierStore
{
  public:
    explicit MemoryTierStore(double bytes_per_second)
        : bps_(bytes_per_second)
    {
    }

    void
    store(std::int64_t key, const void *data, std::uint64_t bytes) override
    {
        // One mutex across the whole transfer: a single emulated DMA
        // channel, so concurrent transfers serialize like they would on
        // one PCIe stream (and the throttle meters the *link*, not each
        // caller independently).
        std::lock_guard<std::mutex> lock(mu_);
        const auto t0 = std::chrono::steady_clock::now();
        auto &blob = blobs_[key];
        resident_ -= blob.size();
        blob.assign(static_cast<const std::uint8_t *>(data),
                    static_cast<const std::uint8_t *>(data) + bytes);
        resident_ += bytes;
        throttle(t0, bytes);
        stats_.noteStore(bytes, nanosSince(t0));
    }

    void
    fetch(std::int64_t key, void *dst, std::uint64_t bytes) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto t0 = std::chrono::steady_clock::now();
        const auto it = blobs_.find(key);
        if (it == blobs_.end() || it->second.size() != bytes)
            throw std::runtime_error(
                "memory tier: no blob of the requested size for slot " +
                std::to_string(key));
        std::memcpy(dst, it->second.data(), bytes);
        throttle(t0, bytes);
        stats_.noteFetch(bytes, nanosSince(t0));
    }

    std::uint64_t
    storedBytes(std::int64_t key) const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = blobs_.find(key);
        return it == blobs_.end() ? 0 : it->second.size();
    }

    void
    erase(std::int64_t key) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = blobs_.find(key);
        if (it == blobs_.end())
            return;
        resident_ -= it->second.size();
        blobs_.erase(it);
    }

    std::uint64_t
    residentBytes() const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        return resident_;
    }

    TierStats
    stats() const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_.s;
    }

    const char *kind() const override { return "memory"; }

  private:
    void
    throttle(std::chrono::steady_clock::time_point t0,
             std::uint64_t bytes) const
    {
        if (bps_ <= 0.0)
            return;
        tightenTimerSlack();
        const auto target = std::chrono::duration<double>(
            static_cast<double>(bytes) / bps_);
        const auto deadline =
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(target);
        std::this_thread::sleep_until(deadline);
    }

    const double bps_;
    mutable std::mutex mu_;
    std::map<std::int64_t, std::vector<std::uint8_t>> blobs_;
    std::uint64_t resident_ = 0;
    StatsAccum stats_;
};

class FileTierStore final : public TierStore
{
  public:
    explicit FileTierStore(std::string dir) : dir_(std::move(dir))
    {
        if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
            throw std::runtime_error("file tier: cannot create '" + dir_ +
                                     "': " + std::strerror(errno));
        struct stat st{};
        if (::stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
            throw std::runtime_error("file tier: '" + dir_ +
                                     "' is not a directory");
    }

    ~FileTierStore() override
    {
        // Best-effort cleanup of the spill files (the directory may be
        // shared, so it stays).
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[key, bytes] : sizes_) {
            (void)bytes;
            ::unlink(path(key).c_str());
        }
    }

    void
    store(std::int64_t key, const void *data, std::uint64_t bytes) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto t0 = std::chrono::steady_clock::now();
        const std::string p = path(key);
        std::FILE *f = std::fopen(p.c_str(), "wb");
        if (!f)
            throw std::runtime_error("file tier: cannot open '" + p +
                                     "' for writing: " +
                                     std::strerror(errno));
        const size_t written = std::fwrite(data, 1, bytes, f);
        const int close_err = std::fclose(f);
        if (written != bytes || close_err != 0) {
            ::unlink(p.c_str());
            throw std::runtime_error("file tier: short write to '" + p +
                                     "' (" + std::to_string(written) +
                                     " of " + std::to_string(bytes) +
                                     " bytes)");
        }
        auto &size = sizes_[key];
        resident_ -= size;
        size = bytes;
        resident_ += bytes;
        stats_.noteStore(bytes, nanosSince(t0));
    }

    void
    fetch(std::int64_t key, void *dst, std::uint64_t bytes) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto t0 = std::chrono::steady_clock::now();
        const auto it = sizes_.find(key);
        if (it == sizes_.end() || it->second != bytes)
            throw std::runtime_error(
                "file tier: no blob of the requested size for slot " +
                std::to_string(key));
        const std::string p = path(key);
        std::FILE *f = std::fopen(p.c_str(), "rb");
        if (!f)
            throw std::runtime_error("file tier: cannot open '" + p +
                                     "' for reading: " +
                                     std::strerror(errno));
        const size_t read = std::fread(dst, 1, bytes, f);
        std::fclose(f);
        if (read != bytes)
            throw std::runtime_error("file tier: short read from '" + p +
                                     "' (" + std::to_string(read) +
                                     " of " + std::to_string(bytes) +
                                     " bytes)");
        stats_.noteFetch(bytes, nanosSince(t0));
    }

    std::uint64_t
    storedBytes(std::int64_t key) const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = sizes_.find(key);
        return it == sizes_.end() ? 0 : it->second;
    }

    void
    erase(std::int64_t key) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = sizes_.find(key);
        if (it == sizes_.end())
            return;
        ::unlink(path(key).c_str());
        resident_ -= it->second;
        sizes_.erase(it);
    }

    std::uint64_t
    residentBytes() const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        return resident_;
    }

    TierStats
    stats() const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_.s;
    }

    const char *kind() const override { return "file"; }

  private:
    std::string
    path(std::int64_t key) const
    {
        return dir_ + "/gist_tier_slot_" + std::to_string(key) + ".bin";
    }

    const std::string dir_;
    mutable std::mutex mu_;
    std::map<std::int64_t, std::uint64_t> sizes_;
    std::uint64_t resident_ = 0;
    StatsAccum stats_;
};

} // namespace

std::unique_ptr<TierStore>
makeMemoryTier(double bytes_per_second)
{
    return std::make_unique<MemoryTierStore>(bytes_per_second);
}

std::unique_ptr<TierStore>
makeFileTier(const std::string &dir)
{
    return std::make_unique<FileTierStore>(dir);
}

} // namespace gist
