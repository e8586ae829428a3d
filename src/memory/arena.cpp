#include "memory/arena.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "util/bits.hpp"
#include "util/logging.hpp"

namespace gist {
namespace {

constexpr std::size_t kArenaAlign = 64;

/** Heap allocations taken by arena paths (growth + overflow + fallback). */
std::atomic<std::uint64_t> g_heap_allocs{ 0 };

/**
 * ArenaScope frames open across all threads. beginStep() rewinds every
 * region, so a frame alive through it (a kernel or codec task still
 * running) would see its pointers recycled — the counter turns that
 * protocol violation into a deterministic assert instead of corruption.
 */
std::atomic<int> g_open_frames{ 0 };

/**
 * All thread regions, for beginStep()/stats. Leaked (repo singleton
 * idiom) so pool threads that outlive main() teardown never touch a
 * destroyed registry. Regions are appended once per thread and never
 * removed; the mutex guards only registration and iteration.
 */
struct RegionRegistry
{
    std::mutex mu;
    std::vector<detail::ArenaRegion *> regions;
};

RegionRegistry &
registry()
{
    static RegionRegistry *r = new RegionRegistry;
    return *r;
}

detail::ArenaRegion &
threadRegion()
{
    thread_local detail::ArenaRegion *region = [] {
        auto *r = new detail::ArenaRegion;
        RegionRegistry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mu);
        reg.regions.push_back(r);
        return r;
    }();
    return *region;
}

void *
alignedNew(std::size_t bytes)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(bytes, std::align_val_t(kArenaAlign));
}

void
alignedDelete(void *p)
{
    ::operator delete(p, std::align_val_t(kArenaAlign));
}

} // namespace

namespace detail {

ArenaRegion::~ArenaRegion()
{
    for (std::size_t i = 0; i < chunk_count; ++i)
        alignedDelete(chunks[i].p);
    std::free(chunks);
    if (base)
        alignedDelete(base);
}

} // namespace detail

WorkspaceArena::WorkspaceArena()
{
    if (const char *env = std::getenv("GIST_ARENA"); env && *env)
        enabled_ = !(env[0] == '0' && env[1] == '\0');
}

WorkspaceArena &
WorkspaceArena::instance()
{
    static WorkspaceArena *a = new WorkspaceArena;
    return *a;
}

void
WorkspaceArena::beginStep()
{
    GIST_ASSERT(g_open_frames.load(std::memory_order_acquire) == 0,
                "WorkspaceArena::beginStep() while an ArenaScope is open "
                "(kernel or codec task still in flight?)");
    if (!enabled_)
        return;
    RegionRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (detail::ArenaRegion *r : reg.regions) {
        // No frame may be open across beginStep(); a region that still
        // holds overflow chunks here indicates a leaked ArenaScope.
        if (r->high_water > r->cap) {
            if (r->base)
                alignedDelete(r->base);
            r->cap = roundUp(r->high_water, kArenaAlign);
            r->base = static_cast<std::byte *>(alignedNew(r->cap));
        }
        r->off = 0;
        r->in_use = 0;
        r->step_water = 0;
    }
}

std::size_t
WorkspaceArena::reservedBytes() const
{
    RegionRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::size_t reserved = 0;
    for (const detail::ArenaRegion *r : reg.regions)
        reserved += r->cap;
    return reserved;
}

std::size_t
WorkspaceArena::highWaterBytes() const
{
    RegionRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::size_t hw = 0;
    for (const detail::ArenaRegion *r : reg.regions)
        hw = hw > r->high_water ? hw : r->high_water;
    return hw;
}

std::size_t
WorkspaceArena::stepHighWaterBytes() const
{
    RegionRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::size_t hw = 0;
    for (const detail::ArenaRegion *r : reg.regions)
        hw = hw > r->step_water ? hw : r->step_water;
    return hw;
}

std::uint64_t
WorkspaceArena::heapAllocCount() const
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

int
WorkspaceArena::openFrames() const
{
    return g_open_frames.load(std::memory_order_acquire);
}

ArenaScope::ArenaScope()
    : region_(&threadRegion())
{
    saved_off_ = region_->off;
    saved_in_use_ = region_->in_use;
    saved_chunks_ = region_->chunk_count;
    g_open_frames.fetch_add(1, std::memory_order_acq_rel);
}

ArenaScope::~ArenaScope()
{
    detail::ArenaRegion *r = region_;
    while (r->chunk_count > saved_chunks_)
        alignedDelete(r->chunks[--r->chunk_count].p);
    r->off = saved_off_;
    r->in_use = saved_in_use_;
    g_open_frames.fetch_sub(1, std::memory_order_acq_rel);
}

void *
ArenaScope::alloc(std::size_t bytes)
{
    detail::ArenaRegion *r = region_;
    bytes = roundUp(bytes ? bytes : 1, kArenaAlign);
    r->in_use += bytes;
    if (r->in_use > r->high_water)
        r->high_water = r->in_use;
    if (r->in_use > r->step_water)
        r->step_water = r->in_use;
    if (WorkspaceArena::instance().enabled() &&
        r->off + bytes <= r->cap) {
        void *p = r->base + r->off;
        r->off += bytes;
        return p;
    }
    // Cold path: block not yet grown to this step's high water (or the
    // arena is disabled). Overflow chunks die with this frame; the next
    // beginStep() regrows the block so warm steps never come here.
    if (r->chunk_count == r->chunk_cap) {
        const std::size_t new_cap = r->chunk_cap ? r->chunk_cap * 2 : 16;
        auto *grown = static_cast<detail::ArenaRegion::Chunk *>(
            std::realloc(r->chunks, new_cap * sizeof(*r->chunks)));
        if (!grown)
            throw std::bad_alloc();
        r->chunks = grown;
        r->chunk_cap = new_cap;
    }
    void *p = alignedNew(bytes);
    r->chunks[r->chunk_count++] = { p, bytes };
    return p;
}

float *
ArenaScope::allocFloatsZeroed(std::size_t n)
{
    float *p = alloc<float>(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = 0.0f;
    return p;
}

} // namespace gist
