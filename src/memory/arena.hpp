/**
 * @file
 * Step-scoped workspace arena for hot-path scratch memory.
 *
 * Training kernels need short-lived scratch (im2col column panels, the
 * GEMM A-pack, CSR staging) whose sizes repeat every minibatch. The
 * arena turns those per-call heap allocations into bump-pointer
 * allocations from per-thread regions:
 *
 *   - ArenaScope opens a stack frame on the calling thread's region;
 *     every alloc() inside the frame is a pointer bump, and the frame's
 *     destructor releases all of it at once (LIFO, no per-buffer free).
 *   - WorkspaceArena::beginStep() runs once per minibatch while no
 *     kernels are in flight: each region that overflowed its block last
 *     step is regrown to its high-water size, so after warmup every
 *     frame is served from one resident block and steady-state steps
 *     perform zero heap allocations on the scratch paths.
 *
 * Regions are strictly thread-local: a frame must be opened and closed
 * on the same thread, and pool workers each bump their own region, so
 * no allocation path takes a lock or shares a cache line. Codec-queue
 * workers (the async stash pipeline) likewise get their own regions —
 * scratch is double-buffered per thread by construction, so codec
 * encodes never fight the main thread's step arena. beginStep() touches
 * every region, which is safe because the executor joins all codec
 * tickets before the step ends and the thread pool's quiescent barrier
 * orders it against kernel execution on both sides; an open-frame count
 * asserts that no ArenaScope (on any thread) spans the call.
 *
 * reservedBytes() reports the resident block total (the memory
 * profiler samples it at every node boundary). Set GIST_ARENA=0 to
 * bypass the arena: every alloc() becomes a plain heap allocation freed
 * by the frame destructor, which keeps lifetimes identical while
 * isolating arena effects in A/B runs.
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace gist {

namespace detail {

/** Per-thread bump region. Internal; reach it through ArenaScope. */
struct ArenaRegion
{
    std::byte *base = nullptr;     ///< resident block (64-byte aligned)
    std::size_t cap = 0;           ///< bytes in base
    std::size_t off = 0;           ///< bump offset into base
    std::size_t in_use = 0;        ///< live bytes incl. overflow chunks
    std::size_t high_water = 0;    ///< max in_use ever (monotone)
    std::size_t step_water = 0;    ///< max in_use since last beginStep()
    /** Overflow chunks live at most until their owning frame closes. */
    struct Chunk
    {
        void *p;
        std::size_t bytes;
    };
    Chunk *chunks = nullptr;       ///< grow-only array of live chunks
    std::size_t chunk_count = 0;
    std::size_t chunk_cap = 0;

    ~ArenaRegion();
};

} // namespace detail

/** Process-wide arena control surface (regions stay thread-local). */
class WorkspaceArena
{
  public:
    static WorkspaceArena &instance();

    /** False when GIST_ARENA=0: frames fall back to heap alloc/free. */
    bool enabled() const { return enabled_; }

    /**
     * Per-minibatch reset: regrow any region that overflowed last step
     * to its high-water size and rewind all bump offsets. Call only
     * while every worker thread is quiescent (between steps) and no
     * ArenaScope is open.
     */
    void beginStep();

    /** Sum of resident block sizes across all thread regions. */
    std::size_t reservedBytes() const;

    /** Max bytes ever simultaneously live in any single region. */
    std::size_t highWaterBytes() const;

    /**
     * Like highWaterBytes() but only since the last beginStep() — the
     * per-minibatch arena peak the memory-timeline profiler reports
     * (the monotone high-water would freeze after the largest step).
     */
    std::size_t stepHighWaterBytes() const;

    /** Heap allocations taken by arena paths (block grows + overflow). */
    std::uint64_t heapAllocCount() const;

    /** ArenaScope frames currently open across all threads. */
    int openFrames() const;

  private:
    WorkspaceArena();
    bool enabled_ = true;
};

/**
 * RAII stack frame on the calling thread's arena region. Frames nest
 * LIFO per thread; pointers from alloc() die with the frame.
 */
class ArenaScope
{
  public:
    ArenaScope();
    ~ArenaScope();

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

    /** 64-byte-aligned uninitialized scratch, freed by the frame. */
    void *alloc(std::size_t bytes);

    template <typename T>
    T *
    alloc(std::size_t n)
    {
        return static_cast<T *>(alloc(n * sizeof(T)));
    }

    /** alloc<float>(n) followed by zero fill (GEMM accumulators). */
    float *allocFloatsZeroed(std::size_t n);

  private:
    detail::ArenaRegion *region_;  ///< null when arena disabled
    std::size_t saved_off_ = 0;
    std::size_t saved_in_use_ = 0;
    std::size_t saved_chunks_ = 0;
};

} // namespace gist
