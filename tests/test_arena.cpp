/**
 * @file
 * Workspace arena tests: ArenaScope frame semantics (alignment, LIFO
 * reuse, overflow chunks), beginStep() high-water regrowth, and the
 * headline property — once regions are warm, steady-state training-step
 * hot paths (conv forward/backward, GEMM with A-pack, codec round
 * trips) perform ZERO heap allocations. The latter is asserted with a
 * binary-wide operator new/delete replacement that counts every
 * allocation on every thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "encodings/binarize.hpp"
#include "encodings/csr.hpp"
#include "encodings/dpr.hpp"
#include "graph/layer.hpp"
#include "layers/conv.hpp"
#include "memory/arena.hpp"
#include "tensor/gemm.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------
// Global allocation counter: replaces operator new/delete for the whole
// test binary so any heap allocation inside a measured window — on the
// main thread or a pool worker — is observed.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_alloc_count{ 0 };

void *
countedAlloc(std::size_t bytes, std::size_t align)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, align < sizeof(void *) ? sizeof(void *) : align,
                       bytes ? bytes : 1) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t bytes)
{
    return countedAlloc(bytes, alignof(std::max_align_t));
}

void *
operator new[](std::size_t bytes)
{
    return countedAlloc(bytes, alignof(std::max_align_t));
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    return countedAlloc(bytes, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    return countedAlloc(bytes, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace gist {
namespace {

std::uint64_t
allocsNow()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

bool
isAligned64(const void *p)
{
    return (reinterpret_cast<std::uintptr_t>(p) & 63u) == 0;
}

TEST(Arena, AllocationsAre64ByteAligned)
{
    ArenaScope scope;
    for (std::size_t bytes : { 1u, 7u, 64u, 100u, 4096u }) {
        void *p = scope.alloc(bytes);
        ASSERT_NE(nullptr, p);
        EXPECT_TRUE(isAligned64(p)) << bytes << " bytes";
        // The span is writable.
        std::memset(p, 0xab, bytes);
    }
    float *f = scope.alloc<float>(31);
    EXPECT_TRUE(isAligned64(f));
    float *z = scope.allocFloatsZeroed(100);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(0.0f, z[i]);
}

TEST(Arena, FramesReleaseLifo)
{
    if (!WorkspaceArena::instance().enabled())
        GTEST_SKIP() << "GIST_ARENA=0";
    // Warm the region so the allocations below are bump-pointer serves
    // (a cold region's cap is 0 and every alloc is an overflow chunk,
    // whose addresses carry no reuse guarantee).
    {
        ArenaScope warm;
        (void)warm.alloc(1024);
    }
    WorkspaceArena::instance().beginStep();
    ArenaScope outer;
    (void)outer.alloc(128);
    void *inner_p = nullptr;
    {
        ArenaScope inner;
        inner_p = inner.alloc(64);
    }
    // The inner frame's bytes were returned to the bump pointer, so a
    // fresh same-size allocation lands on the same address.
    ArenaScope again;
    EXPECT_EQ(inner_p, again.alloc(64));
}

TEST(Arena, BeginStepRegrowsToHighWaterThenStopsAllocating)
{
    auto &arena = WorkspaceArena::instance();
    if (!arena.enabled())
        GTEST_SKIP() << "GIST_ARENA=0";
    constexpr std::size_t kBig = 3u << 20; // larger than any prior frame
    const std::size_t before_hw = arena.highWaterBytes();

    {
        ArenaScope scope;
        std::memset(scope.alloc(kBig), 1, kBig); // overflow chunk
    }
    EXPECT_GE(arena.highWaterBytes(), kBig);
    EXPECT_GE(arena.highWaterBytes(), before_hw);

    arena.beginStep(); // regrow the region to cover kBig
    EXPECT_GE(arena.reservedBytes(), kBig);

    const std::uint64_t arena_heap = arena.heapAllocCount();
    const std::uint64_t total_heap = allocsNow();
    {
        ArenaScope scope;
        std::memset(scope.alloc(kBig), 2, kBig); // now a pure bump
    }
    const std::uint64_t total_after = allocsNow();
    EXPECT_EQ(arena_heap, arena.heapAllocCount());
    EXPECT_EQ(total_heap, total_after);
}

TEST(Arena, ReservedBytesNeverShrink)
{
    auto &arena = WorkspaceArena::instance();
    if (!arena.enabled())
        GTEST_SKIP() << "GIST_ARENA=0";
    arena.beginStep();
    const std::size_t before = arena.reservedBytes();
    arena.beginStep();
    arena.beginStep();
    EXPECT_GE(arena.reservedBytes(), before);
}

// ---------------------------------------------------------------------
// Steady-state zero-allocation property. Protocol for each path: run
// the op once cold (sizes discovered, stash capacities grown), call
// beginStep() so every thread region regrows to its high water, run
// once warm, then measure a window with the global counter. Assertions
// happen after the window so gtest's own bookkeeping never pollutes it.
// ---------------------------------------------------------------------

TEST(ArenaSteadyState, ConvForwardBackwardMakesNoHeapAllocations)
{
    if (!WorkspaceArena::instance().enabled())
        GTEST_SKIP() << "GIST_ARENA=0";
    Rng rng(7);
    ConvLayer conv(8, ConvSpec::square(16, 3, 1, 1));
    conv.initParams(rng);

    const Shape in_shape = Shape::nchw(2, 8, 14, 14);
    Tensor x = Tensor::randn(in_shape, rng);
    Tensor y = Tensor::zeros(conv.outputShape({ &in_shape, 1 }));
    Tensor dy = Tensor::randn(y.shape(), rng);
    Tensor dx = Tensor::zeros(in_shape);

    FwdCtx fwd;
    fwd.inputs = { &x };
    fwd.output = &y;
    BwdCtx bwd;
    bwd.inputs = { &x };
    bwd.output = &y;
    bwd.d_output = &dy;
    bwd.d_inputs = { &dx };

    // Warmup: discover scratch sizes, then regrow regions to high water.
    for (int i = 0; i < 2; ++i) {
        WorkspaceArena::instance().beginStep();
        conv.forward(fwd);
        conv.backward(bwd);
    }

    WorkspaceArena::instance().beginStep();
    const std::uint64_t before = allocsNow();
    conv.forward(fwd);
    conv.backward(bwd);
    const std::uint64_t after = allocsNow();
    EXPECT_EQ(before, after)
        << (after - before) << " heap allocations in warm conv fwd+bwd";
}

TEST(ArenaSteadyState, ConvFrameIsTileBufferPlusPackScratch)
{
    if (!WorkspaceArena::instance().enabled())
        GTEST_SKIP() << "GIST_ARENA=0";
    Rng rng(9);
    ConvLayer conv(8, ConvSpec::square(16, 3, 1, 1));
    conv.initParams(rng);
    const Shape in_shape = Shape::nchw(5, 8, 14, 14);
    Tensor x = Tensor::randn(in_shape, rng);
    for (std::int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = x.at(i) > 0.0f ? x.at(i) : 0.0f;
    Tensor y = Tensor::zeros(conv.outputShape({ &in_shape, 1 }));
    Tensor dy = Tensor::randn(y.shape(), rng);
    Tensor dx = Tensor::zeros(in_shape);
    CsrBuffer csr{ CsrConfig{} };
    csr.encode(x.span());
    DprBuffer dpr;
    dpr.encode(DprFormat::Fp16, x.span());

    // k * p floats of tile buffer (3x3 stride 1: more than one image)
    // plus one GEMM's pack scratch — no column matrix, no decode buffer.
    const std::size_t k = 8 * 9;
    const std::size_t p = 14 * 14;
    const std::size_t bound = k * p * sizeof(float) + kGemmPackScratchBytes;

    const EncodedStash stashes[] = { {},
                                     { nullptr, &csr, false, false },
                                     { nullptr, &csr, true, false },
                                     { &dpr, nullptr, false, false },
                                     { &dpr, nullptr, true, false } };
    for (const EncodedStash &stash : stashes) {
        FwdCtx fwd;
        fwd.inputs = { &x };
        fwd.output = &y;
        BwdCtx bwd;
        bwd.inputs = { stash.valid() ? nullptr : &x };
        bwd.encoded_inputs = { stash };
        bwd.d_output = &dy;
        bwd.d_inputs = { &dx };
        for (int i = 0; i < 2; ++i) {
            WorkspaceArena::instance().beginStep();
            conv.forward(fwd);
            conv.backward(bwd);
        }
        WorkspaceArena::instance().beginStep();
        const std::uint64_t before = allocsNow();
        conv.forward(fwd);
        conv.backward(bwd);
        const std::uint64_t after = allocsNow();
        EXPECT_EQ(before, after) << (after - before)
                                 << " heap allocations in warm conv fwd+bwd";
        EXPECT_LE(WorkspaceArena::instance().stepHighWaterBytes(), bound)
            << "stash " << (stash.csr ? "csr" : stash.dpr ? "dpr" : "dense")
            << (stash.fused ? " fused" : "");
    }
}

TEST(ArenaSteadyState, GemmWithAPackMakesNoHeapAllocations)
{
    if (!WorkspaceArena::instance().enabled())
        GTEST_SKIP() << "GIST_ARENA=0";
    Rng rng(11);
    const std::int64_t m = 96, n = 64, k = 80;
    Tensor a = Tensor::randn(Shape{ k, m }, rng); // A^T: forces a_pack
    Tensor b = Tensor::randn(Shape{ k, n }, rng);
    Tensor c = Tensor::zeros(Shape{ m, n });

    for (int i = 0; i < 2; ++i) {
        WorkspaceArena::instance().beginStep();
        gemm(true, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
             c.data());
    }

    WorkspaceArena::instance().beginStep();
    const std::uint64_t before = allocsNow();
    gemm(true, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    const std::uint64_t after = allocsNow();
    EXPECT_EQ(before, after)
        << (after - before) << " heap allocations in warm gemm";
}

TEST(ArenaSteadyState, WarmCodecRoundTripsMakeNoHeapAllocations)
{
    if (!WorkspaceArena::instance().enabled())
        GTEST_SKIP() << "GIST_ARENA=0";
    Rng rng(13);
    const std::int64_t numel = 40000;
    std::vector<float> v(static_cast<size_t>(numel));
    for (auto &x : v)
        x = rng.uniform() < 0.5 ? 0.0f : rng.normal();
    std::vector<float> out(static_cast<size_t>(numel));

    DprBuffer dpr;
    BinarizedMask mask;
    CsrConfig csr_cfg;
    csr_cfg.value_format = DprFormat::Fp16; // exercises arena staging
    CsrBuffer csr(csr_cfg);

    // One training step's stash lifecycle: encode after forward, decode
    // in backward, reset for the next step (capacity retained).
    auto step = [&] {
        WorkspaceArena::instance().beginStep();
        dpr.encode(DprFormat::Fp16, v);
        dpr.decode(out);
        dpr.reset();
        mask.encode(v);
        mask.reluBackward(v, out);
        mask.reset();
        csr.encode(v);
        csr.decode(out);
        csr.reset();
    };

    step(); // cold: vectors grow, arena learns sizes
    step(); // warm
    const std::uint64_t before = allocsNow();
    step();
    const std::uint64_t after = allocsNow();
    EXPECT_EQ(before, after)
        << (after - before) << " heap allocations in warm codec step";
}

} // namespace
} // namespace gist
