/**
 * @file
 * Tests for the shared parallel-execution layer: parallelFor semantics
 * (coverage, chunking, oversubscription, nesting, exceptions), the
 * GIST_THREADS / single-thread fallback, and the determinism contract —
 * gemm, binarize, CSR and DPR must produce bitwise-identical outputs at
 * 1 and N threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include "encodings/binarize.hpp"
#include "encodings/csr.hpp"
#include "encodings/dpr.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

/** Restore the previous pool size when a test scope ends. */
class ThreadGuard
{
  public:
    explicit ThreadGuard(int n) : prev(numThreads()) { setNumThreads(n); }
    ~ThreadGuard() { setNumThreads(prev); }

  private:
    int prev;
};

std::vector<float>
randomVec(std::int64_t n, std::uint64_t seed, double sparsity = 0.0)
{
    Rng rng(seed);
    std::vector<float> v(static_cast<size_t>(n));
    for (auto &x : v) {
        x = rng.normal();
        if (sparsity > 0.0 && rng.uniform() < sparsity)
            x = 0.0f;
    }
    return v;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadGuard guard(4);
    const std::int64_t n = 10007; // prime: ragged final chunk
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    parallelFor(0, n, 64, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
            hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
}

TEST(ParallelFor, ChunkBoundariesAreStatic)
{
    // Chunks must be [begin + c*grain, ...) for every pool that splits
    // the range (1-thread runs take the single-call path instead; see
    // SingleThreadRunsWholeRangeInOneCall).
    for (int threads : { 3, 7 }) {
        ThreadGuard guard(threads);
        std::vector<std::pair<std::int64_t, std::int64_t>> chunks(64);
        std::atomic<size_t> count{ 0 };
        parallelFor(5, 1000, 100, [&](std::int64_t lo, std::int64_t hi) {
            chunks[count.fetch_add(1)] = { lo, hi };
        });
        ASSERT_EQ(count.load(), 10u);
        std::sort(chunks.begin(), chunks.begin() + 10);
        for (size_t c = 0; c < 10; ++c) {
            EXPECT_EQ(chunks[c].first,
                      5 + static_cast<std::int64_t>(c) * 100);
            EXPECT_EQ(chunks[c].second,
                      std::min<std::int64_t>(1000, chunks[c].first + 100));
        }
    }
}

TEST(ParallelFor, OversubscriptionManyMoreChunksThanThreads)
{
    ThreadGuard guard(4);
    const std::int64_t n = 100000;
    std::vector<float> out(static_cast<size_t>(n), 0.0f);
    // grain 7 -> ~14286 chunks on a 4-thread pool.
    parallelFor(0, n, 7, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
            out[static_cast<size_t>(i)] = static_cast<float>(i) * 2.0f;
    });
    for (std::int64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[static_cast<size_t>(i)], static_cast<float>(i) * 2.0f);
}

TEST(ParallelFor, EmptyAndSingleChunkRanges)
{
    ThreadGuard guard(4);
    int calls = 0;
    parallelFor(3, 3, 8, [&](std::int64_t, std::int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(10, 5, 8, [&](std::int64_t, std::int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    // Range fits one chunk: runs inline on the caller.
    parallelFor(0, 8, 8, [&](std::int64_t lo, std::int64_t hi) {
        ++calls;
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 8);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NestedCallsRunInline)
{
    ThreadGuard guard(4);
    std::atomic<int> inner_total{ 0 };
    parallelFor(0, 8, 1, [&](std::int64_t, std::int64_t) {
        // Inner call must not deadlock on the busy pool.
        parallelFor(0, 10, 2, [&](std::int64_t lo, std::int64_t hi) {
            inner_total.fetch_add(static_cast<int>(hi - lo));
        });
    });
    EXPECT_EQ(inner_total.load(), 80);
}

TEST(ParallelFor, PropagatesExceptions)
{
    ThreadGuard guard(4);
    EXPECT_THROW(
        parallelFor(0, 100, 1,
                    [&](std::int64_t lo, std::int64_t) {
                        if (lo == 42)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    // The pool must still be usable afterwards.
    std::atomic<int> n{ 0 };
    parallelFor(0, 16, 1, [&](std::int64_t, std::int64_t) { n++; });
    EXPECT_EQ(n.load(), 16);
}

TEST(Threads, ResolveExplicitWinsOverEnv)
{
    EXPECT_EQ(resolveThreadCount(3), 3);
    EXPECT_EQ(resolveThreadCount(1), 1);
}

TEST(Threads, GistThreadsEnvFallback)
{
    ASSERT_EQ(setenv("GIST_THREADS", "5", 1), 0);
    EXPECT_EQ(resolveThreadCount(0), 5);
    ASSERT_EQ(setenv("GIST_THREADS", "1", 1), 0);
    EXPECT_EQ(resolveThreadCount(0), 1);
    // Bad values fall through to hardware concurrency (>= 1).
    ASSERT_EQ(setenv("GIST_THREADS", "zero", 1), 0);
    EXPECT_GE(resolveThreadCount(0), 1);
    ASSERT_EQ(unsetenv("GIST_THREADS"), 0);
    EXPECT_GE(resolveThreadCount(0), 1);
}

TEST(Threads, SingleThreadRunsWholeRangeInOneCall)
{
    ASSERT_EQ(setenv("GIST_THREADS", "1", 1), 0);
    setNumThreads(0); // re-resolve from the env
    EXPECT_EQ(numThreads(), 1);
    // The 1-thread path skips chunking: one call spanning the full
    // range, so serial runs pay zero per-chunk dispatch overhead.
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    parallelFor(0, 1000, 100,
                [&](std::int64_t lo, std::int64_t hi) {
                    chunks.emplace_back(lo, hi); // no race: inline
                });
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].first, 0);
    EXPECT_EQ(chunks[0].second, 1000);
    ASSERT_EQ(unsetenv("GIST_THREADS"), 0);
    setNumThreads(4);
}

// ---- Determinism: 1 thread vs N threads, bitwise ----

std::vector<float>
gemmAt(int threads, bool ta, bool tb, float beta)
{
    ThreadGuard guard(threads);
    const std::int64_t m = 129, n = 203, k = 167; // ragged vs all tiles
    const auto a = randomVec(m * k, 11);
    const auto b = randomVec(k * n, 12);
    auto c = randomVec(m * n, 13);
    gemm(ta, tb, m, n, k, 1.7f, a.data(), b.data(), beta, c.data());
    return c;
}

TEST(ParallelDeterminism, GemmBitwiseIdentical)
{
    for (bool ta : { false, true })
        for (bool tb : { false, true })
            for (float beta : { 0.0f, 0.5f }) {
                const auto serial = gemmAt(1, ta, tb, beta);
                const auto parallel = gemmAt(5, ta, tb, beta);
                ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                                         serial.size() * sizeof(float)))
                    << "ta=" << ta << " tb=" << tb << " beta=" << beta;
            }
}

TEST(ParallelDeterminism, GemmTinyVggConvShapesBitwiseIdentical)
{
    // Per-image conv GEMMs of tiny VGG16 (in_c, out_c, H = W): forward
    // W * col, dW += dY * col^T and dcol = W^T * dY, where m and n are
    // smaller than one C tile.
    struct Conv
    {
        std::int64_t in_c, out_c, hw;
    };
    const Conv convs[] = { { 3, 16, 16 },  { 16, 16, 16 }, { 16, 32, 8 },
                           { 32, 32, 8 },  { 32, 48, 4 },  { 48, 48, 4 } };
    for (const Conv &cv : convs) {
        const std::int64_t k = cv.in_c * 9;
        const std::int64_t p = cv.hw * cv.hw;
        const std::int64_t oc = cv.out_c;
        const auto w = randomVec(oc * k, 31);
        const auto col = randomVec(k * p, 32);
        const auto dy = randomVec(oc * p, 33);
        const auto run = [&](int threads) {
            ThreadGuard guard(threads);
            std::vector<float> y(static_cast<size_t>(oc * p));
            auto dw = randomVec(oc * k, 34);
            std::vector<float> dcol(static_cast<size_t>(k * p));
            gemm(false, false, oc, p, k, 1.0f, w.data(), col.data(), 0.0f,
                 y.data());
            gemm(false, true, oc, k, p, 1.0f, dy.data(), col.data(), 1.0f,
                 dw.data());
            gemm(true, false, k, p, oc, 1.0f, w.data(), dy.data(), 0.0f,
                 dcol.data());
            y.insert(y.end(), dw.begin(), dw.end());
            y.insert(y.end(), dcol.begin(), dcol.end());
            return y;
        };
        const auto serial = run(1);
        const auto parallel = run(5);
        ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                                 serial.size() * sizeof(float)))
            << "conv in_c=" << cv.in_c << " out_c=" << oc << " hw=" << cv.hw;
    }
}

TEST(ParallelDeterminism, BinarizeBitwiseIdentical)
{
    const auto v = randomVec(100001, 21, 0.4);
    BinarizedMask serial, parallel;
    {
        ThreadGuard guard(1);
        serial.encode(v);
    }
    {
        ThreadGuard guard(5);
        parallel.encode(v);
    }
    ASSERT_EQ(serial.raw().size(), parallel.raw().size());
    EXPECT_EQ(0, std::memcmp(serial.raw().data(), parallel.raw().data(),
                             serial.raw().size()));

    const auto dy = randomVec(100001, 22);
    std::vector<float> dx1(dy.size()), dxn(dy.size());
    {
        ThreadGuard guard(1);
        serial.reluBackward(dy, dx1);
    }
    {
        ThreadGuard guard(5);
        serial.reluBackward(dy, dxn);
    }
    EXPECT_EQ(0, std::memcmp(dx1.data(), dxn.data(),
                             dx1.size() * sizeof(float)));
}

TEST(ParallelDeterminism, CsrBitwiseIdentical)
{
    const auto v = randomVec(70001, 31, 0.5);
    for (auto fmt : { DprFormat::Fp32, DprFormat::Fp16 }) {
        CsrConfig cfg;
        cfg.value_format = fmt;
        CsrBuffer serial(cfg), parallel(cfg);
        {
            ThreadGuard guard(1);
            serial.encode(v);
        }
        {
            ThreadGuard guard(5);
            parallel.encode(v);
        }
        ASSERT_EQ(serial.nnz(), parallel.nnz());

        std::vector<float> out1(v.size()), outn(v.size());
        {
            ThreadGuard guard(1);
            serial.decode(out1);
        }
        {
            ThreadGuard guard(5);
            parallel.decode(outn);
        }
        EXPECT_EQ(0, std::memcmp(out1.data(), outn.data(),
                                 out1.size() * sizeof(float)));
    }
}

TEST(ParallelDeterminism, DprBitwiseIdentical)
{
    const auto v = randomVec(81001, 41);
    for (auto fmt :
         { DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8 }) {
        DprBuffer serial, parallel;
        {
            ThreadGuard guard(1);
            serial.encode(fmt, v);
        }
        {
            ThreadGuard guard(5);
            parallel.encode(fmt, v);
        }
        std::vector<float> out1(v.size()), outn(v.size());
        {
            ThreadGuard guard(1);
            serial.decode(out1);
        }
        {
            ThreadGuard guard(5);
            parallel.decode(outn);
        }
        EXPECT_EQ(0, std::memcmp(out1.data(), outn.data(),
                                 out1.size() * sizeof(float)));
    }
}

TEST(ParallelDeterminism, Im2colCol2imBitwiseIdentical)
{
    ConvGeometry geom;
    geom.in_c = 7;
    geom.in_h = 23;
    geom.in_w = 19;
    geom.kernel_h = 3;
    geom.kernel_w = 3;
    geom.pad_h = 1;
    geom.pad_w = 1;
    const std::int64_t cols = geom.in_c * geom.kernel_h * geom.kernel_w *
                              geom.outH() * geom.outW();
    const auto image = randomVec(geom.in_c * geom.in_h * geom.in_w, 51);
    std::vector<float> c1(static_cast<size_t>(cols));
    std::vector<float> cn(static_cast<size_t>(cols));
    {
        ThreadGuard guard(1);
        im2col(geom, image.data(), c1.data());
    }
    {
        ThreadGuard guard(5);
        im2col(geom, image.data(), cn.data());
    }
    ASSERT_EQ(0, std::memcmp(c1.data(), cn.data(),
                             c1.size() * sizeof(float)));

    std::vector<float> img1(image.size(), 0.0f);
    std::vector<float> imgn(image.size(), 0.0f);
    {
        ThreadGuard guard(1);
        col2im(geom, c1.data(), img1.data());
    }
    {
        ThreadGuard guard(5);
        col2im(geom, c1.data(), imgn.data());
    }
    EXPECT_EQ(0, std::memcmp(img1.data(), imgn.data(),
                             img1.size() * sizeof(float)));
}

} // namespace
} // namespace gist
