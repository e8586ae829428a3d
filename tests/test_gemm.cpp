/**
 * @file
 * GEMM tests: all four transpose combinations against a naive reference,
 * plus alpha/beta semantics — parameterized over sizes; a sweep over
 * every SIMD backend at shapes straddling the packed core's block edges
 * against a double-precision reference; the fused entry point
 * (gemmPackedB) bitwise against gemm() at the same shapes; and the
 * avx512 tier bitwise against avx2 through every pack source.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

/** Naive triple loop reference. */
void
gemmRef(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
        std::int64_t k, float alpha, const float *a, const float *b,
        float beta, float *c)
{
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::int64_t p = 0; p < k; ++p) {
                const float av = trans_a ? a[p * m + i] : a[i * k + p];
                const float bv = trans_b ? b[j * k + p] : b[p * n + j];
                acc += av * bv;
            }
            c[i * n + j] = alpha * acc + beta * c[i * n + j];
        }
    }
}

struct GemmCase
{
    std::int64_t m, n, k;
    bool ta, tb;
};

class GemmParam : public ::testing::TestWithParam<GemmCase>
{
};

TEST_P(GemmParam, MatchesReference)
{
    const auto p = GetParam();
    Rng rng(p.m * 131 + p.n * 17 + p.k + p.ta * 2 + p.tb);
    std::vector<float> a(static_cast<size_t>(p.m * p.k));
    std::vector<float> b(static_cast<size_t>(p.k * p.n));
    std::vector<float> c(static_cast<size_t>(p.m * p.n));
    for (auto &x : a)
        x = rng.normal();
    for (auto &x : b)
        x = rng.normal();
    for (auto &x : c)
        x = rng.normal();
    std::vector<float> c_ref = c;

    gemm(p.ta, p.tb, p.m, p.n, p.k, 1.3f, a.data(), b.data(), 0.7f,
         c.data());
    gemmRef(p.ta, p.tb, p.m, p.n, p.k, 1.3f, a.data(), b.data(), 0.7f,
            c_ref.data());
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_NEAR(c[i], c_ref[i], 1e-3f) << "element " << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposes, GemmParam,
    ::testing::Values(GemmCase{ 5, 7, 3, false, false },
                      GemmCase{ 5, 7, 3, true, false },
                      GemmCase{ 5, 7, 3, false, true },
                      GemmCase{ 5, 7, 3, true, true },
                      GemmCase{ 1, 1, 1, false, false },
                      GemmCase{ 16, 16, 16, false, false },
                      GemmCase{ 16, 16, 16, true, true },
                      GemmCase{ 33, 9, 21, false, true },
                      GemmCase{ 9, 33, 21, true, false },
                      GemmCase{ 64, 1, 64, false, false }));

TEST(Gemm, BetaZeroIgnoresGarbage)
{
    std::vector<float> a = { 1.0f, 2.0f };
    std::vector<float> b = { 3.0f, 4.0f };
    std::vector<float> c = { std::numeric_limits<float>::quiet_NaN() };
    gemm(false, false, 1, 1, 2, 1.0f, a.data(), b.data(), 0.0f, c.data());
    EXPECT_FLOAT_EQ(c[0], 11.0f);
}

TEST(Gemm, BetaOneAccumulates)
{
    std::vector<float> a = { 1.0f };
    std::vector<float> b = { 2.0f };
    std::vector<float> c = { 10.0f };
    gemm(false, false, 1, 1, 1, 1.0f, a.data(), b.data(), 1.0f, c.data());
    EXPECT_FLOAT_EQ(c[0], 12.0f);
}

TEST(Gemm, AlphaZeroOnlyScalesC)
{
    std::vector<float> a = { 1.0f };
    std::vector<float> b = { 2.0f };
    std::vector<float> c = { 10.0f };
    gemm(false, false, 1, 1, 1, 0.0f, a.data(), b.data(), 0.5f, c.data());
    EXPECT_FLOAT_EQ(c[0], 5.0f);
}

TEST(Gemm, EmptyDimsAreNoOps)
{
    std::vector<float> c = { 3.0f };
    gemm(false, false, 1, 1, 0, 1.0f, nullptr, nullptr, 1.0f, c.data());
    EXPECT_FLOAT_EQ(c[0], 3.0f);
}

TEST(Gemm, NanInBPropagatesThroughZeroA)
{
    // No zero-skip: 0 * NaN and 0 * Inf are NaN, as in BLAS.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> a = { 0.0f, 1.0f };
    std::vector<float> b = { nan, inf, 2.0f, 3.0f }; // 2 x 2
    std::vector<float> c(2);
    gemm(false, false, 1, 2, 2, 1.0f, a.data(), b.data(), 0.0f, c.data());
    EXPECT_TRUE(std::isnan(c[0]));
    EXPECT_TRUE(std::isnan(c[1]));
}

// Shapes straddling the packed core's edges: MR = 6 panel rows, MC = 48
// block rows, NR = 16 strip columns, NC = 256 tile columns and the
// KC = 128 reduction slice.
const std::int64_t kEdgeM[] = { 1, 5, 6, 7, 47, 49 };
const std::int64_t kEdgeN[] = { 1, 15, 16, 17, 257 };
const std::int64_t kEdgeK[] = { 1, 127, 128, 129, 433 };

std::vector<simd::Backend>
availableBackends()
{
    std::vector<simd::Backend> v;
    for (int b = 0; b < simd::kNumBackends; ++b)
        if (simd::backendAvailable(static_cast<simd::Backend>(b)))
            v.push_back(static_cast<simd::Backend>(b));
    return v;
}

/** Restores the GIST_SIMD / autodetected backend on scope exit. */
struct BackendGuard
{
    ~BackendGuard() { simd::initFromEnv(); }
};

/** Row-major op(X) (rows x cols) laid out as stored: transposed when
 *  @p trans. */
std::vector<float>
storeAs(const std::vector<float> &op, std::int64_t rows, std::int64_t cols,
        bool trans)
{
    if (!trans)
        return op;
    std::vector<float> t(op.size());
    for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t q = 0; q < cols; ++q)
            t[static_cast<size_t>(q * rows + r)] =
                op[static_cast<size_t>(r * cols + q)];
    return t;
}

TEST(GemmEdges, EveryBackendTransposeAndBetaMatchesDoubleReference)
{
    BackendGuard guard;
    const float alpha = 1.3f;
    for (std::int64_t m : kEdgeM)
        for (std::int64_t n : kEdgeN)
            for (std::int64_t k : kEdgeK) {
                Rng rng(static_cast<std::uint64_t>(m * 100003 + n * 101 + k));
                std::vector<float> a(static_cast<size_t>(m * k));
                std::vector<float> b(static_cast<size_t>(k * n));
                std::vector<float> c0(static_cast<size_t>(m * n));
                for (auto &x : a)
                    x = rng.normal();
                for (auto &x : b)
                    x = rng.normal();
                for (auto &x : c0)
                    x = rng.normal();
                // Double reference of op(A) * op(B) and its magnitude.
                std::vector<double> ab(c0.size()), mag(c0.size());
                for (std::int64_t i = 0; i < m; ++i)
                    for (std::int64_t p = 0; p < k; ++p) {
                        const double av = a[static_cast<size_t>(i * k + p)];
                        for (std::int64_t j = 0; j < n; ++j) {
                            const double t =
                                av * b[static_cast<size_t>(p * n + j)];
                            ab[static_cast<size_t>(i * n + j)] += t;
                            mag[static_cast<size_t>(i * n + j)] +=
                                std::fabs(t);
                        }
                    }
                for (bool ta : { false, true })
                    for (bool tb : { false, true }) {
                        const auto as = storeAs(a, m, k, ta);
                        const auto bs = storeAs(b, k, n, tb);
                        for (float beta : { 0.0f, 0.5f, 1.0f })
                            for (simd::Backend be : availableBackends()) {
                                simd::setBackend(be);
                                // beta == 0 must never read C.
                                std::vector<float> c =
                                    beta == 0.0f
                                        ? std::vector<float>(
                                              c0.size(),
                                              std::numeric_limits<
                                                  float>::quiet_NaN())
                                        : c0;
                                gemm(ta, tb, m, n, k, alpha, as.data(),
                                     bs.data(), beta, c.data());
                                for (size_t e = 0; e < c.size(); ++e) {
                                    const double ref =
                                        alpha * ab[e] +
                                        static_cast<double>(beta) * c0[e];
                                    const double tol =
                                        1.2e-7 * static_cast<double>(k + 2) *
                                        (alpha * mag[e] +
                                         std::fabs(beta * c0[e]));
                                    ASSERT_NEAR(ref, c[e], tol)
                                        << simd::backendName(be) << " m=" << m
                                        << " n=" << n << " k=" << k
                                        << " ta=" << ta << " tb=" << tb
                                        << " beta=" << beta << " e=" << e;
                                }
                            }
                    }
            }
}

TEST(GemmEdges, FusedEntryPointsAreBitwiseGemm)
{
    // gemmPackedB only swaps the B pack source, so it must equal gemm()
    // on the same B bit for bit, also across KC slices.
    BackendGuard guard;
    for (std::int64_t m : kEdgeM)
        for (std::int64_t n : kEdgeN)
            for (std::int64_t k : kEdgeK) {
                Rng rng(static_cast<std::uint64_t>(m * 7919 + n * 31 + k));
                std::vector<float> a(static_cast<size_t>(m * k));
                std::vector<float> b(static_cast<size_t>(k * n));
                for (auto &x : a)
                    x = rng.uniform() < 0.6 ? 0.0f : rng.normal();
                for (auto &x : b)
                    x = rng.normal();
                const auto b_pack = [&](std::int64_t off, float *dst,
                                        std::int64_t cnt) {
                    std::copy_n(b.data() + off, cnt, dst);
                };
                for (simd::Backend be : availableBackends()) {
                    simd::setBackend(be);
                    for (bool ta : { false, true }) {
                        const auto as = storeAs(a, m, k, ta);
                        std::vector<float> ref(static_cast<size_t>(m * n));
                        std::vector<float> got(ref.size(), -3.0f);
                        gemm(ta, false, m, n, k, 0.9f, as.data(), b.data(),
                             0.0f, ref.data());
                        gemmPackedB(ta, m, n, k, 0.9f, as.data(), b_pack,
                                    0.0f, got.data());
                        for (size_t e = 0; e < ref.size(); ++e)
                            ASSERT_EQ(std::bit_cast<std::uint32_t>(ref[e]),
                                      std::bit_cast<std::uint32_t>(got[e]))
                                << "gemmPackedB " << simd::backendName(be)
                                << " m=" << m << " n=" << n << " k=" << k
                                << " ta=" << ta << " e=" << e;
                    }
                }
            }
}

/** Runs @p fn on avx2 then on avx512 and expects byte-equal outputs. */
template <typename Fn>
void
expectAvx512IsAvx2(const char *what, Fn fn)
{
    simd::setBackend(simd::Backend::Avx2);
    const std::vector<float> want = fn();
    simd::setBackend(simd::Backend::Avx512);
    const std::vector<float> got = fn();
    ASSERT_EQ(want.size(), got.size()) << what;
    for (size_t e = 0; e < want.size(); ++e)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(want[e]),
                  std::bit_cast<std::uint32_t>(got[e]))
            << what << " element " << e;
}

std::vector<float>
randomVec(std::int64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(static_cast<size_t>(n));
    for (auto &x : v)
        x = rng.normal();
    return v;
}

TEST(GemmEdges, Avx512MatchesAvx2BitwiseThroughEveryPackSource)
{
    // Only the block kernel differs between the tiers, and both run each
    // C element as one FMA chain: every entry point must agree bit for
    // bit, whichever pack sources (DenseA/DenseB, PackedB, ImageA with
    // ConvBT, ConvB, and dX's weight and phase sources) and C
    // destination (dense, per image, dX phase bounce tile) it uses.
    if (!simd::backendAvailable(simd::Backend::Avx512))
        GTEST_SKIP() << "no avx512f on this CPU: avx512 tier not exercised";
    BackendGuard guard;
    for (std::int64_t m : kEdgeM)
        for (std::int64_t n : kEdgeN)
            for (std::int64_t k : kEdgeK) {
                const auto a = randomVec(m * k, m * 31 + n * 7 + k);
                const auto b = randomVec(k * n, m * 37 + n * 3 + k);
                const auto c0 = randomVec(m * n, m + n + k);
                const std::string shape = " m=" + std::to_string(m) +
                                          " n=" + std::to_string(n) +
                                          " k=" + std::to_string(k);
                for (bool ta : { false, true })
                    for (bool tb : { false, true })
                        expectAvx512IsAvx2(("gemm" + shape).c_str(), [&] {
                            std::vector<float> c(c0);
                            gemm(ta, tb, m, n, k, 1.3f, a.data(), b.data(),
                                 0.5f, c.data());
                            return c;
                        });
                expectAvx512IsAvx2(("gemmPackedB" + shape).c_str(), [&] {
                    std::vector<float> c(c0);
                    gemmPackedB(true, m, n, k, 0.9f, a.data(),
                                [&](std::int64_t off, float *dst,
                                    std::int64_t cnt) {
                                    std::copy_n(b.data() + off, cnt, dst);
                                },
                                1.0f, c.data());
                    return c;
                });
            }
    // Conv geometries (C, H, W, kh, kw, sh, sw, ph, pw): stride 1 and 2,
    // a 1x1 stride 2, non-square kernels and strides, and out_c 50 past
    // the 48-row block.
    const std::int64_t geoms[][9] = {
        { 3, 9, 8, 3, 3, 1, 1, 1, 1 },  { 20, 10, 9, 3, 3, 2, 2, 0, 0 },
        { 16, 9, 8, 1, 1, 2, 2, 0, 0 }, { 4, 7, 12, 3, 5, 2, 1, 1, 2 },
        { 50, 6, 6, 3, 3, 1, 1, 1, 1 },
    };
    for (const auto &gv : geoms)
        for (const std::int64_t out_c : { 5, 50 }) {
            ConvGeometry g;
            g.in_c = gv[0];
            g.in_h = gv[1];
            g.in_w = gv[2];
            g.kernel_h = gv[3];
            g.kernel_w = gv[4];
            g.stride_h = gv[5];
            g.stride_w = gv[6];
            g.pad_h = gv[7];
            g.pad_w = gv[8];
            const std::int64_t batch = 3;
            const std::int64_t image = g.in_c * g.in_h * g.in_w;
            const std::int64_t p = g.colCols();
            const auto x = randomVec(batch * image, 41);
            const auto w = randomVec(out_c * g.colRows(), 42);
            const auto dy = randomVec(batch * out_c * p, 43);
            const auto dx0 = randomVec(batch * image, 44);
            const auto dw0 = randomVec(out_c * g.colRows(), 45);
            const std::string shape = " c" + std::to_string(g.in_c) +
                                      " k" + std::to_string(g.kernel_h) +
                                      "x" + std::to_string(g.kernel_w) +
                                      " s" + std::to_string(g.stride_h) +
                                      "," + std::to_string(g.stride_w) +
                                      " out_c " + std::to_string(out_c);
            expectAvx512IsAvx2(("gemmConv" + shape).c_str(), [&] {
                std::vector<float> y(static_cast<size_t>(batch * out_c * p));
                gemmConv(g, batch, out_c, w.data(), x.data(), y.data());
                return y;
            });
            expectAvx512IsAvx2(("gemmConvDw" + shape).c_str(), [&] {
                std::vector<float> dw(dw0);
                gemmConvDw(g, batch, out_c, dy.data(), x.data(), dw.data());
                return dw;
            });
            expectAvx512IsAvx2(("gemmConvDx" + shape).c_str(), [&] {
                std::vector<float> dx(dx0);
                gemmConvDx(g, batch, out_c, w.data(), dy.data(), dx.data());
                return dx;
            });
        }
}

} // namespace
} // namespace gist
