#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "memory/arena.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace gist {

namespace {

using simd::kGemmMR;
using simd::kGemmNR;

// BLIS-style blocking around the kGemmMR x kGemmNR register microkernel.
// The reduction runs in KC slices; inside a slice C is cut into fixed
// MC x NC tiles, the parallel unit. A tile packs its MC x KC block of
// op(A) once as MR-row panels, then walks its NR-column strips of op(B):
// pack one KC x NR strip, run the microkernel down every panel. That is
// MC * KC + KC * NR floats (32 KiB) of arena scratch per worker.
constexpr std::int64_t kKC = 128;
constexpr std::int64_t kMC = 48;
constexpr std::int64_t kNC = 256;

// Multiply-adds below which a GEMM runs all its tiles inline on the
// caller: the pool's dispatch and each worker's cold pack scratch cost
// more than such a call's whole compute (every per-image conv GEMM of
// the tiny models sits below this).
constexpr std::int64_t kMinParallelMacs = std::int64_t{ 1 } << 21;

/** C *= beta over m*n elements (beta == 0 zero-fills). */
void
scaleC(std::int64_t total, float beta, float *c)
{
    if (beta == 1.0f)
        return;
    parallelFor(0, total, chooseGrain(total, 4096),
                [=](std::int64_t lo, std::int64_t hi) {
                    if (beta == 0.0f)
                        std::memset(c + lo, 0,
                                    static_cast<size_t>(hi - lo) *
                                        sizeof(float));
                    else
                        for (std::int64_t i = lo; i < hi; ++i)
                            c[i] *= beta;
                });
}

/**
 * op(A) pack source for a dense row-major A (stored k x m when
 * @p trans): writes rows [i0, i0 + mr) x columns [pc, pc + kc) of
 * alpha * op(A) as one kc x kGemmMR panel, rows >= mr zero. The
 * transpose is only a choice of strides.
 */
struct DenseA
{
    const float *a;
    bool trans;
    std::int64_t m, k;
    float alpha;

    void
    operator()(std::int64_t i0, std::int64_t mr, std::int64_t pc,
               std::int64_t kc, float *dst) const
    {
        // op(A)(i, p) sits at a[i * rs + p * cs].
        const std::int64_t rs = trans ? 1 : k;
        const std::int64_t cs = trans ? m : 1;
        const float *src = a + i0 * rs + pc * cs;
        if (mr == kGemmMR) {
            for (std::int64_t p = 0; p < kc; ++p)
                for (std::int64_t i = 0; i < kGemmMR; ++i)
                    dst[p * kGemmMR + i] = alpha * src[i * rs + p * cs];
            return;
        }
        std::fill(dst, dst + kc * kGemmMR, 0.0f);
        for (std::int64_t p = 0; p < kc; ++p)
            for (std::int64_t i = 0; i < mr; ++i)
                dst[p * kGemmMR + i] = alpha * src[i * rs + p * cs];
    }
};

/**
 * op(A) pack source for a flat-CSR A (m x k, no transpose): scatters
 * the stored entries of the panel into a fill of alpha * 0, so the
 * panel is bit-for-bit the one DenseA packs from the decoded matrix.
 */
struct CsrA
{
    const CsrConstView &v;
    std::int64_t k;
    float alpha;

    void
    operator()(std::int64_t i0, std::int64_t mr, std::int64_t pc,
               std::int64_t kc, float *dst) const
    {
        std::fill(dst, dst + kc * kGemmMR, alpha * 0.0f);
        ArenaScope scope;
        float *vals = scope.alloc<float>(static_cast<size_t>(kc));
        for (std::int64_t i = 0; i < mr; ++i) {
            const std::int64_t lo = (i0 + i) * k + pc;
            const std::int64_t hi = lo + kc;
            for (std::int64_t r = lo / v.row_width; r * v.row_width < hi;
                 ++r) {
                // Entries of a CSR row ascend by column, so the ones
                // inside [lo, hi) form one contiguous run [k0, k1).
                const std::int64_t base = r * v.row_width;
                const auto end = static_cast<std::int64_t>(
                    v.row_ptr[static_cast<size_t>(r + 1)]);
                auto k0 = static_cast<std::int64_t>(
                    v.row_ptr[static_cast<size_t>(r)]);
                while (k0 < end && base + csrColAt(v, k0) < lo)
                    ++k0;
                std::int64_t k1 = k0;
                while (k1 < end && base + csrColAt(v, k1) < hi)
                    ++k1;
                if (k0 == k1)
                    continue;
                csrValues(v, k0, k1, vals);
                for (std::int64_t t = k0; t < k1; ++t)
                    dst[(base + csrColAt(v, t) - lo) * kGemmMR + i] =
                        alpha * vals[t - k0];
            }
        }
    }
};

/**
 * op(B) pack source for a dense row-major B (stored n x k when
 * @p trans): writes rows [pc, pc + kc) x columns [j0, j0 + nr) of op(B)
 * as one kc x kGemmNR strip, columns >= nr zero. slice() is a no-op:
 * the whole of B is already resident.
 */
struct DenseB
{
    const float *b;
    bool trans;
    std::int64_t n, k;

    void slice(std::int64_t, std::int64_t) {}

    void
    operator()(std::int64_t pc, std::int64_t kc, std::int64_t j0,
               std::int64_t nr, float *dst) const
    {
        // op(B)(p, j) sits at b[p * rs + j * cs].
        const std::int64_t rs = trans ? 1 : n;
        const std::int64_t cs = trans ? k : 1;
        const float *src = b + pc * rs + j0 * cs;
        if (nr == kGemmNR && !trans) {
            for (std::int64_t p = 0; p < kc; ++p)
                for (std::int64_t j = 0; j < kGemmNR; ++j)
                    dst[p * kGemmNR + j] = src[p * rs + j];
            return;
        }
        if (nr < kGemmNR)
            std::fill(dst, dst + kc * kGemmNR, 0.0f);
        for (std::int64_t p = 0; p < kc; ++p)
            for (std::int64_t j = 0; j < nr; ++j)
                dst[p * kGemmNR + j] = src[p * rs + j * cs];
    }
};

/**
 * op(B) pack source behind a PackFn: slice() decodes the kc x n rows of
 * one KC slice once into @p buf (KC * n floats), and the strips are
 * packed from there exactly as DenseB packs a resident B.
 */
struct PackedB
{
    const PackFn &fn;
    std::int64_t n;
    float *buf;

    void
    slice(std::int64_t pc, std::int64_t kc)
    {
        fn(pc * n, buf, kc * n);
    }

    void
    operator()(std::int64_t, std::int64_t kc, std::int64_t j0,
               std::int64_t nr, float *dst) const
    {
        DenseB{ buf, false, n, kc }(0, kc, j0, nr, dst);
    }
};

/**
 * The one GEMM loop nest: C = A * B + beta * C with A and B supplied by
 * pack sources (alpha is folded into the A pack). Every C element is a
 * single chain c = c + a * b over p ascending, started from beta * C
 * (from +0 when beta == 0), whatever the tiling, the pack source or the
 * thread count — so results are bitwise-identical across all three.
 */
template <typename ASrc, typename BSrc>
void
packedGemm(std::int64_t m, std::int64_t n, std::int64_t k, float beta,
           const ASrc &pack_a, BSrc &pack_b, float *c)
{
    if (beta != 0.0f)
        scaleC(m * n, beta, c);
    const std::int64_t tiles_n = (n + kNC - 1) / kNC;
    const std::int64_t tiles = (m + kMC - 1) / kMC * tiles_n;
    const std::int64_t grain = m * n * k < kMinParallelMacs ? tiles : 1;
    const auto micro = simd::ops().gemmMicro;
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
        const std::int64_t kc = std::min(kKC, k - pc);
        const bool accumulate = beta != 0.0f || pc > 0;
        pack_b.slice(pc, kc);
        parallelFor(0, tiles, grain, [&](std::int64_t t0, std::int64_t t1) {
            // Tiles run on pool workers; the frame bumps this worker's
            // own arena region, so warm packs make no heap allocation.
            ArenaScope scope;
            float *a_buf = scope.alloc<float>(kMC * kKC);
            float *b_buf = scope.alloc<float>(kKC * kGemmNR);
            for (std::int64_t t = t0; t < t1; ++t) {
                const std::int64_t ic = t / tiles_n * kMC;
                const std::int64_t jc = t % tiles_n * kNC;
                const std::int64_t mc = std::min(kMC, m - ic);
                const std::int64_t nc = std::min(kNC, n - jc);
                for (std::int64_t ir = 0; ir < mc; ir += kGemmMR)
                    pack_a(ic + ir, std::min(kGemmMR, mc - ir), pc, kc,
                           a_buf + ir * kc);
                for (std::int64_t jr = 0; jr < nc; jr += kGemmNR) {
                    const std::int64_t nr = std::min(kGemmNR, nc - jr);
                    pack_b(pc, kc, jc + jr, nr, b_buf);
                    for (std::int64_t ir = 0; ir < mc; ir += kGemmMR)
                        micro(kc, a_buf + ir * kc, b_buf,
                              c + (ic + ir) * n + jc + jr, n,
                              std::min(kGemmMR, mc - ir), nr, accumulate);
                }
            }
        });
    }
}

/** Shared argument checks; returns false when C = beta * C is all the
 *  work there is (empty product), having done it. */
bool
hasProduct(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
           float beta, float *c)
{
    GIST_ASSERT(m >= 0 && n >= 0 && k >= 0, "bad gemm dims");
    if (m == 0 || n == 0)
        return false;
    GIST_ASSERT(c != nullptr, "gemm: null C with m, n > 0");
    if (alpha == 0.0f || k == 0) {
        // No A*B contribution: C = beta * C (beta == 0 zero-fills, as
        // BLAS semantics require even for garbage/NaN input C).
        scaleC(m * n, beta, c);
        return false;
    }
    return true;
}

} // namespace

void
gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
     std::int64_t k, float alpha, const float *a, const float *b, float beta,
     float *c)
{
    GIST_TRACE_SCOPE_F("compute", "gemm %lldx%lldx%lld",
                       static_cast<long long>(m),
                       static_cast<long long>(n),
                       static_cast<long long>(k));
    if (!hasProduct(m, n, k, alpha, beta, c))
        return;
    GIST_ASSERT(a != nullptr, "gemm: null A with m, k > 0");
    GIST_ASSERT(b != nullptr, "gemm: null B with k, n > 0");
    DenseB pack_b{ b, trans_b, n, k };
    packedGemm(m, n, k, beta, DenseA{ a, trans_a, m, k, alpha }, pack_b, c);
}

void
gemmPackedB(bool trans_a, std::int64_t m, std::int64_t n, std::int64_t k,
            float alpha, const float *a, const PackFn &b_pack, float beta,
            float *c)
{
    GIST_TRACE_SCOPE_F("compute", "gemm packed-b %lldx%lldx%lld",
                       static_cast<long long>(m),
                       static_cast<long long>(n),
                       static_cast<long long>(k));
    if (!hasProduct(m, n, k, alpha, beta, c))
        return;
    GIST_ASSERT(a != nullptr, "gemm: null A with m, k > 0");
    ArenaScope scope;
    PackedB pack_b{ b_pack, n,
                    scope.alloc<float>(static_cast<size_t>(
                        std::min(kKC, k) * n)) };
    packedGemm(m, n, k, beta, DenseA{ a, trans_a, m, k, alpha }, pack_b, c);
}

void
gemmCsrA(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
         const CsrConstView &a, const float *b, float beta, float *c)
{
    GIST_TRACE_SCOPE_F("compute", "gemm csr-a %lldx%lldx%lld",
                       static_cast<long long>(m),
                       static_cast<long long>(n),
                       static_cast<long long>(k));
    if (!hasProduct(m, n, k, alpha, beta, c))
        return;
    GIST_ASSERT(a.numel == m * k, "csr A holds ", a.numel,
                " values, expected ", m * k);
    GIST_ASSERT(b != nullptr, "gemm: null B with k, n > 0");
    DenseB pack_b{ b, false, n, k };
    packedGemm(m, n, k, beta, CsrA{ a, k, alpha }, pack_b, c);
}

} // namespace gist
