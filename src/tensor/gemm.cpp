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
// C is cut into fixed MC x NC tiles, the parallel unit, and the
// reduction into KC slices. Per slice a tile packs its MC x KC block of
// op(A) once as MR-row panels, then walks its NR-column strips of op(B):
// pack one KC x NR strip, run the microkernel down every panel. That is
// at most MC * KC + KC * NR floats (32 KiB) of arena scratch per worker.
constexpr std::int64_t kKC = 128;
constexpr std::int64_t kMC = 48;
constexpr std::int64_t kNC = 256;
static_assert(kGemmPackScratchBytes ==
              static_cast<std::size_t>(kMC * kKC + kKC * kGemmNR) *
                  sizeof(float));

// Multiply-adds below which a GEMM runs all its tiles inline on the
// caller: the pool's dispatch and each worker's cold pack scratch cost
// more than such a call's whole compute (every per-image conv dX GEMM
// of the tiny models sits below this).
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
 * as one kc x kGemmNR strip, columns >= nr zero.
 */
struct DenseB
{
    const float *b;
    bool trans;
    std::int64_t n, k;

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
 * Op(A) pack source for a batch of row-major m x p blocks laid side by
 * side (conv dY, one block per image): op(A)(i, q) is row i, column
 * q % p of block q / p, so the reduction index q runs over
 * (image, position) ascending.
 */
struct ImageA
{
    const float *a;
    std::int64_t m, p;

    void
    operator()(std::int64_t i0, std::int64_t mr, std::int64_t pc,
               std::int64_t kc, float *dst) const
    {
        if (mr < kGemmMR)
            std::fill(dst, dst + kc * kGemmMR, 0.0f);
        for (std::int64_t q = pc, end = pc + kc; q < end;) {
            const std::int64_t pos = q % p;
            const std::int64_t len = std::min(p - pos, end - q);
            const float *src = a + (q / p * m + i0) * p + pos;
            float *d = dst + (q - pc) * kGemmMR;
            for (std::int64_t t = 0; t < len; ++t)
                for (std::int64_t i = 0; i < mr; ++i)
                    d[t * kGemmMR + i] = src[i * p + t];
            q += len;
        }
    }
};

/** Row r = (c, kh, kw) of a conv's column matrix: its tap offsets and
 *  the start of its input channel plane. */
struct ConvTap
{
    std::int64_t kh, kw, plane;
};

ConvTap
convTap(const ConvGeometry &g, std::int64_t r)
{
    const std::int64_t kernel = g.kernel_h * g.kernel_w;
    return { r % kernel / g.kernel_w, r % g.kernel_w,
             r / kernel * g.in_h * g.in_w };
}

/**
 * A run of output positions that share one output row: the input row
 * and column the first of them reads at tap (0, 0), its length, its
 * first image element and where it lands in the pack (@c d).
 */
struct ConvRun
{
    std::int64_t image, ih, iw, len, d;
};

/**
 * Split the output positions [q, q + n) of a batch — position q is
 * output (q % p) of image q / p — into runs within one output row.
 * Returns the run count (at most n).
 */
std::int64_t
convRuns(const ConvGeometry &g, std::int64_t q, std::int64_t n,
         std::int64_t p, ConvRun *runs)
{
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();
    const std::int64_t image = g.in_c * g.in_h * g.in_w;
    std::int64_t img = q / p;
    std::int64_t oh = q % p / out_w;
    std::int64_t ow = q % p % out_w;
    std::int64_t count = 0;
    for (std::int64_t d = 0; d < n;) {
        const std::int64_t len = std::min(out_w - ow, n - d);
        runs[count++] = { img * image, oh * g.stride_h - g.pad_h,
                          ow * g.stride_w - g.pad_w, len, d };
        d += len;
        ow = 0;
        if (++oh == out_h) {
            oh = 0;
            ++img;
        }
    }
    return count;
}

/**
 * The image side of a conv pack, as scalars the pack loops keep in
 * registers: the batch base pointer, the input plane size and the
 * column stride.
 */
struct ConvImage
{
    const float *x;
    std::int64_t in_h, in_w, sw;
};

/**
 * Write the values one run reads at one tap into out[0], out[kStride],
 * ...: element i is row @p ih, column iw0 + i * sw of the plane at
 * @p plane (an offset into x), zero where the window hangs over the
 * padding. A run wholly inside the image (the common case) is a plain
 * copy with no per-element test. @p kLen > 0 fixes the run length at
 * compile time, so full-strip fills and copies become a few vector
 * moves instead of library calls.
 */
template <std::int64_t kStride, std::int64_t kLen = 0>
inline void
gatherRun(ConvImage im, std::int64_t plane, std::int64_t ih,
          std::int64_t iw0, std::int64_t run_len, float *out)
{
    const std::int64_t len = kLen > 0 ? kLen : run_len;
    if (ih < 0 || ih >= im.in_h) {
        if (kStride == 1)
            std::memset(out, 0, static_cast<size_t>(len) * sizeof(float));
        else
            for (std::int64_t i = 0; i < len; ++i)
                out[i * kStride] = 0.0f;
        return;
    }
    const float *row = im.x + plane + ih * im.in_w;
    if (iw0 >= 0 && iw0 + (len - 1) * im.sw < im.in_w) {
        // memcpy, not a loop: out and src never overlap, which a loop
        // cannot tell the compiler.
        const float *src = row + iw0;
        if (kStride == 1 && im.sw == 1)
            std::memcpy(out, src, static_cast<size_t>(len) * sizeof(float));
        else
            for (std::int64_t i = 0; i < len; ++i)
                out[i * kStride] = src[i * im.sw];
        return;
    }
    if constexpr (kStride == 1 && kLen > 2) {
        // A "same" padding of 1 or 2 hangs the first or last taps of a
        // full run over it: shifted fixed-length copies.
        const std::int64_t over = iw0 + kLen - im.in_w;
        if (im.sw == 1 && over <= 0 && iw0 >= -2) {
            const std::int64_t lo = -iw0;
            out[0] = 0.0f;
            out[1] = 0.0f;
            if (lo == 1)
                std::memcpy(out + 1, row, (kLen - 1) * sizeof(float));
            else
                std::memcpy(out + 2, row, (kLen - 2) * sizeof(float));
            return;
        }
        if (im.sw == 1 && iw0 >= 0 && over <= 2) {
            out[kLen - 2] = 0.0f;
            out[kLen - 1] = 0.0f;
            if (over == 1)
                std::memcpy(out, row + iw0, (kLen - 1) * sizeof(float));
            else
                std::memcpy(out, row + iw0, (kLen - 2) * sizeof(float));
            return;
        }
    }
    const auto in_w = static_cast<std::uint64_t>(im.in_w);
    for (std::int64_t i = 0; i < len; ++i) {
        const std::int64_t iw = iw0 + i * im.sw;
        out[i * kStride] =
            static_cast<std::uint64_t>(iw) < in_w ? row[iw] : 0.0f;
    }
}

/** Next tap (c, kh, kw) in column-matrix row order. */
inline void
nextTap(const ConvGeometry &g, std::int64_t plane, ConvTap &t)
{
    if (++t.kw == g.kernel_w) {
        t.kw = 0;
        if (++t.kh == g.kernel_h) {
            t.kh = 0;
            t.plane += plane;
        }
    }
}

/** The common length of runs[0, count), or 0 when they differ. */
inline std::int64_t
uniformLen(const ConvRun *runs, std::int64_t count)
{
    for (std::int64_t i = 1; i < count; ++i)
        if (runs[i].len != runs[0].len)
            return 0;
    return runs[0].len;
}

/**
 * Gather taps (t, then nextTap) along @p runs for @p taps pack rows:
 * row r's run i lands at dst + r * kRowStride + runs[i].d * kStride.
 * @p kLen > 0 promises every run has that length.
 */
template <std::int64_t kStride, std::int64_t kRowStride, std::int64_t kLen>
void
gatherTaps(const ConvGeometry &g, ConvImage im, const ConvRun *runs,
           std::int64_t count, ConvTap t, std::int64_t taps, float *dst)
{
    const std::int64_t plane = g.in_h * g.in_w;
    for (std::int64_t r = 0; r < taps; ++r, nextTap(g, plane, t))
        for (std::int64_t i = 0; i < count; ++i)
            gatherRun<kStride, kLen>(im, runs[i].image + t.plane,
                                     runs[i].ih + t.kh, runs[i].iw + t.kw,
                                     runs[i].len,
                                     dst + r * kRowStride +
                                         runs[i].d * kStride);
}

/**
 * gatherTaps() with the run length made a compile-time constant for the
 * lengths square power-of-two images produce (whole output rows of 16,
 * 8 or 4 positions).
 */
template <std::int64_t kStride, std::int64_t kRowStride>
void
gatherTapsAnyLen(const ConvGeometry &g, ConvImage im, const ConvRun *runs,
                 std::int64_t count, ConvTap t, std::int64_t taps,
                 float *dst)
{
    switch (uniformLen(runs, count)) {
    case 16:
        return gatherTaps<kStride, kRowStride, 16>(g, im, runs, count, t,
                                                   taps, dst);
    case 8:
        return gatherTaps<kStride, kRowStride, 8>(g, im, runs, count, t,
                                                  taps, dst);
    case 4:
        return gatherTaps<kStride, kRowStride, 4>(g, im, runs, count, t,
                                                  taps, dst);
    default:
        return gatherTaps<kStride, kRowStride, 0>(g, im, runs, count, t,
                                                  taps, dst);
    }
}

/**
 * Conv forward op(B) = col(X) for a batch, packed straight from the
 * images: B(r, j) is tap r = (c, kh, kw) at output position j, where
 * the column space gives each image p_pad = p rounded up to kGemmNR
 * columns, so a strip never straddles two images (see ImageC).
 */
struct ConvB
{
    const ConvGeometry &g;
    const float *x;
    std::int64_t p, p_pad;

    void
    operator()(std::int64_t pc, std::int64_t kc, std::int64_t j0,
               std::int64_t nr, float *dst) const
    {
        ConvRun runs[kGemmNR];
        const std::int64_t count =
            convRuns(g, j0 / p_pad * p + j0 % p_pad, nr, p, runs);
        // Rows pc.. of the strip: taps (c, kh, kw) walked incrementally.
        gatherTapsAnyLen<1, kGemmNR>(g, { x, g.in_h, g.in_w, g.stride_w },
                                     runs, count, convTap(g, pc), kc, dst);
        if (nr < kGemmNR)
            for (std::int64_t r = 0; r < kc; ++r)
                std::fill(dst + r * kGemmNR + nr, dst + (r + 1) * kGemmNR,
                          0.0f);
    }
};

/**
 * Conv weight-gradient op(B) = col(X)^T for a batch: B(q, r) is tap
 * r = (c, kh, kw) at position q = (image, output position). slice()
 * splits the KC positions of the slice into output-row runs once; a
 * strip then gathers each of its 16 taps along every run.
 */
struct ConvBT
{
    const ConvGeometry &g;
    const float *x;
    std::int64_t p;
    ConvRun runs[kKC];
    std::int64_t count = 0;

    void
    slice(std::int64_t pc, std::int64_t kc)
    {
        count = convRuns(g, pc, kc, p, runs);
    }

    void
    operator()(std::int64_t, std::int64_t kc, std::int64_t j0,
               std::int64_t nr, float *dst) const
    {
        if (nr < kGemmNR)
            std::fill(dst, dst + kc * kGemmNR, 0.0f);
        // Tap j of the strip fills column j: one value per position.
        gatherTapsAnyLen<kGemmNR, 1>(g, { x, g.in_h, g.in_w, g.stride_w },
                                     runs, count, convTap(g, j0), nr, dst);
    }
};

/** C destination: dense row-major m x n, leading dimension n. */
struct DenseC
{
    float *c;
    std::int64_t n;

    std::int64_t width(std::int64_t, std::int64_t nr) const { return nr; }
    float *at(std::int64_t i, std::int64_t j) const { return c + i * n + j; }
    std::int64_t ld() const { return n; }
};

/**
 * C destination for conv forward: one m x p row-major block per image,
 * back to back. Column j of the GEMM is position j % p_pad of image
 * j / p_pad; the p_pad - p padding columns are never stored.
 */
struct ImageC
{
    float *c;
    std::int64_t m, p, p_pad;

    std::int64_t
    width(std::int64_t j, std::int64_t nr) const
    {
        return std::min(nr, p - j % p_pad);
    }
    float *
    at(std::int64_t i, std::int64_t j) const
    {
        return c + (j / p_pad * m + i) * p + j % p_pad;
    }
    std::int64_t ld() const { return p; }
};

/**
 * The one GEMM loop nest: C = A * B (+ C when @p accumulate_c) with A
 * and B supplied by pack sources (alpha is folded into the A pack) and
 * C addressed through @p c_dst, strip by strip. Every C element is a
 * single chain c = c + a * b over p ascending, started from C or from
 * +0, whatever the tiling, the loop order, the pack source or the
 * thread count — so results are bitwise-identical across all of them.
 */
template <typename ASrc, typename BSrc, typename CDst>
void
packedGemm(std::int64_t m, std::int64_t n, std::int64_t k,
           bool accumulate_c, const ASrc &pack_a, BSrc &pack_b,
           const CDst &c_dst)
{
    const std::int64_t tiles_n = (n + kNC - 1) / kNC;
    const std::int64_t tiles = (m + kMC - 1) / kMC * tiles_n;
    const std::int64_t grain = m * n * k < kMinParallelMacs ? tiles : 1;
    // Pack scratch sized to the call: small m or k need less of it.
    const std::int64_t a_floats =
        std::min(kMC, (m + kGemmMR - 1) / kGemmMR * kGemmMR) *
        std::min(kKC, k);
    const std::int64_t b_floats = std::min(kKC, k) * kGemmNR;
    const auto micro = simd::ops().gemmMicro;
    // KC slice pc of C tile t: pack the tile's A block once as MR-row
    // panels, then per NR-column strip pack B and run the microkernel
    // down every panel.
    auto tileSlice = [&](std::int64_t t, std::int64_t pc, float *a_buf,
                         float *b_buf) {
        const std::int64_t kc = std::min(kKC, k - pc);
        const bool accumulate = accumulate_c || pc > 0;
        const std::int64_t ic = t / tiles_n * kMC;
        const std::int64_t jc = t % tiles_n * kNC;
        const std::int64_t mc = std::min(kMC, m - ic);
        const std::int64_t nc = std::min(kNC, n - jc);
        for (std::int64_t ir = 0; ir < mc; ir += kGemmMR)
            pack_a(ic + ir, std::min(kGemmMR, mc - ir), pc, kc,
                   a_buf + ir * kc);
        for (std::int64_t jr = 0; jr < nc; jr += kGemmNR) {
            const std::int64_t j = jc + jr;
            const std::int64_t nr = c_dst.width(j, std::min(kGemmNR, nc - jr));
            pack_b(pc, kc, j, nr, b_buf);
            for (std::int64_t ir = 0; ir < mc; ir += kGemmMR)
                micro(kc, a_buf + ir * kc, b_buf, c_dst.at(ic + ir, j),
                      c_dst.ld(), std::min(kGemmMR, mc - ir), nr,
                      accumulate);
        }
    };
    // Tiles run on pool workers; each frame bumps its worker's own arena
    // region, so warm packs make no heap allocation.
    auto tileRange = [&](std::int64_t t0, std::int64_t t1, std::int64_t pc0,
                         std::int64_t pc1) {
        ArenaScope scope;
        float *a_buf = scope.alloc<float>(static_cast<size_t>(a_floats));
        float *b_buf = scope.alloc<float>(static_cast<size_t>(b_floats));
        for (std::int64_t t = t0; t < t1; ++t)
            for (std::int64_t pc = pc0; pc < pc1; pc += kKC)
                tileSlice(t, pc, a_buf, b_buf);
    };
    if constexpr (requires { pack_b.slice(std::int64_t{}, std::int64_t{}); }) {
        // The B source prepares each KC slice once for all tiles (a
        // decode, a run table), so slices are the outer loop.
        for (std::int64_t pc = 0; pc < k; pc += kKC) {
            pack_b.slice(pc, std::min(kKC, k - pc));
            parallelFor(0, tiles, grain,
                        [&](std::int64_t t0, std::int64_t t1) {
                            tileRange(t0, t1, pc, pc + 1);
                        });
        }
    } else {
        // Each tile runs its KC slices back to back while its C block
        // is still in cache.
        parallelFor(0, tiles, grain, [&](std::int64_t t0, std::int64_t t1) {
            tileRange(t0, t1, 0, k);
        });
    }
}

/** Shared argument checks, then C = beta * C (beta == 0 leaves C to
 *  the core, which starts from +0 and never reads it). Returns false
 *  when that is all the work there is (empty product). */
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
    if (beta != 0.0f)
        scaleC(m * n, beta, c);
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
    packedGemm(m, n, k, beta != 0.0f, DenseA{ a, trans_a, m, k, alpha },
               pack_b, DenseC{ c, n });
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
    packedGemm(m, n, k, beta != 0.0f, DenseA{ a, trans_a, m, k, alpha },
               pack_b, DenseC{ c, n });
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
    packedGemm(m, n, k, beta != 0.0f, CsrA{ a, k, alpha }, pack_b,
               DenseC{ c, n });
}

void
gemmConv(const ConvGeometry &g, std::int64_t batch, std::int64_t out_c,
         const float *w, const float *x, float *y)
{
    const std::int64_t k = g.colRows();
    const std::int64_t p = g.colCols();
    GIST_TRACE_SCOPE_F("compute", "gemm conv %lldx%lldx%lld",
                       static_cast<long long>(out_c),
                       static_cast<long long>(batch * p),
                       static_cast<long long>(k));
    GIST_ASSERT(batch >= 0 && out_c >= 0 && k > 0 && p > 0,
                "bad conv gemm dims");
    if (batch == 0 || out_c == 0)
        return;
    const std::int64_t p_pad = (p + kGemmNR - 1) / kGemmNR * kGemmNR;
    ConvB pack_b{ g, x, p, p_pad };
    packedGemm(out_c, batch * p_pad, k, false,
               DenseA{ w, false, out_c, k, 1.0f }, pack_b,
               ImageC{ y, out_c, p, p_pad });
}

void
gemmConvDw(const ConvGeometry &g, std::int64_t batch, std::int64_t out_c,
           const float *dy, const float *x, float *dw)
{
    const std::int64_t k = g.colRows();
    const std::int64_t p = g.colCols();
    GIST_TRACE_SCOPE_F("compute", "gemm conv-dw %lldx%lldx%lld",
                       static_cast<long long>(out_c),
                       static_cast<long long>(k),
                       static_cast<long long>(batch * p));
    GIST_ASSERT(batch >= 0 && out_c >= 0 && k > 0 && p > 0,
                "bad conv gemm dims");
    if (batch == 0 || out_c == 0)
        return;
    ConvBT pack_b{ g, x, p, {} };
    packedGemm(out_c, k, batch * p, true, ImageA{ dy, out_c, p }, pack_b,
               DenseC{ dw, k });
}

} // namespace gist
