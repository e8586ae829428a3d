#include "tensor/gemm.hpp"

#include <algorithm>
#include <array>
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

// BLIS-style blocking around the register block kernel (kGemmMR-row
// panels, kGemmNR-column strips). C is cut into fixed MC x NC tiles, the
// parallel unit, and the reduction into KC slices. Per slice a tile
// packs its MC x KC block of op(A) once as MR-row panels, then walks its
// NR-column strips of op(B): pack one KC x NR strip (or point at its
// rows where they lie, see ConvB), run the block kernel down every
// panel. That is at most MC * KC + KC * NR floats (32 KiB) of arena
// scratch per worker, plus an MC x NR bounce tile for a C destination
// that is not a row-major block (a strided conv's dX).
constexpr std::int64_t kKC = 128;
constexpr std::int64_t kMC = 48;
constexpr std::int64_t kNC = 256;
static_assert(kGemmPackScratchBytes ==
              static_cast<std::size_t>(kMC * kKC + kKC * kGemmNR) *
                  sizeof(float));

// Multiply-adds below which a GEMM runs all its tiles inline on the
// caller: the pool's dispatch and each worker's cold pack scratch cost
// more than such a call's whole compute (a tiny model's FC layers, and
// its convs at small batches).
constexpr std::int64_t kMinParallelMacs = std::int64_t{ 1 } << 21;

/** Row offsets of a partial packed strip (row p at p * kGemmNR), the
 *  one tap index all its rows share, and the column mask of each strip
 *  width. */
constexpr auto kPackedOff = [] {
    std::array<std::int32_t, kKC> off{};
    for (std::int64_t p = 0; p < kKC; ++p)
        off[p] = static_cast<std::int32_t>(p * kGemmNR);
    return off;
}();
constexpr std::array<std::uint8_t, kKC> kPackedTap{};
constexpr auto kColMask = [] {
    std::array<std::uint16_t, kGemmNR + 1> mask{};
    for (std::int64_t nr = 0; nr <= kGemmNR; ++nr)
        mask[nr] = static_cast<std::uint16_t>((1u << nr) - 1u);
    return mask;
}();

/** Floats of one packed B strip of a GEMM with reduction length @p k. */
constexpr std::int64_t
packedScratch(std::int64_t k)
{
    return std::min(kKC, k) * kGemmNR;
}

/** The block kernel's view of a packed strip whose first @p nr columns
 *  hold B: the rest are never read. */
simd::BRows
packedRows(const float *strip, std::int64_t nr)
{
    if (nr == kGemmNR)
        return { strip, nullptr, nullptr, nullptr };
    return { strip, kPackedOff.data(), kPackedTap.data(), &kColMask[nr] };
}

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
 * op(B) source for a dense row-major B (stored n x k when @p trans):
 * packs rows [pc, pc + kc) x columns [j0, j0 + nr) of op(B) into @p dst
 * as one kc x kGemmNR strip. Every B source gives the block kernel its
 * strip as simd::BRows, from per-worker scratch of packedScratch()
 * floats unless it says otherwise (scratchFloats()).
 */
struct DenseB
{
    const float *b;
    bool trans;
    std::int64_t n, k;

    simd::BRows
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
        } else {
            for (std::int64_t p = 0; p < kc; ++p)
                for (std::int64_t j = 0; j < nr; ++j)
                    dst[p * kGemmNR + j] = src[p * rs + j * cs];
        }
        return packedRows(dst, nr);
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

    simd::BRows
    operator()(std::int64_t, std::int64_t kc, std::int64_t j0,
               std::int64_t nr, float *dst) const
    {
        return DenseB{ buf, false, n, kc }(0, kc, j0, nr, dst);
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

/**
 * The window a conv pack source slides: a stack of images, each
 * channels x in_h x in_w, read through a kernel_h x kernel_w window at
 * the given strides, from top-left offset -pad, over an out_h x out_w
 * grid. Taps past any edge read as zero. Forward and dW take it from
 * their ConvGeometry; each dX phase slides a stride-1 window over dY
 * with its own pads (possibly negative) and grid.
 */
struct ConvWindow
{
    std::int64_t channels, in_h, in_w, kernel_h, kernel_w;
    std::int64_t stride_h, stride_w, pad_h, pad_w, out_h, out_w;
};

ConvWindow
windowOf(const ConvGeometry &g)
{
    return { g.in_c,     g.in_h,     g.in_w,   g.kernel_h,
             g.kernel_w, g.stride_h, g.stride_w, g.pad_h,
             g.pad_w,    g.outH(),   g.outW() };
}

/** Row r = (c, kh, kw) of a conv's column matrix: its tap offsets and
 *  the start of its input channel plane. */
struct ConvTap
{
    std::int64_t kh, kw, plane;
};

ConvTap
convTap(const ConvWindow &g, std::int64_t r)
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
convRuns(const ConvWindow &g, std::int64_t q, std::int64_t n,
         std::int64_t p, ConvRun *runs)
{
    const std::int64_t out_h = g.out_h;
    const std::int64_t out_w = g.out_w;
    const std::int64_t image = g.channels * g.in_h * g.in_w;
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
 * copy with no per-element test.
 */
template <std::int64_t kStride>
inline void
gatherRun(ConvImage im, std::int64_t plane, std::int64_t ih,
          std::int64_t iw0, std::int64_t len, float *out)
{
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
    const auto in_w = static_cast<std::uint64_t>(im.in_w);
    for (std::int64_t i = 0; i < len; ++i) {
        const std::int64_t iw = iw0 + i * im.sw;
        out[i * kStride] =
            static_cast<std::uint64_t>(iw) < in_w ? row[iw] : 0.0f;
    }
}

/** Next tap (c, kh, kw) in column-matrix row order. */
inline void
nextTap(const ConvWindow &g, std::int64_t plane, ConvTap &t)
{
    if (++t.kw == g.kernel_w) {
        t.kw = 0;
        if (++t.kh == g.kernel_h) {
            t.kh = 0;
            t.plane += plane;
        }
    }
}

/**
 * Gather taps (t, then nextTap) along @p runs for @p taps pack rows:
 * row r's run i lands at dst + r * kRowStride + runs[i].d * kStride.
 */
template <std::int64_t kStride, std::int64_t kRowStride>
void
gatherTaps(const ConvWindow &g, ConvImage im, const ConvRun *runs,
           std::int64_t count, ConvTap t, std::int64_t taps, float *dst)
{
    const std::int64_t plane = g.in_h * g.in_w;
    for (std::int64_t r = 0; r < taps; ++r, nextTap(g, plane, t))
        for (std::int64_t i = 0; i < count; ++i)
            gatherRun<kStride>(im, runs[i].image + t.plane,
                               runs[i].ih + t.kh, runs[i].iw + t.kw,
                               runs[i].len,
                               dst + r * kRowStride + runs[i].d * kStride);
}

/** Largest kernel side a window read in place may have. */
constexpr std::int64_t kMaxInPlaceKernel = 16;

/**
 * True when window @p g can be read in place: at stride 1 with out_w ==
 * in_w, output positions q..q+15 of one image read, at every tap (c,
 * kh, kw), the 16 consecutive floats from c * in_h * in_w + q + (kh -
 * pad_h) * in_w + (kw - pad_w) on, where the window does not hang over
 * the padding. Every conv in vgg16 and inception, resnet's stride-1
 * convs and the dX phases of most convs (strided ones too) qualify.
 */
bool
readsInPlace(const ConvWindow &g)
{
    return g.stride_h == 1 && g.stride_w == 1 && g.out_w == g.in_w &&
           g.kernel_h <= kMaxInPlaceKernel &&
           g.kernel_w <= kMaxInPlaceKernel &&
           g.channels * g.in_h * g.in_w <= INT32_MAX / 2;
}

/**
 * Lane masks of output positions [pos, pos + lanes) of one image of a
 * window read in place: bit t of rows[kh] is set where position pos + t
 * at kernel row kh reads a row inside the image, bit t of cols[kw]
 * likewise for kernel column kw. Lanes >= @p lanes stay clear.
 */
void
laneMasks(const ConvWindow &g, std::int64_t pos, std::int64_t lanes,
          std::uint16_t *rows, std::uint16_t *cols)
{
    std::fill(rows, rows + g.kernel_h, std::uint16_t{ 0 });
    std::fill(cols, cols + g.kernel_w, std::uint16_t{ 0 });
    std::int64_t ih = pos / g.out_w - g.pad_h;
    std::int64_t iw = pos % g.out_w - g.pad_w;
    for (std::int64_t t = 0; t < lanes; ++t) {
        const auto bit = static_cast<std::uint16_t>(1u << t);
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
            if (static_cast<std::uint64_t>(ih + kh) <
                static_cast<std::uint64_t>(g.in_h))
                rows[kh] |= bit;
        for (std::int64_t kw = 0; kw < g.kernel_w; ++kw)
            if (static_cast<std::uint64_t>(iw + kw) <
                static_cast<std::uint64_t>(g.in_w))
                cols[kw] |= bit;
        if (++iw == g.out_w - g.pad_w) {
            iw = -g.pad_w;
            ++ih;
        }
    }
}

/** Offset of tap @p t's first float from its strip's first position,
 *  for a window read in place. */
inline std::int32_t
tapOffset(const ConvWindow &g, const ConvTap &t)
{
    return static_cast<std::int32_t>(t.plane + (t.kh - g.pad_h) * g.in_w +
                                     t.kw - g.pad_w);
}

/**
 * Conv op(B) = col(X) for a batch: B(r, j) is tap r = (c, kh, kw) of
 * window @c g at output position j, where the column space gives each
 * image p_pad = p rounded up to kGemmNR columns, so a strip never
 * straddles two images (see ImageC). Forward reads X through the conv's
 * window, dX reads dY through each phase's.
 *
 * A window that readsInPlace() is not packed: row r of the strip at
 * position q is x + q + off[r] under the lane mask of its tap, tap[r] =
 * kh * kernel_w + kw. The per-row table (off, tap) is built once per
 * GEMM call; per strip only the kernel_h * kernel_w tap masks are, into
 * the worker's scratch. Any other window is gathered into a packed
 * strip.
 */
struct ConvB
{
    ConvWindow g;
    const float *x;
    std::int64_t p, p_pad, k;
    const std::int32_t *off = nullptr; ///< set when read in place
    const std::uint8_t *tap = nullptr;

    /** Build the in-place row table in @p scope when the window reads in
     *  place. */
    void
    prepare(ArenaScope &scope)
    {
        if (!readsInPlace(g))
            return;
        auto *o = scope.alloc<std::int32_t>(static_cast<size_t>(k));
        auto *t = scope.alloc<std::uint8_t>(static_cast<size_t>(k));
        const std::int64_t taps = g.kernel_h * g.kernel_w;
        ConvTap ct = convTap(g, 0);
        for (std::int64_t r = 0; r < k; ++r, nextTap(g, g.in_h * g.in_w, ct)) {
            o[r] = tapOffset(g, ct);
            t[r] = static_cast<std::uint8_t>(r % taps);
        }
        off = o;
        tap = t;
    }

    std::int64_t
    scratchFloats(std::int64_t k_gemm) const
    {
        // In place: one uint16 mask per tap.
        return off ? (g.kernel_h * g.kernel_w + 1) / 2
                   : packedScratch(k_gemm);
    }

    simd::BRows
    operator()(std::int64_t pc, std::int64_t kc, std::int64_t j0,
               std::int64_t nr, float *scratch) const
    {
        const std::int64_t image = j0 / p_pad;
        const std::int64_t pos = j0 % p_pad;
        if (off) {
            std::uint16_t rows[kMaxInPlaceKernel], cols[kMaxInPlaceKernel];
            laneMasks(g, pos, nr, rows, cols);
            auto *mask = static_cast<std::uint16_t *>(
                static_cast<void *>(scratch));
            for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
                for (std::int64_t kw = 0; kw < g.kernel_w; ++kw)
                    mask[kh * g.kernel_w + kw] = rows[kh] & cols[kw];
            return { x + image * g.channels * g.in_h * g.in_w + pos,
                     off + pc, tap + pc, mask };
        }
        ConvRun runs[kGemmNR];
        const std::int64_t count = convRuns(g, image * p + pos, nr, p, runs);
        // Rows pc.. of the strip: taps (c, kh, kw) walked incrementally.
        gatherTaps<1, kGemmNR>(g, { x, g.in_h, g.in_w, g.stride_w }, runs,
                               count, convTap(g, pc), kc, scratch);
        return packedRows(scratch, nr);
    }
};

/**
 * Conv weight-gradient op(B) = col(X)^T for a batch: B(q, r) is tap
 * r = (c, kh, kw) at position q = (image, output position). slice()
 * looks at the KC positions of the slice once, in groups of kGemmNR. In
 * a window that readsInPlace(), a group of 16 positions of one image is
 * packed by simd::SimdOps::packTransposed: each of the strip's 16 taps
 * is one masked row of 16 positions, and the transposed block is the
 * group's 16 strip rows. Every other group gathers each of the strip's
 * taps along its output-row runs.
 */
struct ConvBT
{
    ConvBT(const ConvWindow &window, const float *image, std::int64_t per)
        : g(window), x(image), p(per), in_place(readsInPlace(g))
    {
    }

    /** One kGemmNR-position group of the slice: read in place from its
     *  first position's offset into x under its lane masks, or gathered
     *  along its runs. */
    struct Group
    {
        std::int64_t at; ///< -1 when gathered
        std::uint16_t rows[kMaxInPlaceKernel], cols[kMaxInPlaceKernel];
        ConvRun runs[kGemmNR];
        std::int64_t count;
    };

    ConvWindow g;
    const float *x;
    std::int64_t p;
    bool in_place;
    Group groups[kKC / kGemmNR];

    void
    slice(std::int64_t pc, std::int64_t kc)
    {
        for (std::int64_t i = 0; i * kGemmNR < kc; ++i) {
            Group &grp = groups[i];
            const std::int64_t q = pc + i * kGemmNR;
            const std::int64_t pos = q % p;
            const std::int64_t n = std::min(kGemmNR, kc - i * kGemmNR);
            if (in_place && n == kGemmNR && pos + kGemmNR <= p) {
                grp.at = q / p * g.channels * g.in_h * g.in_w + pos;
                laneMasks(g, pos, kGemmNR, grp.rows, grp.cols);
            } else {
                grp.at = -1;
                grp.count = convRuns(g, q, n, p, grp.runs);
            }
        }
    }

    simd::BRows
    operator()(std::int64_t, std::int64_t kc, std::int64_t j0,
               std::int64_t nr, float *dst) const
    {
        // The strip's taps: their offsets and kernel rows and columns.
        std::int32_t off[kGemmNR] = {};
        std::int64_t kh[kGemmNR], kw[kGemmNR];
        ConvTap t = convTap(g, j0);
        for (std::int64_t j = 0; j < nr; ++j, nextTap(g, g.in_h * g.in_w, t)) {
            off[j] = tapOffset(g, t);
            kh[j] = t.kh;
            kw[j] = t.kw;
        }
        static constexpr auto kLane = [] {
            std::array<std::uint8_t, kGemmNR> lane{};
            for (std::int64_t j = 0; j < kGemmNR; ++j)
                lane[j] = static_cast<std::uint8_t>(j);
            return lane;
        }();
        const ConvImage im{ x, g.in_h, g.in_w, g.stride_w };
        const auto transpose = simd::ops().packTransposed;
        for (std::int64_t i = 0; i * kGemmNR < kc; ++i) {
            const Group &grp = groups[i];
            float *block = dst + i * kGemmNR * kGemmNR;
            if (grp.at < 0) {
                // Tap j of the strip fills column j: one value per
                // position.
                gatherTaps<kGemmNR, 1>(g, im, grp.runs, grp.count,
                                       convTap(g, j0), nr, block);
                continue;
            }
            std::uint16_t mask[kGemmNR] = {};
            for (std::int64_t j = 0; j < nr; ++j)
                mask[j] = grp.rows[kh[j]] & grp.cols[kw[j]];
            transpose({ x + grp.at, off, kLane.data(), mask }, block);
        }
        return packedRows(dst, nr);
    }
};

/**
 * Conv dX op(A) of one phase, read in place from the weights W (out_c x
 * C x kh x kw): A(c, r) for phase tap r = (oc, a, b) is W[oc][c][ph.first
 * + stride_h * (ph.taps - 1 - a)][pw.first + stride_w * (pw.taps - 1 -
 * b)], the phase's taps flipped. No transposed copy of W is made.
 */
struct ConvDxA
{
    const float *w;
    const ConvGeometry &g;
    PhaseAxis ph, pw;

    void
    operator()(std::int64_t i0, std::int64_t mr, std::int64_t pc,
               std::int64_t kc, float *dst) const
    {
        const std::int64_t kernel = g.kernel_h * g.kernel_w;
        if (mr < kGemmMR)
            std::fill(dst, dst + kc * kGemmMR, 0.0f);
        // Tap pc = (oc, a, b), then walked incrementally.
        std::int64_t b = pc % pw.taps;
        std::int64_t a = pc / pw.taps % ph.taps;
        std::int64_t oc = pc / (pw.taps * ph.taps);
        for (std::int64_t q = 0; q < kc; ++q) {
            const float *src =
                w + (oc * g.in_c + i0) * kernel +
                (ph.first + g.stride_h * (ph.taps - 1 - a)) * g.kernel_w +
                pw.first + g.stride_w * (pw.taps - 1 - b);
            if (mr == kGemmMR)
                for (std::int64_t i = 0; i < kGemmMR; ++i)
                    dst[q * kGemmMR + i] = src[i * kernel];
            else
                for (std::int64_t i = 0; i < mr; ++i)
                    dst[q * kGemmMR + i] = src[i * kernel];
            if (++b == pw.taps) {
                b = 0;
                if (++a == ph.taps) {
                    a = 0;
                    ++oc;
                }
            }
        }
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
 * C destination for phase (h0, w0) of a strided conv's dX, one row per
 * input channel: GEMM column j is phase-grid position q = j % p_pad of
 * image j / p_pad, which is dX pixel (h0 + stride_h * (q / cols), w0 +
 * stride_w * (q % cols)). Those pixels are strided in dX, so the block
 * kernel runs on a bounce tile that bounce() fills from them and writes
 * back.
 */
struct PhaseC
{
    float *c;
    const ConvGeometry &g;
    std::int64_t h0, w0, cols, p, p_pad;

    std::int64_t
    width(std::int64_t j, std::int64_t nr) const
    {
        return std::min(nr, p - j % p_pad);
    }

    /** Copy block rows [i0, i0 + mc) x columns [j, j + nr) from dX into
     *  @p tile (row stride kGemmNR) when @p load, else back. */
    void
    bounce(std::int64_t i0, std::int64_t mc, std::int64_t j,
           std::int64_t nr, float *tile, bool load) const
    {
        const std::int64_t plane = g.in_h * g.in_w;
        std::int64_t off[kGemmNR];
        for (std::int64_t t = 0; t < nr; ++t) {
            const std::int64_t q = j % p_pad + t;
            off[t] = (h0 + g.stride_h * (q / cols)) * g.in_w + w0 +
                     g.stride_w * (q % cols);
        }
        float *row = c + (j / p_pad * g.in_c + i0) * plane;
        for (std::int64_t i = 0; i < mc; ++i, row += plane, tile += kGemmNR)
            for (std::int64_t t = 0; t < nr; ++t)
                if (load)
                    tile[t] = row[off[t]];
                else
                    row[off[t]] = tile[t];
    }
};

/**
 * The one GEMM loop nest: C = A * B (+ C when @p accumulate_c) with A
 * and B supplied by pack sources (alpha is folded into the A pack) and
 * C addressed through @p c_dst, strip by strip. Every C element is a
 * single chain c = c + a * b over p ascending, started from C or from
 * +0, whatever the tiling, the loop order, the pack source, the C
 * destination (in place or through a bounce tile) or the thread count
 * — so results are bitwise-identical across all of them.
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
    std::int64_t b_floats = packedScratch(k);
    if constexpr (requires { pack_b.scratchFloats(k); })
        b_floats = pack_b.scratchFloats(k);
    // A destination that is not a row-major block takes a bounce tile.
    constexpr bool kBounce = requires(float *tile) {
        c_dst.bounce(std::int64_t{}, std::int64_t{}, std::int64_t{},
                     std::int64_t{}, tile, true);
    };
    const std::int64_t c_floats = kBounce ? kMC * kGemmNR : 0;
    const auto block = simd::ops().gemmBlock;
    // KC slice pc of C tile t: pack the tile's A block once as MR-row
    // panels, then per NR-column strip take B's rows (packed or in
    // place) and run the block kernel down every panel.
    auto tileSlice = [&](std::int64_t t, std::int64_t pc, float *a_buf,
                         float *b_buf, float *c_buf) {
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
            const simd::BRows rows = pack_b(pc, kc, j, nr, b_buf);
            if constexpr (kBounce) {
                if (accumulate)
                    c_dst.bounce(ic, mc, j, nr, c_buf, true);
                block(kc, a_buf, mc, rows, c_buf, kGemmNR, nr, accumulate);
                c_dst.bounce(ic, mc, j, nr, c_buf, false);
            } else {
                block(kc, a_buf, mc, rows, c_dst.at(ic, j), c_dst.ld(), nr,
                      accumulate);
            }
        }
    };
    // Tiles run on pool workers; each frame bumps its worker's own arena
    // region, so warm packs make no heap allocation.
    auto tileRange = [&](std::int64_t t0, std::int64_t t1, std::int64_t pc0,
                         std::int64_t pc1) {
        ArenaScope scope;
        float *a_buf = scope.alloc<float>(static_cast<size_t>(a_floats));
        float *b_buf = scope.alloc<float>(static_cast<size_t>(b_floats));
        float *c_buf = kBounce
                           ? scope.alloc<float>(static_cast<size_t>(c_floats))
                           : nullptr;
        for (std::int64_t t = t0; t < t1; ++t)
            for (std::int64_t pc = pc0; pc < pc1; pc += kKC)
                tileSlice(t, pc, a_buf, b_buf, c_buf);
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
    ArenaScope scope;
    ConvB pack_b{ windowOf(g), x, p, p_pad, k };
    pack_b.prepare(scope);
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
    ConvBT pack_b(windowOf(g), x, p);
    packedGemm(out_c, k, batch * p, true, ImageA{ dy, out_c, p }, pack_b,
               DenseC{ dw, k });
}

void
gemmConvDx(const ConvGeometry &g, std::int64_t batch, std::int64_t out_c,
           const float *w, const float *dy, float *dx)
{
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();
    GIST_ASSERT(batch >= 0 && out_c >= 0 && g.colRows() > 0 && out_h > 0 &&
                    out_w > 0,
                "bad conv gemm dims");
    if (batch == 0 || out_c == 0)
        return;
    for (std::int64_t rh = 0; rh < g.stride_h; ++rh)
        for (std::int64_t rw = 0; rw < g.stride_w; ++rw) {
            const PhaseAxis ph =
                phaseAxis(rh, g.stride_h, g.pad_h, g.kernel_h, g.in_h);
            const PhaseAxis pw =
                phaseAxis(rw, g.stride_w, g.pad_w, g.kernel_w, g.in_w);
            const std::int64_t p = ph.size * pw.size;
            const std::int64_t k = out_c * ph.taps * pw.taps;
            // No dX pixel in this phase, or no tap reaches its pixels
            // (a 1x1 stride-2 conv's odd rows and columns).
            if (p == 0 || k == 0)
                continue;
            GIST_TRACE_SCOPE_F("compute", "gemm conv-dx %lldx%lldx%lld",
                               static_cast<long long>(g.in_c),
                               static_cast<long long>(batch * p),
                               static_cast<long long>(k));
            const std::int64_t p_pad = (p + kGemmNR - 1) / kGemmNR * kGemmNR;
            // Phase tap (oc, a, b) at grid position (u, v) reads dY[oc]
            // at (u - (ph.taps - 1 - ph.shift) + a, likewise in w).
            ArenaScope scope;
            ConvB pack_b{ { out_c, out_h, out_w, ph.taps, pw.taps, 1, 1,
                            ph.taps - 1 - ph.shift, pw.taps - 1 - pw.shift,
                            ph.size, pw.size },
                          dy, p, p_pad, k };
            pack_b.prepare(scope);
            const ConvDxA pack_a{ w, g, ph, pw };
            if (g.stride_h == 1 && g.stride_w == 1)
                packedGemm(g.in_c, batch * p_pad, k, true, pack_a, pack_b,
                           ImageC{ dx, g.in_c, p, p_pad });
            else
                packedGemm(g.in_c, batch * p_pad, k, true, pack_a, pack_b,
                           PhaseC{ dx, g, rh, rw, pw.size, p, p_pad });
        }
}

} // namespace gist
