/**
 * @file
 * SIMD backend equivalence tests. The scalar backend is the bitwise
 * source of truth: every other compiled-in backend must produce
 * byte-identical output for the integer codec kernels (DPR small-float
 * encode/decode/quantize, binarize pack, CSR nonzero count) and the
 * compare/select layer kernels (ReLU backward, max-pool scans) over a
 * value sweep that hits the nasty corners — denormals, ±inf,
 * NaN, ±0, RNE ties, format overflow/underflow boundaries, and spans
 * with odd tails. The float kernels (axpy, the GEMM block kernel) fuse
 * on avx2/avx512 and round apart on scalar, so across those they
 * get a tolerance check against a double-precision reference; avx512's
 * block kernel must equal avx2's bit for bit. The GIST_SIMD env
 * plumbing is exercised via initFromEnv().
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "encodings/small_float.hpp"
#include "simd/dispatch.hpp"
#include "simd/sf_codes.hpp"
#include "util/rng.hpp"

namespace gist::simd {
namespace {

/** memcmp(a, b, n) == 0, also for the null data() of empty spans (the
 *  zero-length sweep entries), which memcmp must not be handed. */
bool
sameBytes(const void *a, const void *b, size_t n)
{
    return n == 0 || std::memcmp(a, b, n) == 0;
}

std::vector<Backend>
availableBackends()
{
    std::vector<Backend> v;
    for (int b = 0; b < kNumBackends; ++b)
        if (backendAvailable(static_cast<Backend>(b)))
            v.push_back(static_cast<Backend>(b));
    return v;
}

const SmallFloatFormat &
referenceFormat(int idx)
{
    switch (idx) {
      case kSfFp16: return kFp16;
      case kSfFp10: return kFp10;
      default: return kFp8;
    }
}

/**
 * Value sweep covering every encoder code path: specials, signed
 * zeros, FP32 denormals, values straddling each format's max-finite /
 * min-normal boundary, exact RNE ties, and a large tail of arbitrary
 * bit patterns (including random NaNs and denormals by construction).
 */
std::vector<float>
sweepValues()
{
    std::vector<float> v = {
        0.0f,
        -0.0f,
        1.0f,
        -1.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::signaling_NaN(),
        std::numeric_limits<float>::max(),
        std::numeric_limits<float>::lowest(),
        std::numeric_limits<float>::min(),         // smallest normal
        std::numeric_limits<float>::denorm_min(),  // smallest denormal
        -std::numeric_limits<float>::denorm_min(),
        std::bit_cast<float>(0x007fffffu),         // largest denormal
        65504.0f,   // FP16 max finite
        65505.0f,   // rounds into FP16 overflow territory
        65520.0f,   // exact FP16 overflow tie
        240.0f,     // FP8 max finite
        248.0f,     // FP8 overflow tie
        0x1.0p-14f, // FP16/FP10 min normal
        0x1.0p-15f, // below it: flushes to zero
        0x1.0p-6f,  // FP8 min normal
        0x1.0p-7f,
    };
    // Exact round-to-nearest-even ties for each mantissa width m: the
    // dropped tail is exactly 0.5 ulp, with even and odd keep-LSBs.
    for (unsigned m : { 10u, 4u, 3u }) {
        const float ulp = std::ldexp(1.0f, -static_cast<int>(m));
        v.push_back(1.0f + 0.5f * ulp);          // tie, even LSB: down
        v.push_back(1.0f + 1.5f * ulp);          // tie, odd LSB: up
        v.push_back(-(1.0f + 0.5f * ulp));
        v.push_back(1.0f + 0.5f * ulp + 0.25f * ulp); // just above tie
        // All-ones mantissa + tie: rounding carries into the exponent.
        v.push_back(2.0f - 0.5f * ulp);
    }
    // Arbitrary bit patterns: ~1/256 are inf/NaN, ~1/256 denormal.
    Rng rng(1234);
    for (int i = 0; i < 100000; ++i)
        v.push_back(std::bit_cast<float>(
            static_cast<std::uint32_t>(rng.next())));
    return v;
}

/** Span lengths with every tail shape (block, vector, and word tails). */
const std::int64_t kSpanSizes[] = { 0,  1,  2,  3,    5,    7,    8,
                                    9,  15, 16, 31,   63,   64,   65,
                                    257, 3072, 6157, 10007 };

class SimdEquivalence : public ::testing::Test
{
  protected:
    void TearDown() override { initFromEnv(); } // undo any setBackend
};

TEST_F(SimdEquivalence, ScalarEncodeMatchesReferenceScalarCode)
{
    // The kernel-level encoder must agree with the public
    // encodeSmallFloat for every sweep value (it is the same math; this
    // pins the kernel to the spec'd semantics, not just to itself).
    const auto values = sweepValues();
    for (int f = 0; f < kSfFormatCount; ++f) {
        const SfLayout &L = kSfLayouts[f];
        const SmallFloatFormat &fmt = referenceFormat(f);
        for (float x : values) {
            const std::uint32_t want = encodeSmallFloat(fmt, x);
            const std::uint32_t got =
                sfEncodeCode(L, std::bit_cast<std::uint32_t>(x));
            ASSERT_EQ(want, got)
                << "format " << f << " value bits "
                << std::bit_cast<std::uint32_t>(x);
        }
    }
}

TEST_F(SimdEquivalence, SmallFloatKernelsBitwiseIdenticalAcrossBackends)
{
    const auto values = sweepValues();
    const auto backends = availableBackends();
    for (int f = 0; f < kSfFormatCount; ++f) {
        const SfLayout &L = kSfLayouts[f];
        for (std::int64_t n : kSpanSizes) {
            ASSERT_LE(static_cast<size_t>(n), values.size());
            const float *src = values.data();
            const size_t nwords =
                static_cast<size_t>((n + L.per_word - 1) / L.per_word);

            std::vector<std::uint32_t> ref_words(nwords + 1, 0xcdcdcdcdu);
            scalarOps().sfEncode[f](src, n, ref_words.data());
            std::vector<float> ref_dec(static_cast<size_t>(n));
            scalarOps().sfDecode[f](ref_words.data(), n, ref_dec.data());

            for (Backend b : backends) {
                const SimdOps &o = opsFor(b);
                std::vector<std::uint32_t> words(nwords + 1, 0xcdcdcdcdu);
                o.sfEncode[f](src, n, words.data());
                ASSERT_EQ(0, std::memcmp(words.data(), ref_words.data(),
                                         nwords * 4))
                    << o.name << " encode fmt " << f << " n " << n;
                // The guard word past the end must be untouched.
                ASSERT_EQ(0xcdcdcdcdu, words[nwords])
                    << o.name << " encode wrote past ceil(n/per_word)";

                std::vector<float> dec(static_cast<size_t>(n));
                o.sfDecode[f](ref_words.data(), n, dec.data());
                ASSERT_TRUE(sameBytes(dec.data(), ref_dec.data(),
                                      static_cast<size_t>(n) * 4))
                    << o.name << " decode fmt " << f << " n " << n;

                std::vector<float> quant(src, src + n);
                o.sfQuantize[f](quant.data(), n);
                ASSERT_TRUE(sameBytes(quant.data(), ref_dec.data(),
                                      static_cast<size_t>(n) * 4))
                    << o.name << " quantize fmt " << f << " n " << n;
            }
        }
    }
}

TEST_F(SimdEquivalence, EncodeDecodeRoundTripIsIdempotent)
{
    // decode(encode(x)) re-encodes to the same word stream on every
    // backend (quantization is a projection).
    const auto values = sweepValues();
    const std::int64_t n = 10007;
    for (int f = 0; f < kSfFormatCount; ++f) {
        const SfLayout &L = kSfLayouts[f];
        const size_t nwords =
            static_cast<size_t>((n + L.per_word - 1) / L.per_word);
        for (Backend b : availableBackends()) {
            const SimdOps &o = opsFor(b);
            std::vector<std::uint32_t> w1(nwords), w2(nwords);
            std::vector<float> dec(static_cast<size_t>(n));
            o.sfEncode[f](values.data(), n, w1.data());
            o.sfDecode[f](w1.data(), n, dec.data());
            o.sfEncode[f](dec.data(), n, w2.data());
            ASSERT_EQ(0, std::memcmp(w1.data(), w2.data(), nwords * 4))
                << o.name << " fmt " << f;
        }
    }
}

/** Accumulator start states for the ReLU kernels: signed zeros (the
 *  add-not-store case) mixed with ordinary gradients. */
std::vector<float>
startGradients(size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> dx(n);
    for (size_t i = 0; i < n; ++i)
        dx[i] = i % 3 == 0 ? -0.0f : i % 3 == 1 ? 0.0f : rng.normal();
    return dx;
}

TEST_F(SimdEquivalence, BinarizeKernelsBitwiseIdenticalAcrossBackends)
{
    const auto values = sweepValues();
    Rng rng(77);
    std::vector<float> dy(values.size());
    for (auto &g : dy)
        g = rng.normal();
    for (size_t i = 0; i < dy.size(); i += 5)
        dy[i] = -0.0f; // a -0.0 gradient must not survive a clear bit
    const auto dx0 = startGradients(values.size(), 78);

    for (std::int64_t n : kSpanSizes) {
        const size_t nbytes = static_cast<size_t>((n + 7) / 8);
        std::vector<std::uint8_t> ref_bits(nbytes + 1, 0xcd);
        scalarOps().binarizeEncode(values.data(), n, ref_bits.data());
        // Independent reference: dx += bit ? dy : +0.0f.
        std::vector<float> ref_dx(dx0.begin(), dx0.begin() + n);
        for (std::int64_t i = 0; i < n; ++i) {
            const auto k = static_cast<size_t>(i);
            ref_dx[k] += values[k] > 0.0f ? dy[k] : 0.0f;
        }

        for (Backend b : availableBackends()) {
            const SimdOps &o = opsFor(b);
            std::vector<std::uint8_t> bits(nbytes + 1, 0xcd);
            o.binarizeEncode(values.data(), n, bits.data());
            ASSERT_EQ(0,
                      std::memcmp(bits.data(), ref_bits.data(), nbytes))
                << o.name << " binarize n " << n;
            ASSERT_EQ(0xcdu, bits[nbytes])
                << o.name << " binarize wrote past ceil(n/8)";

            std::vector<float> dx(dx0.begin(), dx0.begin() + n);
            o.binarizeBackward(ref_bits.data(), dy.data(), n, dx.data());
            ASSERT_TRUE(sameBytes(dx.data(), ref_dx.data(),
                                  static_cast<size_t>(n) * 4))
                << o.name << " binarize backward n " << n;
        }
    }
}

TEST_F(SimdEquivalence, ReluBackwardBitwiseIdenticalAcrossBackends)
{
    const auto y = sweepValues(); // NaN, ±0, ±inf, denormals as Y
    Rng rng(79);
    std::vector<float> dy(y.size());
    for (auto &g : dy)
        g = rng.normal();
    for (size_t i = 0; i < dy.size(); i += 5)
        dy[i] = -0.0f;
    const auto dx0 = startGradients(y.size(), 80);

    for (std::int64_t n : kSpanSizes) {
        std::vector<float> ref(dx0.begin(), dx0.begin() + n);
        for (std::int64_t i = 0; i < n; ++i) {
            const auto k = static_cast<size_t>(i);
            ref[k] += y[k] > 0.0f ? dy[k] : 0.0f;
        }
        for (Backend b : availableBackends()) {
            std::vector<float> dx(dx0.begin(), dx0.begin() + n);
            opsFor(b).reluBackward(y.data(), dy.data(), n, dx.data());
            ASSERT_TRUE(sameBytes(dx.data(), ref.data(),
                                  static_cast<size_t>(n) * 4))
                << opsFor(b).name << " relu backward n " << n;
        }
    }
}

TEST_F(SimdEquivalence, MaxPoolScansBitwiseIdenticalAcrossBackends)
{
    // Few distinct values so taps tie often, plus -inf, NaN and ±0. The
    // source ends at the last element a scan may read, so an over-read
    // of a vector tail shows under ASan.
    Rng rng(81);
    const float specials[] = { -std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::quiet_NaN(),
                               0.0f, -0.0f };
    auto pick = [&](std::int64_t lo, std::int64_t hi) {
        return lo + static_cast<std::int64_t>(
                        rng.uniformInt(static_cast<std::uint64_t>(hi - lo)));
    };
    for (int cs = 0; cs < 300; ++cs) {
        const std::int64_t kh = pick(1, 4), kw = pick(1, 4);
        PoolScan s{};
        s.col_stride = pick(1, 4);
        s.planes = pick(1, 4);
        s.rows = pick(1, 6);
        s.cols = pick(1, 22);
        const std::int64_t pitch = (s.cols - 1) * s.col_stride + kw +
                                   pick(0, 3);
        s.row_pitch = pitch * pick(1, 3);
        s.plane_pitch = (s.rows - 1) * s.row_pitch + kh * pitch + pick(0, 5);
        std::vector<std::int64_t> off;
        for (std::int64_t a = 0; a < kh; ++a)
            for (std::int64_t b = 0; b < kw; ++b)
                off.push_back(a * pitch + b);
        s.off = off.data();
        s.taps = static_cast<std::int64_t>(off.size());
        const std::int64_t last = (s.planes - 1) * s.plane_pitch +
                                  (s.rows - 1) * s.row_pitch +
                                  (s.cols - 1) * s.col_stride + off.back();
        std::vector<float> src(static_cast<size_t>(last + 1));
        for (auto &v : src)
            v = rng.uniform() < 0.2
                    ? specials[rng.uniformInt(4)]
                    : static_cast<float>(rng.uniformInt(5)) - 2.0f;
        s.src = src.data();

        const auto per_plane = static_cast<size_t>(s.rows * s.cols);
        const size_t n = static_cast<size_t>(s.planes) * per_plane;
        std::vector<std::int32_t> first(per_plane);
        for (auto &f : first)
            f = static_cast<std::int32_t>(rng.uniformInt(3));
        const bool null_first = cs % 3 == 0;
        std::vector<float> y(n);
        // Independent references: first strict maximum, first match.
        std::vector<float> ref_best(n);
        std::vector<std::int32_t> ref_pos(n), ref_match(n);
        size_t j = 0;
        for (std::int64_t q = 0; q < s.planes; ++q)
            for (std::int64_t r = 0; r < s.rows; ++r)
                for (std::int64_t c = 0; c < s.cols; ++c, ++j) {
                    const float *w = src.data() + q * s.plane_pitch +
                                     r * s.row_pitch + c * s.col_stride;
                    y[j] = w[off[rng.uniformInt(off.size())]];
                    float best = -std::numeric_limits<float>::infinity();
                    std::int32_t pos =
                        null_first ? 0
                                   : first[static_cast<size_t>(
                                         r * s.cols + c)];
                    std::int32_t match = -1;
                    for (size_t t = 0; t < off.size(); ++t) {
                        if (w[off[t]] > best) {
                            best = w[off[t]];
                            pos = static_cast<std::int32_t>(t);
                        }
                        if (match < 0 && w[off[t]] == y[j])
                            match = static_cast<std::int32_t>(t);
                    }
                    ref_best[j] = best;
                    ref_pos[j] = pos;
                    ref_match[j] = match;
                }
        for (Backend b : availableBackends()) {
            const SimdOps &o = opsFor(b);
            std::vector<float> best(n);
            std::vector<std::int32_t> pos(n), match(n);
            o.maxPoolArgmax(s, null_first ? nullptr : first.data(),
                            best.data(), pos.data());
            ASSERT_TRUE(sameBytes(best.data(), ref_best.data(), n * 4))
                << o.name << " maxPoolArgmax best, case " << cs;
            ASSERT_EQ(pos, ref_pos) << o.name << " maxPoolArgmax, case "
                                    << cs;
            o.maxPoolMatch(s, y.data(), match.data());
            ASSERT_EQ(match, ref_match)
                << o.name << " maxPoolMatch, case " << cs;
        }
    }
}

TEST_F(SimdEquivalence, BinarizeSemanticsOnSpecials)
{
    // v > 0.0f: NaN and ±0 and negatives are 0-bits; +inf and denormals
    // are 1-bits. Checked on every backend.
    const std::vector<float> v = {
        1.0f,
        -1.0f,
        0.0f,
        -0.0f,
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
    };
    for (Backend b : availableBackends()) {
        std::uint8_t bits[2] = { 0, 0 };
        opsFor(b).binarizeEncode(v.data(),
                                 static_cast<std::int64_t>(v.size()),
                                 bits);
        EXPECT_EQ(bits[0], 0b10100001u) << opsFor(b).name;
        EXPECT_EQ(bits[1], 0b00000000u) << opsFor(b).name;
    }
}

TEST_F(SimdEquivalence, CountNonzeroParityAcrossBackends)
{
    auto values = sweepValues();
    // Inject extra zeros so the count is non-trivial on every prefix.
    Rng rng(99);
    for (auto &x : values)
        if (rng.uniform() < 0.5)
            x = (rng.uniform() < 0.5) ? 0.0f : -0.0f;

    for (std::int64_t n : kSpanSizes) {
        std::int64_t want = 0; // independent reference
        for (std::int64_t i = 0; i < n; ++i)
            want += (values[static_cast<size_t>(i)] != 0.0f) ? 1 : 0;
        for (Backend b : availableBackends())
            ASSERT_EQ(want, opsFor(b).countNonzero(values.data(), n))
                << opsFor(b).name << " n " << n;
    }
    // NaN counts as nonzero; ±0 does not.
    const float specials[3] = { std::numeric_limits<float>::quiet_NaN(),
                                0.0f, -0.0f };
    for (Backend b : availableBackends())
        EXPECT_EQ(1, opsFor(b).countNonzero(specials, 3))
            << opsFor(b).name;
}

TEST_F(SimdEquivalence, AxpyCloseToScalarReference)
{
    Rng rng(2024);
    const std::int64_t sizes[] = { 1, 3, 7, 8, 9, 31, 32, 33, 100, 1000 };
    for (std::int64_t n : sizes) {
        std::vector<float> x(static_cast<size_t>(n)),
            y0(static_cast<size_t>(n));
        for (auto &v : x)
            v = rng.normal();
        for (auto &v : y0)
            v = rng.normal();
        const float a = 0.37f;

        // Double-precision reference bounds every backend.
        std::vector<double> yd(y0.begin(), y0.end());
        for (std::int64_t i = 0; i < n; ++i)
            yd[static_cast<size_t>(i)] +=
                static_cast<double>(a) * x[static_cast<size_t>(i)];

        for (Backend b : availableBackends()) {
            const SimdOps &o = opsFor(b);
            std::vector<float> y(y0);
            o.axpy(n, a, x.data(), y.data());
            for (std::int64_t i = 0; i < n; ++i)
                ASSERT_NEAR(yd[static_cast<size_t>(i)],
                            y[static_cast<size_t>(i)], 1e-5)
                    << o.name << " axpy n " << n << " i " << i;
        }
    }
}

/** An A block of @p mc rows packed as ceil(mc / kGemmMR) panels, exactly
 *  that long, taken from @p full (kGemmMR-row panels over @p kc) with
 *  rows >= mc of the last panel set to @p pad. */
std::vector<float>
packedRows(const std::vector<float> &full, std::int64_t kc, std::int64_t mc,
           float pad)
{
    const std::int64_t panels = (mc + kGemmMR - 1) / kGemmMR;
    std::vector<float> a(full.begin(), full.begin() + panels * kc * kGemmMR);
    for (std::int64_t r = mc; r < panels * kGemmMR; ++r)
        for (std::int64_t p = 0; p < kc; ++p)
            a[static_cast<size_t>(r / kGemmMR * kc * kGemmMR +
                                  p * kGemmMR + r % kGemmMR)] = pad;
    return a;
}

TEST_F(SimdEquivalence, GemmMicroMatchesDoubleReferenceAtEdgeTiles)
{
    // The block kernel runs one strip down the ceil(mc / 6) packed
    // panels of an A block into an mc x nr window of C. Here the window
    // sits one row and one column into a C ringed by sentinels on every
    // side (row stride kLdc), which must survive; the pack pads past
    // mc / nr hold NaN, which must not reach any stored element. Every
    // window must equal the corner of the full 48 x 16 block bit for bit
    // (tiling independence, however a backend groups the panels), and
    // the full block must match a double-precision reference.
    constexpr std::int64_t kMaxM = 48;
    constexpr std::int64_t kLdc = kGemmNR + 3;
    constexpr std::int64_t kCRows = kMaxM + 2;
    constexpr std::int64_t kAt = kLdc + 1; // window origin
    const float kSentinel = -777.0f;
    const float kNan = std::numeric_limits<float>::quiet_NaN();
    Rng rng(606);
    for (std::int64_t kc : { 1, 31, 129 }) {
        std::vector<float> a(static_cast<size_t>(kMaxM * kc));
        std::vector<float> b(static_cast<size_t>(kc * kGemmNR));
        std::vector<float> c0(static_cast<size_t>(kCRows * kLdc));
        for (auto &v : a)
            v = rng.normal();
        for (auto &v : b)
            v = rng.normal();
        for (auto &v : c0)
            v = rng.normal();
        for (bool accumulate : { false, true })
            for (Backend be : availableBackends()) {
                const SimdOps &o = opsFor(be);
                std::vector<float> full(c0);
                o.gemmBlock(kc, a.data(), kMaxM, b.data(), full.data() + kAt,
                            kLdc, kGemmNR, accumulate);
                for (std::int64_t i = 0; i < kMaxM; ++i)
                    for (std::int64_t j = 0; j < kGemmNR; ++j) {
                        const auto at = static_cast<size_t>(kAt + i * kLdc + j);
                        double ref = accumulate ? c0[at] : 0.0;
                        double mag = std::fabs(ref);
                        for (std::int64_t p = 0; p < kc; ++p) {
                            const double t =
                                static_cast<double>(a[static_cast<size_t>(
                                    i / kGemmMR * kc * kGemmMR +
                                    p * kGemmMR + i % kGemmMR)]) *
                                b[static_cast<size_t>(p * kGemmNR + j)];
                            ref += t;
                            mag += std::fabs(t);
                        }
                        ASSERT_NEAR(ref, full[at], 1.2e-7 * (kc + 1) * mag)
                            << o.name << " kc " << kc << " at " << i << ","
                            << j;
                    }
                for (std::int64_t mc = 1; mc <= kMaxM; ++mc) {
                    const std::vector<float> ap = packedRows(a, kc, mc, kNan);
                    for (std::int64_t nr = 1; nr <= kGemmNR; ++nr) {
                        std::vector<float> bp(b);
                        for (std::int64_t p = 0; p < kc; ++p)
                            for (std::int64_t j = nr; j < kGemmNR; ++j)
                                bp[static_cast<size_t>(p * kGemmNR + j)] =
                                    kNan;
                        std::vector<float> c(c0.size(), kSentinel);
                        for (std::int64_t i = 0; i < mc; ++i)
                            for (std::int64_t j = 0; j < nr; ++j) {
                                const auto at =
                                    static_cast<size_t>(kAt + i * kLdc + j);
                                // Without accumulate C must not be read.
                                c[at] = accumulate ? c0[at] : kNan;
                            }
                        o.gemmBlock(kc, ap.data(), mc, bp.data(),
                                    c.data() + kAt, kLdc, nr, accumulate);
                        for (std::int64_t r = 0; r < kCRows; ++r)
                            for (std::int64_t q = 0; q < kLdc; ++q) {
                                const auto at =
                                    static_cast<size_t>(r * kLdc + q);
                                const std::int64_t i = r - 1;
                                const std::int64_t j = q - 1;
                                if (i < 0 || i >= mc || j < 0 || j >= nr) {
                                    ASSERT_EQ(kSentinel, c[at])
                                        << o.name << " kc " << kc
                                        << " stored outside " << mc << "x"
                                        << nr << " at " << i << "," << j;
                                    continue;
                                }
                                ASSERT_EQ(std::bit_cast<std::uint32_t>(
                                              full[at]),
                                          std::bit_cast<std::uint32_t>(c[at]))
                                    << o.name << " kc " << kc << " window "
                                    << mc << "x" << nr
                                    << " differs from the full block at "
                                    << i << "," << j;
                            }
                    }
                }
            }
    }
}

TEST_F(SimdEquivalence, GemmBlockAvx512IsBitwiseAvx2)
{
    // Both tiers run every C element as one FMA chain over p ascending,
    // 6 rows per pass on avx2 and up to 18 on avx512, so their blocks
    // must be identical for every mc, nr and accumulate.
    if (!backendAvailable(Backend::Avx512))
        GTEST_SKIP() << "no avx512f on this CPU: avx512 block kernel "
                        "not exercised";
    const SimdOps &avx2 = opsFor(Backend::Avx2);
    const SimdOps &avx512 = opsFor(Backend::Avx512);
    Rng rng(607);
    for (std::int64_t kc : { 1, 128, 300 }) {
        std::vector<float> a(static_cast<size_t>(48 * kc));
        std::vector<float> b(static_cast<size_t>(kc * kGemmNR));
        std::vector<float> c0(static_cast<size_t>(48 * kGemmNR));
        for (auto &v : a)
            v = rng.normal();
        for (auto &v : b)
            v = rng.normal();
        for (auto &v : c0)
            v = rng.normal();
        for (std::int64_t mc = 1; mc <= 48; ++mc) {
            const std::vector<float> ap = packedRows(a, kc, mc, 0.0f);
            for (std::int64_t nr = 1; nr <= kGemmNR; ++nr)
                for (bool accumulate : { false, true }) {
                    std::vector<float> want(c0), got(c0);
                    avx2.gemmBlock(kc, ap.data(), mc, b.data(), want.data(),
                                   kGemmNR, nr, accumulate);
                    avx512.gemmBlock(kc, ap.data(), mc, b.data(), got.data(),
                                     kGemmNR, nr, accumulate);
                    ASSERT_TRUE(sameBytes(want.data(), got.data(),
                                          want.size() * sizeof(float)))
                        << "kc " << kc << " mc " << mc << " nr " << nr
                        << " accumulate " << accumulate;
                }
        }
    }
}

TEST_F(SimdEquivalence, ParseBackendAcceptsExactNamesOnly)
{
    Backend b = Backend::Avx2;
    EXPECT_TRUE(parseBackend("scalar", &b));
    EXPECT_EQ(Backend::Scalar, b);
    EXPECT_TRUE(parseBackend("avx2", &b));
    EXPECT_EQ(Backend::Avx2, b);
    EXPECT_TRUE(parseBackend("avx512", &b));
    EXPECT_EQ(Backend::Avx512, b);

    b = Backend::Avx2;
    EXPECT_FALSE(parseBackend("", &b));
    EXPECT_FALSE(parseBackend("AVX2", &b)); // case-sensitive
    EXPECT_FALSE(parseBackend("avx512f", &b));
    EXPECT_FALSE(parseBackend("scalar ", &b));
    EXPECT_FALSE(parseBackend("sse2", &b)); // no SSE tier
    EXPECT_EQ(Backend::Avx2, b); // untouched on failure
}

TEST_F(SimdEquivalence, SetBackendAndOpsForAgree)
{
    for (Backend b : availableBackends()) {
        setBackend(b);
        EXPECT_EQ(b, activeBackend());
        EXPECT_EQ(&opsFor(b), &ops());
        EXPECT_STREQ(backendName(b), ops().name);
    }
}

TEST_F(SimdEquivalence, InitFromEnvHonorsGistSimd)
{
    // Scalar is always compiled in, so GIST_SIMD=scalar must stick.
    ASSERT_EQ(0, setenv("GIST_SIMD", "scalar", 1));
    EXPECT_EQ(Backend::Scalar, initFromEnv());
    EXPECT_EQ(Backend::Scalar, activeBackend());
    EXPECT_STREQ("scalar", ops().name);

    // A bogus value warns and falls back to autodetect.
    ASSERT_EQ(0, setenv("GIST_SIMD", "quantum", 1));
    EXPECT_EQ(bestBackend(), initFromEnv());

    // Unset: pure autodetect.
    ASSERT_EQ(0, unsetenv("GIST_SIMD"));
    EXPECT_EQ(bestBackend(), initFromEnv());
    EXPECT_TRUE(backendAvailable(activeBackend()));
}

TEST_F(SimdEquivalence, BestBackendIsStrongestAvailable)
{
    const auto avail = availableBackends();
    ASSERT_FALSE(avail.empty());
    EXPECT_TRUE(backendAvailable(Backend::Scalar)); // always
    EXPECT_EQ(avail.back(), bestBackend());         // enum order = strength
}

} // namespace
} // namespace gist::simd
