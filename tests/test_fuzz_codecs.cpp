/**
 * @file
 * Property-based fuzzing of the stash codecs: seeded random shapes,
 * sparsities, and special values (NaN, ±Inf, denormals, signed zeros,
 * RNE ties) driven through CSR, DPR, binarize, and the pool argmax map.
 *
 * Checked properties:
 *   - CSR round trip is bitwise-identical (modulo the documented
 *     -0.0 -> +0.0 normalization: the nonzero predicate is v != 0.0f);
 *   - CSR with DPR-packed values equals the scalar small-float
 *     reference applied to each kept value;
 *   - DPR obeys its error contract: NaN -> +0, overflow clamps to
 *     sign-preserved maxFinite, underflow flushes toward signed zero,
 *     normal range rounds to nearest-even within half an ulp — and the
 *     packed codec agrees bitwise with quantizeSmallFloat();
 *   - binarize masks equal (v > 0) exactly and reluBackward adds dy
 *     (or +0) to dx exactly;
 *   - pool index maps are set/get-exact at every packing width;
 *   - the active SIMD backend agrees bitwise with the scalar reference.
 *
 * A failing case prints its seed for a one-line repro
 * (GIST_FUZZ_SEED=<seed> ./tests/test_fuzz_codecs), greedily shrinks
 * the input (drop halves, then zero single elements), and writes the
 * minimal failing input to fuzz_failure_codecs.txt for CI artifacts.
 * Seed conventions (GIST_FUZZ_BASE / _CASES / _SEED): see fuzz_util.hpp.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "encodings/binarize.hpp"
#include "encodings/csr.hpp"
#include "encodings/dpr.hpp"
#include "encodings/pool_index_map.hpp"
#include "encodings/small_float.hpp"
#include "fuzz_util.hpp"
#include "simd/dispatch.hpp"
#include "simd/sf_codes.hpp"
#include "tensor/gemm.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

std::uint32_t
floatBits(float v)
{
    std::uint32_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

bool
bitEqual(float a, float b)
{
    return floatBits(a) == floatBits(b);
}

/** One random feature-map-like buffer with adversarial contents. */
std::vector<float>
genValues(Rng &rng, std::int64_t numel, double sparsity)
{
    std::vector<float> v(static_cast<size_t>(numel));
    for (auto &x : v) {
        if (rng.uniform() < sparsity) {
            x = 0.0f;
            continue;
        }
        const double r = rng.uniform();
        if (r < 0.10) {
            // Specials: the values every codec bug report starts with.
            switch (rng.uniformInt(7)) {
              case 0:
                x = std::numeric_limits<float>::quiet_NaN();
                break;
              case 1:
                x = std::numeric_limits<float>::infinity();
                break;
              case 2:
                x = -std::numeric_limits<float>::infinity();
                break;
              case 3: // FP32 denormal (far below every format's range)
                x = std::ldexp(rng.uniform(1.0f, 2.0f), -140);
                break;
              case 4:
                x = -0.0f;
                break;
              case 5: { // RNE tie: exact midpoint between FP16 codes
                const int e = static_cast<int>(rng.uniformInt(20)) - 10;
                const auto k = static_cast<double>(rng.uniformInt(1 << 10));
                x = static_cast<float>(
                    std::ldexp(1.0 + (2.0 * k + 1.0) / (1 << 11), e));
                break;
              }
              default: // overflow-range magnitude (clamps in FP8/FP10/16)
                x = rng.uniform(-1.0f, 1.0f) *
                    std::ldexp(1.0f, static_cast<int>(rng.uniformInt(60)));
                break;
            }
            continue;
        }
        // Bulk: normals across many binades, some deep in the
        // small-float underflow range.
        x = rng.normal() *
            std::ldexp(1.0f, static_cast<int>(rng.uniformInt(40)) - 25);
    }
    return v;
}

/** Empty string = property holds; otherwise a failure description. */
using Property = std::function<std::string(const std::vector<float> &)>;

/**
 * Greedy shrinker: try dropping the front/back half, then zeroing
 * single elements (once the buffer is small), keeping every candidate
 * that still fails. Returns the minimal failing input found.
 */
std::vector<float>
shrinkFailure(std::vector<float> data, const Property &prop)
{
    bool improved = true;
    while (improved && data.size() > 1) {
        improved = false;
        const auto half = static_cast<std::ptrdiff_t>(data.size() / 2);
        const std::vector<float> front(data.begin(), data.begin() + half);
        const std::vector<float> back(data.begin() + half, data.end());
        if (!front.empty() && !prop(front).empty()) {
            data = front;
            improved = true;
            continue;
        }
        if (!back.empty() && !prop(back).empty()) {
            data = back;
            improved = true;
            continue;
        }
        if (data.size() > 64)
            break; // halving exhausted; buffer still big, stop here
        for (size_t i = 0; i < data.size(); ++i) {
            if (data[i] == 0.0f && !std::signbit(data[i]))
                continue;
            auto cand = data;
            cand[i] = 0.0f;
            if (!prop(cand).empty()) {
                data = std::move(cand);
                improved = true;
                break;
            }
        }
    }
    return data;
}

/** Report a failing case: repro line, shrunk input, CI artifact. */
void
reportFailure(const char *what, std::uint64_t seed,
              const std::string &message, const std::vector<float> &data,
              const Property &prop)
{
    const std::vector<float> min_case = shrinkFailure(data, prop);
    const std::string min_message = prop(min_case);
    std::ofstream out("fuzz_failure_codecs.txt", std::ios::app);
    out << what << " seed=" << seed << "\n"
        << (min_message.empty() ? message : min_message) << "\n"
        << "shrunk to " << min_case.size() << " values (bits):\n";
    out << std::hex;
    for (const float v : min_case)
        out << floatBits(v) << " ";
    out << std::dec << "\n\n";
    ADD_FAILURE() << what << ": " << message << "\n  repro: GIST_FUZZ_SEED="
                  << seed << " ./tests/test_fuzz_codecs\n  shrunk input ("
                  << min_case.size()
                  << " values) written to fuzz_failure_codecs.txt";
}

/**
 * Drive @p make over every case seed: make(rng) returns the generated
 * input plus the property closed over that case's codec config. Stops
 * at the first failure (after shrinking + reporting it).
 */
void
runCases(const char *what, std::uint64_t base, std::uint64_t cases,
         const std::function<Property(Rng &, std::vector<float> &)> &make)
{
    for (const std::uint64_t seed : fuzz::caseSeeds(base, cases)) {
        Rng rng(seed);
        std::vector<float> data;
        const Property prop = make(rng, data);
        const std::string message = prop(data);
        if (!message.empty()) {
            reportFailure(what, seed, message, data, prop);
            return;
        }
    }
}

// ------------------------------------------------------------------ CSR

std::string
checkCsrLossless(const CsrConfig &cfg, const std::vector<float> &in)
{
    CsrBuffer buf(cfg);
    buf.encode({ in.data(), in.size() });
    std::vector<float> out(in.size(), -1.0f);
    buf.decode(out);
    for (size_t i = 0; i < in.size(); ++i) {
        const bool zero_in = in[i] == 0.0f; // -0.0 normalizes to +0.0
        const bool ok = zero_in ? bitEqual(out[i], 0.0f)
                                : bitEqual(out[i], in[i]);
        if (!ok)
            return "csr[" + std::to_string(i) + "] in=" +
                   std::to_string(in[i]) + " out=" + std::to_string(out[i]) +
                   " (row_width=" + std::to_string(cfg.row_width) +
                   " index_bytes=" + std::to_string(cfg.index_bytes) + ")";
    }
    return "";
}

TEST(FuzzCodecs, CsrRoundTripIsBitwiseLossless)
{
    runCases("csr-roundtrip", 0xC5111111, 1000,
             [](Rng &rng, std::vector<float> &data) -> Property {
                 CsrConfig cfg;
                 cfg.index_bytes = 1 << rng.uniformInt(3); // 1, 2, 4
                 cfg.row_width =
                     1 + static_cast<std::int64_t>(rng.uniformInt(
                             cfg.index_bytes == 1 ? 256 : 1000));
                 const auto numel =
                     static_cast<std::int64_t>(rng.uniformInt(4096));
                 data = genValues(rng, numel, rng.uniform());
                 return [cfg](const std::vector<float> &d) {
                     return checkCsrLossless(cfg, d);
                 };
             });
}

TEST(FuzzCodecs, CsrDecodeRangeMatchesFullDecode)
{
    runCases("csr-range", 0xC5122222, 500,
             [](Rng &rng, std::vector<float> &data) -> Property {
                 CsrConfig cfg;
                 cfg.row_width =
                     1 + static_cast<std::int64_t>(rng.uniformInt(256));
                 const auto numel = 1 + static_cast<std::int64_t>(
                                            rng.uniformInt(4096));
                 data = genValues(rng, numel, rng.uniform());
                 const std::uint64_t tile_seed = rng.next();
                 return [cfg, tile_seed](const std::vector<float> &d) ->
                     std::string {
                     if (d.empty())
                         return "";
                     CsrBuffer buf(cfg);
                     buf.encode({ d.data(), d.size() });
                     std::vector<float> full(d.size());
                     buf.decode(full);
                     Rng trng(tile_seed);
                     for (int t = 0; t < 8; ++t) {
                         const auto off = static_cast<std::int64_t>(
                             trng.uniformInt(d.size()));
                         const auto len = 1 + static_cast<std::int64_t>(
                             trng.uniformInt(d.size() -
                                             static_cast<size_t>(off)));
                         std::vector<float> tile(
                             static_cast<size_t>(len), -2.0f);
                         buf.decodeRange(off, tile);
                         for (std::int64_t i = 0; i < len; ++i)
                             if (!bitEqual(
                                     tile[static_cast<size_t>(i)],
                                     full[static_cast<size_t>(off + i)]))
                                 return "csr decodeRange(" +
                                        std::to_string(off) + "," +
                                        std::to_string(len) +
                                        ") mismatch at +" +
                                        std::to_string(i);
                     }
                     return "";
                 };
             });
}

// ------------------------------------------------------------------ DPR

const SmallFloatFormat &
formatOf(DprFormat fmt)
{
    return dprSmallFloat(fmt);
}

/** The DPR error contract for one value (see file header). */
std::string
checkDprValue(DprFormat fmt, float in, float out)
{
    const SmallFloatFormat &sf = formatOf(fmt);
    const float max_finite = sf.maxFinite();
    const float min_normal = sf.minNormal();
    const float ref = quantizeSmallFloat(sf, in);
    if (!bitEqual(out, ref))
        return "packed codec disagrees with scalar reference: in=" +
               std::to_string(in) + " out=" + std::to_string(out) +
               " ref=" + std::to_string(ref);
    if (std::isnan(in)) {
        if (!bitEqual(out, 0.0f))
            return "NaN must decode to +0";
        return "";
    }
    const float mag = std::fabs(in);
    if (mag >= max_finite) {
        if (!bitEqual(out, std::copysign(max_finite, in)))
            return "out-of-range must clamp to signed maxFinite";
        return "";
    }
    if (mag < min_normal) {
        // Underflow region: signed zero, or minNormal when RNE rounds up.
        const bool zero = std::fabs(out) == 0.0f;
        const bool rounded_up = std::fabs(out) == min_normal;
        if (!(zero || rounded_up) ||
            std::signbit(out) != std::signbit(in))
            return "underflow must flush to signed zero/minNormal";
        return "";
    }
    // Normal range: round-to-nearest-even within half an ulp of in.
    int exp = 0;
    std::frexp(mag, &exp); // mag = m * 2^exp, m in [0.5, 1)
    const double half_ulp =
        std::ldexp(1.0, exp - 1 - static_cast<int>(sf.man_bits) - 1);
    const double err = std::fabs(static_cast<double>(out) -
                                 static_cast<double>(in));
    if (err > half_ulp)
        return "RNE error " + std::to_string(err) + " above half-ulp " +
               std::to_string(half_ulp) + " for in=" + std::to_string(in);
    return "";
}

std::string
checkDpr(DprFormat fmt, const std::vector<float> &in)
{
    DprBuffer buf;
    buf.encode(fmt, { in.data(), in.size() });
    std::vector<float> out(in.size(), -1.0f);
    buf.decode(out);
    for (size_t i = 0; i < in.size(); ++i) {
        std::string err = checkDprValue(fmt, in[i], out[i]);
        if (!err.empty())
            return "dpr[" + std::to_string(i) + "] (" +
                   dprFormatName(fmt) + ") " + err;
    }
    // Tile decode must agree with the full decode bitwise.
    if (!in.empty()) {
        const std::int64_t off = static_cast<std::int64_t>(in.size()) / 3;
        std::vector<float> tile(in.size() - static_cast<size_t>(off));
        buf.decodeRange(off, tile);
        for (size_t i = 0; i < tile.size(); ++i)
            if (!bitEqual(tile[i], out[static_cast<size_t>(off) + i]))
                return "dpr decodeRange mismatch at +" + std::to_string(i);
    }
    return "";
}

TEST(FuzzCodecs, DprObeysErrorBoundsAndSpecials)
{
    static const DprFormat kFormats[] = { DprFormat::Fp16, DprFormat::Fp10,
                                          DprFormat::Fp8 };
    runCases("dpr-bounds", 0xD9233333, 1000,
             [](Rng &rng, std::vector<float> &data) -> Property {
                 const DprFormat fmt = kFormats[rng.uniformInt(3)];
                 const auto numel =
                     static_cast<std::int64_t>(rng.uniformInt(4096));
                 data = genValues(rng, numel, 0.15);
                 return [fmt](const std::vector<float> &d) {
                     return checkDpr(fmt, d);
                 };
             });
}

TEST(FuzzCodecs, CsrWithDprValuesMatchesScalarReference)
{
    static const DprFormat kFormats[] = { DprFormat::Fp16, DprFormat::Fp10,
                                          DprFormat::Fp8 };
    runCases(
        "csr-dpr", 0xC5D44444, 500,
        [](Rng &rng, std::vector<float> &data) -> Property {
            CsrConfig cfg;
            cfg.row_width =
                1 + static_cast<std::int64_t>(rng.uniformInt(256));
            cfg.value_format = kFormats[rng.uniformInt(3)];
            const auto numel =
                static_cast<std::int64_t>(rng.uniformInt(2048));
            data = genValues(rng, numel, rng.uniform());
            return [cfg](const std::vector<float> &d) -> std::string {
                CsrBuffer buf(cfg);
                buf.encode({ d.data(), d.size() });
                std::vector<float> out(d.size(), -1.0f);
                buf.decode(out);
                const SmallFloatFormat &sf =
                    formatOf(cfg.value_format);
                for (size_t i = 0; i < d.size(); ++i) {
                    const float expect =
                        d[i] == 0.0f ? 0.0f
                                     : quantizeSmallFloat(sf, d[i]);
                    if (!bitEqual(out[i], expect))
                        return "csr+dpr[" + std::to_string(i) + "] in=" +
                               std::to_string(d[i]) + " out=" +
                               std::to_string(out[i]) + " expect=" +
                               std::to_string(expect);
                }
                return "";
            };
        });
}

// ------------------------------------------------- binarize / pool map

TEST(FuzzCodecs, BinarizeMaskAndReluBackwardAreExact)
{
    runCases(
        "binarize", 0xB1255555, 1000,
        [](Rng &rng, std::vector<float> &data) -> Property {
            const auto numel =
                static_cast<std::int64_t>(rng.uniformInt(8192));
            data = genValues(rng, numel, rng.uniform());
            const std::uint64_t dy_seed = rng.next();
            return [dy_seed](const std::vector<float> &d) -> std::string {
                BinarizedMask mask;
                mask.encode({ d.data(), d.size() });
                for (size_t i = 0; i < d.size(); ++i)
                    if (mask.positive(static_cast<std::int64_t>(i)) !=
                        (d[i] > 0.0f))
                        return "mask[" + std::to_string(i) +
                               "] != (v > 0) for v=" + std::to_string(d[i]);
                Rng drng(dy_seed);
                std::vector<float> dy =
                    genValues(drng, static_cast<std::int64_t>(d.size()),
                              0.0);
                std::vector<float> dx(d.size(), -3.0f);
                mask.reluBackward(dy, dx);
                for (size_t i = 0; i < d.size(); ++i) {
                    const float expect =
                        -3.0f + (d[i] > 0.0f ? dy[i] : 0.0f);
                    if (!bitEqual(dx[i], expect))
                        return "reluBackward[" + std::to_string(i) +
                               "] not a bitwise accumulate";
                }
                return "";
            };
        });
}

TEST(FuzzCodecs, PoolIndexMapSetGetIdentity)
{
    for (const std::uint64_t seed : fuzz::caseSeeds(0x9001666, 1000)) {
        Rng rng(seed);
        const std::int64_t kh = 1 + static_cast<std::int64_t>(
                                        rng.uniformInt(5));
        const std::int64_t kw = 1 + static_cast<std::int64_t>(
                                        rng.uniformInt(5));
        const auto numel =
            static_cast<std::int64_t>(rng.uniformInt(4096));
        PoolIndexMap map;
        map.configure(numel, kh, kw);
        std::vector<std::int64_t> expect(static_cast<size_t>(numel));
        for (auto &e : expect)
            e = static_cast<std::int64_t>(
                rng.uniformInt(static_cast<std::uint64_t>(kh * kw)));
        for (std::int64_t i = 0; i < numel; ++i)
            map.set(i, expect[static_cast<size_t>(i)]);
        for (std::int64_t i = 0; i < numel; ++i)
            ASSERT_EQ(map.get(i), expect[static_cast<size_t>(i)])
                << "GIST_FUZZ_SEED=" << seed << " kh=" << kh
                << " kw=" << kw << " i=" << i;
    }
}

// ---------------------------------------------- fused consumption

/** Sparsity for fused cases: force both boundaries plus the middle. */
double
pickSparsity(Rng &rng)
{
    switch (rng.uniformInt(4)) {
      case 0:
        return 0.0; // 0% sparse: every element stored
      case 1:
        return 1.0; // 100% sparse: empty CSR
      default:
        return rng.uniform();
    }
}

TEST(FuzzFused, PackedGemmMatchesDecodeThenGemm)
{
    static const DprFormat kFormats[] = { DprFormat::Fp16, DprFormat::Fp10,
                                          DprFormat::Fp8 };
    runCases("fused-packed-gemm", 0xF5144442, 300,
             [](Rng &rng, std::vector<float> &data) -> Property {
                 const bool use_csr = rng.uniform() < 0.5;
                 const DprFormat fmt = kFormats[rng.uniformInt(3)];
                 const bool trans_a = rng.uniform() < 0.5;
                 const auto m =
                     1 + static_cast<std::int64_t>(rng.uniformInt(24));
                 const auto k =
                     1 + static_cast<std::int64_t>(rng.uniformInt(96));
                 const auto n =
                     1 + static_cast<std::int64_t>(rng.uniformInt(80));
                 data = genValues(rng, k * n,
                                  use_csr ? pickSparsity(rng) : 0.0);
                 const std::uint64_t a_seed = rng.next();
                 return [use_csr, fmt, trans_a, m, k, n,
                         a_seed](const std::vector<float> &d) -> std::string {
                     if (d.size() != static_cast<size_t>(k * n))
                         return "";
                     Rng arng(a_seed);
                     std::vector<float> a(static_cast<size_t>(m * k));
                     for (auto &x : a)
                         x = arng.normal();
                     CsrBuffer csr;
                     DprBuffer dpr;
                     std::vector<float> b_dense(d.size());
                     if (use_csr) {
                         CsrConfig cfg;
                         cfg.value_format = fmt;
                         csr.setConfig(cfg);
                         csr.encode({ d.data(), d.size() });
                         csr.decode(b_dense);
                     } else {
                         dpr.encode(fmt, { d.data(), d.size() });
                         dpr.decode(b_dense);
                     }
                     std::vector<float> c_ref(static_cast<size_t>(m * n));
                     gemm(trans_a, false, m, n, k, 1.0f, a.data(),
                          b_dense.data(), 0.0f, c_ref.data());
                     const auto pack = [&](std::int64_t off, float *dst,
                                           std::int64_t cnt) {
                         if (use_csr)
                             csr.decodeRange(
                                 off, { dst, static_cast<size_t>(cnt) });
                         else
                             dpr.decodeRange(
                                 off, { dst, static_cast<size_t>(cnt) });
                     };
                     std::vector<float> c_fused(static_cast<size_t>(m * n),
                                                -3.0f);
                     gemmPackedB(trans_a, m, n, k, 1.0f, a.data(), pack,
                                 0.0f, c_fused.data());
                     for (size_t i = 0; i < c_ref.size(); ++i)
                         if (!bitEqual(c_ref[i], c_fused[i]))
                             return "gemmPackedB c[" + std::to_string(i) +
                                    "] fused != dense (trans_a=" +
                                    std::to_string(trans_a) + " m=" +
                                    std::to_string(m) + " k=" +
                                    std::to_string(k) + " n=" +
                                    std::to_string(n) + ")";
                     return "";
                 };
             });
}

// ------------------------------------------- scalar vs SIMD agreement

class FuzzSimdParity : public ::testing::Test
{
  protected:
    void TearDown() override { simd::initFromEnv(); }
};

TEST_F(FuzzSimdParity, ActiveBackendMatchesScalarBitwise)
{
    const simd::Backend best = simd::bestBackend();
    if (best == simd::Backend::Scalar)
        GTEST_SKIP() << "no SIMD backend available";
    static const DprFormat kFormats[] = { DprFormat::Fp16, DprFormat::Fp10,
                                          DprFormat::Fp8 };
    for (const std::uint64_t seed : fuzz::caseSeeds(0x51D77777, 300)) {
        Rng rng(seed);
        const DprFormat fmt = kFormats[rng.uniformInt(3)];
        const auto numel =
            static_cast<std::int64_t>(rng.uniformInt(4096));
        const std::vector<float> data =
            genValues(rng, numel, rng.uniform());
        CsrConfig csr_cfg;
        csr_cfg.row_width =
            1 + static_cast<std::int64_t>(rng.uniformInt(256));

        // The decoded stream pins the encoding bitwise: decode is an
        // injective map from code words (signed zeros included), so
        // byte-identical decodes mean byte-identical encodings.
        auto run = [&](simd::Backend b, std::vector<float> &dpr_out,
                       std::vector<std::uint8_t> &mask_out,
                       std::vector<float> &csr_out, std::int64_t &nnz) {
            simd::setBackend(b);
            DprBuffer dpr;
            dpr.encode(fmt, { data.data(), data.size() });
            dpr_out.assign(data.size(), -1.0f);
            dpr.decode(dpr_out);
            BinarizedMask mask;
            mask.encode({ data.data(), data.size() });
            mask_out.assign(mask.raw().begin(), mask.raw().end());
            CsrBuffer csr(csr_cfg);
            csr.encode({ data.data(), data.size() });
            nnz = csr.nnz();
            csr_out.assign(data.size(), -1.0f);
            csr.decode(csr_out);
        };
        std::vector<float> dpr_a, dpr_b, csr_a, csr_b;
        std::vector<std::uint8_t> mask_a, mask_b;
        std::int64_t nnz_a = 0, nnz_b = 0;
        run(best, dpr_a, mask_a, csr_a, nnz_a);
        run(simd::Backend::Scalar, dpr_b, mask_b, csr_b, nnz_b);
        const bool ok =
            nnz_a == nnz_b && mask_a == mask_b &&
            std::memcmp(dpr_a.data(), dpr_b.data(),
                        dpr_a.size() * sizeof(float)) == 0 &&
            std::memcmp(csr_a.data(), csr_b.data(),
                        csr_a.size() * sizeof(float)) == 0;
        if (!ok) {
            ADD_FAILURE()
                << simd::backendName(best)
                << " disagrees with scalar (fmt=" << dprFormatName(fmt)
                << " numel=" << numel
                << ")\n  repro: GIST_FUZZ_SEED=" << seed
                << " ./tests/test_fuzz_codecs";
            return;
        }
    }
}

TEST_F(FuzzSimdParity, CsrFillAndEncodeCodesMatchScalar)
{
    const simd::Backend best = simd::bestBackend();
    if (best == simd::Backend::Scalar)
        GTEST_SKIP() << "no SIMD backend available";
    const simd::SimdOps &scalar = simd::opsFor(simd::Backend::Scalar);
    const simd::SimdOps &vec = simd::opsFor(best);
    for (const std::uint64_t seed : fuzz::caseSeeds(0xF5166664, 500)) {
        Rng rng(seed);
        // Mostly in-contract rows (n <= 256); a few larger to cover the
        // delegate-to-generic path.
        const std::int64_t n =
            rng.uniform() < 0.9
                ? 1 + static_cast<std::int64_t>(rng.uniformInt(256))
                : 257 + static_cast<std::int64_t>(rng.uniformInt(512));
        const bool pad_ok = n <= 256 && rng.uniform() < 0.5;
        const std::vector<float> data =
            genValues(rng, n, pickSparsity(rng));
        const size_t cap = static_cast<size_t>(n) + 8;

        std::vector<float> v_s(cap, -5.0f), v_v(cap, -5.0f);
        std::vector<std::uint8_t> i_s(cap, 0xEE), i_v(cap, 0xEE);
        const std::int64_t k_s =
            scalar.csrFill(data.data(), n, i_s.data(), v_s.data(), pad_ok);
        const std::int64_t k_v =
            vec.csrFill(data.data(), n, i_v.data(), v_v.data(), pad_ok);
        ASSERT_EQ(k_s, k_v) << "nnz diverged, GIST_FUZZ_SEED=" << seed;
        ASSERT_EQ(k_s, scalar.countNonzero(data.data(), n))
            << "fill/count predicate diverged, GIST_FUZZ_SEED=" << seed;
        // The contract covers [0, nnz); with pad_ok the next 7 slots
        // are scribble, without it they must be untouched.
        ASSERT_EQ(0, std::memcmp(v_s.data(), v_v.data(),
                                 static_cast<size_t>(k_s) * sizeof(float)))
            << "values diverged, GIST_FUZZ_SEED=" << seed;
        ASSERT_EQ(0, std::memcmp(i_s.data(), i_v.data(),
                                 static_cast<size_t>(k_s)))
            << "indices diverged, GIST_FUZZ_SEED=" << seed;
        if (!pad_ok) {
            for (size_t j = static_cast<size_t>(k_s); j < cap; ++j) {
                ASSERT_TRUE(bitEqual(v_v[j], -5.0f))
                    << "pad_ok=false wrote past nnz at " << j
                    << ", GIST_FUZZ_SEED=" << seed;
                ASSERT_EQ(i_v[j], 0xEE)
                    << "pad_ok=false wrote past nnz at " << j
                    << ", GIST_FUZZ_SEED=" << seed;
            }
        }

        // Fused quantize-during-compaction: code streams must agree.
        for (int f = 0; f < simd::kSfFormatCount; ++f) {
            std::vector<std::uint32_t> c_s(static_cast<size_t>(k_s) + 1,
                                           0xABABABAB);
            std::vector<std::uint32_t> c_v(c_s);
            scalar.sfEncodeCodes[f](v_s.data(), k_s, c_s.data());
            vec.sfEncodeCodes[f](v_s.data(), k_s, c_v.data());
            ASSERT_EQ(c_s, c_v)
                << "sfEncodeCodes[" << f
                << "] diverged, GIST_FUZZ_SEED=" << seed;
        }
    }
}

} // namespace
} // namespace gist
