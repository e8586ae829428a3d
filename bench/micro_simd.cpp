/**
 * @file
 * SIMD backend microbenchmark: times each dispatched kernel once with
 * the scalar reference backend and once with the best ISA this machine
 * offers, reports GB/s (GFLOP/s for the GEMM rows) for both plus the
 * speedup, and memcmp-verifies that the integer codec kernels produced
 * byte-identical output (the cross-backend bitwise contract; the GEMM
 * block kernel rounds differently on scalar). A gemm_micro_avx512 row
 * times the avx512 block kernel against avx2's and memcmp-verifies the
 * two, which must be bitwise-equal. Runs single-threaded so the ratio
 * isolates the ISA effect from thread scaling (micro_parallel covers
 * the latter).
 *
 * Usage: micro_simd [--json <path>]
 *   --json    write one JSON object with per-kernel rows, consumed by
 *             scripts/run_micro_parallel.sh for the BENCH trajectory.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "encodings/csr.hpp"
#include "simd/dispatch.hpp"
#include "simd/sf_codes.hpp"
#include "tensor/gemm.hpp"
#include "util/rng.hpp"

namespace {

using gist::Rng;
using namespace gist::simd;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Time fn over enough repetitions to exceed ~60 ms; returns s/call. */
double
timeIt(const std::function<void()> &fn)
{
    fn(); // warm-up
    int reps = 1;
    for (;;) {
        const double t0 = now();
        for (int r = 0; r < reps; ++r)
            fn();
        const double dt = now() - t0;
        if (dt > 0.06 || reps >= 1 << 14)
            return dt / reps;
        reps *= 4;
    }
}

struct KernelResult
{
    std::string name;
    std::string baseline; ///< the backend "scalar_gbps" was measured on
    double scalar_gbps = 0.0;
    double simd_gbps = 0.0;
    bool bitwise_identical = true; ///< always true for float kernels

    double speedup() const { return simd_gbps / scalar_gbps; }
};

std::vector<KernelResult> g_results;

/**
 * Benchmark one kernel on two backends, @p base (default scalar) and
 * the best one. run(ops, out) executes the kernel through the given
 * table writing its result into out; out_bytes > 0 requests a
 * byte-compare between the two backends. @p work is the bytes (or,
 * with unit "GFLOP/s", flops) one call does.
 */
void
runKernel(const std::string &name, double work, size_t out_bytes,
          const std::function<void(const SimdOps &, void *)> &run,
          const char *unit = "GB/s", Backend base = Backend::Scalar)
{
    const SimdOps &scalar = opsFor(base);
    const SimdOps &best = opsFor(bestBackend());

    std::vector<unsigned char> out_scalar(out_bytes);
    std::vector<unsigned char> out_simd(out_bytes);

    KernelResult res;
    res.name = name;
    res.baseline = scalar.name;
    const double s_scalar =
        timeIt([&] { run(scalar, out_scalar.data()); });
    const double s_simd = timeIt([&] { run(best, out_simd.data()); });
    res.scalar_gbps = work / s_scalar / 1e9;
    res.simd_gbps = work / s_simd / 1e9;
    res.bitwise_identical =
        out_bytes == 0 ||
        std::memcmp(out_scalar.data(), out_simd.data(), out_bytes) == 0;

    std::printf("%-20s %8.2f %-7s %8.2f %-7s %5.2fx   %s%s%s\n",
                name.c_str(), res.scalar_gbps, unit, res.simd_gbps, unit,
                res.speedup(),
                out_bytes == 0 ? "float"
                : res.bitwise_identical ? "bitwise-ok"
                                        : "MISMATCH",
                base == Backend::Scalar ? "" : " vs ",
                base == Backend::Scalar ? "" : scalar.name);
    g_results.push_back(res);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: micro_simd [--json <path>]\n");
            return 2;
        }
    }

    const char *best = backendName(bestBackend());
    std::printf("micro_simd: scalar vs %s (single-threaded)\n", best);
    std::printf("%-20s %13s %14s  %6s\n", "kernel", "scalar", best,
                "spdup");

    const std::int64_t n = 1 << 23; // 8M values = 32 MB input
    Rng rng(42);
    std::vector<float> src(static_cast<size_t>(n));
    for (auto &x : src)
        x = rng.normal();

    // --- DPR small-float encode (all three formats) + fp16 decode ---
    const char *sf_names[] = { "dpr_fp16", "dpr_fp10", "dpr_fp8" };
    for (int f = 0; f < kSfFormatCount; ++f) {
        const auto per_word =
            static_cast<std::int64_t>(kSfLayouts[f].per_word);
        const size_t nwords =
            static_cast<size_t>((n + per_word - 1) / per_word);
        runKernel(std::string(sf_names[f]) + "_encode",
                  static_cast<double>(n) * sizeof(float), nwords * 4,
                  [&, f](const SimdOps &o, void *out) {
                      o.sfEncode[f](src.data(), n,
                                    static_cast<std::uint32_t *>(out));
                  });
    }
    {
        const size_t nwords = static_cast<size_t>((n + 1) / 2);
        std::vector<std::uint32_t> words(nwords);
        opsFor(Backend::Scalar).sfEncode[kSfFp16](src.data(), n,
                                                  words.data());
        runKernel("dpr_fp16_decode",
                  static_cast<double>(n) * sizeof(float),
                  static_cast<size_t>(n) * sizeof(float),
                  [&](const SimdOps &o, void *out) {
                      o.sfDecode[kSfFp16](words.data(), n,
                                          static_cast<float *>(out));
                  });
    }

    // --- binarize pack + mask-expand backward ---
    {
        const size_t nbytes = static_cast<size_t>((n + 7) / 8);
        runKernel("binarize_encode",
                  static_cast<double>(n) * sizeof(float), nbytes,
                  [&](const SimdOps &o, void *out) {
                      o.binarizeEncode(src.data(), n,
                                       static_cast<std::uint8_t *>(out));
                  });

        std::vector<std::uint8_t> bits(nbytes);
        opsFor(Backend::Scalar).binarizeEncode(src.data(), n,
                                               bits.data());
        // The kernel accumulates into dx, so each run zeroes it first.
        // Traffic: dx zeroed, dy read, dx read and written.
        runKernel("binarize_backward",
                  static_cast<double>(n) * sizeof(float) * 4,
                  static_cast<size_t>(n) * sizeof(float),
                  [&](const SimdOps &o, void *out) {
                      std::memset(out, 0, static_cast<size_t>(n) *
                                              sizeof(float));
                      o.binarizeBackward(bits.data(), src.data(), n,
                                         static_cast<float *>(out));
                  });
    }

    // --- CSR nonzero count (50% ReLU-style sparsity) ---
    {
        std::vector<float> sparse(src);
        Rng srng(7);
        for (auto &x : sparse)
            if (srng.uniform() < 0.5)
                x = 0.0f;
        runKernel("csr_count_50",
                  static_cast<double>(n) * sizeof(float),
                  sizeof(std::int64_t),
                  [&](const SimdOps &o, void *out) {
                      const std::int64_t c =
                          o.countNonzero(sparse.data(), n);
                      std::memcpy(out, &c, sizeof(c));
                  });

        // --- CSR encode fill (compress-store values + 1-byte indices,
        //     256-element narrow rows). Output layout: [values][idx];
        //     the pad scribble past each row's nnz is overwritten by
        //     the next row's compact fill, and the tail past the final
        //     nnz is zeroed so the cross-backend memcmp sees only
        //     contract-covered bytes. ---
        runKernel("csr_fill_50",
                  static_cast<double>(n) * sizeof(float),
                  static_cast<size_t>(n) * (sizeof(float) + 1),
                  [&](const SimdOps &o, void *out) {
                      auto *vals = static_cast<float *>(out);
                      auto *idx = reinterpret_cast<std::uint8_t *>(
                          vals + n);
                      std::int64_t k = 0;
                      for (std::int64_t i = 0; i < n; i += 256)
                          k += o.csrFill(sparse.data() + i,
                                         std::min<std::int64_t>(256,
                                                                n - i),
                                         idx + k, vals + k, true);
                      std::memset(vals + k, 0,
                                  static_cast<size_t>(n - k) *
                                      sizeof(float));
                      std::memset(idx + k, 0,
                                  static_cast<size_t>(n - k));
                  });

        // --- Fused CSR-of-DPR encode: compress-store fill straight
        //     into FP16 code quantization (no dense intermediate).
        //     Output layout: [codes][idx], tail-zeroed as above. ---
        runKernel("csr_encode_dpr",
                  static_cast<double>(n) * sizeof(float),
                  static_cast<size_t>(n) * (sizeof(std::uint32_t) + 1),
                  [&](const SimdOps &o, void *out) {
                      auto *codes = static_cast<std::uint32_t *>(out);
                      auto *idx = reinterpret_cast<std::uint8_t *>(
                          codes + n);
                      alignas(32) float staged[256 + 8];
                      std::int64_t k = 0;
                      for (std::int64_t i = 0; i < n; i += 256) {
                          const std::int64_t cnt = o.csrFill(
                              sparse.data() + i,
                              std::min<std::int64_t>(256, n - i),
                              idx + k, staged, true);
                          o.sfEncodeCodes[kSfFp16](staged, cnt,
                                                   codes + k);
                          k += cnt;
                      }
                      std::memset(codes + k, 0,
                                  static_cast<size_t>(n - k) *
                                      sizeof(std::uint32_t));
                      std::memset(idx + k, 0,
                                  static_cast<size_t>(n - k));
                  });
    }

    // --- GEMM block kernel: one L1-resident KC = 128 A block of MC = 48
    //     rows (8 panels) against one strip, accumulated into a 48 x 16
    //     C block; the rate is GFLOP/s. Float kernel: scalar rounds
    //     apart, so no parity there. avx512 against avx2 must be
    //     bitwise-equal: each run restarts C from c0 so that both
    //     backends end on the same chains. ---
    {
        const std::int64_t kc = 128;
        const std::int64_t mc = 48;
        const int calls = 64;
        std::vector<float> a(src.begin(), src.begin() + kc * mc);
        std::vector<float> b(src.begin(), src.begin() + kc * kGemmNR);
        std::vector<float> c0(src.begin(), src.begin() + mc * kGemmNR);
        const size_t c_bytes = c0.size() * sizeof(float);
        const double flops = 2.0 * calls * kc * mc * kGemmNR;
        // The B stream of a full packed strip: row p at b + p * kGemmNR.
        const BRows rows{ b.data(), nullptr, nullptr, nullptr };
        const auto gemm_run = [&](const SimdOps &o, void *out) {
            auto *c = static_cast<float *>(out);
            std::memcpy(c, c0.data(), c_bytes);
            for (int r = 0; r < calls; ++r)
                o.gemmBlock(kc, a.data(), mc, rows, c, kGemmNR, kGemmNR,
                            true);
        };
        std::vector<float> c(c0.size());
        runKernel("gemm_micro", flops, 0,
                  [&](const SimdOps &o, void *) { gemm_run(o, c.data()); },
                  "GFLOP/s");
        if (bestBackend() == Backend::Avx512)
            runKernel("gemm_micro_avx512", flops, c_bytes, gemm_run,
                      "GFLOP/s", Backend::Avx2);
        else
            std::printf("%-20s skipped: no avx512f on this CPU\n",
                        "gemm_micro_avx512");
    }

    bool all_ok = true;
    for (const auto &r : g_results)
        all_ok = all_ok && r.bitwise_identical;
    std::printf("\nbitwise parity: %s\n", all_ok ? "PASS" : "FAIL");

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f,
                     "{\n  \"bench\": \"micro_simd\",\n"
                     "  \"best_backend\": \"%s\",\n  \"kernels\": [\n",
                     best);
        for (size_t i = 0; i < g_results.size(); ++i) {
            const auto &r = g_results[i];
            std::fprintf(
                f,
                "    {\"name\": \"%s\", \"baseline\": \"%s\", "
                "\"scalar_gbps\": %.3f, "
                "\"simd_gbps\": %.3f, \"speedup\": %.3f, "
                "\"bitwise_identical\": %s}%s\n",
                r.name.c_str(), r.baseline.c_str(), r.scalar_gbps,
                r.simd_gbps, r.speedup(),
                r.bitwise_identical ? "true" : "false",
                i + 1 < g_results.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("json written to %s\n", json_path.c_str());
    }
    return all_ok ? 0 : 1;
}
