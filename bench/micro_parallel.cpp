/**
 * @file
 * Scaling microbenchmark for the parallel hot paths: gemm, im2col,
 * binarize, CSR encode/decode, DPR encode/decode. For each path it
 * measures throughput at 1 thread and at the requested pool size,
 * reports the rate (GB/s; GFLOP/s for the GEMM rows) and the speedup,
 * and verifies that the multi-threaded output is bitwise-identical to
 * the single-threaded one (the determinism contract of
 * util/parallel.hpp).
 *
 * Usage: micro_parallel [threads] [--json <path>]
 *   threads   pool size for the "parallel" arm (default: auto — the
 *             GIST_THREADS env, then hardware concurrency)
 *   --json    append one JSON object per path to <path> so scripts/
 *             can track the scaling trajectory across PRs. The rate
 *             keeps the historical "gbps" key for every row, GEMM
 *             rows included, so the trajectory stays comparable.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "encodings/binarize.hpp"
#include "encodings/csr.hpp"
#include "encodings/dpr.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/rng.hpp"

namespace {

using gist::Rng;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Time fn: repetitions are grown until one pass exceeds ~80 ms, then
 * two more passes at that count take the best (min) seconds/call. A
 * single pass is one scheduler hiccup away from recording a phantom
 * regression on big kernels where one pass = one call; the min across
 * passes is the standard noise filter.
 */
double
timeIt(const std::function<void()> &fn)
{
    fn(); // warm-up (and first-touch of output pages)
    int reps = 1;
    double dt = 0.0;
    for (;;) {
        const double t0 = now();
        for (int r = 0; r < reps; ++r)
            fn();
        dt = now() - t0;
        if (dt > 0.08 || reps >= 1 << 14)
            break;
        reps *= 4;
    }
    double best = dt / reps;
    for (int pass = 0; pass < 2; ++pass) {
        const double t0 = now();
        for (int r = 0; r < reps; ++r)
            fn();
        best = std::min(best, (now() - t0) / reps);
    }
    return best;
}

struct PathResult
{
    std::string name;
    double work = 0.0;  ///< per call: bytes (GB/s) or flops (GFLOP/s)
    const char *unit = "GB/s";
    double serial_s = 0.0;
    double parallel_s = 0.0;
    bool bitwise_identical = true;

    double speedup() const { return serial_s / parallel_s; }
    double rate(double s) const { return work / s / 1e9; }
};

std::vector<PathResult> g_results;

/**
 * Run one path in both arms. run(out) must fully (re)compute the
 * path's output into `out`; outputs from the two arms are memcmp'd.
 */
void
runPath(const std::string &name, int par_threads, double work,
        size_t out_bytes, const std::function<void(void *)> &run,
        const char *unit = "GB/s")
{
    PathResult res;
    res.name = name;
    res.work = work;
    res.unit = unit;

    std::vector<unsigned char> out_serial(out_bytes);
    std::vector<unsigned char> out_parallel(out_bytes);

    gist::setNumThreads(1);
    res.serial_s = timeIt([&] { run(out_serial.data()); });

    gist::setNumThreads(par_threads);
    res.parallel_s = timeIt([&] { run(out_parallel.data()); });

    res.bitwise_identical =
        out_bytes == 0 ||
        std::memcmp(out_serial.data(), out_parallel.data(), out_bytes) ==
            0;

    std::printf("%-24s %8.2f ms -> %8.2f ms   %5.2fx   %6.2f %-7s  %s\n",
                name.c_str(), res.serial_s * 1e3, res.parallel_s * 1e3,
                res.speedup(), res.rate(res.parallel_s), unit,
                res.bitwise_identical ? "bitwise-ok" : "MISMATCH");
    g_results.push_back(res);
}

std::vector<float>
randomDense(std::int64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(static_cast<size_t>(n));
    for (auto &x : v)
        x = rng.normal();
    return v;
}

/** Zero out a fraction of the values (ReLU-like sparsity). */
void
sparsify(std::vector<float> &v, double sparsity, std::uint64_t seed)
{
    Rng rng(seed);
    for (auto &x : v)
        if (rng.uniform() < sparsity)
            x = 0.0f;
}

} // namespace

int
main(int argc, char **argv)
{
    int threads = 0;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: --json requires a path\n");
                return 2;
            }
            json_path = argv[++i];
        } else if (std::isdigit(static_cast<unsigned char>(argv[i][0]))) {
            threads = std::atoi(argv[i]);
        } else {
            std::fprintf(stderr,
                         "usage: micro_parallel [threads] [--json <path>]\n");
            return 2;
        }
    }
    const int par = gist::resolveThreadCount(threads);

    std::printf("micro_parallel: 1 thread vs %d threads\n", par);
    std::printf("%-24s %11s    %11s   %6s   %10s\n", "path", "1-thread",
                "N-thread", "spdup", "parallel");

    // --- gemm: m = n = k = 512, then the tiny VGG16 conv6 per-image
    //     forward (48 x 16 x 432) and dX (432 x 16 x 48) shapes the
    //     training step runs ---
    {
        struct GemmShape
        {
            const char *name;
            bool trans_a;
            std::int64_t m, n, k;
        };
        const GemmShape shapes[] = {
            { "gemm_512", false, 512, 512, 512 },
            { "gemm_conv_fwd", false, 48, 16, 432 },
            { "gemm_conv_dx", true, 432, 16, 48 },
        };
        for (const GemmShape &g : shapes) {
            const auto a = randomDense(g.m * g.k, 1);
            const auto b = randomDense(g.k * g.n, 2);
            runPath(g.name, par, 2.0 * static_cast<double>(g.m) * g.n * g.k,
                    static_cast<size_t>(g.m * g.n) * sizeof(float),
                    [&](void *out) {
                        gist::gemm(g.trans_a, false, g.m, g.n, g.k, 1.0f,
                                   a.data(), b.data(), 0.0f,
                                   static_cast<float *>(out));
                    },
                    "GFLOP/s");
        }
    }

    // --- im2col (VGG-ish 3x3 conv geometry) ---
    {
        gist::ConvGeometry geom;
        geom.in_c = 64;
        geom.in_h = 112;
        geom.in_w = 112;
        geom.kernel_h = 3;
        geom.kernel_w = 3;
        geom.pad_h = 1;
        geom.pad_w = 1;
        const auto image = randomDense(
            geom.in_c * geom.in_h * geom.in_w, 3);
        const std::int64_t cols = geom.in_c * geom.kernel_h *
                                  geom.kernel_w * geom.outH() *
                                  geom.outW();
        runPath("im2col_3x3", par,
                static_cast<double>(cols) * sizeof(float) * 2,
                static_cast<size_t>(cols) * sizeof(float),
                [&](void *out) {
                    gist::im2col(geom, image.data(),
                                 static_cast<float *>(out));
                });
    }

    // --- binarize pack + mask backward ---
    {
        const std::int64_t n = 1 << 24; // 16M values
        auto v = randomDense(n, 4);
        runPath("binarize_encode", par,
                static_cast<double>(n) * sizeof(float),
                static_cast<size_t>(gist::binarizeBytes(n)),
                [&](void *out) {
                    gist::BinarizedMask mask;
                    mask.encode(v);
                    std::memcpy(out, mask.raw().data(),
                                mask.raw().size());
                });

        gist::BinarizedMask mask;
        mask.encode(v);
        const auto dy = randomDense(n, 5);
        // reluBackward accumulates into dx, so each run zeroes it first
        // (the serial and parallel runs repeat a different number of
        // times). Traffic: dx zeroed, dy read, dx read and written.
        runPath("binarize_backward", par,
                static_cast<double>(n) * sizeof(float) * 4,
                static_cast<size_t>(n) * sizeof(float),
                [&](void *out) {
                    std::memset(out, 0, static_cast<size_t>(n) *
                                            sizeof(float));
                    mask.reluBackward(
                        dy, { static_cast<float *>(out),
                              static_cast<size_t>(n) });
                });
    }

    // --- CSR encode/decode at 50% sparsity (acceptance shape) ---
    {
        const std::int64_t n = 1 << 23; // 8M values
        auto v = randomDense(n, 6);
        sparsify(v, 0.5, 7);
        gist::CsrConfig cfg; // narrow 1-byte indices, FP32 values
        runPath("csr_encode_50", par,
                static_cast<double>(n) * sizeof(float),
                sizeof(std::int64_t),
                [&](void *out) {
                    gist::CsrBuffer csr(cfg);
                    csr.encode(v);
                    const std::int64_t nnz = csr.nnz();
                    std::memcpy(out, &nnz, sizeof(nnz));
                });

        gist::CsrBuffer csr(cfg);
        csr.encode(v);
        runPath("csr_decode_50", par,
                static_cast<double>(n) * sizeof(float),
                static_cast<size_t>(n) * sizeof(float),
                [&](void *out) {
                    csr.decode({ static_cast<float *>(out),
                                 static_cast<size_t>(n) });
                });

        // --- vectorized encode fill in isolation (pass 2 of encode:
        //     compress-store values + 1-byte column indices into
        //     precomputed row offsets, with the same chunk-edge pad
        //     guard the encoder uses) ---
        {
            const std::int64_t nrows = (n + 255) / 256;
            std::vector<std::uint32_t> row_ptr(
                static_cast<size_t>(nrows) + 1, 0);
            for (std::int64_t r = 0; r < nrows; ++r) {
                const std::int64_t len =
                    std::min<std::int64_t>(256, n - r * 256);
                row_ptr[static_cast<size_t>(r) + 1] =
                    row_ptr[static_cast<size_t>(r)] +
                    static_cast<std::uint32_t>(gist::simd::ops().countNonzero(
                        v.data() + r * 256, len));
            }
            const std::int64_t nnz = row_ptr[static_cast<size_t>(nrows)];
            runPath("csr_fill_50", par,
                    static_cast<double>(n) * sizeof(float),
                    static_cast<size_t>(nnz) * (sizeof(float) + 1),
                    [&](void *out) {
                        auto *vals = static_cast<float *>(out);
                        auto *idx = reinterpret_cast<std::uint8_t *>(
                            vals + nnz);
                        gist::parallelFor(
                            0, nrows, gist::chooseGrain(nrows, 16),
                            [&](std::int64_t r0, std::int64_t r1) {
                                const std::uint32_t chunk_end =
                                    row_ptr[static_cast<size_t>(r1)];
                                const auto fill =
                                    gist::simd::ops().csrFill;
                                for (std::int64_t r = r0; r < r1; ++r) {
                                    const std::int64_t len =
                                        std::min<std::int64_t>(
                                            256, n - r * 256);
                                    const auto k =
                                        row_ptr[static_cast<size_t>(r)];
                                    const bool pad_ok =
                                        row_ptr[static_cast<size_t>(r) +
                                                1] +
                                            7 <=
                                        chunk_end;
                                    fill(v.data() + r * 256, len,
                                         idx + k, vals + k, pad_ok);
                                }
                            });
                    });
        }

        // --- fused CSR-of-DPR encode (quantize during compaction) ---
        {
            gist::CsrConfig dcfg;
            dcfg.value_format = gist::DprFormat::Fp16;
            runPath("csr_encode_dpr", par,
                    static_cast<double>(n) * sizeof(float),
                    static_cast<size_t>(n) * sizeof(float),
                    [&](void *out) {
                        gist::CsrBuffer enc(dcfg);
                        enc.encode(v);
                        enc.decode({ static_cast<float *>(out),
                                     static_cast<size_t>(n) });
                    });
        }
    }

    // --- DPR FP16 encode/decode ---
    {
        const std::int64_t n = 1 << 23;
        const auto v = randomDense(n, 8);
        runPath("dpr_fp16_encode", par,
                static_cast<double>(n) * sizeof(float),
                static_cast<size_t>(n) * sizeof(float),
                [&](void *out) {
                    gist::DprBuffer buf;
                    buf.encode(gist::DprFormat::Fp16, v);
                    // Decoding back exposes the packed words bit-exactly.
                    buf.decode({ static_cast<float *>(out),
                                 static_cast<size_t>(n) });
                });

        gist::DprBuffer buf;
        buf.encode(gist::DprFormat::Fp16, v);
        runPath("dpr_fp16_decode", par,
                static_cast<double>(n) * sizeof(float),
                static_cast<size_t>(n) * sizeof(float),
                [&](void *out) {
                    buf.decode({ static_cast<float *>(out),
                                 static_cast<size_t>(n) });
                });
    }

    std::printf("\n");
    bool all_ok = true;
    double worst = 1e9;
    for (const auto &r : g_results) {
        all_ok = all_ok && r.bitwise_identical;
        worst = std::min(worst, r.speedup());
    }
    std::printf("bitwise determinism: %s\n", all_ok ? "PASS" : "FAIL");
    std::printf("min speedup: %s at %d threads\n",
                gist::formatRatio(worst).c_str(), par);

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (f) {
            std::fprintf(f, "{\n  \"threads\": %d,\n  \"paths\": [\n",
                         par);
            for (size_t i = 0; i < g_results.size(); ++i) {
                const auto &r = g_results[i];
                std::fprintf(
                    f,
                    "    {\"name\": \"%s\", \"serial_ms\": %.4f, "
                    "\"parallel_ms\": %.4f, \"speedup\": %.3f, "
                    "\"gbps\": %.3f, \"bitwise_identical\": %s}%s\n",
                    r.name.c_str(), r.serial_s * 1e3, r.parallel_s * 1e3,
                    r.speedup(), r.rate(r.parallel_s),
                    r.bitwise_identical ? "true" : "false",
                    i + 1 < g_results.size() ? "," : "");
            }
            std::fprintf(f, "  ]\n}\n");
            std::fclose(f);
            std::printf("json written to %s\n", json_path.c_str());
        } else {
            std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
            return 1;
        }
    }
    return all_ok ? 0 : 1;
}
