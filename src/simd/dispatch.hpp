/**
 * @file
 * Runtime-dispatched SIMD kernel table for the codec, GEMM and
 * memory-bound layer (ReLU, max pool) hot paths.
 *
 * Three backends, each a separate translation unit compiled with its
 * own -march flags (src/simd/CMakeLists.txt):
 *
 *   scalar  branchless reference (codec loops pinned unvectorized) — the
 *           bitwise source of truth the equivalence tests sweep against,
 *           and the only path on pre-AVX2 and non-x86 hosts;
 *   avx2    hand-written 8-wide AVX2/FMA intrinsics;
 *   avx512  avx2's table with AVX-512F GEMM block and transposing-pack
 *           kernels.
 *
 * The active backend is chosen once at first use: the GIST_SIMD
 * environment variable (scalar | avx2 | avx512) wins if set and
 * available, else the best ISA the CPU reports (probed via
 * __builtin_cpu_supports on x86). setBackend() overrides at runtime
 * (bench/tests). The integer codec kernels and the compare/select/add
 * layer kernels (ReLU backward, max pool) are bitwise-identical across
 * backends by construction. The float GEMM kernels (axpy, gemmBlock)
 * fuse each multiply-add into one FMA on avx2 and avx512 and round the
 * product and the sum apart on scalar. So avx2 and avx512 are
 * bitwise-equal, while scalar may differ from them in the last bits.
 *
 * Every function pointer operates on a caller-chunked range, so
 * parallelFor call sites dispatch once per chunk, not per element.
 */

#pragma once

#include <cstdint>

/** 1 on x86-64 / x86 targets, where the avx2 and avx512 TUs have
 *  bodies. */
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__) || \
    defined(_M_IX86)
#define GIST_SIMD_X86 1
#else
#define GIST_SIMD_X86 0
#endif

namespace gist::simd {

/** Backends in order of strength. */
enum class Backend { Scalar = 0, Avx2 = 1, Avx512 = 2 };
inline constexpr int kNumBackends = 3;

/** Microkernel tile: rows of a packed A panel, columns of a B strip.
 *  Shared by every backend, so all of them use one pack layout. */
inline constexpr std::int64_t kGemmMR = 6;
inline constexpr std::int64_t kGemmNR = 16;

/**
 * One max-pool scan over planes x rows x cols outputs: output (q, r, c)
 * reads window tap t at src[q * plane_pitch + r * row_pitch + c *
 * col_stride + off[t]] and is written at index j = (q * rows + r) * cols
 * + c. Every such element must be readable; nothing else is read.
 */
struct PoolScan
{
    const float *src;
    std::int64_t plane_pitch;
    std::int64_t row_pitch;
    std::int64_t col_stride;
    const std::int64_t *off;
    std::int64_t taps;
    std::int64_t planes;
    std::int64_t rows;
    std::int64_t cols;
};

/**
 * The B operand of the GEMM block kernel, as a stream of kGemmNR-float
 * rows: row p is the kGemmNR floats at base + off[p], lane j kept where
 * bit j of mask[tap[p]] is set and read as +0 where it is clear. A
 * cleared lane is never loaded, so it may lie outside every buffer.
 *
 * A full packed strip leaves off null: row p is the kGemmNR floats at
 * base + p * kGemmNR, every lane kept (tap and mask unread), so the
 * kernel walks it with no table loads. A partial one is the stream
 * off[p] = p * kGemmNR with one mask, the strip's columns. A conv
 * window read in place (tensor/gemm.cpp) points each row into the image
 * itself, and its per-tap masks zero the lanes that hang over the
 * padding.
 */
struct BRows
{
    const float *base;
    const std::int32_t *off; ///< null: a full packed strip
    const std::uint8_t *tap;
    const std::uint16_t *mask;
};

/** One backend's kernel table. */
struct SimdOps
{
    const char *name = "?";
    Backend backend = Backend::Scalar;

    /**
     * Packed small-float codecs, indexed by SfFormatIdx (fp16, fp10,
     * fp8). Encode converts n FP32 values into ceil(n / per_word)
     * packed words; decode is the inverse. Spans must start
     * word-aligned. sfQuantize is decode(encode(x)) fused in place.
     */
    void (*sfEncode[3])(const float *src, std::int64_t n,
                        std::uint32_t *words);
    void (*sfDecode[3])(const std::uint32_t *words, std::int64_t n,
                        float *dst);
    void (*sfQuantize[3])(float *values, std::int64_t n);

    /** Pack sign bits (v > 0) of n values into ceil(n / 8) bytes. */
    void (*binarizeEncode)(const float *values, std::int64_t n,
                           std::uint8_t *bytes);
    /**
     * ReLU backward from the 1-bit mask, accumulating: dx[i] += bit(i) ?
     * dy[i] : +0.0f over n values (bit 0 = first value). An add of +0.0f,
     * never a store of the masked value, so dx = -0.0 with the bit clear
     * becomes +0.0 exactly as the dense form does.
     */
    void (*binarizeBackward)(const std::uint8_t *bytes, const float *dy,
                             std::int64_t n, float *dx);

    /** Count of values != 0.0f (NaN counts, -0.0 does not). */
    std::int64_t (*countNonzero)(const float *values, std::int64_t n);

    /**
     * CSR row fill: compact the nonzeros of values[0..n) (n <= 256, the
     * narrow-index row width) in ascending order, writing each nonzero's
     * in-row column as one byte to idx[] and its value to out[]; returns
     * the nonzero count. The predicate matches countNonzero exactly (NaN
     * is nonzero, -0.0 is not). When pad_ok is set the kernel may
     * scribble up to 7 elements past the returned count in BOTH output
     * arrays (vector compress stores); with pad_ok false every store is
     * exact. Bitwise-identical across backends either way.
     */
    std::int64_t (*csrFill)(const float *values, std::int64_t n,
                            std::uint8_t *idx, float *out, bool pad_ok);

    /**
     * FP32 -> small-float conversion without word packing: one code per
     * uint32, indexed by SfFormatIdx. Same branchless convert stage as
     * sfEncode, so codes are bitwise-identical across backends.
     */
    void (*sfEncodeCodes[3])(const float *src, std::int64_t n,
                             std::uint32_t *codes);

    /** y[i] += a * x[i]; fused on avx2/avx512 (see the file comment). */
    void (*axpy)(std::int64_t n, float a, const float *x, float *y);

    /**
     * GEMM block kernel: runs one B strip (the kc rows of @p b) down
     * every kGemmMR-row panel of a packed A block that covers @p mc rows
     * (panel q at a + q * kc * kGemmMR, holding a[p * kGemmMR + i]).
     * Block row i of C starts at c + i * ldc; its first nr (<= kGemmNR)
     * columns get the product. Each C element is one chain c = c + a * b
     * over p ascending, started from C when @p accumulate, else from +0
     * (C is then never read). Panel rows >= mc and strip lanes >= nr are
     * computed but never stored. How a backend walks the panels (one at
     * a time, or several per pass) or loads B (one masked load per row,
     * or a masked copy first) never changes a chain, so the result
     * depends only on whether the backend fuses the multiply-add: avx2 ≡
     * avx512 bit for bit.
     */
    void (*gemmBlock)(std::int64_t kc, const float *a, std::int64_t mc,
                      const BRows &b, float *c, std::int64_t ldc,
                      std::int64_t nr, bool accumulate);

    /**
     * Transposing pack: reads kGemmNR rows of @p rows (row j, lane t)
     * and writes dst[t * kGemmNR + j], a kGemmNR x kGemmNR block of B
     * strip rows. Conv dW packs 16 taps x 16 consecutive positions with
     * it. Moves bytes only: masked lanes become +0, so every backend
     * writes the same block.
     */
    void (*packTransposed)(const BRows &rows, float *dst);

    /** Dense ReLU backward: dx[i] += y[i] > 0 ? dy[i] : +0.0f. */
    void (*reluBackward)(const float *y, const float *dy, std::int64_t n,
                         float *dx);

    /**
     * Max-pool window scan (DESIGN §5d): for each output (q, r, c) of
     * @p s, taps run in ascending order from best = -inf and pos =
     * first[r * cols + c] (the same for every plane; 0 when @p first is
     * null); where a tap's value v > best (never for NaN), best = v and
     * pos = t. Writes best[j] and pos[j].
     */
    void (*maxPoolArgmax)(const PoolScan &s, const std::int32_t *first,
                          float *best, std::int32_t *pos);
    /**
     * Max-pool argmax recovery from X and Y: pos[j] = the first tap in
     * scan order whose value == y[j], or -1 where none is. Scans taps
     * in reverse, so the last match written is that first one.
     */
    void (*maxPoolMatch)(const PoolScan &s, const float *y,
                         std::int32_t *pos);
};

/** The active kernel table (resolves backend on first call). */
const SimdOps &ops();

/** Backend of the active table. */
Backend activeBackend();

/** Human-readable name ("scalar", "avx2", "avx512"). */
const char *backendName(Backend b);

/** True if the backend was compiled in AND this CPU can run it. */
bool backendAvailable(Backend b);

/** Strongest available backend on this machine. */
Backend bestBackend();

/** Kernel table of a specific backend (must be available). */
const SimdOps &opsFor(Backend b);

/**
 * Force the active backend (bench/tests). Not thread-safe against
 * in-flight kernels; call between parallel regions only.
 */
void setBackend(Backend b);

/**
 * Parse a GIST_SIMD value ("scalar" | "avx2" | "avx512",
 * case-sensitive).
 * Returns false (leaving @p out untouched) for anything else.
 */
bool parseBackend(const char *s, Backend *out);

/**
 * Re-run the GIST_SIMD / autodetect selection (undoes setBackend).
 * Returns the backend now active. Exposed so tests can exercise the
 * env plumbing without reloading the process.
 */
Backend initFromEnv();

/* Per-backend tables, defined one per kernel TU. avx2Ops and avx512Ops
 * exist only when their TU is compiled in (x86 and not
 * GIST_SIMD_DISABLE). */
const SimdOps &scalarOps();
#if GIST_SIMD_X86 && !defined(GIST_SIMD_SCALAR_ONLY)
const SimdOps &avx2Ops();
const SimdOps &avx512Ops();
#endif

} // namespace gist::simd
