#include "encodings/csr.hpp"

#include <cmath>
#include <cstring>

#include "memory/arena.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "simd/sf_codes.hpp"
#include "util/bits.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace gist {

namespace {

/** Dispatch-table slot for a packed value format (invalid for Fp32). */
int
sfIndexFor(DprFormat fmt)
{
    switch (fmt) {
      case DprFormat::Fp16: return simd::kSfFp16;
      case DprFormat::Fp10: return simd::kSfFp10;
      case DprFormat::Fp8: return simd::kSfFp8;
      case DprFormat::Fp32: break;
    }
    GIST_PANIC("Fp32 has no packed codec");
}

void
checkConfig(const CsrConfig &cfg)
{
    GIST_ASSERT(cfg.row_width > 0, "row width must be positive");
    GIST_ASSERT(cfg.index_bytes == 1 || cfg.index_bytes == 2 ||
                    cfg.index_bytes == 4,
                "index bytes must be 1, 2 or 4");
    const std::int64_t max_width = std::int64_t{1}
                                   << (8 * cfg.index_bytes);
    GIST_ASSERT(cfg.row_width <= max_width, "row width ", cfg.row_width,
                " does not fit in ", cfg.index_bytes, "-byte indices");
}

std::uint64_t
csrBytes(const CsrConfig &cfg, std::int64_t numel, std::int64_t nnz)
{
    const std::uint64_t rows = ceilDiv<std::uint64_t>(
        static_cast<std::uint64_t>(numel),
        static_cast<std::uint64_t>(cfg.row_width));
    const std::uint64_t value_bytes =
        (cfg.value_format == DprFormat::Fp32)
            ? static_cast<std::uint64_t>(nnz) * 4
            : dprEncodedBytes(cfg.value_format, nnz);
    return value_bytes +
           static_cast<std::uint64_t>(nnz) *
               static_cast<std::uint64_t>(cfg.index_bytes) +
           (rows + 1) * 4;
}

/** Column of the @p k-th stored entry: @p index_bytes bytes, LE. */
inline std::uint32_t
colAt(const std::uint8_t *col_idx, int index_bytes, std::int64_t k)
{
    std::uint32_t col = 0;
    for (int b = 0; b < index_bytes; ++b)
        col |= static_cast<std::uint32_t>(
                   col_idx[static_cast<size_t>(k) *
                               static_cast<size_t>(index_bytes) +
                           static_cast<size_t>(b)])
               << (8 * b);
    return col;
}

} // namespace

std::uint64_t
csrBytesForSparsity(const CsrConfig &cfg, std::int64_t numel,
                    double sparsity)
{
    checkConfig(cfg);
    GIST_ASSERT(sparsity >= 0.0 && sparsity <= 1.0, "sparsity ", sparsity,
                " out of [0,1]");
    const auto nnz = static_cast<std::int64_t>(
        std::llround(static_cast<double>(numel) * (1.0 - sparsity)));
    return csrBytes(cfg, numel, nnz);
}

double
csrBreakEvenSparsity(const CsrConfig &cfg)
{
    // Dense cost is 4 bytes/element; CSR costs (value + index) bytes per
    // nonzero (row pointers amortize to ~0 for wide rows). Equal when
    // (1 - sparsity) * (value_bytes + index_bytes) == 4.
    const double value_bytes =
        (cfg.value_format == DprFormat::Fp32)
            ? 4.0
            : dprBitsPerValue(cfg.value_format) / 8.0;
    return 1.0 - 4.0 / (value_bytes + cfg.index_bytes);
}

void
CsrBuffer::encode(std::span<const float> values)
{
    GIST_TRACE_SCOPE("codec", "csr encode");
    checkConfig(config);
    numel_ = static_cast<std::int64_t>(values.size());
    const std::int64_t rows = ceilDiv<std::int64_t>(numel_,
                                                    config.row_width);
    row_ptr.resize(static_cast<size_t>(rows + 1));
    row_ptr[0] = 0;
    values_f32.clear();
    values_dpr.reset();

    // Pass 1 (parallel): per-row nnz counts into row_ptr[r + 1], one
    // SIMD compare+popcount sweep per row.
    const auto count_kernel = simd::ops().countNonzero;
    const std::int64_t row_grain = chooseGrain(rows, 16);
    parallelFor(0, rows, row_grain, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const std::int64_t begin = r * config.row_width;
            const std::int64_t end =
                std::min(numel_, begin + config.row_width);
            row_ptr[static_cast<size_t>(r + 1)] =
                static_cast<std::uint32_t>(
                    count_kernel(values.data() + begin, end - begin));
        }
    });

    // Serial prefix sum turns the counts into row offsets.
    for (std::int64_t r = 0; r < rows; ++r)
        row_ptr[static_cast<size_t>(r + 1)] +=
            row_ptr[static_cast<size_t>(r)];
    nnz_ = row_ptr[static_cast<size_t>(rows)];

    // Pass 2 (parallel): every row fills its own [row_ptr[r],
    // row_ptr[r+1]) slice of the index/value arrays — disjoint by
    // construction, and identical to the serial fill order. Narrow
    // (1-byte-index) rows dispatch the compress-store kernel; its
    // vector stores may scribble up to 7 elements past a row's slice,
    // which is safe only while the scribble stays inside this chunk's
    // own range (later rows of the chunk overwrite it), so rows near
    // the chunk's end take the kernel's exact-store path (pad_ok off).
    col_idx.resize(static_cast<size_t>(nnz_) *
                   static_cast<size_t>(config.index_bytes));
    const bool narrow =
        config.index_bytes == 1 && config.row_width <= 256;
    const auto fill_kernel = simd::ops().csrFill;
    ArenaScope scope;

    // Scalar reference fill for non-narrow layouts (multi-byte column
    // indices; row widths beyond the kernel's 256 contract).
    auto fill_wide = [&](std::int64_t r0, std::int64_t r1, float *nz) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const std::int64_t begin = r * config.row_width;
            const std::int64_t end =
                std::min(numel_, begin + config.row_width);
            size_t k = row_ptr[static_cast<size_t>(r)];
            for (std::int64_t i = begin; i < end; ++i) {
                const float v = values[static_cast<size_t>(i)];
                if (v == 0.0f)
                    continue;
                const auto col = static_cast<std::uint32_t>(i - begin);
                for (int b = 0; b < config.index_bytes; ++b)
                    col_idx[k * static_cast<size_t>(config.index_bytes) +
                            static_cast<size_t>(b)] =
                        static_cast<std::uint8_t>(col >> (8 * b));
                nz[k] = v;
                ++k;
            }
        }
    };

    if (config.value_format == DprFormat::Fp32) {
        values_f32.resize(static_cast<size_t>(nnz_));
        float *nz = values_f32.data();
        parallelFor(0, rows, row_grain,
                    [&](std::int64_t r0, std::int64_t r1) {
            if (!narrow) {
                fill_wide(r0, r1, nz);
                return;
            }
            const std::uint32_t chunk_end =
                row_ptr[static_cast<size_t>(r1)];
            for (std::int64_t r = r0; r < r1; ++r) {
                const std::int64_t begin = r * config.row_width;
                const std::int64_t end =
                    std::min(numel_, begin + config.row_width);
                const std::uint32_t k = row_ptr[static_cast<size_t>(r)];
                const bool pad_ok =
                    row_ptr[static_cast<size_t>(r + 1)] + 7 <= chunk_end;
                fill_kernel(values.data() + begin, end - begin,
                            col_idx.data() + k, nz + k, pad_ok);
            }
        });
        return;
    }

    if (narrow) {
        // Fused CSR-of-DPR fill: compact each row's nonzeros into a
        // stack staging buffer and convert them to small-float codes in
        // the same pass; one word-packing sweep finishes the encode. No
        // dense nnz-sized FP32 staging buffer is ever written.
        auto *codes =
            scope.alloc<std::uint32_t>(static_cast<size_t>(nnz_));
        const auto encode_codes =
            simd::ops().sfEncodeCodes[sfIndexFor(config.value_format)];
        parallelFor(0, rows, row_grain,
                    [&](std::int64_t r0, std::int64_t r1) {
            alignas(32) float staged[256 + 8];
            const std::uint32_t chunk_end =
                row_ptr[static_cast<size_t>(r1)];
            for (std::int64_t r = r0; r < r1; ++r) {
                const std::int64_t begin = r * config.row_width;
                const std::int64_t end =
                    std::min(numel_, begin + config.row_width);
                const std::uint32_t k = row_ptr[static_cast<size_t>(r)];
                const bool pad_ok =
                    row_ptr[static_cast<size_t>(r + 1)] + 7 <= chunk_end;
                const std::int64_t cnt =
                    fill_kernel(values.data() + begin, end - begin,
                                col_idx.data() + k, staged, pad_ok);
                encode_codes(staged, cnt, codes + k);
            }
        });
        values_dpr.encodeFromCodes(config.value_format, codes, nnz_);
        return;
    }

    float *nz = scope.alloc<float>(static_cast<size_t>(nnz_));
    parallelFor(0, rows, row_grain,
                [&](std::int64_t r0, std::int64_t r1) {
        fill_wide(r0, r1, nz);
    });
    values_dpr.encode(config.value_format,
                      { nz, static_cast<size_t>(nnz_) });
}

void
CsrBuffer::decode(std::span<float> out) const
{
    GIST_TRACE_SCOPE("codec", "csr decode");
    GIST_ASSERT(static_cast<std::int64_t>(out.size()) == numel_,
                "decode target has ", out.size(), " elements, encoded ",
                numel_);

    ArenaScope scope;
    const float *vals = nullptr;
    if (config.value_format == DprFormat::Fp32) {
        vals = values_f32.data();
    } else {
        float *nz = scope.alloc<float>(static_cast<size_t>(nnz_));
        values_dpr.decode({ nz, static_cast<size_t>(nnz_) });
        vals = nz;
    }

    // Parallel over rows: row r owns the output slice
    // [r * row_width, (r + 1) * row_width), so each chunk zero-fills and
    // scatters into a disjoint range.
    const std::int64_t rows =
        static_cast<std::int64_t>(row_ptr.size()) - 1;
    parallelFor(0, rows, chooseGrain(rows, 16),
                [&, vals](std::int64_t r0, std::int64_t r1) {
        const std::int64_t lo = r0 * config.row_width;
        const std::int64_t hi = std::min(numel_, r1 * config.row_width);
        std::memset(out.data() + lo, 0,
                    static_cast<size_t>(hi - lo) * sizeof(float));
        for (std::int64_t r = r0; r < r1; ++r) {
            const std::uint32_t begin = row_ptr[static_cast<size_t>(r)];
            const std::uint32_t end = row_ptr[static_cast<size_t>(r + 1)];
            for (std::uint32_t k = begin; k < end; ++k)
                out[static_cast<size_t>(
                    r * config.row_width +
                    colAt(col_idx.data(), config.index_bytes, k))] =
                    vals[k];
        }
    });
}

void
CsrBuffer::decodeRange(std::int64_t offset, std::span<float> out) const
{
    const auto len = static_cast<std::int64_t>(out.size());
    GIST_ASSERT(offset >= 0 && offset + len <= numel_, "decode range [",
                offset, ", ", offset + len, ") exceeds ", numel_,
                " encoded values");
    std::memset(out.data(), 0, out.size() * sizeof(float));
    if (len == 0)
        return;

    // Row by row: the values of a row's stored entries come out in one
    // batch (one DPR run decode for packed values), then scatter.
    const bool f32 = config.value_format == DprFormat::Fp32;
    ArenaScope scope;
    float *vals = f32 ? nullptr
                      : scope.alloc<float>(
                            static_cast<size_t>(config.row_width));
    const std::int64_t first_row = offset / config.row_width;
    const std::int64_t last_row = (offset + len - 1) / config.row_width;
    for (std::int64_t r = first_row; r <= last_row; ++r) {
        const auto k0 =
            static_cast<std::int64_t>(row_ptr[static_cast<size_t>(r)]);
        const auto k1 =
            static_cast<std::int64_t>(row_ptr[static_cast<size_t>(r + 1)]);
        if (k0 == k1)
            continue;
        const float *row_vals = vals;
        if (f32)
            row_vals = values_f32.data() + k0;
        else
            values_dpr.decodeRange(
                k0, { vals, static_cast<size_t>(k1 - k0) });
        // out index of column 0 of row r (negative for a first row that
        // starts before the range).
        const std::int64_t base = r * config.row_width - offset;
        for (std::int64_t k = k0; k < k1; ++k) {
            const std::int64_t at =
                base + colAt(col_idx.data(), config.index_bytes, k);
            if (static_cast<std::uint64_t>(at) <
                static_cast<std::uint64_t>(len))
                out[static_cast<size_t>(at)] = row_vals[k - k0];
        }
    }
}

std::uint64_t
CsrBuffer::bytes() const
{
    return csrBytes(config, numel_, nnz_);
}

double
CsrBuffer::compressionRatio() const
{
    if (numel_ == 0)
        return 1.0;
    return static_cast<double>(numel_) * 4.0 /
           static_cast<double>(bytes());
}

void
CsrBuffer::setConfig(const CsrConfig &cfg)
{
    checkConfig(cfg);
    config = cfg;
    reset();
}

void
CsrBuffer::reset()
{
    row_ptr.clear(); // capacities retained for the next encode
    col_idx.clear();
    values_f32.clear();
    values_dpr.reset();
    numel_ = 0;
    nnz_ = 0;
}

namespace {

/** Tier-blob header for CsrBuffer (host-order; process-local blobs). */
struct CsrBlobHeader
{
    std::int64_t numel;
    std::int64_t nnz;
    std::int64_t row_width;
    std::uint32_t index_bytes;
    std::uint32_t value_format;
    std::uint64_t row_ptr_count;
    std::uint64_t col_idx_count;
    std::uint64_t values_f32_count;
    std::uint64_t values_dpr_bytes;
};

} // namespace

std::uint64_t
CsrBuffer::serializedBytes() const
{
    return sizeof(CsrBlobHeader) + row_ptr.size() * 4 + col_idx.size() +
           values_f32.size() * 4 + values_dpr.serializedBytes();
}

void
CsrBuffer::serialize(std::uint8_t *dst) const
{
    CsrBlobHeader h;
    h.numel = numel_;
    h.nnz = nnz_;
    h.row_width = config.row_width;
    h.index_bytes = static_cast<std::uint32_t>(config.index_bytes);
    h.value_format = static_cast<std::uint32_t>(config.value_format);
    h.row_ptr_count = row_ptr.size();
    h.col_idx_count = col_idx.size();
    h.values_f32_count = values_f32.size();
    h.values_dpr_bytes = values_dpr.serializedBytes();
    std::memcpy(dst, &h, sizeof(h));
    std::uint8_t *p = dst + sizeof(h);
    if (!row_ptr.empty()) {
        std::memcpy(p, row_ptr.data(), row_ptr.size() * 4);
        p += row_ptr.size() * 4;
    }
    if (!col_idx.empty()) {
        std::memcpy(p, col_idx.data(), col_idx.size());
        p += col_idx.size();
    }
    if (!values_f32.empty()) {
        std::memcpy(p, values_f32.data(), values_f32.size() * 4);
        p += values_f32.size() * 4;
    }
    values_dpr.serialize(p);
}

void
CsrBuffer::deserialize(const std::uint8_t *src, std::uint64_t bytes)
{
    GIST_ASSERT(bytes >= sizeof(CsrBlobHeader), "CSR tier blob truncated: ",
                bytes, " bytes");
    CsrBlobHeader h;
    std::memcpy(&h, src, sizeof(h));
    const std::uint64_t want = sizeof(h) + h.row_ptr_count * 4 +
                               h.col_idx_count + h.values_f32_count * 4 +
                               h.values_dpr_bytes;
    GIST_ASSERT(bytes == want, "CSR tier blob size mismatch: ", bytes,
                " bytes, header implies ", want);
    config.row_width = h.row_width;
    config.index_bytes = static_cast<int>(h.index_bytes);
    config.value_format = static_cast<DprFormat>(h.value_format);
    numel_ = h.numel;
    nnz_ = h.nnz;
    const std::uint8_t *p = src + sizeof(h);
    row_ptr.resize(h.row_ptr_count);
    if (h.row_ptr_count > 0) {
        std::memcpy(row_ptr.data(), p, h.row_ptr_count * 4);
        p += h.row_ptr_count * 4;
    }
    col_idx.resize(h.col_idx_count);
    if (h.col_idx_count > 0) {
        std::memcpy(col_idx.data(), p, h.col_idx_count);
        p += h.col_idx_count;
    }
    values_f32.resize(h.values_f32_count);
    if (h.values_f32_count > 0) {
        std::memcpy(values_f32.data(), p, h.values_f32_count * 4);
        p += h.values_f32_count * 4;
    }
    values_dpr.deserialize(p, h.values_dpr_bytes);
}

void
CsrBuffer::clear()
{
    row_ptr.clear();
    row_ptr.shrink_to_fit();
    col_idx.clear();
    col_idx.shrink_to_fit();
    values_f32.clear();
    values_f32.shrink_to_fit();
    values_dpr.clear();
    numel_ = 0;
    nnz_ = 0;
}

} // namespace gist
