/**
 * @file
 * Sparse Storage and Dense Compute (SSDC): stash ReLU/Pool outputs headed
 * into a convolution in CSR form, and decode back to dense FP32 right
 * before the conv backward pass runs (Section IV-A).
 *
 * Narrow Value Optimization: the flattened feature map is logically
 * reshaped to a matrix with at most 256 columns so every column index fits
 * in one byte. That drops the per-nonzero overhead from 8 bytes (4-byte
 * cuSPARSE index + 4-byte value) to 5 bytes, moving the break-even
 * sparsity for compression from 50% down to 20%.
 *
 * The CSR values array may additionally be stored with DPR (the paper
 * applies DPR over SSDC); the index arrays are never lossy-compressed
 * because they affect control.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "encodings/dpr.hpp"

namespace gist {

/** CSR layout parameters. */
struct CsrConfig
{
    /** Logical row width after the narrow-value reshape. */
    std::int64_t row_width = 256;
    /** Bytes per column index (1 = narrow optimization, 4 = cuSPARSE). */
    int index_bytes = 1;
    /** Optional lossy compression of the values array. */
    DprFormat value_format = DprFormat::Fp32;
};

/**
 * Analytic encoded size in bytes for @p numel values at @p sparsity
 * (fraction of zeros), used by the memory planner.
 */
std::uint64_t csrBytesForSparsity(const CsrConfig &cfg, std::int64_t numel,
                                  double sparsity);

/** Sparsity above which CSR is smaller than dense FP32 (the break-even). */
double csrBreakEvenSparsity(const CsrConfig &cfg);

/**
 * Zero-copy read view of a CsrBuffer for fused consumers (gemmCsrA,
 * the sparse conv dW route): they walk row_ptr/col_idx directly instead
 * of paying a decode-to-dense round trip. Valid only while the owning buffer holds
 * its encoded contents.
 */
struct CsrConstView
{
    const std::uint32_t *row_ptr = nullptr; ///< rows + 1 offsets
    const std::uint8_t *col_idx = nullptr;  ///< index_bytes each, LE
    const float *values_f32 = nullptr;      ///< null when DPR-packed
    const DprBuffer *values_dpr = nullptr;  ///< null when FP32 values
    std::int64_t rows = 0;
    std::int64_t row_width = 0;
    int index_bytes = 1;
    std::int64_t numel = 0;
    std::int64_t nnz = 0;
};

/** Column of the @p k-th nonzero (its in-row index). */
inline std::uint32_t
csrColAt(const CsrConstView &v, std::int64_t k)
{
    std::uint32_t col = 0;
    for (int b = 0; b < v.index_bytes; ++b)
        col |= static_cast<std::uint32_t>(
                   v.col_idx[static_cast<size_t>(k) *
                                 static_cast<size_t>(v.index_bytes) +
                             static_cast<size_t>(b)])
               << (8 * b);
    return col;
}

/** Decode the nonzero-value slice [k0, k1) of @p v into @p out. */
void csrValues(const CsrConstView &v, std::int64_t k0, std::int64_t k1,
               float *out);

/** A CSR-encoded (flattened) feature map. */
class CsrBuffer
{
  public:
    CsrBuffer() = default;
    explicit CsrBuffer(CsrConfig cfg) : config(cfg) {}

    /** Encode @p values (replaces previous contents). */
    void encode(std::span<const float> values);

    /** Decode into @p out (must have numel() elements). */
    void decode(std::span<float> out) const;

    /**
     * Decode the value range [offset, offset + out.size()) — tile-wise
     * decode for "optimized software" consumers (paper Section V-H).
     * The range may start/end mid-row.
     */
    void decodeRange(std::int64_t offset, std::span<float> out) const;

    std::int64_t numel() const { return numel_; }
    std::int64_t nnz() const { return nnz_; }

    /** Encoded footprint: values + column indices + row pointers. */
    std::uint64_t bytes() const;

    /** Dense FP32 bytes / encoded bytes. */
    double compressionRatio() const;

    const CsrConfig &cfg() const { return config; }

    /** Read view for fused (decode-free) consumers. */
    CsrConstView view() const;

    /**
     * Swap in a new layout while keeping the allocated storage, so the
     * executor can retarget a stash buffer every step without the
     * construct-and-destroy churn of a fresh CsrBuffer. Forgets any
     * encoded contents.
     */
    void setConfig(const CsrConfig &cfg);

    /**
     * Byte-exact blob round trip for the slow-tier swap path: restores
     * the config, shape and all three arrays (values nested through
     * DprBuffer::serialize when DPR-packed) bit-for-bit.
     */
    std::uint64_t serializedBytes() const;
    /** Write serializedBytes() bytes of blob into @p dst. */
    void serialize(std::uint8_t *dst) const;
    /** Restore from a serialize()d blob (replaces any contents). */
    void deserialize(const std::uint8_t *src, std::uint64_t bytes);

    /** Drop the storage. */
    void clear();

    /** Forget contents, keep capacity (stash reuse across steps). */
    void reset();

  private:
    CsrConfig config;
    std::int64_t numel_ = 0;
    std::int64_t nnz_ = 0;
    std::vector<std::uint32_t> row_ptr;
    std::vector<std::uint8_t> col_idx; ///< index_bytes per entry, packed LE
    std::vector<float> values_f32;     ///< used when value_format == Fp32
    DprBuffer values_dpr;              ///< used otherwise
};

} // namespace gist
