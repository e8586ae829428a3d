/**
 * @file
 * Delayed Precision Reduction (DPR): pack an FP32 buffer into 4-byte words
 * holding 2 x FP16, 3 x FP10 (2 bits unused), or 4 x FP8 values — the
 * paper's packed storage layout. Encoding happens after the last forward
 * use of a stashed feature map; decoding happens right before its backward
 * use, so the forward pass always computes on full-precision values.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "encodings/small_float.hpp"

namespace gist {

/** DPR storage width choices evaluated in the paper. */
enum class DprFormat { Fp32, Fp16, Fp10, Fp8 };

/** Values packed into each 4-byte word (1 for Fp32 passthrough). */
int dprValuesPerWord(DprFormat fmt);

/** Bits per stored value (32, 16, 10, 8). */
int dprBitsPerValue(DprFormat fmt);

/** The underlying small-float layout; invalid for Fp32. */
const SmallFloatFormat &dprSmallFloat(DprFormat fmt);

/** Human-readable name ("FP16" ...). */
const char *dprFormatName(DprFormat fmt);

/** Encoded size in bytes for @p numel values. */
std::uint64_t dprEncodedBytes(DprFormat fmt, std::int64_t numel);

/** A DPR-encoded buffer. */
class DprBuffer
{
  public:
    DprBuffer() = default;

    /** Encode @p values; replaces any previous contents. */
    void encode(DprFormat fmt, std::span<const float> values);

    /**
     * Encode from pre-converted small-float codes (one code per uint32),
     * so callers that already ran the convert stage — the fused
     * CSR-of-DPR fill quantizes during nonzero compaction — only pay the
     * word packing here. Bitwise-identical to encode() on the values the
     * codes came from. Invalid for Fp32.
     */
    void encodeFromCodes(DprFormat fmt, const std::uint32_t *codes,
                         std::int64_t n);

    /** Decode all values into @p out (out.size() must equal numel()). */
    void decode(std::span<float> out) const;

    /**
     * Decode the value range [offset, offset + out.size()) — the
     * building block of "optimized software" (paper Section V-H):
     * consumers decode just the tile they are about to compute on
     * instead of materializing the full FP32 buffer.
     */
    void decodeRange(std::int64_t offset, std::span<float> out) const;

    std::int64_t numel() const { return numel_; }
    DprFormat format() const { return format_; }
    std::uint64_t bytes() const { return words.size() * 4; }

    /**
     * Byte-exact blob round trip for the slow-tier swap path: the blob
     * restores format, numel and the packed words bit-for-bit, so a
     * decode after deserialize() equals a decode of the original.
     */
    std::uint64_t serializedBytes() const;
    /** Write serializedBytes() bytes of blob into @p dst. */
    void serialize(std::uint8_t *dst) const;
    /** Restore from a serialize()d blob (replaces any contents). */
    void deserialize(const std::uint8_t *src, std::uint64_t bytes);

    /** Drop the storage and return its memory to the heap. */
    void clear();

    /**
     * Forget the contents but keep the capacity, so re-encoding a
     * same-sized tensor next step allocates nothing. Stash buffers that
     * live across minibatches reset(); buffers being retired for good
     * clear().
     */
    void reset();

  private:
    DprFormat format_ = DprFormat::Fp32;
    std::int64_t numel_ = 0;
    std::vector<std::uint32_t> words;
};

/** Quantize in place: x <- decode(encode(x)). Used by the All-FP16 arm. */
void dprQuantizeInPlace(DprFormat fmt, std::span<float> values);

} // namespace gist
