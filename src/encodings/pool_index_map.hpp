/**
 * @file
 * The MaxPool Y->X argmax map (Section IV-A, Binarize): instead of
 * stashing the pool layer's full input and output feature maps, record,
 * for each pool *output* element, which position inside the sliding
 * window held the maximum. The paper stores this in 4 bits per output
 * element (largest window in its suite is 3x3 = 9 positions); we fall
 * back to 8 bits for windows larger than 16 taps.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gist {

/** Bits per entry for a kh x kw window (4, or 8 for huge windows). */
int poolIndexBits(std::int64_t kernel_h, std::int64_t kernel_w);

/** Encoded size in bytes for @p numel pool outputs. */
std::uint64_t poolIndexMapBytes(std::int64_t numel, std::int64_t kernel_h,
                                std::int64_t kernel_w);

/** Packed per-output argmax window positions. */
class PoolIndexMap
{
  public:
    PoolIndexMap() = default;

    /** Size for @p numel outputs of a kh x kw window. */
    void configure(std::int64_t numel, std::int64_t kernel_h,
                   std::int64_t kernel_w);

    /** Record that output @p i took its max from window position @p pos. */
    void set(std::int64_t i, std::int64_t pos);

    /** Window position (row-major kh*kw index) for output @p i. */
    std::int64_t get(std::int64_t i) const;

    /**
     * set() for outputs i0 .. i0 + count from @p pos, two 4-bit entries
     * per byte store. Only the bytes holding those entries are touched,
     * so callers on different threads must split at byte boundaries.
     */
    void setRow(std::int64_t i0, const std::int32_t *pos,
                std::int64_t count);

    /** get() for outputs i0 .. i0 + count into @p pos. */
    void getRow(std::int64_t i0, std::int64_t count,
                std::int32_t *pos) const;

    std::int64_t numel() const { return numel_; }
    int bitsPerEntry() const { return bits_per_entry; }
    std::uint64_t bytes() const { return packed.size(); }
    std::span<const std::uint8_t> raw() const { return { packed.data(),
                                                         packed.size() }; }

    /** Drop the storage. */
    void clear();

  private:
    std::int64_t numel_ = 0;
    int bits_per_entry = 4;
    std::vector<std::uint8_t> packed;
};

} // namespace gist
