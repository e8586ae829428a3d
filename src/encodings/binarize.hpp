/**
 * @file
 * Binarize encoding (lossless, ReLU->Pool): ReLU's backward pass needs
 * only the *sign* of its stashed output (dX = dY where Y > 0), so the
 * 32-bit feature map can be stored as 1 bit per value — a 32x compression
 * for the ReLU output (Section IV-A).
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gist {

/** Bytes needed to binarize @p numel values. */
std::uint64_t binarizeBytes(std::int64_t numel);

/** A 1-bit-per-value positivity mask over a feature map. */
class BinarizedMask
{
  public:
    BinarizedMask() = default;

    /** Record (value > 0) for each element of @p values. */
    void encode(std::span<const float> values);

    /** Allocate an all-zero mask of @p numel bits. */
    void resize(std::int64_t numel);

    /** Set bit @p i (mask must have been resize()d). */
    void set(std::int64_t i, bool value);

    /** True if element @p i was positive. */
    bool positive(std::int64_t i) const;

    /**
     * ReLU backward directly on the encoded data, accumulating:
     * dx += positive ? dy : +0.0f (the layer's gradient accumulate).
     */
    void reluBackward(std::span<const float> dy, std::span<float> dx) const;

    std::int64_t numel() const { return numel_; }
    std::uint64_t bytes() const { return bits.size(); }
    std::span<const std::uint8_t> raw() const { return { bits.data(),
                                                         bits.size() }; }

    /** Drop the storage. */
    void clear();

    /** Forget contents, keep capacity (stash reuse across steps). */
    void reset();

  private:
    std::int64_t numel_ = 0;
    std::vector<std::uint8_t> bits;
};

} // namespace gist
