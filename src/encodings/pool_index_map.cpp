#include "encodings/pool_index_map.hpp"

#include "util/bits.hpp"
#include "util/logging.hpp"

namespace gist {

int
poolIndexBits(std::int64_t kernel_h, std::int64_t kernel_w)
{
    const std::int64_t window = kernel_h * kernel_w;
    GIST_ASSERT(window >= 1 && window <= 256, "unsupported pool window ",
                kernel_h, "x", kernel_w);
    return window <= 16 ? 4 : 8;
}

std::uint64_t
poolIndexMapBytes(std::int64_t numel, std::int64_t kernel_h,
                  std::int64_t kernel_w)
{
    const auto bits = static_cast<std::uint64_t>(
        poolIndexBits(kernel_h, kernel_w));
    return bytesForBits(static_cast<std::uint64_t>(numel) * bits);
}

void
PoolIndexMap::configure(std::int64_t numel, std::int64_t kernel_h,
                        std::int64_t kernel_w)
{
    numel_ = numel;
    bits_per_entry = poolIndexBits(kernel_h, kernel_w);
    packed.assign(
        static_cast<size_t>(poolIndexMapBytes(numel, kernel_h, kernel_w)),
        0);
}

void
PoolIndexMap::set(std::int64_t i, std::int64_t pos)
{
    GIST_ASSERT(i >= 0 && i < numel_, "pool map index out of range");
    GIST_ASSERT(pos >= 0 && pos < (1 << bits_per_entry),
                "window position ", pos, " exceeds ", bits_per_entry,
                " bits");
    if (bits_per_entry == 8) {
        packed[static_cast<size_t>(i)] = static_cast<std::uint8_t>(pos);
        return;
    }
    const auto idx = static_cast<size_t>(i >> 1);
    if (i & 1) {
        packed[idx] = static_cast<std::uint8_t>(
            (packed[idx] & 0x0f) | (static_cast<unsigned>(pos) << 4));
    } else {
        packed[idx] = static_cast<std::uint8_t>(
            (packed[idx] & 0xf0) | static_cast<unsigned>(pos));
    }
}

std::int64_t
PoolIndexMap::get(std::int64_t i) const
{
    GIST_ASSERT(i >= 0 && i < numel_, "pool map index out of range");
    if (bits_per_entry == 8)
        return packed[static_cast<size_t>(i)];
    const std::uint8_t byte = packed[static_cast<size_t>(i >> 1)];
    return (i & 1) ? (byte >> 4) : (byte & 0x0f);
}

void
PoolIndexMap::setRow(std::int64_t i0, const std::int32_t *pos,
                     std::int64_t count)
{
    GIST_ASSERT(i0 >= 0 && count >= 0 && i0 + count <= numel_,
                "pool map row out of range");
    std::uint32_t any = 0; // OR of every position: one range check
    for (std::int64_t k = 0; k < count; ++k)
        any |= static_cast<std::uint32_t>(pos[k]);
    GIST_ASSERT(any >> bits_per_entry == 0, "window position exceeds ",
                bits_per_entry, " bits");
    if (bits_per_entry == 8) {
        std::uint8_t *out = packed.data() + i0;
        for (std::int64_t k = 0; k < count; ++k)
            out[k] = static_cast<std::uint8_t>(pos[k]);
        return;
    }
    std::int64_t k = 0;
    if (count > 0 && (i0 & 1)) { // high nibble of a shared byte
        set(i0, pos[0]);
        k = 1;
    }
    std::uint8_t *out = packed.data() + ((i0 + k) >> 1);
    for (; k + 2 <= count; k += 2)
        *out++ = static_cast<std::uint8_t>(pos[k] | (pos[k + 1] << 4));
    if (k < count) // low nibble of a shared byte
        set(i0 + k, pos[k]);
}

void
PoolIndexMap::getRow(std::int64_t i0, std::int64_t count,
                     std::int32_t *pos) const
{
    GIST_ASSERT(i0 >= 0 && count >= 0 && i0 + count <= numel_,
                "pool map row out of range");
    if (bits_per_entry == 8) {
        const std::uint8_t *in = packed.data() + i0;
        for (std::int64_t k = 0; k < count; ++k)
            pos[k] = in[k];
        return;
    }
    std::int64_t k = 0;
    if (count > 0 && (i0 & 1))
        pos[k++] = get(i0);
    const std::uint8_t *in = packed.data() + ((i0 + k) >> 1);
    for (; k + 2 <= count; k += 2, ++in) {
        pos[k] = *in & 0x0f;
        pos[k + 1] = *in >> 4;
    }
    if (k < count)
        pos[k] = get(i0 + k);
}

void
PoolIndexMap::clear()
{
    packed.clear();
    packed.shrink_to_fit();
    numel_ = 0;
}

} // namespace gist
