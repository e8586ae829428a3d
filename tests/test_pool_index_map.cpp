/**
 * @file
 * Pool Y->X argmax map tests: 4-bit packing for windows up to 3x3 (the
 * paper's largest), the 8x compression claim, and the 8-bit fallback.
 */

#include <gtest/gtest.h>

#include <vector>

#include "encodings/pool_index_map.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

TEST(PoolIndexMap, BitsPerEntry)
{
    EXPECT_EQ(poolIndexBits(2, 2), 4);
    EXPECT_EQ(poolIndexBits(3, 3), 4); // paper's largest window
    EXPECT_EQ(poolIndexBits(4, 4), 4); // 16 positions still fit
    EXPECT_EQ(poolIndexBits(5, 5), 8);
}

TEST(PoolIndexMap, SizeAccounting)
{
    // 4 bits per output element: 8x smaller than FP32.
    EXPECT_EQ(poolIndexMapBytes(1000, 3, 3) * 8, 1000u * 4);
    EXPECT_EQ(poolIndexMapBytes(3, 2, 2), 2u); // packed nibbles, ceil
    EXPECT_EQ(poolIndexMapBytes(3, 5, 5), 3u); // byte fallback
}

TEST(PoolIndexMap, SetGetRoundTrip4Bit)
{
    PoolIndexMap map;
    map.configure(100, 3, 3);
    EXPECT_EQ(map.bitsPerEntry(), 4);
    Rng rng(2);
    std::vector<std::int64_t> expected(100);
    for (std::int64_t i = 0; i < 100; ++i) {
        expected[static_cast<size_t>(i)] =
            static_cast<std::int64_t>(rng.uniformInt(9));
        map.set(i, expected[static_cast<size_t>(i)]);
    }
    for (std::int64_t i = 0; i < 100; ++i)
        EXPECT_EQ(map.get(i), expected[static_cast<size_t>(i)]) << i;
}

TEST(PoolIndexMap, SetGetRoundTrip8Bit)
{
    PoolIndexMap map;
    map.configure(50, 6, 6);
    EXPECT_EQ(map.bitsPerEntry(), 8);
    for (std::int64_t i = 0; i < 50; ++i)
        map.set(i, (i * 7) % 36);
    for (std::int64_t i = 0; i < 50; ++i)
        EXPECT_EQ(map.get(i), (i * 7) % 36);
}

TEST(PoolIndexMap, AdjacentNibblesDoNotInterfere)
{
    PoolIndexMap map;
    map.configure(4, 3, 3);
    map.set(0, 8);
    map.set(1, 3);
    map.set(2, 0);
    map.set(3, 8);
    EXPECT_EQ(map.get(0), 8);
    EXPECT_EQ(map.get(1), 3);
    EXPECT_EQ(map.get(2), 0);
    EXPECT_EQ(map.get(3), 8);
    // Overwrite one nibble; its neighbor must survive.
    map.set(0, 1);
    EXPECT_EQ(map.get(0), 1);
    EXPECT_EQ(map.get(1), 3);
}

TEST(PoolIndexMap, RowsMatchSetGetAtEveryOffset)
{
    // setRow/getRow over every [i0, i0 + count) of a small map, odd
    // starts and ends included, must equal entry-wise set/get and leave
    // the entries outside the row untouched.
    Rng rng(5);
    for (const std::int64_t k : { 3, 5 }) { // 4-bit and 8-bit entries
        const std::int64_t n = 11;
        for (std::int64_t i0 = 0; i0 <= n; ++i0)
            for (std::int64_t count = 0; i0 + count <= n; ++count) {
                PoolIndexMap rows, ref;
                rows.configure(n, k, k);
                ref.configure(n, k, k);
                for (std::int64_t i = 0; i < n; ++i) {
                    const auto v = static_cast<std::int64_t>(
                        rng.uniformInt(static_cast<std::uint64_t>(k * k)));
                    rows.set(i, v);
                    ref.set(i, v);
                }
                std::vector<std::int32_t> pos(static_cast<size_t>(count));
                for (auto &p : pos)
                    p = static_cast<std::int32_t>(rng.uniformInt(
                        static_cast<std::uint64_t>(k * k)));
                rows.setRow(i0, pos.data(), count);
                for (std::int64_t c = 0; c < count; ++c)
                    ref.set(i0 + c, pos[static_cast<size_t>(c)]);
                for (std::int64_t i = 0; i < n; ++i)
                    ASSERT_EQ(rows.get(i), ref.get(i))
                        << "k " << k << " row " << i0 << "+" << count;
                std::vector<std::int32_t> back(static_cast<size_t>(count));
                rows.getRow(i0, count, back.data());
                EXPECT_EQ(back, pos);
            }
    }
}

TEST(PoolIndexMapDeath, IndexOutOfRangeAborts)
{
    PoolIndexMap map;
    map.configure(8, 2, 2);
    EXPECT_DEATH(map.set(8, 0), "pool map index out of range");
    EXPECT_DEATH(map.get(-1), "pool map index out of range");
}

TEST(PoolIndexMapDeath, WindowPositionPastWindowAborts)
{
    PoolIndexMap map;
    map.configure(8, 2, 2); // 2x2 window -> nibble entries
    EXPECT_DEATH(map.set(0, 16), "window position 16 exceeds 4 bits");
}

TEST(PoolIndexMapDeath, OversizedWindowRejected)
{
    PoolIndexMap map;
    EXPECT_DEATH(map.configure(8, 17, 17), "unsupported pool window");
}

TEST(PoolIndexMap, ClearReleases)
{
    PoolIndexMap map;
    map.configure(64, 2, 2);
    EXPECT_GT(map.bytes(), 0u);
    map.clear();
    EXPECT_EQ(map.bytes(), 0u);
    EXPECT_EQ(map.numel(), 0);
}

} // namespace
} // namespace gist
