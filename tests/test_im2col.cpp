/**
 * @file
 * im2col/col2im tests: explicit small cases, the adjoint property
 * <im2col(x), y> == <x, col2im(y)> which convolution backward relies on,
 * and col2im's accumulation order against the plain loop nest.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

TEST(Im2col, Identity1x1)
{
    ConvGeometry g;
    g.in_c = 2;
    g.in_h = 3;
    g.in_w = 3;
    g.kernel_h = 1;
    g.kernel_w = 1;
    std::vector<float> img(18);
    for (size_t i = 0; i < img.size(); ++i)
        img[i] = static_cast<float>(i);
    std::vector<float> col(static_cast<size_t>(g.colRows() * g.colCols()));
    im2col(g, img.data(), col.data());
    // 1x1 kernel: the column matrix is the image itself.
    EXPECT_EQ(col, img);
}

TEST(Im2col, PaddingReadsZero)
{
    ConvGeometry g;
    g.in_c = 1;
    g.in_h = 2;
    g.in_w = 2;
    g.kernel_h = 3;
    g.kernel_w = 3;
    g.pad_h = 1;
    g.pad_w = 1;
    EXPECT_EQ(g.outH(), 2);
    std::vector<float> img = { 1.0f, 2.0f, 3.0f, 4.0f };
    std::vector<float> col(static_cast<size_t>(g.colRows() * g.colCols()));
    im2col(g, img.data(), col.data());
    // Tap (kh=0, kw=0) of output (0,0) reads image (-1,-1): zero.
    EXPECT_EQ(col[0], 0.0f);
    // Tap (kh=1, kw=1) of output (0,0) reads image (0,0): 1.
    EXPECT_EQ(col[(1 * 3 + 1) * 4 + 0], 1.0f);
}

TEST(Im2col, StrideSelectsCorrectTaps)
{
    ConvGeometry g;
    g.in_c = 1;
    g.in_h = 4;
    g.in_w = 4;
    g.kernel_h = 2;
    g.kernel_w = 2;
    g.stride_h = 2;
    g.stride_w = 2;
    EXPECT_EQ(g.outH(), 2);
    std::vector<float> img(16);
    for (size_t i = 0; i < img.size(); ++i)
        img[i] = static_cast<float>(i);
    std::vector<float> col(static_cast<size_t>(g.colRows() * g.colCols()));
    im2col(g, img.data(), col.data());
    // Tap (0,0) of the 4 outputs: image (0,0), (0,2), (2,0), (2,2).
    EXPECT_EQ(col[0], 0.0f);
    EXPECT_EQ(col[1], 2.0f);
    EXPECT_EQ(col[2], 8.0f);
    EXPECT_EQ(col[3], 10.0f);
}

struct GeomCase
{
    std::int64_t c, h, w, kh, kw, sh, sw, ph, pw;
};

class Im2colAdjoint : public ::testing::TestWithParam<GeomCase>
{
};

TEST_P(Im2colAdjoint, DotProductIdentity)
{
    const auto p = GetParam();
    ConvGeometry g{ p.c, p.h, p.w, p.kh, p.kw, p.sh, p.sw, p.ph, p.pw };
    ASSERT_GT(g.outH(), 0);
    ASSERT_GT(g.outW(), 0);

    Rng rng(p.c * 100 + p.kh * 10 + p.ph);
    std::vector<float> x(static_cast<size_t>(p.c * p.h * p.w));
    std::vector<float> y(static_cast<size_t>(g.colRows() * g.colCols()));
    for (auto &v : x)
        v = rng.normal();
    for (auto &v : y)
        v = rng.normal();

    std::vector<float> col(y.size());
    im2col(g, x.data(), col.data());
    std::vector<float> img(x.size(), 0.0f);
    col2im(g, y.data(), img.data());

    double lhs = 0.0;
    for (size_t i = 0; i < y.size(); ++i)
        lhs += static_cast<double>(col[i]) * y[i];
    double rhs = 0.0;
    for (size_t i = 0; i < x.size(); ++i)
        rhs += static_cast<double>(x[i]) * img[i];
    EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjoint,
    ::testing::Values(GeomCase{ 1, 5, 5, 3, 3, 1, 1, 0, 0 },
                      GeomCase{ 3, 8, 8, 3, 3, 1, 1, 1, 1 },
                      GeomCase{ 2, 9, 7, 5, 3, 2, 2, 2, 1 },
                      GeomCase{ 4, 6, 6, 2, 2, 2, 2, 0, 0 },
                      GeomCase{ 1, 11, 11, 11, 11, 4, 4, 0, 0 },
                      GeomCase{ 2, 7, 7, 1, 1, 1, 1, 0, 0 },
                      GeomCase{ 1, 4, 4, 3, 3, 2, 2, 1, 1 }));

TEST(Col2im, AccumulatesOverlappingTaps)
{
    ConvGeometry g;
    g.in_c = 1;
    g.in_h = 3;
    g.in_w = 3;
    g.kernel_h = 2;
    g.kernel_w = 2;
    // stride 1: center pixel (1,1) is covered by all four 2x2 windows.
    std::vector<float> cols(
        static_cast<size_t>(g.colRows() * g.colCols()), 1.0f);
    std::vector<float> img(9, 0.0f);
    col2im(g, cols.data(), img.data());
    EXPECT_FLOAT_EQ(img[4], 4.0f); // center: 4 overlapping contributions
    EXPECT_FLOAT_EQ(img[0], 1.0f); // corner: 1 contribution
}

/** col2im as a per-element bounds test inside the full (kh, kw, oh, ow)
 *  loop nest: the accumulation order col2im() must keep. */
void
col2imReference(const ConvGeometry &g, const float *columns, float *image)
{
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();
    for (std::int64_t c = 0; c < g.in_c; ++c) {
        float *plane = image + c * g.in_h * g.in_w;
        std::int64_t row = c * g.kernel_h * g.kernel_w;
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
            for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row)
                for (std::int64_t oh = 0; oh < out_h; ++oh) {
                    const std::int64_t ih = oh * g.stride_h - g.pad_h + kh;
                    if (ih < 0 || ih >= g.in_h)
                        continue;
                    for (std::int64_t ow = 0; ow < out_w; ++ow) {
                        const std::int64_t iw =
                            ow * g.stride_w - g.pad_w + kw;
                        if (iw >= 0 && iw < g.in_w)
                            plane[ih * g.in_w + iw] +=
                                columns[row * out_h * out_w +
                                        oh * out_w + ow];
                    }
                }
    }
}

TEST(Col2im, BitwiseEqualsPerElementLoopNest)
{
    Rng rng(21);
    for (const std::int64_t k : { 1, 3, 5 })
        for (const std::int64_t stride : { 1, 2 })
            for (const std::int64_t pad : { 0, 1, 2 }) {
                ConvGeometry g;
                g.in_c = 3;
                g.in_h = 7;
                g.in_w = 9;
                g.kernel_h = k;
                g.kernel_w = k == 5 ? 3 : k; // one non-square kernel
                g.stride_h = g.stride_w = stride;
                g.pad_h = g.pad_w = pad;
                std::vector<float> cols(
                    static_cast<size_t>(g.colRows() * g.colCols()));
                for (auto &v : cols)
                    v = rng.normal();
                // Start from a nonzero image: col2im accumulates.
                std::vector<float> want(
                    static_cast<size_t>(g.in_c * g.in_h * g.in_w));
                for (auto &v : want)
                    v = rng.normal();
                std::vector<float> got = want;
                col2imReference(g, cols.data(), want.data());
                col2im(g, cols.data(), got.data());
                for (size_t i = 0; i < want.size(); ++i)
                    ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(float)),
                              0)
                        << "k " << k << " stride " << stride << " pad "
                        << pad << " element " << i;
            }
}

} // namespace
} // namespace gist
