/**
 * @file
 * Bitwise pins for the vectorized memory-bound layers: max pool (both
 * stash modes), ReLU backward (both stash modes) and batch norm. Each
 * layer is compared against a verbatim copy of the scalar loop it
 * replaced, on every available SIMD backend and at 1 and 4 threads:
 * Y, every index-map byte, dX, and BN's running stats, d_gamma, d_beta
 * and dX must match bit for bit. Inputs carry ties, -inf, NaN and
 * signed zeros; gradients carry -0.0 so an add-vs-store slip shows.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "encodings/binarize.hpp"
#include "encodings/pool_index_map.hpp"
#include "layers/batchnorm.hpp"
#include "layers/pool.hpp"
#include "layers/relu.hpp"
#include "simd/dispatch.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * 4) == 0;
}

/** Mostly small integers (many ties), some -inf, NaN and signed zeros. */
Tensor
spikyTensor(const Shape &shape, Rng &rng)
{
    Tensor t(shape);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        const double u = rng.uniform();
        float v = static_cast<float>(rng.uniformInt(5)) - 2.0f;
        if (u < 0.06)
            v = -kInf;
        else if (u < 0.10)
            v = kNaN;
        else if (u < 0.16)
            v = -0.0f;
        t.at(i) = v;
    }
    return t;
}

/** Gradients: normals with -0.0 and +0.0 mixed in. */
Tensor
gradTensor(const Shape &shape, Rng &rng)
{
    Tensor t(shape);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        const double u = rng.uniform();
        t.at(i) = u < 0.15 ? -0.0f : u < 0.2 ? 0.0f : rng.normal();
    }
    return t;
}

ConvGeometry
poolGeom(const PoolSpec &spec, const Shape &in)
{
    ConvGeometry g;
    g.in_c = in.c();
    g.in_h = in.h();
    g.in_w = in.w();
    g.kernel_h = spec.kernel_h;
    g.kernel_w = spec.kernel_w;
    g.stride_h = spec.stride_h;
    g.stride_w = spec.stride_w;
    g.pad_h = spec.pad_h;
    g.pad_w = spec.pad_w;
    return g;
}

// ---- verbatim copies of the scalar loops the layers replaced ----------

/**
 * MaxPoolLayer::forward before vectorization. One change: a window with
 * nothing above -inf records its first in-bounds tap instead of 0 (0
 * can be a padded tap, and the IndexMap backward then wrote out of
 * bounds); that is also the tap Dense mode's scan finds there.
 */
void
refMaxPoolForward(const PoolSpec &spec_, const Tensor &x, Tensor &y,
                  PoolIndexMap *index_map)
{
    const ConvGeometry g = poolGeom(spec_, x.shape());
    const std::int64_t batch = x.shape().n();
    const std::int64_t channels = x.shape().c();
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();
    const bool record = index_map != nullptr;
    if (record)
        index_map->configure(batch * channels * out_h * out_w,
                             spec_.kernel_h, spec_.kernel_w);

    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t c = 0; c < channels; ++c) {
            const float *plane =
                x.data() + (n * channels + c) * g.in_h * g.in_w;
            for (std::int64_t oh = 0; oh < out_h; ++oh) {
                for (std::int64_t ow = 0; ow < out_w; ++ow, ++out_idx) {
                    float best = -std::numeric_limits<float>::infinity();
                    std::int64_t best_pos = -1;
                    std::int64_t first_pos = -1;
                    for (std::int64_t kh = 0; kh < spec_.kernel_h; ++kh) {
                        const std::int64_t ih =
                            oh * g.stride_h - g.pad_h + kh;
                        if (ih < 0 || ih >= g.in_h)
                            continue;
                        for (std::int64_t kw = 0; kw < spec_.kernel_w;
                             ++kw) {
                            const std::int64_t iw =
                                ow * g.stride_w - g.pad_w + kw;
                            if (iw < 0 || iw >= g.in_w)
                                continue;
                            if (first_pos < 0)
                                first_pos = kh * spec_.kernel_w + kw;
                            const float v = plane[ih * g.in_w + iw];
                            if (v > best) {
                                best = v;
                                best_pos = kh * spec_.kernel_w + kw;
                            }
                        }
                    }
                    if (best_pos < 0)
                        best_pos = first_pos;
                    y.at(out_idx) = best;
                    if (record)
                        index_map->set(out_idx, best_pos);
                }
            }
        }
    }
}

/**
 * MaxPoolLayer::backward before vectorization (x, y for Dense mode, the
 * map for IndexMap mode). Returns false where the parent asserted: a
 * Dense window with no tap equal to Y.
 */
bool
refMaxPoolBackward(const PoolSpec &spec_, const Tensor *x, const Tensor *y,
                   const PoolIndexMap *index_map, const Tensor &dy,
                   Tensor *dx)
{
    const ConvGeometry g = poolGeom(spec_, dx->shape());
    const std::int64_t batch = dx->shape().n();
    const std::int64_t channels = dx->shape().c();
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();
    const bool dense = index_map == nullptr;

    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t c = 0; c < channels; ++c) {
            float *dplane =
                dx->data() + (n * channels + c) * g.in_h * g.in_w;
            const float *xplane =
                dense ? x->data() + (n * channels + c) * g.in_h * g.in_w
                      : nullptr;
            for (std::int64_t oh = 0; oh < out_h; ++oh) {
                for (std::int64_t ow = 0; ow < out_w; ++ow, ++out_idx) {
                    std::int64_t pos = -1;
                    if (dense) {
                        const float target = y->at(out_idx);
                        for (std::int64_t kh = 0;
                             kh < spec_.kernel_h && pos < 0; ++kh) {
                            const std::int64_t ih =
                                oh * g.stride_h - g.pad_h + kh;
                            if (ih < 0 || ih >= g.in_h)
                                continue;
                            for (std::int64_t kw = 0; kw < spec_.kernel_w;
                                 ++kw) {
                                const std::int64_t iw =
                                    ow * g.stride_w - g.pad_w + kw;
                                if (iw < 0 || iw >= g.in_w)
                                    continue;
                                if (xplane[ih * g.in_w + iw] == target) {
                                    pos = kh * spec_.kernel_w + kw;
                                    break;
                                }
                            }
                        }
                    } else {
                        pos = index_map->get(out_idx);
                    }
                    if (pos < 0)
                        return false;
                    const std::int64_t kh = pos / spec_.kernel_w;
                    const std::int64_t kw = pos % spec_.kernel_w;
                    const std::int64_t ih = oh * g.stride_h - g.pad_h + kh;
                    const std::int64_t iw = ow * g.stride_w - g.pad_w + kw;
                    dplane[ih * g.in_w + iw] += dy.at(out_idx);
                }
            }
        }
    }
    return true;
}

/** ReluLayer::backward's two loops before vectorization. */
void
refReluBackward(const Tensor *y, const BinarizedMask *mask,
                const Tensor &dy_t, Tensor &dx)
{
    const auto dy = dy_t.span();
    const auto dxs = dx.span();
    if (y) {
        const auto ys = y->span();
        for (size_t i = 0; i < dy.size(); ++i)
            dxs[i] += ys[i] > 0.0f ? dy[i] : 0.0f;
    } else {
        for (size_t i = 0; i < dy.size(); ++i)
            dxs[i] += mask->positive(static_cast<std::int64_t>(i))
                          ? dy[i]
                          : 0.0f;
    }
}

/** BatchNormLayer's state, as the reference loops see it. */
struct RefBn
{
    std::int64_t channels;
    float eps;
    float momentum;
    std::vector<float> gamma, beta, running_mean, running_var;
    std::vector<float> saved_mean, saved_invstd, d_gamma, d_beta;
};

/** BatchNormLayer::forward before the channel split. */
void
refBnForward(RefBn &bn, const Tensor &x, Tensor &y, bool training)
{
    const std::int64_t channels = bn.channels;
    const auto &s = x.shape();
    const std::int64_t plane = s.h() * s.w();
    const std::int64_t m = s.n() * plane;
    bn.saved_mean.assign(static_cast<size_t>(channels), 0.0f);
    bn.saved_invstd.assign(static_cast<size_t>(channels), 0.0f);

    for (std::int64_t c = 0; c < channels; ++c) {
        const auto cs = static_cast<size_t>(c);
        float mean_c;
        float invstd_c;
        if (training) {
            double sum = 0.0;
            for (std::int64_t n = 0; n < s.n(); ++n) {
                const float *p = x.data() + (n * channels + c) * plane;
                for (std::int64_t i = 0; i < plane; ++i)
                    sum += p[i];
            }
            mean_c = static_cast<float>(sum / static_cast<double>(m));
            double var_sum = 0.0;
            for (std::int64_t n = 0; n < s.n(); ++n) {
                const float *p = x.data() + (n * channels + c) * plane;
                for (std::int64_t i = 0; i < plane; ++i) {
                    const double d = p[i] - mean_c;
                    var_sum += d * d;
                }
            }
            const float var_c =
                static_cast<float>(var_sum / static_cast<double>(m));
            invstd_c = 1.0f / std::sqrt(var_c + bn.eps);
            bn.running_mean[cs] = bn.momentum * bn.running_mean[cs] +
                                  (1 - bn.momentum) * mean_c;
            bn.running_var[cs] = bn.momentum * bn.running_var[cs] +
                                 (1 - bn.momentum) * var_c;
            bn.saved_mean[cs] = mean_c;
            bn.saved_invstd[cs] = invstd_c;
        } else {
            mean_c = bn.running_mean[cs];
            invstd_c = 1.0f / std::sqrt(bn.running_var[cs] + bn.eps);
        }
        const float g = bn.gamma[cs];
        const float b = bn.beta[cs];
        for (std::int64_t n = 0; n < s.n(); ++n) {
            const float *xp = x.data() + (n * channels + c) * plane;
            float *yp = y.data() + (n * channels + c) * plane;
            for (std::int64_t i = 0; i < plane; ++i)
                yp[i] = g * (xp[i] - mean_c) * invstd_c + b;
        }
    }
}

/** BatchNormLayer::backward before the channel split. */
void
refBnBackward(RefBn &bn, const Tensor &x, const Tensor &dy, Tensor *dx)
{
    const std::int64_t channels = bn.channels;
    const auto &s = x.shape();
    const std::int64_t plane = s.h() * s.w();
    const std::int64_t m = s.n() * plane;
    const float inv_m = 1.0f / static_cast<float>(m);
    bn.d_gamma.assign(static_cast<size_t>(channels), 0.0f);
    bn.d_beta.assign(static_cast<size_t>(channels), 0.0f);

    for (std::int64_t c = 0; c < channels; ++c) {
        const auto cs = static_cast<size_t>(c);
        const float mean_c = bn.saved_mean[cs];
        const float invstd_c = bn.saved_invstd[cs];
        double dg = 0.0;
        double db = 0.0;
        for (std::int64_t n = 0; n < s.n(); ++n) {
            const float *xp = x.data() + (n * channels + c) * plane;
            const float *dyp = dy.data() + (n * channels + c) * plane;
            for (std::int64_t i = 0; i < plane; ++i) {
                const float xhat = (xp[i] - mean_c) * invstd_c;
                dg += static_cast<double>(dyp[i]) * xhat;
                db += dyp[i];
            }
        }
        bn.d_gamma[cs] = static_cast<float>(dg);
        bn.d_beta[cs] = static_cast<float>(db);
        if (!dx)
            continue;
        const float g = bn.gamma[cs];
        const float dgf = static_cast<float>(dg);
        const float dbf = static_cast<float>(db);
        for (std::int64_t n = 0; n < s.n(); ++n) {
            const float *xp = x.data() + (n * channels + c) * plane;
            const float *dyp = dy.data() + (n * channels + c) * plane;
            float *dxp = dx->data() + (n * channels + c) * plane;
            for (std::int64_t i = 0; i < plane; ++i) {
                const float xhat = (xp[i] - mean_c) * invstd_c;
                dxp[i] += g * invstd_c * inv_m *
                          (static_cast<float>(m) * dyp[i] - dbf -
                           xhat * dgf);
            }
        }
    }
}

// ---- harness -----------------------------------------------------------

/** Runs each body under every available SIMD backend at 1 and 4
 *  threads, restoring both afterwards. */
class PoolReluBn : public ::testing::Test
{
  protected:
    void SetUp() override { prev_threads = numThreads(); }
    void TearDown() override
    {
        simd::initFromEnv();
        setNumThreads(prev_threads);
    }

    template <typename Fn>
    void
    forEachConfig(Fn fn)
    {
        for (int b = 0; b < simd::kNumBackends; ++b) {
            const auto backend = static_cast<simd::Backend>(b);
            if (!simd::backendAvailable(backend))
                continue;
            simd::setBackend(backend);
            for (int threads : { 1, 4 }) {
                setNumThreads(threads);
                SCOPED_TRACE(std::string(simd::backendName(backend)) +
                             " threads " + std::to_string(threads));
                fn();
            }
        }
    }

    int prev_threads = 1;
};

/** One max-pool case: the layer in @p mode against the reference. */
void
checkMaxPool(const PoolSpec &spec, const Tensor &x,
             MaxPoolLayer::StashMode mode, const Tensor &dy,
             const Tensor &dx0)
{
    const bool dense = mode == MaxPoolLayer::StashMode::Dense;
    Tensor ref_y(MaxPoolLayer(spec).outputShape(
        std::vector<Shape>{ x.shape() }));
    PoolIndexMap ref_map;
    refMaxPoolForward(spec, x, ref_y, dense ? nullptr : &ref_map);
    Tensor ref_dx = dx0;
    ASSERT_TRUE(refMaxPoolBackward(spec, &x, &ref_y,
                                   dense ? nullptr : &ref_map, dy,
                                   &ref_dx));

    MaxPoolLayer pool(spec);
    pool.setStashMode(mode);
    Tensor y(ref_y.shape());
    FwdCtx fctx;
    fctx.inputs = { &x };
    fctx.output = &y;
    fctx.training = true;
    pool.forward(fctx);
    ASSERT_TRUE(sameBits(y, ref_y)) << "Y";
    if (!dense) {
        const auto got = pool.indexMap().raw();
        const auto want = ref_map.raw();
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(), got.size()))
            << "index map bytes";
    }

    Tensor dx = dx0;
    BwdCtx bctx;
    bctx.inputs = { dense ? &x : nullptr };
    bctx.output = dense ? &y : nullptr;
    bctx.d_output = &dy;
    bctx.d_inputs = { &dx };
    pool.backward(bctx);
    ASSERT_TRUE(sameBits(dx, ref_dx)) << "dX";
}

TEST_F(PoolReluBn, MaxPoolMatchesScalarLoopsOnRandomGeometries)
{
    Rng rng(1701);
    const std::int64_t batches[] = { 1, 7, 33 };
    int odd_maps = 0;
    for (int cs = 0; cs < 300; ++cs) {
        PoolSpec spec;
        spec.kernel_h = 1 + static_cast<std::int64_t>(rng.uniformInt(5));
        spec.kernel_w = 1 + static_cast<std::int64_t>(rng.uniformInt(5));
        spec.stride_h = 1 + static_cast<std::int64_t>(rng.uniformInt(3));
        spec.stride_w = 1 + static_cast<std::int64_t>(rng.uniformInt(3));
        // Padding < kernel, so every window has an in-bounds tap.
        spec.pad_h = static_cast<std::int64_t>(rng.uniformInt(
            static_cast<std::uint64_t>(std::min<std::int64_t>(
                3, spec.kernel_h))));
        spec.pad_w = static_cast<std::int64_t>(rng.uniformInt(
            static_cast<std::uint64_t>(std::min<std::int64_t>(
                3, spec.kernel_w))));
        const std::int64_t min_h =
            std::max<std::int64_t>(1, spec.kernel_h - 2 * spec.pad_h);
        const std::int64_t min_w =
            std::max<std::int64_t>(1, spec.kernel_w - 2 * spec.pad_w);
        const std::int64_t batch = batches[rng.uniformInt(3)];
        const Shape shape = Shape::nchw(
            batch, 1 + static_cast<std::int64_t>(rng.uniformInt(3)),
            min_h + static_cast<std::int64_t>(rng.uniformInt(9)),
            min_w + static_cast<std::int64_t>(rng.uniformInt(9)));
        const auto mode = cs % 2 ? MaxPoolLayer::StashMode::IndexMap
                                 : MaxPoolLayer::StashMode::Dense;
        Tensor x = spikyTensor(shape, rng);
        if (mode == MaxPoolLayer::StashMode::Dense) {
            // An all-NaN window has no tap equal to its -inf output;
            // the Dense scan (old and new) rejects it, so keep NaN out.
            for (std::int64_t i = 0; i < x.numel(); ++i)
                if (std::isnan(x.at(i)))
                    x.at(i) = -kInf;
        }
        const Shape out =
            MaxPoolLayer(spec).outputShape(std::vector<Shape>{ shape });
        odd_maps += (out.h() * out.w()) % 2;
        const Tensor dy = gradTensor(out, rng);
        const Tensor dx0 = gradTensor(shape, rng);
        SCOPED_TRACE("case " + std::to_string(cs) + " in " +
                     shape.toString() + " k " +
                     std::to_string(spec.kernel_h) + "x" +
                     std::to_string(spec.kernel_w) + " s " +
                     std::to_string(spec.stride_h) + "x" +
                     std::to_string(spec.stride_w) + " p " +
                     std::to_string(spec.pad_h) + "x" +
                     std::to_string(spec.pad_w));
        forEachConfig([&] { checkMaxPool(spec, x, mode, dy, dx0); });
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(odd_maps, 40); // index-map rows that straddle bytes
}

TEST_F(PoolReluBn, MaxPoolThreadChunksSplitOddIndexMapsOnBytes)
{
    // 5x5 outputs per plane: consecutive planes share a map byte, and
    // 528 planes split into many chunks at 4 threads.
    Rng rng(1702);
    const PoolSpec spec = PoolSpec::square(3, 2, 1);
    const Shape shape = Shape::nchw(33, 16, 9, 9);
    const Tensor x = spikyTensor(shape, rng);
    const Shape out =
        MaxPoolLayer(spec).outputShape(std::vector<Shape>{ shape });
    ASSERT_EQ(out.h() * out.w(), 25);
    const Tensor dy = gradTensor(out, rng);
    const Tensor dx0 = gradTensor(shape, rng);
    forEachConfig([&] {
        checkMaxPool(spec, x, MaxPoolLayer::StashMode::IndexMap, dy, dx0);
    });
}

TEST_F(PoolReluBn, AllNegInfWindowsRouteToFirstInBoundsTap)
{
    // Every window is all -inf: no tap beats the running max's start.
    // Position 0 is a padded tap at the corners, so the argmax must
    // default to the first in-bounds tap or the IndexMap backward
    // writes outside dX (ASan-visible). Dense mode finds the same tap.
    const PoolSpec spec = PoolSpec::square(3, 1, 1);
    const Tensor x = Tensor::full(Shape::nchw(2, 3, 4, 4), -kInf);
    const Shape out =
        MaxPoolLayer(spec).outputShape(std::vector<Shape>{ x.shape() });
    Rng rng(1703);
    const Tensor dy = gradTensor(out, rng);
    const Tensor dx0(x.shape());
    forEachConfig([&] {
        checkMaxPool(spec, x, MaxPoolLayer::StashMode::IndexMap, dy, dx0);
        checkMaxPool(spec, x, MaxPoolLayer::StashMode::Dense, dy, dx0);
    });

    MaxPoolLayer pool(spec);
    pool.setStashMode(MaxPoolLayer::StashMode::IndexMap);
    Tensor y(out);
    FwdCtx fctx;
    fctx.inputs = { &x };
    fctx.output = &y;
    fctx.training = true;
    pool.forward(fctx);
    EXPECT_EQ(pool.indexMap().get(0), 4);  // corner (0,0): tap (1,1)
    EXPECT_EQ(pool.indexMap().get(1), 3);  // top edge: tap (1,0)
    EXPECT_EQ(pool.indexMap().get(5), 0);  // interior: tap (0,0)
}

TEST_F(PoolReluBn, ReluBackwardMatchesScalarLoops)
{
    Rng rng(1704);
    for (const std::int64_t batch : { 1, 7, 33 }) {
        const Shape shape = Shape::nchw(batch, 8, 6, 6);
        const Tensor x = spikyTensor(shape, rng);
        const Tensor dy = gradTensor(shape, rng);
        const Tensor dx0 = gradTensor(shape, rng);
        // Dense mode reads the stashed Y as given: NaN and -0.0 too.
        const Tensor y_stash = spikyTensor(shape, rng);

        for (const auto mode :
             { ReluLayer::StashMode::Dense, ReluLayer::StashMode::Mask }) {
            const bool dense = mode == ReluLayer::StashMode::Dense;
            SCOPED_TRACE(std::string(dense ? "dense" : "mask") +
                         " batch " + std::to_string(batch));
            forEachConfig([&] {
                ReluLayer relu;
                relu.setStashMode(mode);
                Tensor y(shape);
                FwdCtx fctx;
                fctx.inputs = { &x };
                fctx.output = &y;
                fctx.training = true;
                relu.forward(fctx);

                BinarizedMask mask;
                mask.encode(y.span());
                Tensor ref_dx = dx0;
                refReluBackward(dense ? &y_stash : nullptr, &mask, dy,
                                ref_dx);

                Tensor dx = dx0;
                BwdCtx bctx;
                bctx.inputs = { nullptr };
                bctx.output = dense ? &y_stash : nullptr;
                bctx.d_output = &dy;
                bctx.d_inputs = { &dx };
                relu.backward(bctx);
                ASSERT_TRUE(sameBits(dx, ref_dx)) << "ReLU dX";
            });
        }
    }
}

TEST_F(PoolReluBn, BatchNormMatchesScalarLoops)
{
    Rng rng(1705);
    const std::int64_t batches[] = { 1, 7, 33 };
    const std::int64_t chans[] = { 3, 16, 16 };
    for (int cs = 0; cs < 3; ++cs) {
        const std::int64_t channels = chans[cs];
        const Shape shape = Shape::nchw(batches[cs], channels, 8, 8);
        Tensor x(shape);
        for (std::int64_t i = 0; i < x.numel(); ++i)
            x.at(i) = 3.0f * rng.normal() + 0.5f;
        const Tensor dy = gradTensor(shape, rng);
        const Tensor dx0 = gradTensor(shape, rng);

        RefBn ref{ channels, 1e-5f, 0.9f, {}, {}, {}, {}, {}, {}, {}, {} };
        for (std::int64_t c = 0; c < channels; ++c) {
            ref.gamma.push_back(1.0f + 0.3f * rng.normal());
            ref.beta.push_back(0.2f * rng.normal());
            ref.running_mean.push_back(0.1f * rng.normal());
            ref.running_var.push_back(1.0f + 0.5f * rng.uniform());
        }
        const RefBn start = ref;
        Tensor ref_y(shape), ref_eval(shape);
        refBnForward(ref, x, ref_y, true);
        Tensor ref_dx = dx0;
        refBnBackward(ref, x, dy, &ref_dx);
        refBnForward(ref, x, ref_eval, false);

        SCOPED_TRACE("batch " + std::to_string(batches[cs]));
        forEachConfig([&] {
            BatchNormLayer bn(channels, start.eps, start.momentum);
            Rng init(0);
            bn.initParams(init);
            auto params = bn.params();
            auto state = bn.stateTensors();
            for (std::int64_t c = 0; c < channels; ++c) {
                const auto k = static_cast<size_t>(c);
                params[0]->at(c) = start.gamma[k];
                params[1]->at(c) = start.beta[k];
                state[0]->at(c) = start.running_mean[k];
                state[1]->at(c) = start.running_var[k];
            }
            Tensor y(shape);
            FwdCtx fctx;
            fctx.inputs = { &x };
            fctx.output = &y;
            fctx.training = true;
            bn.forward(fctx);
            ASSERT_TRUE(sameBits(y, ref_y)) << "BN Y";

            Tensor dx = dx0;
            BwdCtx bctx;
            bctx.inputs = { &x };
            bctx.d_output = &dy;
            bctx.d_inputs = { &dx };
            bn.backward(bctx);
            ASSERT_TRUE(sameBits(dx, ref_dx)) << "BN dX";
            const auto grads = bn.paramGrads();
            for (std::int64_t c = 0; c < channels; ++c) {
                const auto k = static_cast<size_t>(c);
                ASSERT_EQ(0, std::memcmp(&grads[0]->at(c),
                                         &ref.d_gamma[k], 4))
                    << "d_gamma " << c;
                ASSERT_EQ(0, std::memcmp(&grads[1]->at(c),
                                         &ref.d_beta[k], 4))
                    << "d_beta " << c;
                ASSERT_EQ(0, std::memcmp(&state[0]->at(c),
                                         &ref.running_mean[k], 4))
                    << "running_mean " << c;
                ASSERT_EQ(0, std::memcmp(&state[1]->at(c),
                                         &ref.running_var[k], 4))
                    << "running_var " << c;
            }

            Tensor eval(shape);
            fctx.output = &eval;
            fctx.training = false;
            bn.forward(fctx);
            ASSERT_TRUE(sameBits(eval, ref_eval)) << "BN eval Y";
        });
    }
}

} // namespace
} // namespace gist
