#include "layers/batchnorm.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gist {

namespace {

/** Channels per parallel chunk: about 16K elements of work. */
std::int64_t
channelGrain(std::int64_t per_channel)
{
    return std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(
                                             1, per_channel));
}

} // namespace

BatchNormLayer::BatchNormLayer(std::int64_t channels_n, float eps_n,
                               float momentum_n)
    : channels(channels_n), eps(eps_n), momentum(momentum_n)
{
    GIST_ASSERT(channels > 0, "bad batchnorm channel count");
    gamma = Tensor::placeholder(Shape{ channels });
    beta = Tensor::placeholder(Shape{ channels });
    d_gamma = Tensor::placeholder(Shape{ channels });
    d_beta = Tensor::placeholder(Shape{ channels });
    running_mean = Tensor::placeholder(Shape{ channels });
    running_var = Tensor::placeholder(Shape{ channels });
}

Shape
BatchNormLayer::outputShape(std::span<const Shape> in) const
{
    GIST_ASSERT(in.size() == 1, "batchnorm takes one input");
    GIST_ASSERT(in[0].rank() == 4 && in[0].c() == channels,
                "batchnorm expects NCHW with ", channels, " channels");
    return in[0];
}

void
BatchNormLayer::initParams(Rng &rng)
{
    (void)rng;
    gamma.reallocate();
    for (std::int64_t i = 0; i < channels; ++i)
        gamma.at(i) = 1.0f;
    beta.reallocate();
    d_gamma.reallocate();
    d_beta.reallocate();
    running_mean.reallocate();
    running_var.reallocate();
    for (std::int64_t i = 0; i < channels; ++i)
        running_var.at(i) = 1.0f;
}

std::vector<Tensor *>
BatchNormLayer::params()
{
    return { &gamma, &beta };
}

std::vector<Tensor *>
BatchNormLayer::paramGrads()
{
    return { &d_gamma, &d_beta };
}

std::vector<Tensor *>
BatchNormLayer::stateTensors()
{
    return { &running_mean, &running_var };
}

std::uint64_t
BatchNormLayer::auxStashBytes(std::span<const Shape> in) const
{
    (void)in;
    return static_cast<std::uint64_t>(channels) * 2 * 4;
}

void
BatchNormLayer::forward(const FwdCtx &ctx)
{
    GIST_ASSERT(ctx.inputs.size() == 1 && ctx.output, "bn forward args");
    const auto &s = ctx.inputs[0]->shape();
    const std::int64_t m = s.n() * s.h() * s.w();

    saved_mean.assign(static_cast<size_t>(channels), 0.0f);
    saved_invstd.assign(static_cast<size_t>(channels), 0.0f);
    // Channels are independent and each keeps its serial double sums,
    // so any split over threads gives the same bits.
    parallelFor(0, channels, chooseGrain(channels, channelGrain(m)),
                [&](std::int64_t c0, std::int64_t c1) {
                    forwardChannels(ctx, c0, c1);
                });
}

void
BatchNormLayer::forwardChannels(const FwdCtx &ctx, std::int64_t c0,
                                std::int64_t c1)
{
    const Tensor &x = *ctx.inputs[0];
    Tensor &y = *ctx.output;
    const auto &s = x.shape();
    const std::int64_t plane = s.h() * s.w();
    const std::int64_t m = s.n() * plane;

    for (std::int64_t c = c0; c < c1; ++c) {
        float mean_c;
        float invstd_c;
        if (ctx.training) {
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
            invstd_c = 1.0f / std::sqrt(var_c + eps);
            // A recompute replay re-derives the minibatch statistics
            // (bitwise, same deterministic accumulation) but must not
            // fold them into the running averages a second time.
            if (!ctx.replay) {
                running_mean.at(c) = momentum * running_mean.at(c) +
                                     (1 - momentum) * mean_c;
                running_var.at(c) =
                    momentum * running_var.at(c) + (1 - momentum) * var_c;
            }
            saved_mean[static_cast<size_t>(c)] = mean_c;
            saved_invstd[static_cast<size_t>(c)] = invstd_c;
        } else {
            mean_c = running_mean.at(c);
            invstd_c = 1.0f / std::sqrt(running_var.at(c) + eps);
        }
        const float g = gamma.at(c);
        const float b = beta.at(c);
        for (std::int64_t n = 0; n < s.n(); ++n) {
            const float *xp = x.data() + (n * channels + c) * plane;
            float *yp = y.data() + (n * channels + c) * plane;
            for (std::int64_t i = 0; i < plane; ++i)
                yp[i] = g * (xp[i] - mean_c) * invstd_c + b;
        }
    }
}

void
BatchNormLayer::backward(const BwdCtx &ctx)
{
    GIST_ASSERT(ctx.inputs.size() == 1 && ctx.inputs[0] && ctx.d_output,
                "bn backward needs stashed X and dY");
    GIST_ASSERT(!saved_mean.empty(),
                "bn statistics not captured for this minibatch");
    const auto &s = ctx.inputs[0]->shape();
    const std::int64_t m = s.n() * s.h() * s.w();
    parallelFor(0, channels, chooseGrain(channels, channelGrain(m)),
                [&](std::int64_t c0, std::int64_t c1) {
                    backwardChannels(ctx, c0, c1);
                });
}

void
BatchNormLayer::backwardChannels(const BwdCtx &ctx, std::int64_t c0,
                                 std::int64_t c1)
{
    const Tensor &x = *ctx.inputs[0];
    const Tensor &dy = *ctx.d_output;
    Tensor *dx = ctx.d_inputs[0];
    const auto &s = x.shape();
    const std::int64_t plane = s.h() * s.w();
    const std::int64_t m = s.n() * plane;
    const float inv_m = 1.0f / static_cast<float>(m);

    for (std::int64_t c = c0; c < c1; ++c) {
        const float mean_c = saved_mean[static_cast<size_t>(c)];
        const float invstd_c = saved_invstd[static_cast<size_t>(c)];
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
        d_gamma.at(c) = static_cast<float>(dg);
        d_beta.at(c) = static_cast<float>(db);
        if (!dx)
            continue;
        const float g = gamma.at(c);
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

void
BatchNormLayer::releaseAuxStash()
{
    saved_mean.clear();
    saved_invstd.clear();
}

} // namespace gist
