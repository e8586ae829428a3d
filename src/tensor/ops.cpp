#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace gist {

namespace {

/** Elementwise loops parallelize below this size at a loss. */
constexpr std::int64_t kEwGrain = 4096;

} // namespace

void
reluForward(std::span<const float> x, std::span<float> y)
{
    GIST_ASSERT(x.size() == y.size(), "relu size mismatch");
    const auto n = static_cast<std::int64_t>(x.size());
    parallelFor(0, n, chooseGrain(n, kEwGrain),
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        y[static_cast<size_t>(i)] =
                            x[static_cast<size_t>(i)] > 0.0f
                                ? x[static_cast<size_t>(i)]
                                : 0.0f;
                });
}

void
accumulate(std::span<const float> in, std::span<float> out)
{
    GIST_ASSERT(in.size() == out.size(), "accumulate size mismatch");
    const auto n = static_cast<std::int64_t>(in.size());
    parallelFor(0, n, chooseGrain(n, kEwGrain),
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        out[static_cast<size_t>(i)] +=
                            in[static_cast<size_t>(i)];
                });
}

void
add(std::span<const float> a, std::span<const float> b, std::span<float> out)
{
    GIST_ASSERT(a.size() == b.size() && a.size() == out.size(),
                "add size mismatch");
    const auto n = static_cast<std::int64_t>(a.size());
    parallelFor(0, n, chooseGrain(n, kEwGrain),
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        out[static_cast<size_t>(i)] =
                            a[static_cast<size_t>(i)] +
                            b[static_cast<size_t>(i)];
                });
}

void
scale(std::span<float> x, float s)
{
    const auto n = static_cast<std::int64_t>(x.size());
    parallelFor(0, n, chooseGrain(n, kEwGrain),
                [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i)
                        x[static_cast<size_t>(i)] *= s;
                });
}

void
softmaxRows(const float *logits, float *probs, std::int64_t rows,
            std::int64_t cols)
{
    // Rows are independent; each chunk owns a disjoint slice of probs.
    parallelFor(0, rows, chooseGrain(rows, 16),
                [=](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const float *in = logits + r * cols;
            float *out = probs + r * cols;
            float max_val = in[0];
            for (std::int64_t c = 1; c < cols; ++c)
                max_val = std::max(max_val, in[c]);
            float sum = 0.0f;
            for (std::int64_t c = 0; c < cols; ++c) {
                out[c] = std::exp(in[c] - max_val);
                sum += out[c];
            }
            const float inv = 1.0f / sum;
            for (std::int64_t c = 0; c < cols; ++c)
                out[c] *= inv;
        }
    });
}

float
crossEntropyWithGrad(const float *probs, const std::int32_t *labels,
                     std::int64_t rows, std::int64_t cols, float *dlogits)
{
    // The loss reduction stays serial (row order defines the float sum);
    // rows are few and the per-row work is tiny.
    float loss = 0.0f;
    const float inv_rows = 1.0f / static_cast<float>(rows);
    for (std::int64_t r = 0; r < rows; ++r) {
        const std::int32_t label = labels[r];
        GIST_ASSERT(label >= 0 && label < cols, "label ", label,
                    " out of range for ", cols, " classes");
        const float *p = probs + r * cols;
        float *d = dlogits + r * cols;
        loss -= std::log(std::max(p[label], 1e-12f));
        for (std::int64_t c = 0; c < cols; ++c)
            d[c] = (p[c] - (c == label ? 1.0f : 0.0f)) * inv_rows;
    }
    return loss * inv_rows;
}

} // namespace gist
