/**
 * @file
 * Elementwise and reduction kernels shared by the layer implementations.
 */

#pragma once

#include <cstdint>
#include <span>

namespace gist {

class Tensor;

/** y = max(x, 0). */
void reluForward(std::span<const float> x, std::span<float> y);

/** out += in (element count must match). */
void accumulate(std::span<const float> in, std::span<float> out);

/** out = a + b. */
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/** x *= s. */
void scale(std::span<float> x, float s);

/** Row-wise softmax over a (rows x cols) matrix. */
void softmaxRows(const float *logits, float *probs, std::int64_t rows,
                 std::int64_t cols);

/**
 * Mean cross-entropy loss of row-wise probabilities against integer labels,
 * plus the gradient w.r.t. the logits ((p - onehot) / rows).
 */
float crossEntropyWithGrad(const float *probs, const std::int32_t *labels,
                           std::int64_t rows, std::int64_t cols,
                           float *dlogits);

} // namespace gist
