/**
 * @file
 * The abstract Layer interface the execution graph is built from.
 *
 * The central piece for Gist is BackwardNeeds: each layer declares which
 * of its surrounding feature maps its backward pass truly reads
 * (paper Figure 4). The executor and the memory planner derive
 * stashed-vs-immediately-consumed classification from these declarations,
 * and the Schedule Builder changes them when it switches a layer into an
 * encoded mode (e.g. ReLU to sign-mask mode, MaxPool to argmax-map mode).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "encodings/csr.hpp"
#include "encodings/dpr.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace gist {

class Rng;

/** Coarse layer taxonomy used by the Schedule Builder's pattern matcher. */
enum class LayerKind {
    Input,
    Conv,
    Relu,
    Sigmoid,
    Tanh,
    MaxPool,
    AvgPool,
    Fc,
    BatchNorm,
    Lrn,
    Concat,
    Add,
    Dropout,
    Flatten,
    SoftmaxLoss,
};

/** Name of a LayerKind ("Conv", "Relu", ...). */
const char *layerKindName(LayerKind kind);

/** Which stashed data a layer's backward pass reads (paper Fig. 4). */
struct BackwardNeeds
{
    bool input = false;  ///< needs its stashed input feature map(s) X
    bool output = false; ///< needs its stashed output feature map Y
};

/** Inputs handed to Layer::forward. */
struct FwdCtx
{
    std::vector<const Tensor *> inputs;
    Tensor *output = nullptr;
    bool training = true; ///< stash auxiliary data for backward?
    /**
     * This forward is a recompute replay of a stash the executor dropped
     * at forward time (StashPlan::Repr::Recompute). The layer must
     * reproduce its original output bitwise *without* re-mutating
     * training state: batchnorm skips the running-stat update, dropout
     * reuses its captured keep mask instead of advancing its RNG.
     * Deterministic aux (ReLU masks, pool argmax maps) may simply be
     * rewritten — the bytes come out identical.
     */
    bool replay = false;
};

/**
 * Inputs handed to Layer::backward.
 *
 * Entries of @c inputs / @c output may be null when the layer declared it
 * does not need them (the executor will have relinquished the storage).
 * Entries of @c d_inputs may be null when the upstream gradient is not
 * required (e.g. the data input); layers must *accumulate* (+=) into
 * non-null d_inputs because a feature map can feed several consumers.
 */
/**
 * A handle to an encoded (DPR or CSR) stash that consumers can decode
 * tile-by-tile without materializing the full FP32 buffer.
 */
struct EncodedStash
{
    const DprBuffer *dpr = nullptr;
    const CsrBuffer *csr = nullptr;
    /**
     * FC: consume the stash with the fused (decode-free) B-pack instead
     * of decodeRange into a scratch buffer. Bitwise-identical to the
     * scratch path; set by the executor from GistConfig. Conv decodes
     * tile by tile either way; the bit only gates its sparse route.
     */
    bool fused = false;
    /**
     * Additionally route CSR stashes through the row-sparse GEMM so
     * compute scales with nnz. Opt-in (GIST_FUSED=2): float results are
     * tolerance- rather than bitwise-equal to the dense path because the
     * accumulation order differs.
     */
    bool sparse_compute = false;

    bool valid() const { return dpr || csr; }

    /** Decode values [offset, offset + out.size()). */
    void
    decodeRange(std::int64_t offset, std::span<float> out) const
    {
        if (dpr)
            dpr->decodeRange(offset, out);
        else
            csr->decodeRange(offset, out);
    }
};

/**
 * Inputs handed to Layer::backward.
 *
 * (continued) "Optimized software" path, paper Section V-H: when an
 * input stash is encoded and the layer can consume it tile-by-tile, the
 * executor passes an EncodedStash instead of materializing a full FP32
 * decode buffer.
 */
struct BwdCtx
{
    std::vector<const Tensor *> inputs;
    const Tensor *output = nullptr;
    const Tensor *d_output = nullptr;
    std::vector<Tensor *> d_inputs;
    /** Parallel to @c inputs; invalid entries mean "use the tensor". */
    std::vector<EncodedStash> encoded_inputs;
};

/** Abstract DNN layer: shape inference, forward, backward, parameters. */
class Layer
{
  public:
    virtual ~Layer();

    virtual LayerKind kind() const = 0;

    /** Output shape given input shapes; validates arity and geometry. */
    virtual Shape outputShape(std::span<const Shape> in) const = 0;

    /** What this layer's backward pass reads (may change with Gist mode). */
    virtual BackwardNeeds backwardNeeds() const = 0;

    /** Initialize parameters (no-op for parameter-free layers). */
    virtual void initParams(Rng &rng);

    /** Trainable parameters (same order as paramGrads()). */
    virtual std::vector<Tensor *> params();
    /** Gradients of params(), written by backward(). */
    virtual std::vector<Tensor *> paramGrads();

    /**
     * Non-trainable model state that training mutates and inference
     * reads (e.g. batchnorm running mean/var). Checkpointed alongside
     * params(): omitting it restores a model that silently evaluates
     * differently from the run that saved it.
     */
    virtual std::vector<Tensor *> stateTensors();

    /**
     * Per-layer deterministic RNG streams advanced by forward() in
     * training mode (e.g. the dropout mask generator). Checkpointed so
     * a resumed run draws the same masks the uninterrupted run would.
     */
    virtual std::vector<Rng *> rngStreams();

    /** Scratch (cuDNN-workspace analogue) bytes needed per invocation. */
    virtual std::uint64_t workspaceBytes(std::span<const Shape> in) const;

    /**
     * Bytes of layer-internal stash kept between forward and backward
     * (e.g. BN saved statistics, dropout mask, Gist pool argmax map).
     */
    virtual std::uint64_t auxStashBytes(std::span<const Shape> in) const;

    virtual void forward(const FwdCtx &ctx) = 0;
    virtual void backward(const BwdCtx &ctx) = 0;

    /** Release any layer-internal stash after its backward use. */
    virtual void releaseAuxStash();
};

} // namespace gist
