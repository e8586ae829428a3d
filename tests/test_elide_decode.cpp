/**
 * @file
 * Tests for the real "optimized software" path (paper Section V-H):
 * conv and FC backward consuming CSR- and DPR-encoded stashes piece by
 * piece, with no full FP32 decode buffer ever materialized.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "core/gist.hpp"
#include "layers/conv.hpp"
#include "layers/fc.hpp"
#include "models/tiny.hpp"
#include "simd/dispatch.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

std::vector<float>
flatGradsOf(Graph &g)
{
    std::vector<float> out;
    for (auto &node : g.nodes())
        if (node.layer)
            for (Tensor *grad : node.layer->paramGrads())
                out.insert(out.end(), grad->data(),
                           grad->data() + grad->numel());
    return out;
}

TEST(DprDecodeRange, MatchesFullDecode)
{
    Rng rng(1);
    std::vector<float> values(1000);
    for (auto &v : values)
        v = rng.normal();
    DprBuffer buf;
    buf.encode(DprFormat::Fp10, values);

    std::vector<float> full(values.size());
    buf.decode(full);
    // Probe ranges at every lane alignment (3 values per word for FP10).
    for (std::int64_t offset : { 0, 1, 2, 3, 7, 500, 997 }) {
        const std::int64_t len =
            std::min<std::int64_t>(17, 1000 - offset);
        std::vector<float> part(static_cast<size_t>(len));
        buf.decodeRange(offset, part);
        for (std::int64_t i = 0; i < len; ++i)
            EXPECT_EQ(part[static_cast<size_t>(i)],
                      full[static_cast<size_t>(offset + i)])
                << "offset " << offset << " i " << i;
    }
}

TEST(CsrDecodeRange, MatchesFullDecode)
{
    Rng rng(9);
    std::vector<float> values(1000);
    for (auto &v : values)
        v = rng.uniform() < 0.6 ? 0.0f : rng.normal();
    for (DprFormat fmt : { DprFormat::Fp32, DprFormat::Fp16 }) {
        CsrConfig cfg;
        cfg.value_format = fmt;
        CsrBuffer buf(cfg);
        buf.encode(values);
        std::vector<float> full(values.size());
        buf.decode(full);
        for (std::int64_t offset : { 0, 1, 7, 250, 255, 256, 600 }) {
            const std::int64_t len =
                std::min<std::int64_t>(300, 1000 - offset);
            std::vector<float> part(static_cast<size_t>(len));
            buf.decodeRange(offset, part);
            for (std::int64_t i = 0; i < len; ++i)
                EXPECT_EQ(part[static_cast<size_t>(i)],
                          full[static_cast<size_t>(offset + i)])
                    << "fmt " << dprFormatName(fmt) << " offset "
                    << offset << " i " << i;
        }
    }
}

TEST(ElideDecode, ConvBackwardChunkedCsrMatchesDense)
{
    Rng rng(10);
    ConvLayer conv(4, ConvSpec::square(6, 3, 1, 1));
    conv.initParams(rng);
    // Sparse, ReLU-like input.
    Tensor x = Tensor::randn(Shape::nchw(3, 4, 5, 5), rng);
    for (std::int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = x.at(i) > 0.0f ? x.at(i) : 0.0f;
    Tensor y(conv.outputShape({ &x.shape(), 1 }));
    FwdCtx fctx;
    fctx.inputs = { &x };
    fctx.output = &y;
    conv.forward(fctx);
    Tensor dy = Tensor::randn(y.shape(), rng);

    CsrBuffer enc{ CsrConfig{} };
    enc.encode(x.span());

    auto run = [&](const Tensor *dense, const CsrBuffer *encoded) {
        Tensor dx(x.shape());
        BwdCtx ctx;
        ctx.inputs = { dense };
        ctx.encoded_inputs = { EncodedStash{ nullptr, encoded } };
        ctx.d_output = &dy;
        ctx.d_inputs = { &dx };
        conv.backward(ctx);
        std::vector<float> grads(dx.data(), dx.data() + dx.numel());
        for (Tensor *g : conv.paramGrads())
            grads.insert(grads.end(), g->data(),
                         g->data() + g->numel());
        return grads;
    };
    const auto dense = run(&x, nullptr); // CSR is lossless
    const auto chunked = run(nullptr, &enc);
    EXPECT_EQ(dense, chunked);
}

TEST(ElideDecode, SsdcEndToEndBitLosslessWithChunkedReads)
{
    // Full lossless config + elide: conv backward reads CSR stashes
    // tile-by-tile; training must STILL be bit-identical to baseline.
    auto one_step = [&](const GistConfig &cfg) {
        Graph g = models::tinyVgg(8);
        Rng rng(11);
        g.initParams(rng);
        Executor exec(g);
        applyToExecutor(buildSchedule(g, cfg), exec);
        Rng drng(12);
        Tensor batch =
            Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
        std::vector<std::int32_t> labels;
        for (int i = 0; i < 8; ++i)
            labels.push_back(i % models::kTinyClasses);
        exec.runMinibatch(batch, labels);
        return flatGradsOf(g);
    };
    GistConfig elided = GistConfig::lossless();
    elided.elide_decode_buffer = true;
    EXPECT_EQ(one_step(GistConfig::baseline()), one_step(elided));
}

TEST(ElideDecode, ConvBackwardChunkedMatchesDense)
{
    Rng rng(2);
    ConvLayer conv(3, ConvSpec::square(5, 3, 1, 1));
    conv.initParams(rng);
    Tensor x = Tensor::randn(Shape::nchw(4, 3, 6, 6), rng);
    Tensor y(conv.outputShape({ &x.shape(), 1 }));
    FwdCtx fctx;
    fctx.inputs = { &x };
    fctx.output = &y;
    conv.forward(fctx);
    Tensor dy = Tensor::randn(y.shape(), rng);

    // Quantize the stash the way the executor would, then run backward
    // once from the dense decoded tensor and once chunked.
    DprBuffer enc;
    enc.encode(DprFormat::Fp16, x.span());
    Tensor x_decoded(x.shape());
    enc.decode(x_decoded.span());

    auto run = [&](const Tensor *dense, const DprBuffer *encoded) {
        Tensor dx(x.shape());
        BwdCtx ctx;
        ctx.inputs = { dense };
        ctx.encoded_inputs = { EncodedStash{ encoded, nullptr } };
        ctx.d_output = &dy;
        ctx.d_inputs = { &dx };
        conv.backward(ctx);
        std::vector<float> grads(dx.data(), dx.data() + dx.numel());
        for (Tensor *g : conv.paramGrads())
            grads.insert(grads.end(), g->data(),
                         g->data() + g->numel());
        return grads;
    };
    const auto dense = run(&x_decoded, nullptr);
    const auto chunked = run(nullptr, &enc);
    EXPECT_EQ(dense, chunked);
}

TEST(ElideDecode, FcBackwardEncodedMatchesDense)
{
    // FC packs an encoded X through gemmPackedB one KC slice of the
    // batch at a time; dW, db and dX must be the bits of a backward on
    // the decoded X, for every encoding, shape, backend and thread
    // count.
    const std::int64_t out_features = 19;
    for (const std::int64_t in_features : { 1, 127, 128, 129, 300 })
        for (const std::int64_t batch : { 1, 7, 33 }) {
            Rng rng(static_cast<std::uint64_t>(in_features * 64 + batch));
            FcLayer fc(in_features, out_features);
            fc.initParams(rng);
            Tensor x(Shape{ batch, in_features });
            for (std::int64_t i = 0; i < x.numel(); ++i)
                x.at(i) = rng.uniform() < 0.5 ? 0.0f : rng.normal();
            const Tensor dy =
                Tensor::randn(Shape{ batch, out_features }, rng);

            CsrBuffer csr{ CsrConfig{} };
            csr.encode(x.span());
            CsrConfig fp16_cfg;
            fp16_cfg.value_format = DprFormat::Fp16;
            CsrBuffer csr_fp16(fp16_cfg);
            csr_fp16.encode(x.span());
            DprBuffer dpr16;
            dpr16.encode(DprFormat::Fp16, x.span());
            DprBuffer dpr10;
            dpr10.encode(DprFormat::Fp10, x.span());
            const struct
            {
                const char *name;
                EncodedStash stash;
            } stashes[] = { { "csr", { nullptr, &csr } },
                            { "csr-fp16", { nullptr, &csr_fp16 } },
                            { "dpr-fp16", { &dpr16, nullptr } },
                            { "dpr-fp10", { &dpr10, nullptr } } };

            // dW, db and dX (accumulated into a nonzero start) of one
            // backward, as raw bits.
            auto run = [&](const Tensor *dense, EncodedStash stash) {
                Rng dx_rng(3);
                Tensor dx = Tensor::uniform(x.shape(), dx_rng, -1.0f, 1.0f);
                BwdCtx ctx;
                ctx.inputs = { dense };
                ctx.encoded_inputs = { stash };
                ctx.d_output = &dy;
                ctx.d_inputs = { &dx };
                fc.backward(ctx);
                std::vector<Tensor *> outs = fc.paramGrads();
                outs.push_back(&dx);
                std::vector<std::uint32_t> bits;
                for (const Tensor *t : outs)
                    for (std::int64_t i = 0; i < t->numel(); ++i)
                        bits.push_back(std::bit_cast<std::uint32_t>(
                            t->data()[i]));
                return bits;
            };
            for (const auto &s : stashes) {
                Tensor decoded(x.shape());
                s.stash.decodeRange(0, decoded.span());
                for (int be = 0; be < simd::kNumBackends; ++be) {
                    const auto backend = static_cast<simd::Backend>(be);
                    if (!simd::backendAvailable(backend))
                        continue;
                    simd::setBackend(backend);
                    for (const int threads : { 1, 4 }) {
                        setNumThreads(threads);
                        EXPECT_EQ(run(&decoded, {}), run(nullptr, s.stash))
                            << s.name << " " << simd::backendName(backend)
                            << " threads " << threads << " in "
                            << in_features << " batch " << batch;
                    }
                }
            }
        }
    simd::initFromEnv();
    setNumThreads(0);
}

struct RunOut
{
    std::vector<float> grads;
    std::uint64_t peak;
};

RunOut
runModel(const models::ModelEntry &entry, bool elide)
{
    GistConfig cfg;
    cfg.dpr = true;
    cfg.dpr_format = DprFormat::Fp16;
    cfg.elide_decode_buffer = elide;

    Graph g = entry.build(8);
    Rng rng(5);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(buildSchedule(g, cfg), exec);

    Rng drng(6);
    Tensor batch = Tensor::uniform(g.node(0).out_shape, drng, 0.0f,
                                   1.0f);
    std::vector<std::int32_t> labels;
    for (int i = 0; i < 8; ++i)
        labels.push_back(i % models::kTinyClasses);
    exec.runMinibatch(batch, labels);
    return { flatGradsOf(g), exec.stats().peak_pool_bytes };
}

TEST(ElideDecode, GradientsAreBitIdenticalToDecodedPath)
{
    for (const auto &entry : models::tinyModels()) {
        const auto with = runModel(entry, true);
        const auto without = runModel(entry, false);
        EXPECT_EQ(with.grads, without.grads) << entry.name;
    }
}

TEST(ElideDecode, ReducesTheMeasuredPeak)
{
    // Networks whose DPR stashes feed convolutions benefit; the others
    // must at least never regress.
    bool any_improved = false;
    for (const auto &entry : models::tinyModels()) {
        const auto with = runModel(entry, true);
        const auto without = runModel(entry, false);
        EXPECT_LE(with.peak, without.peak) << entry.name;
        any_improved = any_improved || (with.peak < without.peak);
    }
    EXPECT_TRUE(any_improved);
}

TEST(ElideDecode, FullLossyConfigStillTrains)
{
    GistConfig cfg = GistConfig::lossy(DprFormat::Fp16);
    cfg.elide_decode_buffer = true;
    Graph g = models::tinyResnet(8);
    Rng rng(7);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(buildSchedule(g, cfg), exec);
    Rng drng(8);
    Tensor batch = Tensor::uniform(g.node(0).out_shape, drng, 0.0f,
                                   1.0f);
    std::vector<std::int32_t> labels(8, 2);
    const float l1 = exec.runMinibatch(batch, labels);
    const float l2 = exec.runMinibatch(batch, labels);
    EXPECT_TRUE(std::isfinite(l1));
    EXPECT_EQ(l1, l2);
}

} // namespace
} // namespace gist
