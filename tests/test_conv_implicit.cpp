/**
 * @file
 * Implicit-GEMM convolution against explicit references.
 *
 * ConvLayer forward runs one gemmConv over the minibatch, backward one
 * gemmConvDx (one GEMM per sub-pixel phase) and one gemmConvDw per tile
 * of images, packing the operands straight from the image, dY or the
 * tile an encoded stash decodes into. Forward and dW must equal the
 * per-image im2col + gemm lowering bit for bit; dX must equal a direct
 * convolution loop nest in gemmConvDx's documented sum order, rounded
 * as the backend's GEMM kernel rounds. Both hold at every geometry,
 * batch size, stash encoding, SIMD backend and thread count, and with
 * the operands between NaN guard bands (a stride-1 window with out_w ==
 * in_w reads its B rows in place under lane masks).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "encodings/csr.hpp"
#include "encodings/dpr.hpp"
#include "graph/layer.hpp"
#include "layers/conv.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gist {
namespace {

/** One conv shape: input C x H x W, out_c filters of kh x kw. */
struct Case
{
    std::int64_t in_c, in_h, in_w, out_c;
    ConvSpec spec;

    std::string
    name() const
    {
        return std::to_string(in_c) + "x" + std::to_string(in_h) + "x" +
               std::to_string(in_w) + " -> " + std::to_string(out_c) +
               " k" + std::to_string(spec.kernel_h) + "x" +
               std::to_string(spec.kernel_w) + " s" +
               std::to_string(spec.stride_h) + "," +
               std::to_string(spec.stride_w) + " p" +
               std::to_string(spec.pad_h) + "," +
               std::to_string(spec.pad_w);
    }
};

ConvSpec
spec(std::int64_t out_c, std::int64_t kh, std::int64_t kw, std::int64_t sh,
     std::int64_t sw, std::int64_t ph, std::int64_t pw)
{
    return ConvSpec{ out_c, kh, kw, sh, sw, ph, pw, true };
}

/** Strides 1/2/3, pads 0-2, kernels 1/2/3/5 and non-square; many output
 *  sizes p are not multiples of 16, and out_c crosses the 6-row panel
 *  and 48-row block edges. The strided cases leave remainder rows and
 *  columns that no output reads, and phases that no tap reaches. */
const std::vector<Case> &
cases()
{
    static const std::vector<Case> c = {
        { 3, 7, 9, 5, spec(5, 3, 3, 1, 1, 1, 1) },    // p = 63
        { 4, 5, 5, 16, spec(16, 1, 1, 1, 1, 0, 0) },  // 1x1, p = 25
        { 6, 9, 9, 7, spec(7, 1, 1, 2, 2, 0, 0) },    // k*p < C*H*W
        { 2, 6, 7, 50, spec(50, 5, 5, 1, 1, 2, 2) },  // out_c > 48
        { 3, 11, 10, 8, spec(8, 3, 3, 2, 2, 1, 1) },  // p = 30
        { 2, 8, 12, 6, spec(6, 3, 5, 1, 2, 0, 2) },   // non-square
        { 3, 9, 8, 9, spec(9, 5, 3, 2, 1, 2, 1) },    // non-square
        { 5, 3, 3, 4, spec(4, 3, 3, 1, 1, 0, 0) },    // p = 1
        { 4, 8, 8, 16, spec(16, 3, 3, 1, 1, 1, 1) },  // p = 64
        // Output rows of 16, 8 and 4 positions, read in place, with
        // windows hanging 1 or 2 over the padding.
        { 2, 12, 16, 6, spec(6, 5, 5, 1, 1, 2, 2) },
        { 3, 8, 8, 7, spec(7, 5, 5, 1, 1, 2, 2) },
        { 3, 4, 4, 5, spec(5, 3, 3, 1, 1, 1, 1) },
        // dX sub-pixel phases: stride 2 with a remainder row and column
        // (in 10x9, out 4x4), a 1x1 stride 2 whose odd phases have no
        // taps, stride (2, 1) and (1, 2), and stride 3 past a kernel of
        // 2, so phase (2, 2) has no taps.
        { 3, 10, 9, 7, spec(7, 3, 3, 2, 2, 0, 0) },
        { 20, 9, 8, 13, spec(13, 1, 1, 2, 2, 0, 0) },
        { 4, 7, 6, 5, spec(5, 3, 3, 2, 1, 1, 1) },
        { 3, 5, 11, 6, spec(6, 3, 5, 1, 2, 1, 2) },
        { 2, 11, 10, 4, spec(4, 2, 2, 3, 3, 0, 0) },
        // Read in place with a tall kernel: pads (3, 1) hang 3 rows
        // over the top and bottom edges.
        { 3, 9, 10, 7, spec(7, 7, 3, 1, 1, 3, 1) },
        // out_w == in_w but out_h != in_h: still read in place.
        { 2, 12, 20, 6, spec(6, 3, 5, 1, 1, 0, 2) },
    };
    return c;
}

/** Forward output and every backward gradient of one run. */
struct Result
{
    std::vector<float> y, dx, dw, db;
};

void
expectBitwise(const std::vector<float> &want, const std::vector<float> &got,
              const std::string &what)
{
    ASSERT_EQ(want.size(), got.size()) << what;
    for (size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(float)), 0)
            << what << ": element " << i << " want " << want[i]
            << " got " << got[i];
}

void
expectSame(const Result &want, const Result &got, const std::string &what)
{
    if (!want.y.empty() && !got.y.empty())
        expectBitwise(want.y, got.y, what + " y");
    expectBitwise(want.dx, got.dx, what + " dx");
    expectBitwise(want.dw, got.dw, what + " dW");
    expectBitwise(want.db, got.db, what + " db");
}

/** acc + a * b as the active backend's GEMM kernel rounds it: one
 *  FMA on avx2/avx512, a rounded product then a rounded sum on the
 *  generic scalar kernels. */
float
madd(float acc, float a, float b)
{
    const simd::Backend be = simd::activeBackend();
    if (be == simd::Backend::Avx2 || be == simd::Backend::Avx512)
        return std::fma(a, b, acc);
    return acc + a * b;
}

/**
 * dX += dY convolved with the flipped, transposed weights, as a direct
 * loop nest in gemmConvDx's sum order: each dX element is one chain
 * from its prior value over oc ascending, kernel row descending, kernel
 * column descending, visiting only the taps of its sub-pixel phase (kh
 * with (ih + pad_h - kh) % stride_h == 0, likewise in w). A visited tap
 * whose dY position falls outside dY adds w * 0.
 */
void
dxReference(const ConvGeometry &g, std::int64_t batch, std::int64_t out_c,
            const float *w, const float *dy, float *dx)
{
    const std::int64_t out_h = g.outH();
    const std::int64_t out_w = g.outW();
    for (std::int64_t img = 0; img < batch; ++img)
        for (std::int64_t c = 0; c < g.in_c; ++c)
            for (std::int64_t ih = 0; ih < g.in_h; ++ih)
                for (std::int64_t iw = 0; iw < g.in_w; ++iw) {
                    float &out =
                        dx[((img * g.in_c + c) * g.in_h + ih) * g.in_w + iw];
                    float acc = out;
                    for (std::int64_t oc = 0; oc < out_c; ++oc)
                        for (std::int64_t kh = g.kernel_h - 1; kh >= 0; --kh) {
                            const std::int64_t th = ih + g.pad_h - kh;
                            if (th % g.stride_h != 0)
                                continue;
                            const std::int64_t oh = th / g.stride_h;
                            for (std::int64_t kw = g.kernel_w - 1; kw >= 0;
                                 --kw) {
                                const std::int64_t tw = iw + g.pad_w - kw;
                                if (tw % g.stride_w != 0)
                                    continue;
                                const std::int64_t ow = tw / g.stride_w;
                                const bool inside = oh >= 0 && oh < out_h &&
                                                    ow >= 0 && ow < out_w;
                                const float v =
                                    inside ? dy[((img * out_c + oc) * out_h +
                                                 oh) *
                                                    out_w +
                                                ow]
                                           : 0.0f;
                                acc = madd(acc,
                                           w[((oc * g.in_c + c) * g.kernel_h +
                                              kh) *
                                                 g.kernel_w +
                                             kw],
                                           v);
                            }
                        }
                    out = acc;
                }
}

/** One layer with fixed random weights, input, output gradient and a
 *  nonzero prior dX that the backward accumulates onto. */
struct Fixture
{
    Case c;
    std::int64_t batch;
    ConvLayer conv;
    Shape in_shape;
    Tensor x;
    Tensor dy;
    Tensor dx0;
    ConvGeometry g;

    Fixture(const Case &cs, std::int64_t n, std::uint64_t seed)
        : c(cs), batch(n), conv(cs.in_c, cs.spec),
          in_shape(Shape::nchw(n, cs.in_c, cs.in_h, cs.in_w))
    {
        Rng rng(seed);
        conv.initParams(rng);
        // Non-zero bias so the bias add and its gradient are exercised.
        for (std::int64_t i = 0; i < conv.params()[1]->numel(); ++i)
            conv.params()[1]->at(i) = rng.normal();
        // ReLU-like input: about half zeros, so CSR stores something.
        x = Tensor::randn(in_shape, rng);
        for (std::int64_t i = 0; i < x.numel(); ++i)
            if (x.at(i) < 0.0f)
                x.at(i) = 0.0f;
        dy = Tensor::randn(conv.outputShape({ &in_shape, 1 }), rng);
        dx0 = Tensor::randn(in_shape, rng);
        g.in_c = cs.in_c;
        g.in_h = cs.in_h;
        g.in_w = cs.in_w;
        g.kernel_h = cs.spec.kernel_h;
        g.kernel_w = cs.spec.kernel_w;
        g.stride_h = cs.spec.stride_h;
        g.stride_w = cs.spec.stride_w;
        g.pad_h = cs.spec.pad_h;
        g.pad_w = cs.spec.pad_w;
    }

    /** The explicit lowering of forward and dW, image by image, on
     *  input values @p xv; dX by dxReference(). */
    Result
    reference(const std::vector<float> &xv)
    {
        const std::int64_t k = g.colRows();
        const std::int64_t p = g.colCols();
        const std::int64_t image = c.in_c * c.in_h * c.in_w;
        const std::int64_t out_c = c.out_c;
        const float *w = conv.params()[0]->data();
        const float *b = conv.params()[1]->data();
        std::vector<float> col(static_cast<size_t>(k * p));
        Result r;
        r.y.assign(static_cast<size_t>(batch * out_c * p), 0.0f);
        r.dx.assign(dx0.data(), dx0.data() + dx0.numel());
        r.dw.assign(static_cast<size_t>(out_c * k), 0.0f);
        r.db.assign(static_cast<size_t>(out_c), 0.0f);
        for (std::int64_t img = 0; img < batch; ++img) {
            const float *x_img = xv.data() + img * image;
            const float *dy_img = dy.data() + img * out_c * p;
            float *y_img = r.y.data() + img * out_c * p;
            im2col(g, x_img, col.data());
            gemm(false, false, out_c, p, k, 1.0f, w, col.data(), 0.0f,
                 y_img);
            for (std::int64_t oc = 0; oc < out_c; ++oc)
                for (std::int64_t j = 0; j < p; ++j)
                    y_img[oc * p + j] += b[oc];
            gemm(false, true, out_c, k, p, 1.0f, dy_img, col.data(), 1.0f,
                 r.dw.data());
            for (std::int64_t oc = 0; oc < out_c; ++oc) {
                float acc = 0.0f;
                for (std::int64_t j = 0; j < p; ++j)
                    acc += dy_img[oc * p + j];
                r.db[static_cast<size_t>(oc)] += acc;
            }
        }
        dxReference(g, batch, out_c, w, dy.data(), r.dx.data());
        return r;
    }

    std::vector<float>
    xValues() const
    {
        return { x.data(), x.data() + x.numel() };
    }

    /** ConvLayer forward (dense X) and backward from @p stash, or from
     *  the dense X when the stash is invalid. */
    Result
    run(const EncodedStash &stash)
    {
        Result r;
        Tensor y = Tensor::zeros(dy.shape());
        FwdCtx f;
        f.inputs = { &x };
        f.output = &y;
        conv.forward(f);
        r.y.assign(y.data(), y.data() + y.numel());
        Tensor dx = dx0;
        BwdCtx b;
        b.inputs = { stash.valid() ? nullptr : &x };
        b.encoded_inputs = { stash };
        b.d_output = &dy;
        b.d_inputs = { &dx };
        conv.backward(b);
        r.dx.assign(dx.data(), dx.data() + dx.numel());
        const auto grads = conv.paramGrads();
        r.dw.assign(grads[0]->data(), grads[0]->data() + grads[0]->numel());
        r.db.assign(grads[1]->data(), grads[1]->data() + grads[1]->numel());
        return r;
    }
};

/** Restores the SIMD backend and thread count a test changed. */
class ConvImplicit : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        simd::initFromEnv();
        setNumThreads(0);
    }
};

TEST_F(ConvImplicit, DenseForwardBackwardMatchIm2colReferenceOnEveryBackend)
{
    for (int be = 0; be < simd::kNumBackends; ++be) {
        const auto backend = static_cast<simd::Backend>(be);
        if (!simd::backendAvailable(backend))
            continue;
        simd::setBackend(backend);
        for (const int threads : { 1, 4 }) {
            setNumThreads(threads);
            for (const Case &c : cases())
                for (const std::int64_t batch : { 1, 7, 33 }) {
                    Fixture f(c, batch,
                              100 + static_cast<std::uint64_t>(batch));
                    expectSame(f.reference(f.xValues()), f.run({}),
                               std::string(simd::backendName(backend)) +
                                   " " + std::to_string(threads) +
                                   " threads " + c.name() + " batch " +
                                   std::to_string(batch));
                }
        }
    }
}

TEST_F(ConvImplicit, EncodedStashesMatchReferenceOnDecodedValues)
{
    // Batches 7 and 33 are not multiples of any case's tile size (9
    // for 3x3 stride 1, 1 for 1x1), so a partial last tile is covered.
    for (const Case &c : cases())
        for (const std::int64_t batch : { 7, 33 }) {
            Fixture f(c, batch, 200 + static_cast<std::uint64_t>(batch));
            const std::vector<float> xv = f.xValues();
            std::vector<float> decoded(xv.size());

            CsrBuffer csr{ CsrConfig{} };
            csr.encode(xv);
            CsrConfig lossy_cfg;
            lossy_cfg.value_format = DprFormat::Fp16;
            CsrBuffer csr_lossy(lossy_cfg);
            csr_lossy.encode(xv);
            DprBuffer dpr16;
            dpr16.encode(DprFormat::Fp16, xv);
            DprBuffer dpr10;
            dpr10.encode(DprFormat::Fp10, xv);

            struct Stash
            {
                const char *name;
                const DprBuffer *dpr;
                const CsrBuffer *csr;
            };
            const Stash stashes[] = { { "csr", nullptr, &csr },
                                      { "csr-fp16", nullptr, &csr_lossy },
                                      { "dpr-fp16", &dpr16, nullptr },
                                      { "dpr-fp10", &dpr10, nullptr } };
            for (const Stash &s : stashes) {
                if (s.dpr)
                    s.dpr->decode(decoded);
                else
                    s.csr->decode(decoded);
                // Forward reads the dense X, the reference the decoded
                // one: only the gradients are comparable.
                Result got = f.run(EncodedStash{ s.dpr, s.csr });
                got.y.clear();
                expectSame(f.reference(decoded), got,
                           std::string(s.name) + " " + c.name() +
                               " batch " + std::to_string(batch));
            }
        }
}

TEST_F(ConvImplicit, OneAndFourThreadsAreBitwiseIdentical)
{
    // Large enough that every conv GEMM passes the core's inline
    // threshold and splits its tiles across the pool; the stride-2 case
    // runs its dX phases through the bounce tile on every worker.
    const Case bigs[] = { { 16, 16, 16, 50, spec(50, 3, 3, 1, 1, 1, 1) },
                          { 16, 17, 16, 50, spec(50, 3, 3, 2, 2, 1, 1) } };
    for (const Case &big : bigs) {
        for (const std::int64_t batch : { 7, 33 }) {
            Fixture f(big, batch, 300 + static_cast<std::uint64_t>(batch));
            CsrBuffer csr{ CsrConfig{} };
            csr.encode(f.xValues());
            DprBuffer dpr;
            dpr.encode(DprFormat::Fp16, f.xValues());
            const EncodedStash stashes[] = { {},
                                             { nullptr, &csr },
                                             { &dpr, nullptr } };
            for (const EncodedStash &s : stashes) {
                setNumThreads(1);
                const Result one = f.run(s);
                setNumThreads(4);
                const Result four = f.run(s);
                const char *kind = s.csr ? "csr" : s.dpr ? "dpr" : "dense";
                expectSame(one, four,
                           std::string(kind) + " " + big.name() + " batch " +
                               std::to_string(batch));
            }
            // The dense run also matches the references at 4 threads.
            expectSame(f.reference(f.xValues()), f.run({}),
                       "4 threads vs reference " + big.name() + " batch " +
                           std::to_string(batch));
        }
    }
}

TEST_F(ConvImplicit, MaskedLanesNeverReadPastTheOperands)
{
    // A window read in place loads 16 floats per tap straight from X (or
    // dY), and masks off the lanes that hang over the padding or past
    // the image. Here X, dY and W sit between NaN guard bands, so a
    // masked lane that let a neighbouring value through would show as a
    // NaN or a changed bit in Y, dX or dW.
    const Case guarded[] = {
        { 3, 7, 9, 5, spec(5, 3, 3, 1, 1, 1, 1) },
        { 2, 12, 16, 6, spec(6, 5, 5, 1, 1, 2, 2) },
        { 3, 4, 4, 5, spec(5, 3, 3, 1, 1, 1, 1) },
        { 3, 9, 10, 7, spec(7, 7, 3, 1, 1, 3, 1) },
        { 2, 12, 20, 6, spec(6, 3, 5, 1, 1, 0, 2) },
        { 3, 11, 10, 8, spec(8, 3, 3, 2, 2, 1, 1) }, // dX phases in place
    };
    constexpr std::int64_t kGuard = 1024;
    const float nan = std::nanf("");
    const auto guard = [&](const float *v, std::int64_t n) {
        std::vector<float> g(static_cast<size_t>(n + 2 * kGuard), nan);
        std::copy(v, v + n, g.begin() + kGuard);
        return g;
    };
    for (int be = 0; be < simd::kNumBackends; ++be) {
        const auto backend = static_cast<simd::Backend>(be);
        if (!simd::backendAvailable(backend))
            continue;
        simd::setBackend(backend);
        for (const int threads : { 1, 4 }) {
            setNumThreads(threads);
            for (const Case &c : guarded)
                for (const std::int64_t batch : { 1, 7 }) {
                    Fixture f(c, batch, 400 + static_cast<std::uint64_t>(batch));
                    const std::string what =
                        std::string(simd::backendName(backend)) + " " +
                        std::to_string(threads) + " threads " + c.name() +
                        " batch " + std::to_string(batch);
                    const Result want = f.reference(f.xValues());
                    const std::int64_t k = f.g.colRows();
                    const std::int64_t p = f.g.colCols();
                    const Tensor &w = *f.conv.params()[0];
                    const auto gx = guard(f.x.data(), f.x.numel());
                    const auto gdy = guard(f.dy.data(), f.dy.numel());
                    const auto gw = guard(w.data(), w.numel());

                    // Forward without bias: the lowering image by image.
                    std::vector<float> col(static_cast<size_t>(k * p));
                    std::vector<float> want_y(
                        static_cast<size_t>(batch * c.out_c * p));
                    for (std::int64_t img = 0; img < batch; ++img) {
                        im2col(f.g, f.x.data() + img * c.in_c * c.in_h * c.in_w,
                               col.data());
                        gemm(false, false, c.out_c, p, k, 1.0f, w.data(),
                             col.data(), 0.0f,
                             want_y.data() + img * c.out_c * p);
                    }
                    std::vector<float> y(want_y.size());
                    gemmConv(f.g, batch, c.out_c, gw.data() + kGuard,
                             gx.data() + kGuard, y.data());
                    expectBitwise(want_y, y, what + " y");

                    std::vector<float> dx(f.dx0.data(),
                                          f.dx0.data() + f.dx0.numel());
                    gemmConvDx(f.g, batch, c.out_c, gw.data() + kGuard,
                               gdy.data() + kGuard, dx.data());
                    expectBitwise(want.dx, dx, what + " dx");

                    std::vector<float> dw(want.dw.size(), 0.0f);
                    gemmConvDw(f.g, batch, c.out_c, gdy.data() + kGuard,
                               gx.data() + kGuard, dw.data());
                    expectBitwise(want.dw, dw, what + " dW");
                }
        }
    }
}

} // namespace
} // namespace gist
