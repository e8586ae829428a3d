/**
 * @file
 * Scalar reference backend. Codec loops are pinned unvectorized (see
 * GIST_KIMPL_NOVEC) so this TU stays a genuine one-lane baseline: it is
 * both the bitwise source of truth for the equivalence tests and the
 * denominator of the per-backend speedup rows in bench/micro_simd.
 */

#if defined(__GNUC__) && !defined(__clang__)
#define GIST_KIMPL_NOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define GIST_KIMPL_NOVEC
#endif
#define GIST_KIMPL_NS kernels_scalar

#include "simd/kernels_generic.hpp"

#include "simd/dispatch.hpp"

namespace gist::simd {

const SimdOps &
scalarOps()
{
    namespace k = kernels_scalar;
    static const SimdOps ops = {
        "scalar",
        Backend::Scalar,
        { k::sfEncode<kSfFp16>, k::sfEncode<kSfFp10>, k::sfEncode<kSfFp8> },
        { k::sfDecode<kSfFp16>, k::sfDecode<kSfFp10>, k::sfDecode<kSfFp8> },
        { k::sfQuantize<kSfFp16>, k::sfQuantize<kSfFp10>,
          k::sfQuantize<kSfFp8> },
        k::binarizeEncode,
        k::binarizeBackward,
        k::countNonzero,
        k::csrFill,
        { k::sfEncodeCodes<kSfFp16>, k::sfEncodeCodes<kSfFp10>,
          k::sfEncodeCodes<kSfFp8> },
        k::axpy,
        k::gemmMicro,
        k::reluBackward,
        k::maxPoolArgmax,
        k::maxPoolMatch,
    };
    return ops;
}

} // namespace gist::simd
