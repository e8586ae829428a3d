/**
 * @file
 * Non-owning pack-source callable for fused operand consumption: the
 * hook gemmPackedB uses to pull an encoded stash's values tile-by-tile
 * straight into its pack buffers, so no dense FP32 copy of the operand
 * is ever materialized.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

namespace gist {

/**
 * Callable filling dst[0..n) with an operand's flat values
 * [offset, offset + n). Mirrors util/parallel.hpp's RangeFn: a
 * non-owning reference (two pointer stores, never a heap allocation) —
 * the consumers are fully synchronous, so the callee always outlives
 * the call expression.
 */
class PackFn
{
  public:
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, PackFn> &&
                  std::is_invocable_v<F &, std::int64_t, float *,
                                      std::int64_t>>>
    PackFn(F &&f) // NOLINT: implicit by design, mirrors RangeFn
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call_([](void *obj, std::int64_t offset, float *dst,
                   std::int64_t n) {
              (*static_cast<std::remove_reference_t<F> *>(obj))(offset,
                                                                dst, n);
          })
    {
    }

    void
    operator()(std::int64_t offset, float *dst, std::int64_t n) const
    {
        call_(obj_, offset, dst, n);
    }

  private:
    void *obj_;
    void (*call_)(void *, std::int64_t, float *, std::int64_t);
};

} // namespace gist
