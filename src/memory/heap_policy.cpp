#include "memory/heap_policy.hpp"

#include <atomic>
#include <cstdlib>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/logging.hpp"

namespace gist {

// Cold: its body runs once per process, when the first executor is built.
[[gnu::cold]] void
keepFreedHeapMapped()
{
#if defined(__GLIBC__)
    // 1 GiB of free heap may stay mapped before glibc trims it; a step's
    // freed buffers are far below that, so in practice nothing is trimmed.
    constexpr int kTrimThresholdBytes = 1 << 30;
    // The largest value glibc accepts on 64-bit (half its heap size).
    constexpr int kMmapThresholdBytes = 32 << 20;
    static std::atomic<bool> applied{ false };
    if (applied.exchange(true))
        return;
    if (!mallopt(M_TRIM_THRESHOLD, kTrimThresholdBytes) ||
        !mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes))
        GIST_WARN("the allocator rejected the heap policy; memory a step "
                  "frees may be unmapped and faulted back in next step");
#endif
}

} // namespace gist
