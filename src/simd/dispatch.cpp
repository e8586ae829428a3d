/**
 * @file
 * Backend selection. The active table is an atomic pointer resolved on
 * first use: GIST_SIMD wins when set to an available backend (an
 * unavailable or unparsable value warns once on stderr and falls back),
 * otherwise the strongest ISA the CPU reports. Builds configured with
 * -DGIST_SIMD_DISABLE=ON compile only the scalar TU and this file with
 * GIST_SIMD_SCALAR_ONLY, so every query collapses to the reference
 * backend.
 */

#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if GIST_SIMD_X86 && !defined(GIST_SIMD_SCALAR_ONLY)
#define GIST_SIMD_HAVE_ISA 1
#else
#define GIST_SIMD_HAVE_ISA 0
#endif

namespace gist::simd {
namespace {

bool
cpuHasSse42()
{
#if GIST_SIMD_X86 && defined(__GNUC__)
    return __builtin_cpu_supports("sse4.2") &&
           __builtin_cpu_supports("popcnt");
#else
    return false;
#endif
}

bool
cpuHasAvx2()
{
#if GIST_SIMD_X86 && defined(__GNUC__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

bool
cpuHasAvx512()
{
#if GIST_SIMD_X86 && defined(__GNUC__)
    // The avx512 table keeps avx2's kernels for everything but GEMM.
    return cpuHasAvx2() && __builtin_cpu_supports("avx512f");
#else
    return false;
#endif
}

const SimdOps *
resolveFromEnv()
{
    Backend b = bestBackend();
    if (const char *env = std::getenv("GIST_SIMD"); env && *env) {
        Backend requested;
        if (!parseBackend(env, &requested)) {
            std::fprintf(stderr,
                         "gist: GIST_SIMD=%s not recognized "
                         "(scalar|sse2|avx2|avx512); using %s\n",
                         env, backendName(b));
        } else if (!backendAvailable(requested)) {
            std::fprintf(stderr,
                         "gist: GIST_SIMD=%s unavailable on this "
                         "build/CPU; using %s\n",
                         env, backendName(b));
        } else {
            b = requested;
        }
    }
    return &opsFor(b);
}

/* Resolved lazily; setBackend()/initFromEnv() store a new table. Kernel
 * launches between parallel regions see a consistent table because the
 * pool barrier orders the store before the next dispatch. */
std::atomic<const SimdOps *> g_active{nullptr};

const SimdOps *
activeTable()
{
    const SimdOps *t = g_active.load(std::memory_order_acquire);
    if (t)
        return t;
    const SimdOps *resolved = resolveFromEnv();
    // First resolver to land wins; all racers resolve identically anyway.
    if (g_active.compare_exchange_strong(t, resolved,
                                         std::memory_order_acq_rel))
        return resolved;
    return t;
}

} // namespace

const SimdOps &
ops()
{
    return *activeTable();
}

Backend
activeBackend()
{
    return activeTable()->backend;
}

const char *
backendName(Backend b)
{
    switch (b) {
    case Backend::Scalar: return "scalar";
    case Backend::Sse2: return "sse2";
    case Backend::Avx2: return "avx2";
    case Backend::Avx512: return "avx512";
    }
    return "?";
}

bool
backendAvailable(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return true;
    case Backend::Sse2:
#if GIST_SIMD_HAVE_ISA
        return cpuHasSse42();
#else
        return false;
#endif
    case Backend::Avx2:
#if GIST_SIMD_HAVE_ISA
        return cpuHasAvx2();
#else
        return false;
#endif
    case Backend::Avx512:
#if GIST_SIMD_HAVE_ISA
        return cpuHasAvx512();
#else
        return false;
#endif
    }
    return false;
}

Backend
bestBackend()
{
    if (backendAvailable(Backend::Avx512))
        return Backend::Avx512;
    if (backendAvailable(Backend::Avx2))
        return Backend::Avx2;
    if (backendAvailable(Backend::Sse2))
        return Backend::Sse2;
    return Backend::Scalar;
}

const SimdOps &
opsFor(Backend b)
{
#if GIST_SIMD_HAVE_ISA
    if (b == Backend::Avx512 && backendAvailable(Backend::Avx512))
        return avx512Ops();
    if (b == Backend::Avx2 && backendAvailable(Backend::Avx2))
        return avx2Ops();
    if (b == Backend::Sse2 && backendAvailable(Backend::Sse2))
        return sse2Ops();
#endif
    (void)b;
    return scalarOps();
}

bool
parseBackend(const char *s, Backend *out)
{
    if (std::strcmp(s, "scalar") == 0) {
        *out = Backend::Scalar;
        return true;
    }
    if (std::strcmp(s, "sse2") == 0) {
        *out = Backend::Sse2;
        return true;
    }
    if (std::strcmp(s, "avx2") == 0) {
        *out = Backend::Avx2;
        return true;
    }
    if (std::strcmp(s, "avx512") == 0) {
        *out = Backend::Avx512;
        return true;
    }
    return false;
}

void
setBackend(Backend b)
{
    g_active.store(&opsFor(b), std::memory_order_release);
}

Backend
initFromEnv()
{
    const SimdOps *resolved = resolveFromEnv();
    g_active.store(resolved, std::memory_order_release);
    return resolved->backend;
}

} // namespace gist::simd
