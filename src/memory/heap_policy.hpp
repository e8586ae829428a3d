/**
 * @file
 * Process heap policy for training steps.
 *
 * The executor frees every stash, value and gradient of a step and
 * allocates it again on the next one. With glibc's defaults that memory
 * goes back to the kernel between steps (heap trim, and munmap of
 * blocks above the dynamic mmap threshold), and the next step faults it
 * back in, page by page. keepFreedHeapMapped() sets the policy that
 * keeps it mapped: freed memory stays in the allocator's free lists and
 * the next step reuses it. The process reaches the same high water every
 * step either way, so its peak resident size does not change; only the
 * dips between steps go away.
 */

#pragma once

namespace gist {

/**
 * Keep memory freed by the process mapped for reuse: on glibc, raise
 * the trim threshold so the heap is not returned to the kernel, and fix
 * the mmap threshold at its 32 MiB maximum so step-sized buffers come
 * from the heap instead of their own mappings. The first call sets the
 * policy for the whole process; later calls do nothing. An allocator
 * that rejects the settings (AddressSanitizer's does) gets a warning;
 * off glibc the call does nothing. Called by every Executor constructor.
 */
void keepFreedHeapMapped();

} // namespace gist
