// Heap-allocation counter for the allocation-budget tests and perfbench.
//
// The counter itself is always available (a process-wide atomic); the
// operator-new replacement that increments it lives in alloc_hook.cpp,
// which is deliberately NOT a member of the retri_util library: a static
// archive member whose only exports are operator new/delete is never pulled
// in by the linker, so it would silently count nothing. Targets opt in by
// listing src/util/alloc_hook.cpp directly in their sources (see
// retri_alloc_tests and retri_perfbench). alloc_hook_active() probes
// at runtime whether the replacement is actually linked, so consumers can
// distinguish "zero allocations" from "nobody is counting".
#pragma once

#include <atomic>
#include <cstdint>
#include <new>

namespace retri::util {

/// Process-wide allocation count storage. Function-local static so every
/// translation unit (including the hook TU) shares one instance.
inline std::atomic<std::uint64_t>& alloc_counter() noexcept {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// Total heap allocations observed so far (0 forever if the hook TU is not
/// linked). Diff two reads around the code under test.
inline std::uint64_t alloc_count() noexcept {
  return alloc_counter().load(std::memory_order_relaxed);
}

/// True when the counting operator-new replacement is linked into this
/// binary. Probes with a real ::operator new call (which, unlike a
/// new-expression, the compiler may not elide).
inline bool alloc_hook_active() noexcept {
  const std::uint64_t before = alloc_count();
  void* p = ::operator new(1);
  ::operator delete(p);
  return alloc_count() != before;
}

}  // namespace retri::util
