// Heap-allocation counting for the benchmark binary.
//
// alloc_counter.cc replaces the global operator new/delete of this binary
// only.  Every thread counts into its own slot, so counting never contends
// and a single thread's count can be read at span boundaries (the traced
// day attributes allocations to layers that way).  Counting is off unless
// a CountingScope is alive, so timed passes pay one relaxed load and a
// branch per allocation and nothing else.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made by the calling thread while counting was on.
std::uint64_t thread_allocs() noexcept;

/// Allocations made by all counted threads while counting was on.
std::uint64_t total_allocs() noexcept;

/// Turns counting on for its lifetime (scopes do not nest).
class CountingScope {
 public:
  CountingScope() noexcept;
  ~CountingScope();
  CountingScope(const CountingScope&) = delete;
  CountingScope& operator=(const CountingScope&) = delete;
};

}  // namespace perfbench
