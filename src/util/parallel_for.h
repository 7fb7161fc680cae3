// A type-erased parallel_for, so layers below the engine can run on the
// engine's one pool (engine/thread_pool.h) without depending on it.
#pragma once

#include <cstddef>
#include <functional>

namespace dnsnoise {

/// Runs body(0..n-1), possibly concurrently, and returns when all calls
/// are done.  The engine passes its pool's parallel_for (on_pool in
/// engine/thread_pool.h); an empty one means serially, on the calling
/// thread.
using ParallelFor = std::function<void(
    std::size_t n, const std::function<void(std::size_t)>& body)>;

/// Runs body(0..n-1) through `parallel_for`, or in index order on the
/// calling thread when it is empty.
inline void run_parallel(const ParallelFor& parallel_for, std::size_t n,
                         const std::function<void(std::size_t)>& body) {
  if (parallel_for) {
    parallel_for(n, body);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) body(i);
}

}  // namespace dnsnoise
