#include "alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// One cache line per thread; threads past the last slot share it (its
// fetch_add keeps the total exact, only per-thread reads blur).
constexpr std::size_t kSlots = 256;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
std::atomic<bool> g_counting{false};

// Constant-initialized, so reading it from operator new needs no TLS
// guard and cannot recurse into the allocator.
thread_local Slot* t_slot = nullptr;

Slot& own_slot() noexcept {
  if (t_slot == nullptr) {
    const std::size_t index =
        g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[index < kSlots ? index : kSlots - 1];
  }
  return *t_slot;
}

inline void count_one() noexcept {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  own_slot().count.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  count_one();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_one();
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

std::uint64_t thread_allocs() noexcept {
  return own_slot().count.load(std::memory_order_relaxed);
}

std::uint64_t total_allocs() noexcept {
  std::uint64_t sum = 0;
  for (const Slot& slot : g_slots) {
    sum += slot.count.load(std::memory_order_relaxed);
  }
  return sum;
}

CountingScope::CountingScope() noexcept {
  g_counting.store(true, std::memory_order_relaxed);
}

CountingScope::~CountingScope() {
  g_counting.store(false, std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
