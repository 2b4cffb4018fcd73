// Counting global allocator for heap high-water tests.
//
// Replaces the global operator new/delete, so include it from exactly one
// translation unit of a test binary that contains nothing else: the
// override is process-global. g_high_water is the largest g_live_bytes seen
// since it was last reset.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

// ------------------------------------------------------ counting allocator
//
// Every allocation is over-allocated by a header that records the raw
// malloc pointer and the user size, so frees can subtract exactly what
// news added regardless of alignment. Atomics keep it thread-safe, so
// code under test may allocate from worker threads.

std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_high_water{0};

constexpr std::size_t kHeaderWords = 2;  // [raw pointer][user size]

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (align < alignof(std::max_align_t)) align = alignof(std::max_align_t);
  const std::size_t slack = kHeaderWords * sizeof(std::uintptr_t) + align;
  void* raw = std::malloc(size + slack);
  if (raw == nullptr) throw std::bad_alloc();
  auto user_addr =
      (reinterpret_cast<std::uintptr_t>(raw) +
       kHeaderWords * sizeof(std::uintptr_t) + align - 1) &
      ~static_cast<std::uintptr_t>(align - 1);
  auto* header = reinterpret_cast<std::uintptr_t*>(user_addr);
  header[-1] = size;
  header[-2] = reinterpret_cast<std::uintptr_t>(raw);
  const std::size_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t high = g_high_water.load(std::memory_order_relaxed);
  while (live > high &&
         !g_high_water.compare_exchange_weak(high, live,
                                             std::memory_order_relaxed)) {
  }
  return reinterpret_cast<void*>(user_addr);
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  auto* header = reinterpret_cast<std::uintptr_t*>(p);
  g_live_bytes.fetch_sub(header[-1], std::memory_order_relaxed);
  std::free(reinterpret_cast<void*>(header[-2]));
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
