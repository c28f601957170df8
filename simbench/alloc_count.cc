#include "simbench/alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace simbench {
namespace {

// One cache line per slot, so threads counting in different slots never contend. Threads
// beyond kSlots share slots, which stays correct because every slot is atomic.
constexpr unsigned kSlots = 64;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
thread_local int t_slot = -1;

void CountAllocation() {
  if (t_slot < 0) {
    t_slot = static_cast<int>(g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots);
  }
  g_slots[t_slot].count.fetch_add(1, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  CountAllocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t alignment) {
  CountAllocation();
  const auto align = static_cast<std::size_t>(alignment);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

uint64_t AllocationCount() {
  uint64_t total = 0;
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace simbench

// Every replaceable form, so the count does not depend on how the standard library routes
// the array and nothrow forms, and every allocation is released by the matching free.
void* operator new(std::size_t size) { return simbench::Allocate(size); }
void* operator new[](std::size_t size) { return simbench::Allocate(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return simbench::AllocateAligned(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return simbench::AllocateAligned(size, alignment);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return simbench::Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  try {
    return simbench::AllocateAligned(size, alignment);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return ::operator new(size, alignment, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
