#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> counting{false};
std::atomic<int> paused{0};
std::atomic<std::uint64_t> allocations{0};
std::atomic<std::uint64_t> bytes{0};

void* allocate(std::size_t size) {
  if (counting.load(std::memory_order_relaxed) &&
      paused.load(std::memory_order_relaxed) == 0) {
    allocations.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

void startAllocCounting() {
  allocations.store(0, std::memory_order_relaxed);
  bytes.store(0, std::memory_order_relaxed);
  counting.store(true, std::memory_order_relaxed);
}

AllocTally stopAllocCounting() {
  counting.store(false, std::memory_order_relaxed);
  return {allocations.load(std::memory_order_relaxed),
          bytes.load(std::memory_order_relaxed)};
}

Uncounted::Uncounted() { paused.fetch_add(1, std::memory_order_relaxed); }
Uncounted::~Uncounted() { paused.fetch_sub(1, std::memory_order_relaxed); }

}  // namespace perfbench

// The nothrow and aligned forms keep their library definitions: the nothrow
// ones forward to these, and the aligned ones pair with their own deletes.
void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
