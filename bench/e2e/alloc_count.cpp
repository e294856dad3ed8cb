#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

void count(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t n) {
  count(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  count(n);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc needs a size that is a whole multiple of the alignment.
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void* try_allocate(std::size_t n) noexcept {
  try {
    return allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* try_allocate(std::size_t n, std::align_val_t al) noexcept {
  try {
    return allocate_aligned(n, al);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

namespace bench {

AllocScope::AllocScope()
    : start_{g_calls.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)} {
  g_counting.store(true, std::memory_order_relaxed);
}

AllocScope::~AllocScope() { g_counting.store(false, std::memory_order_relaxed); }

AllocTotals AllocScope::totals() const {
  return {g_calls.load(std::memory_order_relaxed) - start_.calls,
          g_bytes.load(std::memory_order_relaxed) - start_.bytes};
}

}  // namespace bench

// Every form is replaced, so no allocation depends on how a runtime's default
// forms forward to one another (a sanitizer runtime supplies its own).
void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) { return allocate_aligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return allocate_aligned(n, al); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return try_allocate(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return try_allocate(n); }
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return try_allocate(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return try_allocate(n, al);
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
