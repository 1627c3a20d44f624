#include "alloc_budget.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_used{0};
std::atomic<std::size_t> g_budget{0};
}  // namespace

namespace supremm::testing {

void arm_alloc_budget(std::size_t budget) {
  g_used = 0;
  g_budget = budget;
  g_armed = true;
}

void disarm_alloc_budget() { g_armed = false; }

}  // namespace supremm::testing

void* operator new(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed) && g_used.fetch_add(n) + n > g_budget.load()) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
