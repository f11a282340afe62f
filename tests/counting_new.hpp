// A counting global operator new, so a test can assert that a code region
// allocates nothing: read g_allocations before and after it. The counter
// is the only addition; storage still comes from malloc. The definitions
// replace the binary's global allocation functions, so include this from
// exactly one source file of a test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
