#include "probe.hpp"

#include <cstdlib>
#include <new>

namespace {

// Plain counter: the driver is single-threaded (see probe.hpp).
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replaced global allocation functions: every operator new of this binary,
// the simulator libraries included, bumps the counter. Deallocation is not
// counted.
void* operator new(std::size_t n) { return checked(counted_alloc(n)); }
void* operator new[](std::size_t n) { return checked(counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return checked(counted_alloc(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return checked(counted_alloc(n, al));
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocations() { return g_allocs; }

int Tracer::open(const char* name, bool probe) {
  Span s;
  s.name = name;
  s.pass = pass;
  s.point = point;
  s.parent = top_;
  s.probe = probe;
  spans_.push_back(s);
  top_ = static_cast<int>(spans_.size()) - 1;
  // Read the clocks last so the span's own bookkeeping stays outside it.
  Span& back = spans_.back();
  back.allocs0 = g_allocs;
  back.t0 = now_ns();
  return top_;
}

void Tracer::close(int idx) {
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.t1 = now_ns();
  s.allocs1 = g_allocs;
  top_ = s.parent;
}

}  // namespace perfbench
