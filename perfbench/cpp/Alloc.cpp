//===- perfbench/cpp/Alloc.cpp - Counting global allocator ----------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// Replaces the global operator new/delete family of the benchmark
// binary with malloc-backed versions that count allocations per
// thread, so allocs-per-operation can be read around any call without
// touching the library. Also reads the process's peak RSS.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdlib>
#include <new>
#include <sys/resource.h>

namespace {

thread_local uint64_t Allocs = 0;

void *allocOrThrow(std::size_t N) {
  ++Allocs;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

void *alignedAllocOrThrow(std::size_t N, std::align_val_t A) {
  ++Allocs;
  void *P = nullptr;
  std::size_t Align = static_cast<std::size_t>(A);
  if (Align < sizeof(void *))
    Align = sizeof(void *);
  if (posix_memalign(&P, Align, N ? N : 1) != 0)
    throw std::bad_alloc();
  return P;
}

} // namespace

uint64_t pb::threadAllocs() { return Allocs; }

double pb::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void *operator new(std::size_t N) { return allocOrThrow(N); }
void *operator new[](std::size_t N) { return allocOrThrow(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  ++Allocs;
  return std::malloc(N ? N : 1);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  ++Allocs;
  return std::malloc(N ? N : 1);
}
void *operator new(std::size_t N, std::align_val_t A) {
  return alignedAllocOrThrow(N, A);
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return alignedAllocOrThrow(N, A);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
