#include "core/kernels/backend.hpp"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#if defined(YF_KERNELS_AVX512)
#include <cpuid.h>
#endif

#include "core/env.hpp"
#include "core/kernels/kernel_table.hpp"

namespace yf::core {

namespace {

bool cpu_has_avx2_fma() {
#if defined(YF_KERNELS_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// avx512f and avx512dq in cpuid, and XCR0 showing that the OS saves the
/// SSE, YMM, opmask and both ZMM state components (bits 1, 2 and 5-7);
/// without the last, zmm instructions fault.
bool cpu_has_avx512() {
#if defined(YF_KERNELS_AVX512)
  if (!__builtin_cpu_supports("avx512f") || !__builtin_cpu_supports("avx512dq")) return false;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & bit_OSXSAVE) == 0) return false;
  unsigned lo = 0, hi = 0;
  __asm__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  const std::uint64_t xcr0 = (std::uint64_t{hi} << 32) | lo;
  constexpr std::uint64_t kZmmState = 0xE6;
  return (xcr0 & kZmmState) == kZmmState;
#else
  return false;
#endif
}

/// The AVX-512 table reuses AVX2 entries, so it also needs AVX2+FMA.
bool avx512_supported() {
  static const bool supported = simd_supported() && cpu_has_avx512();
  return supported;
}

KernelBackend resolve_initial_backend() {
  const KernelBackend best = simd_supported() ? KernelBackend::kSimd : KernelBackend::kScalar;
  const std::string env = env_str("YF_KERNEL_BACKEND", "");
  if (env.empty()) return best;
  KernelBackend requested;
  if (!kernel_backend_from_string(env.c_str(), requested)) {
    std::fprintf(stderr, "yf: unknown YF_KERNEL_BACKEND \"%s\" (want scalar|simd), using %s\n",
                 env.c_str(), kernel_backend_name(best));
    return best;
  }
  if (requested == KernelBackend::kSimd && !simd_supported()) {
    std::fprintf(stderr, "yf: YF_KERNEL_BACKEND=simd but AVX2+FMA unavailable, using scalar\n");
    return KernelBackend::kScalar;
  }
  return requested;
}

const detail::KernelTable& table_of(KernelBackend backend) {
#ifdef YF_KERNELS_AVX512
  if (backend == KernelBackend::kSimd && avx512_supported()) return detail::kAvx512Kernels;
#endif
#ifdef YF_KERNELS_AVX2
  if (backend == KernelBackend::kSimd) return detail::kAvx2Kernels;
#endif
  (void)backend;
  return detail::kScalarKernels;
}

}  // namespace

namespace detail {

std::vector<NamedKernelTable> runnable_tables() {
  std::vector<NamedKernelTable> tables{{"scalar", &kScalarKernels}};
#ifdef YF_KERNELS_AVX2
  if (simd_supported()) tables.push_back({"avx2", &kAvx2Kernels});
#endif
#ifdef YF_KERNELS_AVX512
  if (avx512_supported()) tables.push_back({"avx512", &kAvx512Kernels});
#endif
  return tables;
}

std::atomic<const KernelTable*> g_active_table{nullptr};

const KernelTable& resolve_active_table() {
  // A set_kernel_backend() that won the race keeps its table.
  const KernelTable* expected = nullptr;
  g_active_table.compare_exchange_strong(expected, &table_of(resolve_initial_backend()),
                                         std::memory_order_relaxed);
  return *g_active_table.load(std::memory_order_relaxed);
}

}  // namespace detail

bool simd_supported() {
  static const bool supported = cpu_has_avx2_fma();
  return supported;
}

KernelBackend active_kernel_backend() {
  return &detail::active_table() == &detail::kScalarKernels ? KernelBackend::kScalar
                                                            : KernelBackend::kSimd;
}

void set_kernel_backend(KernelBackend backend) {
  if (backend == KernelBackend::kSimd && !simd_supported()) {
    throw std::invalid_argument("set_kernel_backend: simd backend unavailable on this machine");
  }
  detail::g_active_table.store(&table_of(backend), std::memory_order_relaxed);
}

bool kernel_backend_from_string(std::string_view name, KernelBackend& out) {
  if (name == "scalar") {
    out = KernelBackend::kScalar;
    return true;
  }
  if (name == "simd") {
    out = KernelBackend::kSimd;
    return true;
  }
  return false;
}

const char* kernel_backend_name(KernelBackend backend) {
  return backend == KernelBackend::kSimd ? "simd" : "scalar";
}

const char* active_kernel_backend_name() {
  return kernel_backend_name(active_kernel_backend());
}

const char* active_kernel_table_name() {
  const detail::KernelTable* active = &detail::active_table();
  for (const auto& [name, table] : detail::runnable_tables()) {
    if (table == active) return name;
  }
  return "unknown";
}

}  // namespace yf::core
