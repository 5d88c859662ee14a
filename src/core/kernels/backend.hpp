// Runtime kernel-backend selection (DESIGN.md §4).
//
// The span kernels in core/kernels.hpp dispatch through a function
// table. Every build carries the portable scalar table; on x86-64 it
// also carries an AVX2 table (kernels_avx2.cpp, built with -mavx2 -mfma)
// and an AVX-512 table (kernels_avx512.cpp, built with -mavx512f
// -mavx512dq), each in its own translation unit. The AVX-512 table
// overrides only the entries that measured faster in zmm and points
// every other entry at the AVX2 function. Selection happens once, at
// first use, from the YF_KERNEL_BACKEND environment variable ("scalar"
// or "simd"); without the override `simd` wins where supported. `simd`
// means the widest SIMD table the CPU runs: AVX-512 when cpuid reports
// avx512f and avx512dq and the OS saves zmm state, else AVX2. Tests and
// benches flip backends in-process with set_kernel_backend, and reach
// each table through detail::runnable_tables().
//
// Switching tables never changes results: elementwise kernels use
// identical per-element arithmetic in every backend (the vector variants
// deliberately avoid fused-multiply-add so each mul/add/div/sqrt rounds
// exactly like its scalar twin), GEMMs sum each element in the canonical
// KC-panel order, and reductions follow the fixed lane-blocked
// accumulation order defined in kernel_table.hpp on every backend.
// tests/core_kernels_test.cpp and tests/gemm_test.cpp pin each runnable
// table against scalar bitwise.
#pragma once

#include <string_view>

namespace yf::core {

enum class KernelBackend {
  kScalar,  ///< portable reference path, no ISA requirements
  kSimd,    ///< widest SIMD table the CPU runs: AVX-512, else AVX2 (needs AVX2+FMA)
};

/// True when this build carries the AVX2 kernel translation unit and the
/// running CPU reports both AVX2 and FMA, so kSimd can be selected. Which
/// SIMD table kSimd then means is active_kernel_table_name()'s answer.
bool simd_supported();

/// Backend the span kernels currently dispatch to. Resolved once from
/// YF_KERNEL_BACKEND when set (an unsupported "simd" request or an
/// unknown value falls back to auto-detection with a stderr note), else
/// from cpuid.
KernelBackend active_kernel_backend();

/// Test/bench hook: force a backend for the current process. Throws
/// std::invalid_argument when asked for kSimd on a machine without AVX2
/// support. Thread-safe; kernels already in flight finish on the table
/// they started with.
void set_kernel_backend(KernelBackend backend);

/// Parse "scalar"/"simd" (the YF_KERNEL_BACKEND values). Returns false
/// on anything else, leaving `out` untouched.
bool kernel_backend_from_string(std::string_view name, KernelBackend& out);

const char* kernel_backend_name(KernelBackend backend);
const char* active_kernel_backend_name();

/// Name of the table the span kernels dispatch to: "scalar", "avx2" or
/// "avx512" (bench JSON records it, so results from hosts with and
/// without AVX-512 can be told apart).
const char* active_kernel_table_name();

}  // namespace yf::core
