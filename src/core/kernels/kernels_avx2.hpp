// AVX2 kernel entries that the AVX-512 table reuses as they are
// (DESIGN.md §4). Only the two SIMD backend translation units include
// this: kernels_avx2.cpp defines these functions, and kernels_avx512.cpp
// points its table at them, so the AVX-512 backend overrides an entry
// only where a zmm version measured faster and duplicates no arithmetic.
#pragma once

#include <cstdint>

namespace yf::core::detail {

void fill_avx2(double* x, std::int64_t n, double v);
void copy_avx2(double* dst, const double* src, std::int64_t n);
void scale_avx2(double* x, std::int64_t n, double a);
void axpy_avx2(double* y, const double* x, std::int64_t n, double a);
void ewma_avx2(double* avg, const double* x, std::int64_t n, double beta);
void ewma_moments_avx2(double* m1, double* m2, const double* x, std::int64_t n, double beta);

void momentum_avx2(double* x, double* v, const double* g, std::int64_t n, double lr, double mu,
                   bool nesterov);
void adam_avx2(double* x, double* m, double* v, const double* g, std::int64_t n, double lr,
               double beta1, double beta2, double bc1, double bc2, double eps);
void adagrad_avx2(double* x, double* accum, const double* g, std::int64_t n, double lr,
                  double eps);

void gemm_micro_avx2(double* c, std::int64_t ldc, const double* ap, const double* bp,
                     std::int64_t kc, std::int64_t rows, std::int64_t cols, bool beta0);

double sum_avx2(const double* x, std::int64_t n);
double squared_norm_avx2(const double* x, std::int64_t n);
double dot_avx2(const double* a, const double* b, std::int64_t n);
double max_abs_avx2(const double* x, std::int64_t n);
double debiased_variance_sum_avx2(const double* m1, const double* m2, std::int64_t n, double inv1,
                                  double inv2);

}  // namespace yf::core::detail
