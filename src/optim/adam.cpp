#include "optim/adam.hpp"

#include <cmath>
#include <stdexcept>

#include "core/kernels.hpp"

namespace yf::optim {

Adam::Adam(std::vector<autograd::Variable> params, double lr, double beta1, double beta2,
           double eps)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  if (beta1 <= -1.0 || beta1 >= 1.0) throw std::invalid_argument("Adam: beta1 must be in (-1,1)");
  if (beta2 <= 0.0 || beta2 >= 1.0) throw std::invalid_argument("Adam: beta2 must be in (0,1)");
  m_ = arena_.make_buffer();
  v_ = arena_.make_buffer();
}

void Adam::step_span(const ApplyPlan& plan, std::int64_t lo, std::int64_t hi) {
  const auto t = static_cast<double>(plan.t + 1);
  const double bc1 = 1.0 - std::pow(beta1_, t);
  const double bc2 = 1.0 - std::pow(beta2_, t);
  const auto a = static_cast<std::size_t>(lo), n = static_cast<std::size_t>(hi - lo);
  core::adam_step(arena_.values().subspan(a, n), m_.data().subspan(a, n),
                  v_.data().subspan(a, n), arena_.grads().subspan(a, n), plan.lr, beta1_,
                  beta2_, bc1, bc2, eps_);
}

void Adam::save_state(core::StateWriter& w) const {
  Optimizer::save_state(w);
  w.f64(lr_);
  w.f64_span(m_.data());
  w.f64_span(v_.data());
}

void Adam::load_state(core::StateReader& r) {
  Optimizer::load_state(r);
  lr_ = r.f64();
  r.f64_span(m_.data());
  r.f64_span(v_.data());
}

}  // namespace yf::optim
