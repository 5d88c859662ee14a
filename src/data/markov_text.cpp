#include "data/markov_text.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace yf::data {

MarkovText::MarkovText(const MarkovTextConfig& cfg) : cfg_(cfg) {
  if (cfg.vocab < 2 || cfg.branching < 1) {
    throw std::invalid_argument("MarkovText: vocab >= 2 and branching >= 1 required");
  }
  tensor::Rng rng(cfg.seed);
  transitions_.assign(static_cast<std::size_t>(cfg.vocab),
                      std::vector<double>(static_cast<std::size_t>(cfg.vocab), 0.0));
  for (auto& row : transitions_) {
    // `branching` heavy successors plus a small uniform floor.
    for (std::int64_t b = 0; b < cfg.branching; ++b) {
      const auto j = rng.index(cfg.vocab);
      row[static_cast<std::size_t>(j)] += std::exp(rng.normal() / cfg.temperature);
    }
    double total = 0.0;
    for (auto& w : row) {
      w += 0.01;
      total += w;
    }
    for (auto& w : row) w /= total;
  }
  cumulative_.reserve(static_cast<std::size_t>(cfg.vocab * cfg.vocab));
  for (const auto& row : transitions_) {
    double acc = 0.0;
    for (const double w : row) cumulative_.push_back(acc += w);
  }
}

std::vector<std::int64_t> MarkovText::sample_batch(std::int64_t batch,
                                                   std::int64_t seq_len_plus1,
                                                   tensor::Rng& rng) const {
  // Each draw is Rng::categorical(transition_row(s)) without re-summing the
  // row: the same uniform(0, total) call against the same running sums,
  // so the tokens and the generator's state match it exactly.
  const std::int64_t v = cfg_.vocab;
  std::vector<std::int64_t> out(static_cast<std::size_t>(batch * seq_len_plus1));
  for (std::int64_t b = 0; b < batch; ++b) {
    std::int64_t s = rng.index(v);
    for (std::int64_t t = 0; t < seq_len_plus1; ++t) {
      out[static_cast<std::size_t>(b * seq_len_plus1 + t)] = s;
      const double* sums = cumulative_.data() + s * v;
      const double u = rng.uniform(0.0, sums[v - 1]);
      s = std::min<std::int64_t>(std::upper_bound(sums, sums + v, u) - sums, v - 1);
    }
  }
  return out;
}

const std::vector<double>& MarkovText::transition_row(std::int64_t symbol) const {
  return transitions_.at(static_cast<std::size_t>(symbol));
}

}  // namespace yf::data
