// MarkovText: char-level corpus substitute for TinyShakespeare.
//
// An order-1 Markov chain over `vocab` symbols with a sparse, temperature-
// controlled random transition matrix. Entropy is tunable and well below
// log(vocab), so an LSTM LM has real structure to learn -- the property the
// TS experiments (char-level LM, 65 symbols) rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/random.hpp"

namespace yf::data {

struct MarkovTextConfig {
  std::int64_t vocab = 65;
  std::int64_t branching = 6;  ///< non-negligible successors per symbol
  double temperature = 1.0;    ///< flatter transitions as temperature grows
  std::uint64_t seed = 0;      ///< fixes the language
};

class MarkovText {
 public:
  explicit MarkovText(const MarkovTextConfig& cfg);

  /// Sample a [batch, seq_len+1] token block, row-major. Each row is an
  /// independent chain started from a random symbol.
  std::vector<std::int64_t> sample_batch(std::int64_t batch, std::int64_t seq_len_plus1,
                                         tensor::Rng& rng) const;

  /// Per-symbol transition distribution (tests).
  const std::vector<double>& transition_row(std::int64_t symbol) const;

  const MarkovTextConfig& config() const { return cfg_; }

 private:
  MarkovTextConfig cfg_;
  std::vector<std::vector<double>> transitions_;  ///< vocab rows, each sums to 1
  /// Running sums of each transition row ([vocab, vocab], flat), formed in
  /// Rng::categorical's order: the last of a row is the total it draws
  /// against, and a draw picks the first sum above it.
  std::vector<double> cumulative_;
};

}  // namespace yf::data
