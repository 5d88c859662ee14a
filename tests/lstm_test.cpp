#include "nn/lstm.hpp"

#include <gtest/gtest.h>

#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "autograd/tape.hpp"
#include "core/kernels/kernel_table.hpp"
#include "data/copy_translate.hpp"
#include "data/markov_text.hpp"
#include "data/zipf_text.hpp"
#include "nn/language_model.hpp"
#include "nn/seq2seq.hpp"
#include "train/trainer.hpp"
#include "tuner/yellowfin.hpp"

namespace ag = yf::autograd;
namespace nn = yf::nn;
namespace t = yf::tensor;

namespace {

/// Hand-rolled scalar LSTM cell reference (batch 1, hidden 1, input 1).
struct ScalarLstmRef {
  // Weight layout mirrors LSTMCell: [i, f, g, o] gates.
  double wxi, wxf, wxg, wxo;
  double whi, whf, whg, who;
  double bi, bf, bg, bo;
  std::pair<double, double> step(double x, double h, double c) const {
    auto sig = [](double z) { return 1.0 / (1.0 + std::exp(-z)); };
    const double i = sig(wxi * x + whi * h + bi);
    const double f = sig(wxf * x + whf * h + bf);
    const double g = std::tanh(wxg * x + whg * h + bg);
    const double o = sig(wxo * x + who * h + bo);
    const double c_next = f * c + i * g;
    const double h_next = o * std::tanh(c_next);
    return {h_next, c_next};
  }
};

}  // namespace

TEST(LstmCell, ForgetBiasInitializedToOne) {
  t::Rng rng(1);
  nn::LSTMCell cell(3, 4, rng);
  for (std::int64_t j = 0; j < 4; ++j) EXPECT_EQ(cell.b.value()[j], 0.0);        // input gate
  for (std::int64_t j = 4; j < 8; ++j) EXPECT_EQ(cell.b.value()[j], 1.0);        // forget gate
  for (std::int64_t j = 8; j < 16; ++j) EXPECT_EQ(cell.b.value()[j], 0.0);       // cell, output
}

TEST(LstmCell, MatchesScalarReference) {
  t::Rng rng(2);
  nn::LSTMCell cell(1, 1, rng);
  // Copy the random weights into the reference implementation.
  ScalarLstmRef ref;
  ref.wxi = cell.w_x.value()[0];
  ref.wxf = cell.w_x.value()[1];
  ref.wxg = cell.w_x.value()[2];
  ref.wxo = cell.w_x.value()[3];
  ref.whi = cell.w_h.value()[0];
  ref.whf = cell.w_h.value()[1];
  ref.whg = cell.w_h.value()[2];
  ref.who = cell.w_h.value()[3];
  ref.bi = cell.b.value()[0];
  ref.bf = cell.b.value()[1];
  ref.bg = cell.b.value()[2];
  ref.bo = cell.b.value()[3];

  double h = 0.0, c = 0.0;
  auto state = cell.zero_state(1);
  for (double x : {0.3, -0.7, 1.2}) {
    auto xt = ag::Variable(t::Tensor({1, 1}, {x}));
    state = cell.forward(xt, state);
    std::tie(h, c) = ref.step(x, h, c);
    EXPECT_NEAR(state.h.value().item(), h, 1e-12);
    EXPECT_NEAR(state.c.value().item(), c, 1e-12);
  }
}

TEST(LstmCell, StateShapes) {
  t::Rng rng(3);
  nn::LSTMCell cell(5, 7, rng);
  auto st = cell.zero_state(4);
  EXPECT_EQ(st.h.value().shape(), (t::Shape{4, 7}));
  auto x = ag::Variable(rng.normal_tensor({4, 5}));
  auto next = cell.forward(x, st);
  EXPECT_EQ(next.h.value().shape(), (t::Shape{4, 7}));
  EXPECT_EQ(next.c.value().shape(), (t::Shape{4, 7}));
}

// Each output is the step's packed top-layer state [2B, H]: the h rows
// the head reads, then the c rows, as a stack of LSTMCell steps computes.
TEST(Lstm, StackOutputsOnePerStep) {
  t::Rng rng(4);
  nn::LSTM lstm(3, 6, 2, rng);
  std::vector<ag::Variable> steps;
  for (int i = 0; i < 5; ++i) steps.push_back(ag::Variable(rng.normal_tensor({2, 3})));
  auto outs = lstm.forward(steps);
  ASSERT_EQ(outs.size(), 5u);
  auto states = lstm.zero_states(2);
  for (std::size_t s = 0; s < outs.size(); ++s) {
    ag::Variable x = steps[s];
    for (std::size_t l = 0; l < states.size(); ++l) {
      states[l] = lstm.cell(static_cast<std::int64_t>(l)).forward(x, states[l]);
      x = states[l].h;
    }
    const auto& packed = outs[s].value();
    ASSERT_EQ(packed.shape(), (t::Shape{4, 6}));
    const auto h = states.back().h.value().data();
    const auto c = states.back().c.value().data();
    for (std::size_t i = 0; i < h.size(); ++i) {
      EXPECT_EQ(packed[static_cast<std::int64_t>(i)], h[i]) << "step " << s;
      EXPECT_EQ(packed[static_cast<std::int64_t>(h.size() + i)], c[i]) << "step " << s;
    }
  }
}

TEST(Lstm, StatesCarryAcrossCalls) {
  t::Rng rng(5);
  nn::LSTM lstm(2, 4, 1, rng);
  auto x0 = ag::Variable(rng.normal_tensor({1, 2}));
  auto x1 = ag::Variable(rng.normal_tensor({1, 2}));

  // One two-step call must equal two one-step calls with threaded state.
  auto joint = lstm.forward({x0, x1});
  auto states = lstm.zero_states(1);
  lstm.forward({x0}, &states, &states);
  auto split = lstm.forward({x1}, &states);
  EXPECT_TRUE(t::allclose(joint[1].value(), split[0].value(), 1e-12, 1e-12));
}

TEST(Lstm, GradcheckThroughTwoSteps) {
  t::Rng rng(6);
  nn::LSTMCell cell(2, 2, rng);
  auto x0 = ag::Variable(rng.normal_tensor({1, 2}), true);
  auto x1 = ag::Variable(rng.normal_tensor({1, 2}), true);
  std::vector<ag::Variable> inputs = {x0, x1, cell.w_x, cell.w_h, cell.b};
  auto fn = [&cell](const std::vector<ag::Variable>& in) {
    auto st = cell.zero_state(1);
    st = cell.forward(in[0], st);
    st = cell.forward(in[1], st);
    return ag::mean(ag::square(st.h));
  };
  const auto result = ag::gradcheck(fn, inputs, 1e-5, 1e-6, 1e-3);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Lstm, BpttGradientsReachEarlySteps) {
  t::Rng rng(7);
  nn::LSTM lstm(2, 4, 1, rng);
  auto x0 = ag::Variable(rng.normal_tensor({1, 2}), true);
  std::vector<ag::Variable> steps = {x0};
  for (int i = 0; i < 7; ++i) steps.push_back(ag::Variable(rng.normal_tensor({1, 2})));
  auto outs = lstm.forward(steps, nullptr);
  ag::mean(ag::square(outs.back())).backward();
  double gnorm = 0.0;
  for (double g : x0.grad().data()) gnorm += g * g;
  EXPECT_GT(gnorm, 0.0) << "gradient should flow back through 8 unrolled steps";
}

TEST(Lstm, InitScaleScalesWeights) {
  t::Rng rng_a(8);
  t::Rng rng_b(8);
  nn::LSTMCell small(3, 3, rng_a, 1.0);
  nn::LSTMCell big(3, 3, rng_b, 3.0);
  double n_small = 0.0, n_big = 0.0;
  for (double v : small.w_h.value().data()) n_small += v * v;
  for (double v : big.w_h.value().data()) n_big += v * v;
  EXPECT_NEAR(n_big / n_small, 9.0, 1e-9);
}

// -- The cell ops against the unfused chain. ----------------------------------

namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// One cell step built from the general ops, as LSTMCell::forward built it
/// before the cell ops existed. `*z_out` receives the gate pre-activations.
nn::LSTMState unfused_cell(const nn::LSTMCell& cell, const ag::Variable& x,
                           const nn::LSTMState& prev, ag::Variable* z_out) {
  const auto H = cell.hidden_size();
  auto zx = ag::matmul(x, cell.w_x);
  auto zh = ag::matmul(prev.h, cell.w_h);
  auto z = ag::add_row_broadcast(ag::add(zx, zh), cell.b);
  auto i = ag::sigmoid(ag::slice_cols(z, 0, H));
  auto f = ag::sigmoid(ag::slice_cols(z, H, 2 * H));
  auto g = ag::tanh(ag::slice_cols(z, 2 * H, 3 * H));
  auto o = ag::sigmoid(ag::slice_cols(z, 3 * H, 4 * H));
  nn::LSTMState next;
  next.c = ag::add(ag::mul(f, prev.c), ag::mul(i, g));
  next.h = ag::mul(o, ag::tanh(next.c));
  *z_out = z;
  return next;
}

/// A 3-step unroll of one cell at batch 5 and input width 3 whose leaves
/// (inputs, initial state, loss weights) keep their identity across tape
/// steps; refill() rewrites their values in place.
struct CellUnroll {
  static constexpr std::int64_t kBatch = 5, kInput = 3, kSteps = 3;
  t::Rng init;
  nn::LSTMCell cell;
  std::vector<ag::Variable> xs, hw;  ///< inputs and loss weights of h, per step
  ag::Variable h0, c0, cw;           ///< requires-grad initial state; loss weight of c
  double max_abs_z = 0.0;            ///< largest |pre-activation| of the last run()

  explicit CellUnroll(std::int64_t hidden) : init(100 + static_cast<std::uint64_t>(hidden)),
                                             cell(kInput, hidden, init) {
    for (std::int64_t s = 0; s < kSteps; ++s) {
      xs.emplace_back(t::Tensor::zeros({kBatch, kInput}), true);
      hw.emplace_back(t::Tensor::zeros({kBatch, hidden}));
    }
    h0 = ag::Variable(t::Tensor::zeros({kBatch, hidden}), true);
    c0 = ag::Variable(t::Tensor::zeros({kBatch, hidden}), true);
    cw = ag::Variable(t::Tensor::zeros({kBatch, hidden}));
  }

  /// Step 1's inputs are scaled so that many pre-activations pass |z| > 22:
  /// those 8-blocks take the AVX2 kernels' scalar fallback.
  void refill(std::uint64_t seed) {
    t::Rng rng(seed);
    for (std::int64_t s = 0; s < kSteps; ++s) {
      auto x = rng.normal_tensor({kBatch, kInput}, 0.0, s == 1 ? 40.0 : 1.0);
      t::copy_into(xs[static_cast<std::size_t>(s)].value(), x);
      auto w = rng.normal_tensor(hw[0].value().shape());
      t::copy_into(hw[static_cast<std::size_t>(s)].value(), w);
    }
    t::copy_into(h0.value(), rng.normal_tensor(h0.value().shape(), 0.0, 0.5));
    t::copy_into(c0.value(), rng.normal_tensor(c0.value().shape(), 0.0, 0.5));
    t::copy_into(cw.value(), rng.normal_tensor(cw.value().shape()));
  }

  /// h and c at every step, then the gradients of x, h0, c0, w_x, w_h and
  /// b, of loss = sum_t sum(h_t * hw_t) + sum(c_T * cw).
  std::vector<double> run(bool fused) {
    std::vector<ag::Variable> leaves = xs;
    leaves.insert(leaves.end(), {h0, c0, cell.w_x, cell.w_h, cell.b});
    for (auto& v : leaves) v.zero_grad();
    max_abs_z = 0.0;
    std::vector<double> out;
    auto append = [&out](const t::Tensor& v) {
      out.insert(out.end(), v.data().begin(), v.data().end());
    };
    nn::LSTMState st{h0, c0};
    ag::Variable loss;
    for (std::int64_t s = 0; s < kSteps; ++s) {
      const auto& x = xs[static_cast<std::size_t>(s)];
      ag::Variable z;
      st = fused ? cell.forward(x, st) : unfused_cell(cell, x, st, &z);
      if (!fused) {
        for (double v : z.value().data()) max_abs_z = std::max(max_abs_z, std::abs(v));
      }
      append(st.h.value());
      append(st.c.value());
      auto term = ag::sum(ag::mul(st.h, hw[static_cast<std::size_t>(s)]));
      loss = loss.defined() ? ag::add(loss, term) : term;
    }
    loss = ag::add(loss, ag::sum(ag::mul(st.c, cw)));
    loss.backward();
    for (const auto& v : leaves) append(v.grad());
    return out;
  }
};

void expect_same_bits(const std::vector<double>& ref, const std::vector<double>& got,
                      const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!same_bits(ref[i], got[i]) && mismatches++ < 5) {
      ADD_FAILURE() << what << ": element " << i << " is " << hex(got[i]) << ", unfused "
                    << hex(ref[i]);
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

}  // namespace

// The cell ops against the 15-node chain they replace: H = 5 exercises the
// activations' n % 8 tails (row segments of 10 and 5 against whole-tensor
// calls of 25), H = 16 whole 8-blocks. On the heap, then on a tape over
// one recording step and one replay with new input values.
TEST(Lstm, FusedCellMatchesUnfusedChain) {
  for (const std::int64_t hidden : {5, 16}) {
    const std::string tag = "H=" + std::to_string(hidden);
    CellUnroll u(hidden);
    std::vector<std::vector<double>> ref;
    for (const std::uint64_t seed : {1, 2}) {
      u.refill(seed);
      ref.push_back(u.run(false));
      EXPECT_GT(u.max_abs_z, 22.0) << tag;
      expect_same_bits(ref.back(), u.run(true), tag + " heap, seed " + std::to_string(seed));
    }
    ag::GraphTape tape;
    ag::TapeScope scope(&tape);
    for (const std::uint64_t seed : {1, 2}) {
      u.refill(seed);
      tape.begin_step();
      expect_same_bits(ref[seed - 1], u.run(true), tag + " tape step " + std::to_string(seed));
    }
    EXPECT_EQ(tape.steps(), 2);
    EXPECT_EQ(tape.fresh_nodes(), tape.replayed_nodes()) << "step 2 replays step 1's graph";
  }
}

// The cell op validates its operands before recording anything: a throw
// after make_frame would leave a half-built node for later steps to replay.
// A [2B, .] operand counts as packed only when an lstm_cell made it.
TEST(Lstm, CellOpRejectsMismatchedShapes) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  tape.begin_step();
  const auto var = [](t::Shape s) { return ag::Variable(t::Tensor::zeros(std::move(s)), true); };
  const auto x = var({2, 3}), s = var({2, 4}), wx = var({3, 16}), wh = var({4, 16}), b = var({16});
  const auto packed = ag::lstm_cell(x, s, s, wx, wh, b);
  ASSERT_EQ(packed.value().shape(), (t::Shape{4, 4}));
  const auto recorded = tape.recorded_nodes();
  EXPECT_THROW(ag::lstm_cell(var({3, 3}), s, s, wx, wh, b), std::invalid_argument);
  EXPECT_THROW(ag::lstm_cell(var({4, 3}), s, s, wx, wh, b), std::invalid_argument);
  EXPECT_THROW(ag::lstm_cell(var({3}), s, s, wx, wh, b), std::invalid_argument);
  EXPECT_THROW(ag::lstm_cell(x, var({2, 5}), s, wx, wh, b), std::invalid_argument);
  EXPECT_THROW(ag::lstm_cell(x, s, var({1, 4}), wx, wh, b), std::invalid_argument);
  EXPECT_THROW(ag::lstm_cell(x, s, s, var({2, 16}), wh, b), std::invalid_argument);
  EXPECT_THROW(ag::lstm_cell(x, s, s, wx, var({4, 12}), b), std::invalid_argument);
  EXPECT_THROW(ag::lstm_cell(x, s, s, wx, wh, var({12})), std::invalid_argument);
  EXPECT_THROW(ag::lstm_cell(x, var({2, 3}), var({2, 3}), var({3, 14}), var({3, 14}), var({14})),
               std::invalid_argument);
  EXPECT_THROW(ag::lstm_cell(var({3, 3}), packed, packed, wx, wh, b), std::invalid_argument);
  EXPECT_THROW(ag::lstm_cell(packed, s, s, wx, wh, b), std::invalid_argument);
  EXPECT_EQ(tape.recorded_nodes(), recorded);
}

// -- The head ops against the chains they replace. ----------------------------

namespace {

/// One LM head step: a [B, H] input -- the packed state of an lstm_cell,
/// or a plain leaf -- projected to [B, V] logits, with leaves that keep
/// their identity across tape steps (refill() rewrites their values).
struct HeadStep {
  static constexpr std::int64_t kBatch = 5, kInput = 3, kHidden = 7, kVocab = 9;
  t::Rng init{31};
  nn::LSTMCell cell{kInput, kHidden, init};
  ag::Variable x, h0, c0, plain;  ///< cell inputs and initial state; the plain input
  ag::Variable w, b, r;           ///< head weight and bias; loss weights of the logits

  HeadStep() {
    const auto leaf = [](t::Shape s, bool grad) { return ag::Variable(t::Tensor::zeros(s), grad); };
    x = leaf({kBatch, kInput}, true);
    h0 = leaf({kBatch, kHidden}, true);
    c0 = leaf({kBatch, kHidden}, true);
    plain = leaf({kBatch, kHidden}, true);
    w = leaf({kHidden, kVocab}, true);
    b = leaf({kVocab}, true);
    r = leaf({kBatch, kVocab}, false);
  }

  void refill(std::uint64_t seed) {
    t::Rng rng(seed);
    for (auto* v : {&x, &h0, &c0, &plain, &w, &b, &r}) {
      t::copy_into(v->value(), rng.normal_tensor(v->value().shape()));
    }
  }

  /// The logits, then the gradients of the head's input (the whole packed
  /// state when packed), w, b and the cell's leaves, of loss = sum(y * r).
  std::vector<double> run(bool packed, bool one_node) {
    std::vector<ag::Variable> leaves = {x, h0, c0, plain, w, b, cell.w_x, cell.w_h, cell.b};
    for (auto& v : leaves) v.zero_grad();
    const auto in = packed ? ag::lstm_cell(x, h0, c0, cell.w_x, cell.w_h, cell.b) : plain;
    const auto y = one_node ? ag::linear(in, w, b)
                            : ag::add_row_broadcast(
                                  ag::matmul(packed ? ag::slice_rows(in, 0, kBatch) : in, w), b);
    ag::sum(ag::mul(y, r)).backward();
    std::vector<double> out(y.value().data().begin(), y.value().data().end());
    const auto append = [&out](const t::Tensor& g) {
      out.insert(out.end(), g.data().begin(), g.data().end());
    };
    append(in.grad());
    for (const auto& v : leaves) append(v.grad());
    return out;
  }
};

/// T step blocks [B, C] of logits and B*T labels, with leaves that keep
/// their identity across tape steps.
struct StepLoss {
  static constexpr std::int64_t kBatch = 4, kSteps = 3, kClasses = 6;
  std::vector<ag::Variable> steps;
  std::vector<std::int64_t> labels;

  StepLoss() {
    for (std::int64_t s = 0; s < kSteps; ++s) {
      steps.emplace_back(t::Tensor::zeros({kBatch, kClasses}), true);
    }
    labels.resize(static_cast<std::size_t>(kBatch * kSteps));
  }

  /// Step 1 is scaled so that its rows span hundreds of nats.
  void refill(std::uint64_t seed) {
    t::Rng rng(seed);
    for (std::int64_t s = 0; s < kSteps; ++s) {
      t::copy_into(steps[static_cast<std::size_t>(s)].value(),
                   rng.normal_tensor({kBatch, kClasses}, 0.0, s == 1 ? 100.0 : 2.0));
    }
    for (auto& y : labels) y = rng.index(kClasses);
  }

  /// The loss, then every step's gradient.
  std::vector<double> run(bool in_place) {
    for (auto& v : steps) v.zero_grad();
    auto loss =
        in_place ? ag::softmax_cross_entropy(steps, labels)
                 : ag::softmax_cross_entropy(
                       ag::reshape(ag::concat_cols(steps), {kBatch * kSteps, kClasses}), labels);
    loss.backward();
    std::vector<double> out = {loss.value().item()};
    for (const auto& v : steps) out.insert(out.end(), v.grad().data().begin(), v.grad().data().end());
    return out;
  }
};

}  // namespace

// linear against add_row_broadcast(matmul(x, w), b), on a plain x and on a
// packed lstm_cell state (against the slice_rows of its h rows): the
// logits and every gradient, bit for bit, under every kernel table. On
// the heap, then on a tape over one recording step and one replay with
// new values, which the packed case reads through its cached row view.
TEST(Lstm, LinearMatchesMatmulChain) {
  for (const auto& table : yf::core::detail::runnable_tables()) {
    SCOPED_TRACE(table.name);
    const yf::core::detail::ActiveTableScope scope(*table.table);
    for (const bool packed : {false, true}) {
      const std::string tag = packed ? "packed x" : "plain x";
      HeadStep h;
      std::vector<std::vector<double>> ref;
      for (const std::uint64_t seed : {1, 2}) {
        h.refill(seed);
        ref.push_back(h.run(packed, false));
        expect_same_bits(ref.back(), h.run(packed, true), tag + " heap");
      }
      ag::GraphTape tape;
      ag::TapeScope tape_scope(&tape);
      for (const std::uint64_t seed : {1, 2}) {
        h.refill(seed);
        tape.begin_step();
        expect_same_bits(ref[seed - 1], h.run(packed, true), tag + " tape");
      }
      EXPECT_EQ(tape.fresh_nodes(), tape.replayed_nodes()) << tag;
    }
  }
}

// The loss over step blocks against the one-tensor loss of
// reshape(concat_cols(steps)), which it replaces in LM losses: the loss and
// every step's gradient, bit for bit, under every kernel table, on the
// heap and on a replaying tape.
TEST(Lstm, StepCrossEntropyMatchesConcatChain) {
  for (const auto& table : yf::core::detail::runnable_tables()) {
    SCOPED_TRACE(table.name);
    const yf::core::detail::ActiveTableScope scope(*table.table);
    StepLoss sl;
    std::vector<std::vector<double>> ref;
    for (const std::uint64_t seed : {1, 2}) {
      sl.refill(seed);
      ref.push_back(sl.run(false));
      expect_same_bits(ref.back(), sl.run(true), "heap");
    }
    ag::GraphTape tape;
    ag::TapeScope tape_scope(&tape);
    for (const std::uint64_t seed : {1, 2}) {
      sl.refill(seed);
      tape.begin_step();
      expect_same_bits(ref[seed - 1], sl.run(true), "tape");
    }
    EXPECT_EQ(tape.fresh_nodes(), tape.replayed_nodes());
  }
}

// A train_lm step (TS-sub: vocab 33, embed 12, hidden 16, 2 layers, batch
// 6 x 13 tokens) records 74 nodes: the zero state, then per predicted
// token the embedding, two nodes per layer's cell and one head node, then
// the loss. After the first step every later step replays all of them.
TEST(Lstm, TrainLmStepRecords74NodesAndReplaysThem) {
  yf::data::MarkovTextConfig dcfg;
  dcfg.vocab = 33;
  dcfg.branching = 3;
  dcfg.seed = 13;
  yf::data::MarkovText text(dcfg);
  nn::LanguageModelConfig cfg;
  cfg.vocab = 33;
  cfg.embed_dim = 12;
  cfg.hidden = 16;
  cfg.layers = 2;
  t::Rng init(1);
  nn::LSTMLanguageModel model(cfg, init);
  t::Rng data_rng(2001);
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  for (int step = 0; step < 3; ++step) {
    tape.begin_step();
    const auto tokens = text.sample_batch(6, 13, data_rng);
    model.loss(tokens, 6, 13).backward();
  }
  EXPECT_EQ(tape.recorded_nodes(), 74u);
  EXPECT_EQ(tape.fresh_nodes(), 74);
  EXPECT_EQ(tape.replayed_nodes(), 2 * 74);
}

// -- Golden LM trajectory. ---------------------------------------------------

// perfbench's train_lm configuration (table2's TS-sub task): the losses of
// its first 40 steps through train::train(), recorded as exact doubles.
// Unlike the heap-vs-tape pins, which run the same ops on both sides, this
// catches any change to the LSTM's numerics. Every kernel table produces
// this trajectory: the test runs it under each one the CPU can run, so the
// AVX2 table keeps its pin on hosts where `simd` means AVX-512. The values
// assume glibc's double libm (recorded with gcc 12 and glibc 2.36): std::log
// in the loss and the libm calls in the tuner, data and init feed them. If this fails on another libm, re-record the values at
// the parent commit there; do not edit them to match a change.
TEST(Lstm, TrainLmTrajectoryMatchesGolden) {
  static constexpr double kGolden[40] = {
      0x1.bef2a24a0d07p+1, 0x1.bddd731c7856cp+1, 0x1.b88071e51e691p+1, 0x1.b51416d34c582p+1,
      0x1.aebe7ba94ba3ap+1, 0x1.b080e8654b617p+1, 0x1.9911b027c466ep+1, 0x1.a95ec636ece07p+1,
      0x1.a50de4324adb3p+1, 0x1.9c9b9256963fp+1, 0x1.7759a5f1a2be8p+1, 0x1.9bc71d141c7b3p+1,
      0x1.9dddc352ae515p+1, 0x1.8e40378f1ec05p+1, 0x1.7b61fda7d5a8cp+1, 0x1.56e60b8b20fcfp+1,
      0x1.90d92c0fa9912p+1, 0x1.8267d5a841edcp+1, 0x1.901b7aab326c7p+1, 0x1.93b60dcd05a04p+1,
      0x1.c01e7a4b23dabp+1, 0x1.a0fa62977039p+1, 0x1.94a3df44ccd06p+1, 0x1.7d51ed9ee7cf4p+1,
      0x1.b6addbfda0825p+1, 0x1.99c8e7ed20f8cp+1, 0x1.8363a14a7e45cp+1, 0x1.895ca4020bed3p+1,
      0x1.b1f4b1320450ep+1, 0x1.a2a29d9149f4bp+1, 0x1.8ccd51726529p+1, 0x1.85ff446794872p+1,
      0x1.8904a8030b3f2p+1, 0x1.669e0e840e2fdp+1, 0x1.7370303d40e3p+1, 0x1.591f0092dffadp+1,
      0x1.869aba8f738c9p+1, 0x1.a3227bc503516p+1, 0x1.8410171d397b6p+1, 0x1.45348aa499d85p+1,
  };
  for (const auto& table : yf::core::detail::runnable_tables()) {
    SCOPED_TRACE(table.name);
    const yf::core::detail::ActiveTableScope scope(*table.table);
    yf::data::MarkovTextConfig dcfg;
    dcfg.vocab = 33;
    dcfg.branching = 3;
    dcfg.seed = 13;
    yf::data::MarkovText text(dcfg);
    nn::LanguageModelConfig cfg;
    cfg.vocab = 33;
    cfg.embed_dim = 12;
    cfg.hidden = 16;
    cfg.layers = 2;
    t::Rng init(1);
    nn::LSTMLanguageModel model(cfg, init);
    yf::tuner::YellowFinOptions yopts;
    yopts.beta = 0.995;
    yopts.slow_start_iters = 50;
    yf::tuner::YellowFin opt(model.parameters(), yopts);
    t::Rng data_rng(2001);
    std::vector<std::int64_t> tokens;
    const yf::train::GradFn grad_fn = [&] {
      tokens = text.sample_batch(6, 13, data_rng);
      auto loss = model.loss(tokens, 6, 13);
      loss.backward();
      return loss.value().item();
    };
    yf::train::TrainOptions topts;
    topts.iterations = 40;
    const auto res = yf::train::train(opt, grad_fn, topts);
    ASSERT_FALSE(res.diverged);
    ASSERT_EQ(res.losses.size(), 40u);
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_TRUE(same_bits(res.losses[i], kGolden[i]))
          << "step " << i + 1 << ": got " << hex(res.losses[i]) << ", golden " << hex(kGolden[i]);
    }
  }
}

namespace {

/// Runs 40 steps of `grad_fn` through train::train() and compares every
/// loss bit for bit with `golden`.
void expect_golden_trajectory(yf::optim::Optimizer& opt, const yf::train::GradFn& grad_fn,
                              const double (&golden)[40]) {
  yf::train::TrainOptions topts;
  topts.iterations = 40;
  const auto res = yf::train::train(opt, grad_fn, topts);
  ASSERT_FALSE(res.diverged);
  ASSERT_EQ(res.losses.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(same_bits(res.losses[i], golden[i]))
        << "step " << i + 1 << ": got " << hex(res.losses[i]) << ", golden " << hex(golden[i]);
  }
}

}  // namespace

// table1's seq2seq (vocab 12, embed 10, hidden 16, one layer) at
// init_scale 2.0 under YellowFin's defaults. The large weights push gate
// pre-activations into the AVX2 kernels' scalar fallback blocks, and the
// encoder's final states start the decoder, a path train_lm's golden
// never takes. Same libm caveat as TrainLmTrajectoryMatchesGolden.
TEST(Lstm, Seq2SeqTrajectoryMatchesGolden) {
  static constexpr double kGolden[40] = {
      0x1.4e12770510ee1p+1, 0x1.54518410c0092p+1, 0x1.52d9364b3d418p+1, 0x1.52127d3cfec35p+1,
      0x1.51102cb77532fp+1, 0x1.4e301b96bdd9p+1, 0x1.50f0a51f131f3p+1, 0x1.4da196b8ff568p+1,
      0x1.4c24850aa0b55p+1, 0x1.4b6f5828166dfp+1, 0x1.47cf6ffdd26d7p+1, 0x1.4208e7c53832ep+1,
      0x1.4bcfb859072ebp+1, 0x1.4731fa7e3f4edp+1, 0x1.472124a6a6bd2p+1, 0x1.4c1f1bf9ac1dp+1,
      0x1.4626772921771p+1, 0x1.3d7ed7270d9aap+1, 0x1.4d9a2cbd61b83p+1, 0x1.42fd2cf9a4937p+1,
      0x1.4c36e229c00c3p+1, 0x1.41c2c29db4bf5p+1, 0x1.3cadf8d918ab8p+1, 0x1.45b6af2605226p+1,
      0x1.3e7624c2a7a17p+1, 0x1.3f8f54b1a821dp+1, 0x1.3a63d0b690adcp+1, 0x1.3958fdf8c6d65p+1,
      0x1.360b17ebc5f5p+1, 0x1.3da37c30934c7p+1, 0x1.3add11a821782p+1, 0x1.3ad7967b67dep+1,
      0x1.3c00d5169e8f4p+1, 0x1.36116263e73bap+1, 0x1.2ea5b5d7ae754p+1, 0x1.32a992a335c1cp+1,
      0x1.3317837242e2bp+1, 0x1.36bccc3bce067p+1, 0x1.2f17e88383f01p+1, 0x1.30cd84ed129c8p+1,
  };
  yf::data::CopyTranslateConfig dcfg;
  dcfg.vocab = 12;
  dcfg.src_len = 6;
  dcfg.seed = 23;
  yf::data::CopyTranslate text(dcfg);
  nn::Seq2SeqConfig cfg;
  cfg.src_vocab = text.src_vocab();
  cfg.tgt_vocab = text.tgt_vocab();
  cfg.embed_dim = 10;
  cfg.hidden = 16;
  cfg.layers = 1;
  cfg.init_scale = 2.0;
  t::Rng init(1);
  nn::Seq2Seq model(cfg, init);
  yf::tuner::YellowFin opt(model.parameters(), yf::tuner::YellowFinOptions{});
  t::Rng data_rng(4001);
  const yf::train::GradFn grad_fn = [&] {
    const auto b = text.sample(6, data_rng);
    auto loss = model.loss(b.src, b.src_len, b.tgt, b.tgt_len_plus1, b.batch);
    loss.backward();
    return loss.value().item();
  };
  expect_golden_trajectory(opt, grad_fn, kGolden);
}

// fig11's tied word LM (Zipf vocab 80, embed = hidden = 16, two layers,
// output projection tied to the embedding) under quick-mode YellowFin.
// The embedding's gradient sums the output-projection and lookup
// contributions of every step in the order the backward pass visits
// them, so this pins the graph's node order, not only its arithmetic.
TEST(Lstm, TiedWordLmTrajectoryMatchesGolden) {
  static constexpr double kGolden[40] = {
      0x1.188d47e9dd98fp+2, 0x1.17c82f28d955cp+2, 0x1.155f893fef918p+2, 0x1.130427b2e4p+2,
      0x1.0e1b6cc1e9163p+2, 0x1.054fc73146efep+2, 0x1.016c4b4336442p+2, 0x1.cf409bd1542fp+1,
      0x1.bf05f80cd1da8p+1, 0x1.afa2c4cf87868p+1, 0x1.bb894f7a6efc6p+1, 0x1.ac8cbb467f8c7p+1,
      0x1.9f7dbc99afbb4p+1, 0x1.ad331925af7f3p+1, 0x1.a0def0f8555f3p+1, 0x1.ba860e8e9de22p+1,
      0x1.8eff5de23575dp+1, 0x1.9cae18eeb7e53p+1, 0x1.933ffaf81d0f2p+1, 0x1.c8d557e008c1ep+1,
      0x1.c0d2e893fb462p+1, 0x1.b04d7a673816dp+1, 0x1.afd46d2a48956p+1, 0x1.8584d29d80f2bp+1,
      0x1.be84176c574fap+1, 0x1.a727fee3bc27dp+1, 0x1.aff9b9931f9e4p+1, 0x1.b569d0f07448cp+1,
      0x1.8370a03cdb54ap+1, 0x1.9e727e86732e6p+1, 0x1.8912e5fea8567p+1, 0x1.b5027c0bce5c6p+1,
      0x1.a88f7b21ec858p+1, 0x1.964049fc0372ep+1, 0x1.de52a41d571d4p+1, 0x1.9ad327b4462f2p+1,
      0x1.959734ff074a5p+1, 0x1.93f20939355b2p+1, 0x1.9bc8209c5821dp+1, 0x1.a8aec1eed4414p+1,
  };
  yf::data::ZipfTextConfig dcfg;
  dcfg.vocab = 80;
  dcfg.seed = 17;
  yf::data::ZipfText text(dcfg);
  nn::LanguageModelConfig cfg;
  cfg.vocab = 80;
  cfg.embed_dim = 16;
  cfg.hidden = 16;
  cfg.layers = 2;
  cfg.tie_weights = true;
  t::Rng init(1);
  nn::LSTMLanguageModel model(cfg, init);
  yf::tuner::YellowFinOptions yopts;
  yopts.beta = 0.995;
  yopts.slow_start_iters = 50;
  yf::tuner::YellowFin opt(model.parameters(), yopts);
  t::Rng data_rng(2001);
  std::vector<std::int64_t> tokens;
  const yf::train::GradFn grad_fn = [&] {
    tokens = text.sample_batch(6, 13, data_rng);
    auto loss = model.loss(tokens, 6, 13);
    loss.backward();
    return loss.value().item();
  };
  expect_golden_trajectory(opt, grad_fn, kGolden);
}
