// Deterministic fault injection for the distributed stack (DESIGN.md §14).
//
// FaultyStream wraps a ByteSource/ByteSink pair and perturbs WRITES at
// frame granularity: the codec emits exactly one write_all per frame
// (write_frame encodes header + payload into one scratch buffer), so a
// write-side fault maps 1:1 onto a protocol frame without the injector
// parsing anything. Reads pass through untouched -- a peer's faults
// arrive as whatever bytes its own injector let out, which is how real
// networks fail.
//
// Faults come from a FaultPlan: a seeded splitmix64 stream drawing one
// uniform per frame against cumulative probabilities, plus exact
// per-frame-index directives for deterministic tests. The plan grammar
// (YF_FAULT_PLAN, parsed with the same warn-and-fall-back contract as
// every YF_* knob):
//
//   seed=N,drop=P,trunc=P,corrupt=P,delay=P:MS[,drop@N][,trunc@N]
//                                           [,corrupt@N][,delay@N:MS]...
//
//   drop     swallow the frame entirely (write nothing)
//   trunc    write a strict prefix, poison the stream, throw FaultInjected
//            (a torn frame: the peer sees a mid-frame EOF)
//   corrupt  flip one payload-area byte in a scratch copy (checksum trips)
//   delay    sleep MS before writing (staleness/timeout pressure)
//
// Probabilities are cumulative per frame (at most one fault fires);
// `kind@N` directives override the draw for absolute frame index N. The
// same seed always yields the same fault sequence, which is what lets the
// chaos suites pin bit-identical trajectories THROUGH the faults.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dist/socket.hpp"
#include "dist/wire.hpp"

namespace yf::dist {

/// Thrown by FaultyStream for faults that must look connection-fatal to
/// the caller (truncation poisons the stream mid-frame). A SocketError
/// subclass so the client's reconnect loop retries it like any transport
/// failure.
class FaultInjected : public SocketError {
 public:
  using SocketError::SocketError;
};

enum class FaultKind : std::uint8_t { kNone = 0, kDrop, kTruncate, kCorrupt, kDelay };

struct FaultPlan {
  std::uint64_t seed = 0;
  double drop = 0.0;
  double truncate = 0.0;
  double corrupt = 0.0;
  double delay = 0.0;
  std::int64_t delay_ms = 1;

  /// Exact-frame directive: fault `kind` on absolute frame index `frame`.
  struct Directive {
    std::uint64_t frame = 0;
    FaultKind kind = FaultKind::kNone;
    std::int64_t delay_ms = 1;
  };
  std::vector<Directive> directives;

  /// True when any fault can ever fire. An inactive plan makes
  /// FaultInjector::next() constant kNone (still drawing no randomness),
  /// and clients skip the wrapper entirely.
  bool active() const;

  /// Parse the grammar above; throws std::invalid_argument with the
  /// offending token on malformed input.
  static FaultPlan parse(const std::string& text);

  /// YF_FAULT_PLAN, with the repo-wide env contract: unset -> inactive
  /// plan; set but malformed -> one stderr warning + inactive plan.
  static FaultPlan from_env();
};

/// One fault decision per frame, drawn deterministically from the plan.
/// Shared by every connection of one endpoint (the frame counter spans
/// reconnects, so a retried frame sees a FRESH decision -- retrying the
/// same fault forever would make the retry loop a livelock by design).
/// Thread-safe: the master's connection threads share one injector.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  struct Decision {
    FaultKind kind = FaultKind::kNone;
    std::int64_t delay_ms = 0;
    std::uint64_t rand = 0;  ///< per-frame entropy for offset choices
  };

  /// Decision for the next frame (advances the frame counter).
  Decision next();

  std::uint64_t frames_seen() const;
  std::uint64_t faults_fired() const;

 private:
  FaultPlan plan_;
  mutable std::mutex mu_;
  std::uint64_t frame_ = 0;
  std::uint64_t rng_state_ = 0;
  bool rng_seeded_ = false;
  std::uint64_t fired_ = 0;
};

/// The wrapper: forwards reads, applies the injector's per-frame decision
/// to writes. One instance per connection (poison state is per stream);
/// the injector outlives and spans reconnections.
class FaultyStream final : public ByteSource, public ByteSink {
 public:
  FaultyStream(ByteSource& src, ByteSink& sink, FaultInjector& injector)
      : src_(&src), sink_(&sink), injector_(&injector) {}

  std::size_t read_some(std::span<std::byte> dst) override { return src_->read_some(dst); }
  void write_all(std::span<const std::byte> data) override;

 private:
  ByteSource* src_;
  ByteSink* sink_;
  FaultInjector* injector_;
  std::vector<std::byte> scratch_;  ///< corrupt-copy buffer, reused
  bool poisoned_ = false;           ///< a truncation left a torn frame out
};

}  // namespace yf::dist
