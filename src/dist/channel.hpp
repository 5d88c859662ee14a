// ParamChannel: the one engine interface every worker trains against
// (DESIGN.md §12).
//
// A channel is a worker's view of the parameter master: pull the current
// parameters (with per-shard versions), push a gradient computed at those
// versions, get the ApplyStats back. Two implementations exist --
//
//   InprocChannel       zero-cost adapter over an in-process
//                       ShardedParamServer (the single-process fast path)
//   RemoteParamClient   the same calls as wire frames over a TCP
//                       connection to a MasterServer (dist/client.hpp)
//
// -- chosen by the caller that constructs the channel, so worker code,
// the closed-loop YellowFin scenarios, and the trajectory tests run
// UNCHANGED on both. The contract that makes that meaningful:
// with one worker, pull/push round-trips are sequential and the socket
// serialization is bit-exact (doubles travel as IEEE-754 bit patterns),
// so a one-worker socket trajectory is EXPECT_EQ-bit-identical to the
// in-process engine (tests/dist_test.cpp pins this for closed-loop
// YellowFin).
//
// Threading: a channel instance is single-owner -- one worker, one
// channel (a RemoteParamClient is one socket conversation). Concurrency
// comes from multiple channels against one master, exactly as multiple
// workers hit one ShardedParamServer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "async/param_server.hpp"

namespace yf::dist {

class ParamChannel {
 public:
  virtual ~ParamChannel() = default;

  /// Total scalars served (the master arena size).
  virtual std::int64_t size() const = 0;
  virtual std::int64_t shard_count() const = 0;

  /// Copy the master parameters into `dst` (size() scalars) and record
  /// the per-shard versions read into `ticket` (allocation-free once the
  /// ticket's capacity is warm, like the in-process pull).
  virtual void pull(std::span<double> dst, async::PullTicket& ticket) = 0;

  /// Apply one gradient computed at the iterates `ticket` describes.
  /// `grad` may be modified in place (the in-process optimizer's global
  /// stage clips it; the socket channel leaves it untouched -- the master
  /// clips its own copy, same values either way).
  virtual async::ApplyStats push(std::span<double> grad, const async::PullTicket& ticket) = 0;
};

/// The single-process fast path: delegates straight to a
/// ShardedParamServer the caller owns.
class InprocChannel final : public ParamChannel {
 public:
  explicit InprocChannel(async::ShardedParamServer& server) : server_(&server) {}

  std::int64_t size() const override { return server_->size(); }
  std::int64_t shard_count() const override { return server_->shard_count(); }
  void pull(std::span<double> dst, async::PullTicket& ticket) override {
    server_->pull(dst, ticket);
  }
  async::ApplyStats push(std::span<double> grad, const async::PullTicket& ticket) override {
    return server_->push(grad, ticket);
  }

 private:
  async::ShardedParamServer* server_;
};

// ---------------------------------------------------------------------------
// Worker harness over channels: the one worker loop. async::run_workers is
// this loop over one InprocChannel per worker, so the same scenario drives
// in-process shards or a remote master. One thread per worker (workers
// block on channel I/O and on shard locks); each worker needs its OWN
// channel.
// ---------------------------------------------------------------------------

/// Like async::ServerWorker, each worker body records onto its own
/// autograd::GraphTape on its thread, with a tape step begun before every
/// grad_fn call.
struct ChannelWorker {
  ParamChannel* channel = nullptr;  ///< not owned; one worker per channel
  std::vector<autograd::Variable> params;
  std::function<double()> grad_fn;
};

using ChannelRunOptions = async::ServerRunOptions;

/// Run every worker for steps_per_worker (>= 0) pull/compute/push rounds:
/// pull, zero the grads, begin a tape step, grad_fn, the optional delay,
/// push. Results merge in update_index order. Kernels inside a worker body
/// run inline (core::detail::mark_thread_inline). With one worker the
/// rounds are sequential, which is what makes channel and in-process
/// trajectories comparable bit for bit.
async::ServerRunResult run_channel_workers(const std::vector<ChannelWorker>& workers,
                                           const ChannelRunOptions& opts = {});

}  // namespace yf::dist
