// MasterServer: the parameter-server master process (DESIGN.md §12).
//
// Owns the network face of an in-process async::ShardedParamServer: a
// TCP listener plus one blocking service thread per worker connection,
// each running the frame dispatch loop
//
//   hello (worker id; 0 = assign)
//                -> hello_ack (arena size, shard count, worker id,
//                   last applied push seq for that worker)
//   pull         -> pull_reply (per-shard versions + parameter values)
//   push (seq)   -> push_reply (ApplyStats of the application)
//   shutdown     -> shutdown_ack, connection closes
//
// Pull and push frames land on the SAME ShardedParamServer::pull/push
// and Eq. 37 measurement paths the in-process workers use -- the server
// object neither knows nor cares that a gradient arrived over a socket,
// so Algorithm 5's closed-loop momentum feedback runs unchanged under
// genuine network staleness.
//
// Fault tolerance (DESIGN.md §14): every push carries a per-worker
// sequence number, and the master keeps a PushLedger of (last seq,
// cached reply) per worker -- a replayed push after a reconnect returns
// the ORIGINAL ApplyStats instead of double-applying, which is what
// keeps a faulty socket run bit-identical to the fault-free one. With a
// checkpoint directory configured the master snapshots server + ledger
// every `checkpoint_every` pushes; `restore` starts a fresh master from
// the newest valid snapshot. Apply + ledger-record run under the shared
// side of a checkpoint lock, so a snapshot can never separate a push
// from its dedup entry -- replay-after-restore stays exactly-once.
// Connection reads/writes are deadline-bounded (YF_DIST_TIMEOUT_MS), so
// a dead worker releases its service thread instead of pinning it.
//
// Drain-on-shutdown idiom (shared with serve::LMServer, DESIGN.md §12):
// shutdown() first closes intake (the listener stops accepting, every
// connection's read side is shut down so no NEW frame can arrive), then
// drains -- a frame already being dispatched completes its reply -- then
// joins the accept and service threads, and only then flips stopped().
// Blocking entry points called after shutdown() throw std::logic_error
// instead of racing a dying object.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>

#include "async/param_server.hpp"
#include "dist/checkpoint.hpp"
#include "dist/fault.hpp"
#include "dist/socket.hpp"
#include "dist/wire.hpp"

namespace yf::dist {

struct MasterOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0: ephemeral; read back with port()
  std::size_t max_payload = kDefaultMaxPayload;

  /// Per-connection read/write deadline in ms. 0 disables; -1 (default)
  /// means default_dist_timeout_ms(), i.e. YF_DIST_TIMEOUT_MS.
  std::int64_t timeout_ms = -1;

  /// Checkpointing: empty dir disables. `checkpoint_every` = pushes
  /// between snapshots (1 = snapshot every applied push, the setting the
  /// restart chaos suite pins); `restore` loads the newest valid
  /// checkpoint from `checkpoint_dir` before accepting connections.
  std::string checkpoint_dir;
  std::int64_t checkpoint_every = 16;
  std::int64_t checkpoint_keep = 2;
  bool restore = false;

  /// Test hook: wrap each connection's REPLY side in a FaultyStream
  /// driven by this injector (must outlive the master). The master never
  /// reads YF_FAULT_PLAN itself -- raw-frame protocol tests must stay
  /// valid under a chaos environment; only the client picks up the env
  /// plan.
  FaultInjector* injector = nullptr;
};

class MasterServer {
 public:
  /// Binds, listens, and starts accepting. `server` must outlive this
  /// object (the master is a transport, not an owner).
  MasterServer(async::ShardedParamServer& server, MasterOptions opts = {});
  ~MasterServer();

  MasterServer(const MasterServer&) = delete;
  MasterServer& operator=(const MasterServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Block until `n` connections have completed the shutdown handshake
  /// (worker sent kShutdown and was acked). Returns false on timeout.
  /// Throws std::logic_error after shutdown().
  bool wait_for_clients(std::int64_t n, std::chrono::milliseconds timeout);

  /// Drain-on-shutdown (idiom above). Idempotent; also run by the
  /// destructor.
  void shutdown();
  bool stopped() const;

  struct Stats {
    std::int64_t connections = 0;      ///< accepted
    std::int64_t clean_shutdowns = 0;  ///< completed the handshake
    std::int64_t pulls = 0;
    std::int64_t pushes = 0;           ///< pushes APPLIED (replays excluded)
    std::int64_t errors = 0;           ///< error frames sent
    std::int64_t disconnects = 0;      ///< clean EOF without the kShutdown handshake
    std::int64_t retried_pushes = 0;   ///< pushes arriving with an already-seen seq
    std::int64_t deduped_pushes = 0;   ///< of those, answered from the ledger cache
    std::int64_t checkpoints = 0;      ///< snapshots successfully placed
  };
  Stats stats() const;

  /// Update index recovered at construction, when opts.restore found a
  /// valid checkpoint; nullopt otherwise.
  std::optional<std::int64_t> restored() const { return restored_index_; }

 private:
  struct Conn {
    TcpStream stream;
    std::thread thread;
  };

  void accept_loop();
  void serve_connection(TcpStream& stream);
  void write_checkpoint(std::int64_t index);

  async::ShardedParamServer& server_;
  MasterOptions opts_;
  TcpListener listener_;
  std::int64_t timeout_ms_ = 0;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;  ///< clean_shutdowns advanced
  std::list<Conn> conns_;            ///< list: stable addresses for the threads
  Stats stats_;
  PushLedger ledger_;  ///< guarded by mu_; serialized under ckpt_mu_ + mu_
  bool stopping_ = false;
  bool stopped_ = false;

  /// Checkpoint barrier. Lock order: ckpt_mu_ before mu_. Push threads
  /// hold the SHARED side across apply + ledger record (concurrent pushes
  /// still overlap); write_checkpoint takes the exclusive side, so a
  /// snapshot sees either none or both halves of every push.
  std::shared_mutex ckpt_mu_;
  std::optional<Checkpointer> checkpointer_;
  std::optional<std::int64_t> restored_index_;

  std::thread accept_thread_;
};

}  // namespace yf::dist
