#include "dist/master.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

namespace yf::dist {

MasterServer::MasterServer(async::ShardedParamServer& server, MasterOptions opts)
    : server_(server), opts_(std::move(opts)), listener_(opts_.host, opts_.port) {
  timeout_ms_ = opts_.timeout_ms >= 0 ? opts_.timeout_ms : default_dist_timeout_ms();
  if (!opts_.checkpoint_dir.empty()) {
    if (opts_.checkpoint_every < 1) {
      throw std::invalid_argument("MasterOptions: checkpoint_every must be >= 1");
    }
    checkpointer_.emplace(opts_.checkpoint_dir, opts_.checkpoint_keep);
    if (opts_.restore) {
      // Restore happens after bind but before the accept thread exists:
      // early reconnecting workers queue in the listen backlog and only
      // ever observe fully restored state.
      restored_index_ = restore_latest(opts_.checkpoint_dir, server_, ledger_);
    }
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

MasterServer::~MasterServer() { shutdown(); }

void MasterServer::accept_loop() {
  for (;;) {
    std::optional<TcpStream> stream = listener_.accept();
    if (!stream) return;  // listener closed: shutdown in progress
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;  // raced shutdown(); drop the late connection
    stats_.connections += 1;
    conns_.emplace_back();
    Conn& conn = conns_.back();
    conn.stream = std::move(*stream);
    conn.thread = std::thread([this, &conn] { serve_connection(conn.stream); });
  }
}

void MasterServer::serve_connection(TcpStream& stream) {
  const std::int64_t size = server_.size();
  const std::int64_t shard_count = server_.shard_count();
  // Deadline-bound every read and write on this connection: a worker that
  // dies mid-frame releases this thread with a SocketTimeout instead of
  // pinning it forever.
  if (timeout_ms_ > 0) stream.set_timeouts(timeout_ms_);
  // Test hook: fault the master's reply frames through the configured
  // injector. One FaultyStream per connection (poison state is per
  // stream); the injector itself spans connections.
  std::optional<FaultyStream> faulty;
  if (opts_.injector != nullptr) faulty.emplace(stream, stream, *opts_.injector);
  ByteSource& src = faulty ? static_cast<ByteSource&>(*faulty) : stream;
  ByteSink& sink = faulty ? static_cast<ByteSink&>(*faulty) : stream;
  // Per-connection scratch: steady-state dispatch reuses these buffers,
  // so serving a frame allocates nothing after the first round trip.
  std::vector<std::byte> payload;
  std::vector<std::byte> reply;
  std::vector<std::byte> scratch;
  std::vector<double> values(static_cast<std::size_t>(size));
  async::PullTicket ticket;
  FrameHeader header;
  std::uint64_t worker_id = 0;
  bool greeted = false;
  try {
    while (read_frame(src, header, payload, opts_.max_payload)) {
      PayloadReader in(payload);
      reply.clear();
      PayloadWriter out(reply);
      // Protocol rule: kHello opens every conversation, so both sides
      // agree on the arena geometry before any parameters move.
      if (!greeted && header.op != Op::kHello) {
        throw std::runtime_error(std::string(op_name(header.op)) + " before hello");
      }
      switch (header.op) {
        case Op::kHello: {
          const std::uint64_t requested = in.u64();
          in.expect_end();
          greeted = true;
          std::uint64_t last_seq = 0;
          {
            std::lock_guard<std::mutex> lock(mu_);
            if (requested == 0) {
              worker_id = ledger_.next_worker_id++;
            } else {
              // A reconnecting worker announces the id it was assigned
              // earlier; keep future assignments clear of it.
              worker_id = requested;
              if (requested >= ledger_.next_worker_id) {
                ledger_.next_worker_id = requested + 1;
              }
              const auto it = ledger_.entries.find(worker_id);
              if (it != ledger_.entries.end()) last_seq = it->second.last_seq;
            }
          }
          out.u64(static_cast<std::uint64_t>(size));
          out.u64(static_cast<std::uint64_t>(shard_count));
          out.u64(worker_id);
          out.u64(last_seq);
          write_frame(sink, Op::kHelloAck, reply, scratch);
          break;
        }
        case Op::kPull: {
          in.expect_end();
          server_.pull(values, ticket);
          out.u64(static_cast<std::uint64_t>(ticket.versions.size()));
          out.i64_span(ticket.versions);
          out.f64_span(values);
          write_frame(sink, Op::kPullReply, reply, scratch);
          std::lock_guard<std::mutex> lock(mu_);
          stats_.pulls += 1;
          break;
        }
        case Op::kPush: {
          const std::uint64_t seq = in.u64();
          const std::uint64_t k = in.u64();
          if (k != static_cast<std::uint64_t>(shard_count)) {
            throw std::runtime_error("push with " + std::to_string(k) +
                                     " shard versions, master has " +
                                     std::to_string(shard_count) + " shards");
          }
          ticket.versions.resize(static_cast<std::size_t>(k));
          in.i64_span(ticket.versions);
          in.f64_span(values);  // reuse the pull buffer as the grad buffer
          in.expect_end();
          async::ApplyStats stats;
          bool replay = false;
          if (seq != 0) {  // seq 0: an unsequenced push, no dedup contract
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = ledger_.entries.find(worker_id);
            const std::uint64_t last = it == ledger_.entries.end() ? 0 : it->second.last_seq;
            if (seq == last) {
              // The worker resent a push whose reply it never saw: answer
              // from the ledger without re-applying (exactly-once).
              replay = true;
              stats = it->second.reply;
              stats_.retried_pushes += 1;
              stats_.deduped_pushes += 1;
            } else if (seq < last) {
              throw std::runtime_error("push seq " + std::to_string(seq) +
                                       " regressed behind " + std::to_string(last));
            }
          }
          if (!replay) {
            // Shared side of the checkpoint barrier across apply + record:
            // a snapshot can never hold an applied push without its dedup
            // entry, which keeps replay-after-restore exactly-once.
            std::shared_lock<std::shared_mutex> apply_lock(ckpt_mu_);
            stats = server_.push(values, ticket);
            std::lock_guard<std::mutex> lock(mu_);
            if (seq != 0) {
              PushLedger::Entry& entry = ledger_.entries[worker_id];
              entry.last_seq = seq;
              entry.reply = stats;
            }
            stats_.pushes += 1;
          }
          // Snapshot BEFORE the reply: with checkpoint_every=1, any reply
          // the worker acted on is a push a restarted master remembers.
          if (!replay && checkpointer_ &&
              stats.update_index % opts_.checkpoint_every == 0) {
            write_checkpoint(stats.update_index);
          }
          stats.encode(out);
          write_frame(sink, Op::kPushReply, reply, scratch);
          break;
        }
        case Op::kShutdown: {
          in.expect_end();
          write_frame(sink, Op::kShutdownAck, reply, scratch);
          stream.shutdown_rw();
          {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.clean_shutdowns += 1;
          }
          done_cv_.notify_all();
          return;
        }
        default:
          // Known op, wrong direction (a reply sent as a request).
          throw std::runtime_error(std::string("unexpected ") + op_name(header.op));
      }
    }
    // Clean EOF without kShutdown: the worker vanished (crashed, or tore
    // down to reconnect). Its ledger entry stays warm for the replay.
    std::lock_guard<std::mutex> lock(mu_);
    stats_.disconnects += 1;
  } catch (const std::exception& e) {
    // One error frame, best-effort, then the connection is done. Wire
    // and socket errors mean the stream itself is broken, so the frame
    // may not arrive -- that is fine, the close carries the message.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.errors += 1;
    }
    try {
      reply.clear();
      PayloadWriter out(reply);
      out.str(e.what());
      write_frame(sink, Op::kError, reply, scratch);
    } catch (...) {
    }
    stream.shutdown_rw();
  }
}

void MasterServer::write_checkpoint(std::int64_t index) {
  // Exclusive side of the barrier: every in-flight apply+record pair has
  // finished, none can start. mu_ nests inside (lock order ckpt_mu_, mu_)
  // to freeze the ledger for serialization.
  std::unique_lock<std::shared_mutex> freeze(ckpt_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  try {
    checkpointer_->write(server_, ledger_, index);
    stats_.checkpoints += 1;
  } catch (const CheckpointError& e) {
    // A missed snapshot only widens the restore window -- the PREVIOUS
    // snapshot's ledger still dedups any replay -- so serving continues.
    std::fprintf(stderr, "yf: checkpoint %lld failed: %s\n",
                 static_cast<long long>(index), e.what());
  }
}

bool MasterServer::wait_for_clients(std::int64_t n, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stopped_) throw std::logic_error("MasterServer::wait_for_clients after shutdown");
  return done_cv_.wait_for(lock, timeout,
                           [this, n] { return stats_.clean_shutdowns >= n; });
}

void MasterServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Another caller is (or was) draining; nothing to do beyond letting
      // the first shutdown() finish -- the destructor path handles joins.
      return;
    }
    stopping_ = true;
  }
  // 1. Close intake: no new connections, no new frames. A frame already
  //    inside dispatch completes and its reply is written (drain).
  listener_.close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Conn& conn : conns_) conn.stream.shutdown_rw();
  }
  // 2. Drain + join. The conns_ list is append-only and service threads
  //    never erase entries, so iterating outside the lock is safe once
  //    stopping_ stops the accept loop from appending.
  if (accept_thread_.joinable()) accept_thread_.join();
  for (Conn& conn : conns_) {
    if (conn.thread.joinable()) conn.thread.join();
  }
  // 3. Only now is the object quiescent.
  std::lock_guard<std::mutex> lock(mu_);
  stopped_ = true;
}

bool MasterServer::stopped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopped_;
}

MasterServer::Stats MasterServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace yf::dist
