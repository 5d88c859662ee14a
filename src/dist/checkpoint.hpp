// Master checkpoint/restore and the exactly-once push ledger
// (DESIGN.md §14).
//
// A checkpoint file is one atomic snapshot of everything a restarted
// master needs to continue the trajectory bit-identically:
//
//   offset size field
//   0      4    magic        "YFCK" (0x59 0x46 0x43 0x4b)
//   4      4    version      checkpoint format version, currently 3
//   8      8    payload_len  bytes following the header
//   16     8    checksum     XXH64 (seed 0) over the payload bytes
//   24     ..   payload      u64 update index,
//                            ShardedParamServer::save_state (values,
//                            shard versions + histories, tuner/optimizer
//                            state), PushLedger::save_state
//
// All fields go through the core byte codec (core/state.hpp), the one the
// wire uses. Version 2 also carried the server's smoothed Eq. 37 estimate
// and Adam's beta1; version-3 readers reject it like any other version.
//
// Placement is write-temp-then-rename: the bytes land in
// `ckpt-<index>.yfck.tmp`, are fsync'd, and only then renamed to
// `ckpt-<index>.yfck` -- POSIX rename is atomic within a directory, so a
// reader never observes a half-written checkpoint under its final name.
// A crash mid-write leaves a stale .tmp that the next write simply
// replaces. The checksum catches the remaining failure mode (a torn or
// bit-rotted file that WAS fully renamed): restore_latest() verifies it
// before a single byte reaches the server, and falls back to the next
// older checkpoint on any validation failure.
//
// The steady-state write path is allocation-bounded: serialization reuses
// warm byte buffers, paths are built with snprintf into stack arrays, and
// the file I/O is raw POSIX (open/write/fsync/rename) rather than stdio
// -- pinned by the alloc_count suite.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "async/param_server.hpp"
#include "core/state.hpp"

namespace yf::dist {

/// A checkpoint file that cannot be read, validated, or placed. Restore
/// paths treat it as "skip this candidate"; write paths as fatal.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kCheckpointVersion = 3;
inline constexpr std::size_t kCheckpointHeaderBytes = 24;

/// Exactly-once bookkeeping for the push protocol: per worker, the last
/// applied push sequence number and the ApplyStats reply it produced. A
/// replayed push (same seq after a reconnect) is answered from `reply`
/// without touching the server -- the worker cannot tell a lost reply
/// from a lost request, so the master must be able to answer both the
/// same way. Lives in the checkpoint payload: dedup must survive a master
/// restart or a replay after restore would double-apply. std::map, not
/// unordered, so serialization order (and thus checkpoint bytes) is
/// deterministic.
struct PushLedger {
  struct Entry {
    std::uint64_t last_seq = 0;
    async::ApplyStats reply{};
  };

  std::map<std::uint64_t, Entry> entries;  ///< worker id -> dedup entry
  std::uint64_t next_worker_id = 1;        ///< ids the master hands out (kHello 0)

  void save_state(core::StateWriter& w) const;
  void load_state(core::StateReader& r);
};

/// Periodic checkpoint writer; one per master. Not thread-safe -- the
/// master serializes write() against pushes with its checkpoint lock.
class Checkpointer {
 public:
  /// `dir` must exist and be writable; `keep` newest checkpoints are
  /// retained, older ones pruned after each successful write.
  explicit Checkpointer(std::string dir, std::int64_t keep = 2);

  /// Snapshot server + ledger as ckpt-<index>.yfck (atomic, checksummed),
  /// then prune. `index` must increase across calls (the master passes
  /// the update index, which survives restore and keeps increasing).
  void write(const async::ShardedParamServer& server, const PushLedger& ledger,
             std::int64_t index);

  std::int64_t written() const { return written_; }

 private:
  void prune();

  std::string dir_;
  std::int64_t keep_;
  std::int64_t written_ = 0;
  std::vector<std::byte> payload_;       ///< serialized state, reused
  std::vector<std::byte> file_;          ///< header + payload, reused
  std::vector<long long> prune_scratch_; ///< indices seen during prune
};

/// Load one checkpoint file into `server` and `ledger`; returns its
/// update index. Header/checksum validation happens BEFORE any state is
/// touched (CheckpointError); a layout mismatch inside the payload
/// (core::StateError) can leave the server partially restored -- callers
/// recover by loading another checkpoint, which overwrites every field.
std::int64_t load_checkpoint(const std::string& path, async::ShardedParamServer& server,
                             PushLedger& ledger);

/// Restore from the newest valid ckpt-*.yfck in `dir`: candidates are
/// tried newest-first, invalid or unreadable ones skipped with a stderr
/// note (the reject-and-fall-back contract). Returns the restored update
/// index, or nullopt when no candidate loads (the server keeps its
/// freshly constructed state).
std::optional<std::int64_t> restore_latest(const std::string& dir,
                                           async::ShardedParamServer& server, PushLedger& ledger);

}  // namespace yf::dist
