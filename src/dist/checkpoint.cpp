#include "dist/checkpoint.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "dist/wire.hpp"

namespace yf::dist {

namespace {

// "YFCK" bytewise, like the wire magic: identical octets on any host.
constexpr std::uint8_t kMagic[4] = {0x59, 0x46, 0x43, 0x4b};
constexpr const char* kPrefix = "ckpt-";
constexpr const char* kSuffix = ".yfck";
// Zero-padded to a fixed width so lexical directory order is index order.
constexpr const char* kNameFormat = "%s/ckpt-%020lld%s";

[[noreturn]] void raise_errno(const char* what, const char* path) {
  throw CheckpointError(std::string(what) + " " + path + ": " + std::strerror(errno));
}

/// ckpt-<digits>.yfck -> index; anything else (including .tmp leftovers)
/// is not a checkpoint candidate.
bool parse_index(const char* name, long long* out) {
  const std::size_t plen = std::strlen(kPrefix);
  if (std::strncmp(name, kPrefix, plen) != 0) return false;
  const char* digits = name + plen;
  if (*digits == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(digits, &end, 10);
  if (end == digits || errno != 0 || v < 0) return false;
  return std::strcmp(end, kSuffix) == 0 ? (*out = v, true) : false;
}

bool format_path(char (&buf)[4096], const std::string& dir, long long index, const char* ext) {
  const int n = std::snprintf(buf, sizeof(buf), kNameFormat, dir.c_str(), index, ext);
  return n > 0 && n < static_cast<int>(sizeof(buf));
}

/// write-temp-then-rename with fsync: after this returns, the final name
/// either holds the complete bytes or does not exist at all.
void place_file_atomic(const std::string& dir, long long index, std::span<const std::byte> bytes) {
  char tmp[4096];
  char fin[4096];
  if (!format_path(tmp, dir, index, ".yfck.tmp") || !format_path(fin, dir, index, kSuffix)) {
    throw CheckpointError("checkpoint path too long under " + dir);
  }
  const int fd = ::open(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) raise_errno("open", tmp);
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, reinterpret_cast<const char*>(bytes.data()) + done,
                              bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp);
      errno = err;
      raise_errno("write", tmp);
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp);
    errno = err;
    raise_errno("fsync", tmp);
  }
  if (::close(fd) != 0) raise_errno("close", tmp);
  if (::rename(tmp, fin) != 0) {
    const int err = errno;
    ::unlink(tmp);
    errno = err;
    raise_errno("rename", fin);
  }
}

}  // namespace

void PushLedger::save_state(core::StateWriter& w) const {
  w.u64(next_worker_id);
  w.u64(entries.size());
  for (const auto& [id, entry] : entries) {
    w.u64(id);
    w.u64(entry.last_seq);
    entry.reply.encode(w);
  }
}

void PushLedger::load_state(core::StateReader& r) {
  entries.clear();
  next_worker_id = r.u64();
  if (next_worker_id == 0) throw core::StateError("PushLedger: next worker id 0 (reserved)");
  const std::uint64_t n = r.u64();
  if (n > (1u << 20)) throw core::StateError("PushLedger: implausible worker count");
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t id = r.u64();
    Entry entry;
    entry.last_seq = r.u64();
    entry.reply = async::ApplyStats::decode(r);
    entries.emplace(id, entry);
  }
}

Checkpointer::Checkpointer(std::string dir, std::int64_t keep)
    : dir_(std::move(dir)), keep_(keep) {
  if (keep_ < 1) throw CheckpointError("Checkpointer: keep must be >= 1");
  struct stat st{};
  if (::stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    throw CheckpointError("Checkpointer: \"" + dir_ + "\" is not a writable directory");
  }
}

void Checkpointer::write(const async::ShardedParamServer& server, const PushLedger& ledger,
                         std::int64_t index) {
  payload_.clear();
  core::StateWriter w(payload_);
  w.u64(static_cast<std::uint64_t>(index));
  server.save_state(w);
  ledger.save_state(w);

  file_.clear();
  file_.reserve(kCheckpointHeaderBytes + payload_.size());
  core::StateWriter h(file_);
  for (const std::uint8_t m : kMagic) h.u8(m);
  h.u32(kCheckpointVersion);
  h.u64(payload_.size());
  h.u64(xxh64(payload_));
  file_.insert(file_.end(), payload_.begin(), payload_.end());

  place_file_atomic(dir_, static_cast<long long>(index), file_);
  ++written_;
  prune();
}

void Checkpointer::prune() {
  prune_scratch_.clear();
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;  // best effort: pruning never fails a write
  while (const dirent* ent = ::readdir(d)) {
    long long idx = 0;
    if (parse_index(ent->d_name, &idx)) prune_scratch_.push_back(idx);
  }
  ::closedir(d);
  if (prune_scratch_.size() <= static_cast<std::size_t>(keep_)) return;
  std::sort(prune_scratch_.begin(), prune_scratch_.end());
  const std::size_t drop = prune_scratch_.size() - static_cast<std::size_t>(keep_);
  for (std::size_t i = 0; i < drop; ++i) {
    char path[4096];
    if (format_path(path, dir_, prune_scratch_[i], kSuffix)) ::unlink(path);
  }
}

std::int64_t load_checkpoint(const std::string& path, async::ShardedParamServer& server,
                             PushLedger& ledger) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) raise_errno("open", path.c_str());
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    raise_errno("fstat", path.c_str());
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  std::vector<std::byte> bytes(size);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, reinterpret_cast<char*>(bytes.data()) + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      errno = err;
      raise_errno("read", path.c_str());
    }
    if (n == 0) break;  // file shrank underneath us; length check below
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);

  // Validate EVERYTHING before a single byte reaches the server: a bad
  // candidate must be rejectable with the server state untouched.
  if (done != size || size < kCheckpointHeaderBytes) {
    throw CheckpointError("checkpoint " + path + ": truncated header");
  }
  core::StateReader header(std::span<const std::byte>(bytes).first(kCheckpointHeaderBytes));
  for (const std::uint8_t m : kMagic) {
    if (header.u8() != m) throw CheckpointError("checkpoint " + path + ": bad magic");
  }
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion) {
    throw CheckpointError("checkpoint " + path + ": unsupported version " +
                          std::to_string(version));
  }
  const std::uint64_t payload_len = header.u64();
  const std::uint64_t checksum = header.u64();
  const auto payload = std::span<const std::byte>(bytes).subspan(kCheckpointHeaderBytes);
  if (payload_len != payload.size()) {
    throw CheckpointError("checkpoint " + path + ": truncated payload");
  }
  if (xxh64(payload) != checksum) {
    throw CheckpointError("checkpoint " + path + ": payload checksum mismatch");
  }

  core::StateReader r(payload);
  const auto index = static_cast<std::int64_t>(r.u64());
  server.load_state(r);
  ledger.load_state(r);
  r.expect_end();
  return index;
}

std::optional<std::int64_t> restore_latest(const std::string& dir,
                                           async::ShardedParamServer& server,
                                           PushLedger& ledger) {
  std::vector<long long> indices;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return std::nullopt;
  while (const dirent* ent = ::readdir(d)) {
    long long idx = 0;
    if (parse_index(ent->d_name, &idx)) indices.push_back(idx);
  }
  ::closedir(d);
  std::sort(indices.begin(), indices.end(), std::greater<>());
  for (const long long idx : indices) {
    char path[4096];
    if (!format_path(path, dir, idx, kSuffix)) continue;
    try {
      return load_checkpoint(path, server, ledger);
    } catch (const CheckpointError& e) {
      std::fprintf(stderr, "yf: skipping invalid checkpoint: %s\n", e.what());
    } catch (const core::StateError& e) {
      std::fprintf(stderr, "yf: skipping incompatible checkpoint %s: %s\n", path, e.what());
    }
  }
  return std::nullopt;
}

}  // namespace yf::dist
