#include "dist/client.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace yf::dist {

RemoteParamClient::RemoteParamClient(ClientOptions opts) : opts_(std::move(opts)) {
  if (opts_.max_attempts < 1) {
    throw std::invalid_argument("ClientOptions: max_attempts must be >= 1");
  }
  timeout_ms_ = opts_.timeout_ms >= 0 ? opts_.timeout_ms : default_dist_timeout_ms();
  if (opts_.injector != nullptr) {
    injector_ = opts_.injector;
  } else {
    const FaultPlan plan = FaultPlan::from_env();
    if (plan.active()) {
      env_injector_.emplace(plan);
      injector_ = &*env_injector_;
    }
  }
  // First contact runs through the same retry loop as every round trip:
  // with chaos armed even the hello can be dropped or torn.
  for (std::int64_t attempt = 0;; ++attempt) {
    try {
      ensure_connected();
      return;
    } catch (const WireError&) {
      if (!retry_after(attempt)) throw;
    } catch (const SocketError&) {
      if (!retry_after(attempt)) throw;
    }
  }
}

RemoteParamClient::RemoteParamClient(const std::string& host, std::uint16_t port,
                                     std::chrono::milliseconds retry_for,
                                     std::size_t max_payload)
    : RemoteParamClient(ClientOptions{.host = host,
                                      .port = port,
                                      .connect_retry_for = retry_for,
                                      .max_payload = max_payload}) {}

RemoteParamClient::~RemoteParamClient() {
  try {
    shutdown();
  } catch (...) {
    // Destructor path: the master may already be gone; closing is enough.
  }
}

void RemoteParamClient::ensure_connected() {
  if (connected_) return;
  faulty_.reset();
  stream_ = TcpStream::connect(opts_.host, opts_.port, opts_.connect_retry_for);
  if (timeout_ms_ > 0) stream_.set_timeouts(timeout_ms_);
  if (injector_ != nullptr) faulty_.emplace(stream_, stream_, *injector_);
  // kHello with the remembered worker id (0 on first contact: assign me
  // one). Staged in its own buffer so a pending push request replays
  // byte-identically after this reconnect.
  hello_.clear();
  PayloadWriter out(hello_);
  out.u64(worker_id_);
  write_frame(sink(), Op::kHello, hello_, scratch_);
  if (!read_frame(src(), header_, reply_, opts_.max_payload)) {
    throw WireError("connection closed awaiting hello_ack");
  }
  if (header_.op == Op::kError) {
    PayloadReader in(reply_);
    throw WireError("master error: " + in.str());
  }
  if (header_.op != Op::kHelloAck) {
    throw WireError(std::string("expected hello_ack, got ") + op_name(header_.op));
  }
  PayloadReader in(reply_);
  const auto size = static_cast<std::int64_t>(in.u64());
  const auto shards = static_cast<std::int64_t>(in.u64());
  const std::uint64_t id = in.u64();
  in.u64();  // master's last applied seq for us; the push ledger makes
             // replay safe without the client acting on it
  in.expect_end();
  if (size <= 0 || shards <= 0 || shards > size || id == 0) {
    throw WireError("hello_ack with implausible geometry: size " + std::to_string(size) +
                    ", shards " + std::to_string(shards) + ", worker id " + std::to_string(id));
  }
  if (size_ == 0) {
    size_ = size;
    shard_count_ = shards;
  } else if (size != size_ || shards != shard_count_) {
    // NOT retryable (plain runtime_error escapes the retry loop): this is
    // a different master, and our trajectory does not live there.
    throw std::runtime_error("master geometry changed across reconnect: size " +
                             std::to_string(size) + " vs " + std::to_string(size_) +
                             ", shards " + std::to_string(shards) + " vs " +
                             std::to_string(shard_count_));
  }
  if (worker_id_ != 0 && id != worker_id_) {
    throw std::runtime_error("master reassigned worker id " + std::to_string(worker_id_) +
                             " to " + std::to_string(id) + " across reconnect");
  }
  worker_id_ = id;
  connected_ = true;
}

void RemoteParamClient::disconnect() {
  faulty_.reset();
  if (stream_.valid()) stream_.close();
  connected_ = false;
}

std::chrono::milliseconds RemoteParamClient::backoff_delay(std::int64_t attempt) const {
  const std::int64_t cap = std::max<std::int64_t>(0, opts_.backoff_cap.count());
  std::int64_t d = std::max<std::int64_t>(0, opts_.backoff_base.count());
  for (std::int64_t i = 0; i < attempt && d < cap; ++i) d *= 2;
  return std::chrono::milliseconds(std::min(d, cap));
}

bool RemoteParamClient::retry_after(std::int64_t attempt) {
  disconnect();
  reconnects_ += 1;
  if (attempt + 1 >= opts_.max_attempts) return false;
  std::this_thread::sleep_for(backoff_delay(attempt));
  return true;
}

void RemoteParamClient::round_trip(Op request_op, Op reply_op) {
  for (std::int64_t attempt = 0;; ++attempt) {
    try {
      ensure_connected();
      write_frame(sink(), request_op, request_, scratch_);
      if (!read_frame(src(), header_, reply_, opts_.max_payload)) {
        throw WireError(std::string("connection closed awaiting ") + op_name(reply_op));
      }
      if (header_.op == Op::kError) {
        PayloadReader in(reply_);
        throw WireError("master error: " + in.str());
      }
      if (header_.op != reply_op) {
        throw WireError(std::string("expected ") + op_name(reply_op) + ", got " +
                        op_name(header_.op));
      }
      return;
    } catch (const WireError&) {
      if (!retry_after(attempt)) throw;
    } catch (const SocketError&) {
      if (!retry_after(attempt)) throw;
    }
  }
}

void RemoteParamClient::pull(std::span<double> dst, async::PullTicket& ticket) {
  if (stopped_) throw std::logic_error("RemoteParamClient::pull after shutdown");
  if (static_cast<std::int64_t>(dst.size()) != size_) {
    throw std::invalid_argument("pull buffer size != master arena size");
  }
  request_.clear();
  round_trip(Op::kPull, Op::kPullReply);
  PayloadReader in(reply_);
  const std::uint64_t k = in.u64();
  if (k != static_cast<std::uint64_t>(shard_count_)) {
    throw WireError("pull_reply with " + std::to_string(k) + " shard versions, expected " +
                    std::to_string(shard_count_));
  }
  ticket.versions.resize(static_cast<std::size_t>(k));
  in.i64_span(ticket.versions);
  in.f64_span(dst);
  in.expect_end();
}

async::ApplyStats RemoteParamClient::push(std::span<double> grad,
                                          const async::PullTicket& ticket) {
  if (stopped_) throw std::logic_error("RemoteParamClient::push after shutdown");
  if (static_cast<std::int64_t>(grad.size()) != size_) {
    throw std::invalid_argument("push gradient size != master arena size");
  }
  if (ticket.versions.size() != static_cast<std::size_t>(shard_count_)) {
    throw std::invalid_argument("push ticket does not come from a pull on this channel");
  }
  // The seq is assigned ONCE, here; retries replay the identical bytes,
  // and the master's ledger collapses any duplicate application.
  request_.clear();
  PayloadWriter out(request_);
  out.u64(++push_seq_);
  out.u64(static_cast<std::uint64_t>(ticket.versions.size()));
  out.i64_span(ticket.versions);
  out.f64_span(grad);
  round_trip(Op::kPush, Op::kPushReply);
  PayloadReader in(reply_);
  const auto stats = async::ApplyStats::decode(in);
  in.expect_end();
  return stats;
}

void RemoteParamClient::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  request_.clear();
  round_trip(Op::kShutdown, Op::kShutdownAck);
  disconnect();
}

}  // namespace yf::dist
