#include "dist/fault.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/env.hpp"

namespace yf::dist {

namespace {

// splitmix64 (Steele et al.): tiny, seedable, and statistically fine for
// picking which frame to hurt. Not the tensor RNG on purpose -- fault
// schedules must not perturb model initialization streams.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double to_unit(std::uint64_t r) { return static_cast<double>(r >> 11) * 0x1.0p-53; }

std::string_view trimmed(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

[[noreturn]] void bad_token(std::string_view tok, const char* why) {
  throw std::invalid_argument("fault plan: " + std::string(why) + " in \"" + std::string(tok) +
                              "\"");
}

double parse_prob(std::string_view v, std::string_view tok) {
  double p = 0.0;
  const auto res = std::from_chars(v.data(), v.data() + v.size(), p);
  if (res.ec != std::errc() || res.ptr != v.data() + v.size() || !(p >= 0.0) || p > 1.0) {
    bad_token(tok, "probability must be in [0, 1]");
  }
  return p;
}

std::uint64_t parse_u64(std::string_view v, std::string_view tok) {
  std::uint64_t n = 0;
  const auto res = std::from_chars(v.data(), v.data() + v.size(), n);
  if (res.ec != std::errc() || res.ptr != v.data() + v.size()) {
    bad_token(tok, "expected an unsigned integer");
  }
  return n;
}

std::int64_t parse_ms(std::string_view v, std::string_view tok) {
  std::int64_t ms = 0;
  const auto res = std::from_chars(v.data(), v.data() + v.size(), ms);
  if (res.ec != std::errc() || res.ptr != v.data() + v.size() || ms < 0) {
    bad_token(tok, "expected a non-negative millisecond count");
  }
  return ms;
}

FaultKind kind_from_name(std::string_view name, std::string_view tok) {
  if (name == "drop") return FaultKind::kDrop;
  if (name == "trunc") return FaultKind::kTruncate;
  if (name == "corrupt") return FaultKind::kCorrupt;
  if (name == "delay") return FaultKind::kDelay;
  bad_token(tok, "unknown fault kind");
}

}  // namespace

bool FaultPlan::active() const {
  return drop > 0.0 || truncate > 0.0 || corrupt > 0.0 || delay > 0.0 || !directives.empty();
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::size_t pos = 0;
  bool any = false;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    const std::string_view tok = trimmed(std::string_view(text).substr(pos, end - pos));
    pos = end + 1;
    if (tok.empty()) continue;
    any = true;

    const std::size_t at = tok.find('@');
    const std::size_t eq = tok.find('=');
    if (at != std::string_view::npos && (eq == std::string_view::npos || at < eq)) {
      // Exact-frame directive: kind@N, delay also accepting @N:MS.
      Directive dir;
      dir.kind = kind_from_name(tok.substr(0, at), tok);
      std::string_view rest = tok.substr(at + 1);
      if (dir.kind == FaultKind::kDelay) {
        const std::size_t colon = rest.find(':');
        if (colon != std::string_view::npos) {
          dir.delay_ms = parse_ms(rest.substr(colon + 1), tok);
          rest = rest.substr(0, colon);
        }
      }
      dir.frame = parse_u64(rest, tok);
      plan.directives.push_back(dir);
    } else if (eq != std::string_view::npos) {
      const std::string_view key = tok.substr(0, eq);
      std::string_view val = tok.substr(eq + 1);
      if (key == "seed") {
        plan.seed = parse_u64(val, tok);
      } else if (key == "drop") {
        plan.drop = parse_prob(val, tok);
      } else if (key == "trunc") {
        plan.truncate = parse_prob(val, tok);
      } else if (key == "corrupt") {
        plan.corrupt = parse_prob(val, tok);
      } else if (key == "delay") {
        const std::size_t colon = val.find(':');
        if (colon != std::string_view::npos) {
          plan.delay_ms = parse_ms(val.substr(colon + 1), tok);
          val = val.substr(0, colon);
        }
        plan.delay = parse_prob(val, tok);
      } else {
        bad_token(tok, "unknown key");
      }
    } else {
      bad_token(tok, "expected key=value or kind@frame");
    }
  }
  if (!any) throw std::invalid_argument("fault plan: empty specification");
  if (plan.drop + plan.truncate + plan.corrupt + plan.delay > 1.0) {
    throw std::invalid_argument("fault plan: probabilities sum past 1");
  }
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const std::string text = core::env_str("YF_FAULT_PLAN", "");
  if (text.empty()) return {};
  try {
    return parse(text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "yf: YF_FAULT_PLAN=\"%s\" is malformed (%s); injecting no faults\n",
                 text.c_str(), e.what());
    return {};
  }
}

FaultInjector::Decision FaultInjector::next() {
  std::scoped_lock lock(mu_);
  const std::uint64_t idx = frame_++;
  if (!rng_seeded_) {
    rng_state_ = plan_.seed;
    rng_seeded_ = true;
  }
  // One draw per frame whether or not a directive overrides it, so adding
  // an exact directive never shifts which LATER frames the probabilistic
  // part selects -- plans stay composable.
  Decision d;
  d.rand = splitmix64(rng_state_);
  for (const FaultPlan::Directive& dir : plan_.directives) {
    if (dir.frame == idx && dir.kind != FaultKind::kNone) {
      d.kind = dir.kind;
      d.delay_ms = dir.delay_ms;
      ++fired_;
      return d;
    }
  }
  const double u = to_unit(d.rand);
  double acc = plan_.drop;
  if (u < acc) {
    d.kind = FaultKind::kDrop;
  } else if (u < (acc += plan_.truncate)) {
    d.kind = FaultKind::kTruncate;
  } else if (u < (acc += plan_.corrupt)) {
    d.kind = FaultKind::kCorrupt;
  } else if (u < (acc += plan_.delay)) {
    d.kind = FaultKind::kDelay;
    d.delay_ms = plan_.delay_ms;
  }
  if (d.kind != FaultKind::kNone) ++fired_;
  return d;
}

std::uint64_t FaultInjector::frames_seen() const {
  std::scoped_lock lock(mu_);
  return frame_;
}

std::uint64_t FaultInjector::faults_fired() const {
  std::scoped_lock lock(mu_);
  return fired_;
}

void FaultyStream::write_all(std::span<const std::byte> data) {
  if (poisoned_) {
    throw FaultInjected("fault injection: stream poisoned by an earlier truncated frame");
  }
  const FaultInjector::Decision d = injector_->next();
  switch (d.kind) {
    case FaultKind::kNone:
      sink_->write_all(data);
      return;
    case FaultKind::kDrop:
      // The frame never leaves this host; the peer just waits (and times
      // out, with deadlines armed).
      return;
    case FaultKind::kTruncate: {
      // A strict prefix, then poison: the peer sees the stream die
      // mid-frame (a torn frame) once the connection closes.
      const std::size_t keep = data.empty() ? 0 : static_cast<std::size_t>(d.rand % data.size());
      if (keep > 0) sink_->write_all(data.first(keep));
      poisoned_ = true;
      throw FaultInjected("fault injection: frame truncated after " + std::to_string(keep) +
                          " of " + std::to_string(data.size()) + " bytes");
    }
    case FaultKind::kCorrupt: {
      // One byte flipped in a scratch copy, past the 4-byte magic when the
      // frame allows it, so the damage lands in a validated header field
      // or the checksummed payload instead of reading as a non-YF peer.
      scratch_.assign(data.begin(), data.end());
      if (scratch_.empty()) return;
      const std::size_t lo = scratch_.size() > 4 ? 4 : 0;
      const std::size_t at = lo + static_cast<std::size_t>(d.rand % (scratch_.size() - lo));
      scratch_[at] ^= std::byte{0x5a};
      sink_->write_all(scratch_);
      return;
    }
    case FaultKind::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(d.delay_ms));
      sink_->write_all(data);
      return;
  }
}

}  // namespace yf::dist
