// Checked environment-variable parsing.
//
// std::strtol / std::atoi silently map a typo'd value ("fast", "4x") to 0,
// and 0 is a *meaningful* setting for some knobs (YF_DIST_TIMEOUT_MS=0
// disables socket deadlines). Every int knob routes through these helpers
// so a malformed value falls back to the documented default with a
// one-line warning instead of silently flipping semantics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace yf::core {

/// Strict base-10 parse of env var `name`: the whole value (modulo
/// surrounding whitespace) must be an integer. Returns nullopt when the
/// variable is unset, and nullopt *plus a one-line stderr warning* when it
/// is set but malformed — so "0" parses to 0 while "zero" warns and falls
/// back, keeping the two cases distinguishable at every call site.
std::optional<std::int64_t> env_int_value(const char* name);

/// env_int_value with an inline default: unset or malformed -> `fallback`
/// (malformed still warns).
std::int64_t checked_env_int(const char* name, std::int64_t fallback);

/// String env var with an inline default: unset or empty -> `fallback`.
/// The string knobs (YF_ENGINE, YF_KERNEL_BACKEND, ...) validate their own
/// vocabulary at the call site; this helper only centralizes the getenv
/// plumbing so every knob is greppable through core::env_*.
std::string env_str(const char* name, const char* fallback);

}  // namespace yf::core
