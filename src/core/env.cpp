#include "core/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace yf::core {

std::optional<std::int64_t> env_int_value(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  const char* p = env;
  while (std::isspace(static_cast<unsigned char>(*p)) != 0) ++p;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(p, &end, 10);
  bool ok = end != p && errno != ERANGE;
  if (ok) {
    while (std::isspace(static_cast<unsigned char>(*end)) != 0) ++end;
    ok = *end == '\0';
  }
  if (!ok) {
    std::fprintf(stderr, "yf: ignoring %s=\"%s\": not an integer, using the default\n", name, env);
    return std::nullopt;
  }
  return static_cast<std::int64_t>(v);
}

std::int64_t checked_env_int(const char* name, std::int64_t fallback) {
  const auto v = env_int_value(name);
  return v.has_value() ? *v : fallback;
}

std::string env_str(const char* name, const char* fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return env;
}

}  // namespace yf::core
