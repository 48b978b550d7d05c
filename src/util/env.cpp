#include "util/env.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <vector>

namespace mgt::util {

namespace {

// Rejection bookkeeping: counted under a mutex (never on a hot path — env
// knobs are read once per process at component construction).
std::mutex g_mutex;
std::uint64_t g_rejections = 0;
std::vector<std::string> g_rejected_names;

void count_rejection(const char* name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  ++g_rejections;
  for (const std::string& seen : g_rejected_names) {
    if (seen == name) {
      return;
    }
  }
  g_rejected_names.emplace_back(name);
}

}  // namespace

std::optional<std::uint64_t> parse_env_u64(const char* raw, std::uint64_t min,
                                           std::uint64_t max) {
  if (raw == nullptr || *raw == '\0') {
    return std::nullopt;  // unset, not malformed
  }
  const std::string_view text{raw};
  // Hand-rolled digits-only scan: strtoul would silently accept leading
  // whitespace, a '+' sign, and saturate out-of-range magnitudes — all of
  // which we want to reject, matching parse_thread_count's strictness.
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~0ULL - digit) / 10) {
      return std::nullopt;  // would overflow
    }
    value = value * 10 + digit;
  }
  if (value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<bool> parse_env_flag(const char* raw) {
  if (raw == nullptr || *raw == '\0') {
    return std::nullopt;
  }
  const std::string_view text{raw};
  if (text == "0" || text == "off" || text == "false") {
    return false;
  }
  if (text == "1" || text == "on" || text == "true") {
    return true;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> parse_env_size_mb(const char* raw,
                                               std::uint64_t min_mb,
                                               std::uint64_t max_mb) {
  // Clamp the caller's ceiling so the MB→bytes shift below cannot
  // overflow even when max_mb is the default "anything".
  const std::uint64_t cap_mb =
      std::min<std::uint64_t>(max_mb, (~0ULL) >> 20);
  const std::optional<std::uint64_t> mb = parse_env_u64(raw, min_mb, cap_mb);
  if (!mb.has_value()) {
    return std::nullopt;
  }
  return *mb << 20;
}

EnvValue<std::uint64_t> env_u64(const char* name, std::uint64_t min,
                                std::uint64_t max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') {
    return {EnvParseStatus::kUnset, 0};
  }
  const std::optional<std::uint64_t> parsed = parse_env_u64(raw, min, max);
  if (!parsed.has_value()) {
    count_rejection(name);
    return {EnvParseStatus::kRejected, 0};
  }
  return {EnvParseStatus::kParsed, *parsed};
}

EnvValue<bool> env_flag(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') {
    return {EnvParseStatus::kUnset, false};
  }
  const std::optional<bool> parsed = parse_env_flag(raw);
  if (!parsed.has_value()) {
    count_rejection(name);
    return {EnvParseStatus::kRejected, false};
  }
  return {EnvParseStatus::kParsed, *parsed};
}

EnvValue<std::uint64_t> env_size_mb(const char* name, std::uint64_t min_mb,
                                    std::uint64_t max_mb) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') {
    return {EnvParseStatus::kUnset, 0};
  }
  const std::optional<std::uint64_t> parsed =
      parse_env_size_mb(raw, min_mb, max_mb);
  if (!parsed.has_value()) {
    count_rejection(name);
    return {EnvParseStatus::kRejected, 0};
  }
  return {EnvParseStatus::kParsed, *parsed};
}

std::uint64_t env_rejections() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_rejections;
}

std::string env_rejected_names() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::string out;
  for (const std::string& name : g_rejected_names) {
    if (!out.empty()) {
      out += ",";
    }
    out += name;
  }
  return out;
}

void reset_env_rejections_for_test() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_rejections = 0;
  g_rejected_names.clear();
}

}  // namespace mgt::util
