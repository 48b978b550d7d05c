// Strict environment-variable parsing.
//
// Every MGT_* knob goes through these helpers so misconfiguration behaves
// the same everywhere: a malformed value is *rejected* (the caller keeps
// its safe default) and *counted*, never silently truncated or partially
// parsed. The rejection totals are bridged into the obs registry as the
// counter "mgt.env.rejected" (see obs::refresh_bridged) so a typo'd knob
// is visible in every metrics snapshot and self-test report — the same
// discipline util::parse_thread_count established for MGT_THREADS.
//
// The parse_* functions are pure (they take the raw string) so the whole
// rejection matrix is unit-testable; the env_* wrappers read getenv and
// count rejections.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace mgt::util {

/// Strict parse of a positive integer knob (e.g. MGT_TELEMETRY_DECIM).
/// nullptr/empty mean "unset" and return nullopt WITHOUT counting a
/// rejection; trailing garbage ("64x"), negatives, zero when `min` > 0,
/// non-digits and out-of-range magnitudes are malformed. Pure.
std::optional<std::uint64_t> parse_env_u64(const char* raw,
                                           std::uint64_t min = 1,
                                           std::uint64_t max = ~0ULL);

/// Strict parse of an on/off knob (e.g. MGT_TELEMETRY, MGT_OBS).
/// Accepts exactly "0"/"off"/"false" (false) and "1"/"on"/"true" (true);
/// nullptr/empty mean "unset". Anything else is malformed. Pure.
std::optional<bool> parse_env_flag(const char* raw);

/// Strict parse of a size-in-mebibytes knob (MGT_TELEMETRY_BUF_MB): the
/// digits-only grammar of parse_env_u64 with the MB→bytes conversion
/// applied and overflow-checked, so every size knob shares one grammar and
/// one failure mode. Returns BYTES.
/// `min_mb`/`max_mb` bound the accepted value in MB; values whose byte
/// count would overflow 64 bits are malformed. Pure.
std::optional<std::uint64_t> parse_env_size_mb(
    const char* raw, std::uint64_t min_mb = 1,
    std::uint64_t max_mb = (~0ULL) >> 20);

/// Outcome of an env_* read, distinguishing "knob absent" from "knob
/// malformed" so call sites can count and report the latter.
enum class EnvParseStatus { kUnset, kParsed, kRejected };

template <typename T>
struct EnvValue {
  EnvParseStatus status = EnvParseStatus::kUnset;
  T value{};  // meaningful only when status == kParsed

  [[nodiscard]] bool parsed() const { return status == EnvParseStatus::kParsed; }
  [[nodiscard]] bool rejected() const {
    return status == EnvParseStatus::kRejected;
  }
  /// The parsed value, or `fallback` when unset/rejected.
  [[nodiscard]] T value_or(T fallback) const {
    return parsed() ? value : fallback;
  }
};

/// Reads and strictly parses an integer knob from the environment. A
/// malformed value increments the process-wide rejection count (tagged
/// with `name` for the log line) and reports kRejected.
EnvValue<std::uint64_t> env_u64(const char* name, std::uint64_t min = 1,
                                std::uint64_t max = ~0ULL);

/// Reads and strictly parses an on/off knob from the environment.
EnvValue<bool> env_flag(const char* name);

/// Reads and strictly parses a size-in-MB knob; `value` is in BYTES.
EnvValue<std::uint64_t> env_size_mb(const char* name, std::uint64_t min_mb = 1,
                                    std::uint64_t max_mb = (~0ULL) >> 20);

/// How many environment knob values were rejected by env_u64/env_flag in
/// this process. Bridged into obs as counter "mgt.env.rejected".
std::uint64_t env_rejections();

/// Comma-separated "NAME,NAME,..." list of the knobs that were rejected
/// (each name once, in first-rejection order); empty when none. Used by
/// self-test details so the offending variable is named, not just counted.
std::string env_rejected_names();

/// Test hook: zeroes the rejection count and name list.
void reset_env_rejections_for_test();

}  // namespace mgt::util
