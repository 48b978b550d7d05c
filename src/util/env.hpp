// Strict environment-variable parsing: the one reader of MGT_* knobs.
//
// Every MGT_* knob (MGT_THREADS, MGT_OBS, MGT_TELEMETRY) goes through these
// helpers, and nothing else in src/ calls getenv, so misconfiguration
// behaves the same everywhere: a malformed value is *rejected* (the caller
// keeps its default) and *counted*, never silently truncated or partially
// parsed. The rejection total is bridged into the obs registry as the
// counter "mgt.env.rejected" (see obs::refresh_bridged), and
// TestSystem::self_test() names the rejected knobs, so a typo'd knob is
// visible in every metrics snapshot and self-test report.
//
// The parse_* functions are pure (they take the raw string) so the whole
// rejection matrix is unit-testable; the env_* wrappers read the
// environment and count rejections.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace mgt::util {

/// Strict parse of a whole-number knob (e.g. MGT_THREADS). Digits only:
/// nullptr/empty mean "unset" and return nullopt WITHOUT counting a
/// rejection; a sign ("+4", "-1"), whitespace (" 8", "8 "), trailing
/// garbage ("8x"), fractions, hex, values outside [min, max] and
/// magnitudes past 64 bits are malformed. Pure.
[[nodiscard]] std::optional<std::uint64_t> parse_env_u64(
    const char* raw, std::uint64_t min = 1, std::uint64_t max = ~0ULL);

/// Strict parse of an on/off knob (e.g. MGT_TELEMETRY, MGT_OBS).
/// Accepts exactly "0"/"off"/"false" (false) and "1"/"on"/"true" (true);
/// nullptr/empty mean "unset". Anything else is malformed. Pure.
[[nodiscard]] std::optional<bool> parse_env_flag(const char* raw);

/// Reads integer knob `name`: its parsed value, or `fallback` when it is
/// unset or malformed. A malformed value is counted and named (see
/// env_rejections / env_rejected_names).
std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t min = 1, std::uint64_t max = ~0ULL);

/// Reads on/off knob `name`: its parsed value, or `fallback` when it is
/// unset or malformed. A malformed value is counted and named.
bool env_flag(const char* name, bool fallback);

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
