// Process-wide telemetry hub: the tap point the hot paths publish through.
//
// The hub owns one StreamEncoder per hub-published packet type (waveform,
// metrics) and gates every publish on the MGT_TELEMETRY knob (default OFF).
// The gate is one relaxed atomic load, taken before any argument is
// materialized at the call sites, so a disabled build pays nothing and the
// simulation results are byte-identical whether telemetry is on or off —
// the hub observes, it never consumes RNG or perturbs scheduling.
//
// Publish sites live in serial sections only (render() entry, the eye
// accumulator's post-merge tail), so the drained byte stream is identical
// at MGT_THREADS 0/1/8. The hub still locks internally: that makes a
// misuse (publishing from a parallel section) a data-race-free bug instead
// of UB, and keeps TSan quiet in tests that exercise the hub directly.
//
// Knob: MGT_TELEMETRY on/off (default off; strict util::env_flag);
// ScopedTelemetry overrides it. The pending-record budget (4 MiB, split
// across the streams) and the waveform decimation (kWaveformDecimation)
// are fixed constants.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "telemetry/encoder.hpp"
#include "telemetry/wire.hpp"

namespace mgt::telemetry {

/// Stream ids carried in the packet header (stable wire contract). The hub
/// publishes no PlanSummary stream; callers that emit plan summaries encode
/// them with their own StreamEncoder.
inline constexpr std::uint16_t kWaveformStreamId = 1;
inline constexpr std::uint16_t kMetricsStreamId = 2;

class Hub {
public:
  static Hub& instance();

  /// True when telemetry is on (override beats the MGT_TELEMETRY flag).
  /// One relaxed load; call sites check this before building records.
  [[nodiscard]] bool enabled() const {
    const int ov = override_.load(std::memory_order_relaxed);
    return ov >= 0 ? ov != 0 : env_enabled_;
  }

  /// -1 = defer to the environment flag; 0/1 force off/on.
  void set_enabled_override(int value) {
    override_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] int enabled_override() const {
    return override_.load(std::memory_order_relaxed);
  }

  /// Waveform tap decimation: one sample in every kWaveformDecimation.
  static constexpr std::size_t kWaveformDecimation = 64;

  // ---------------------------------------------------------- publishing --
  // All no-ops when disabled. Serial sections only.

  void publish_waveform(std::uint64_t tick, WaveformChunk chunk);
  void publish_metrics(std::uint64_t tick, MetricSnapshot snapshot);

  // ------------------------------------------------------------- draining --

  /// Encodes every pending record on every stream (waveform, then metrics
  /// — a fixed order, so the byte stream is deterministic) and hands each packet to `sink`. Returns packets emitted.
  std::size_t drain(const std::function<void(std::vector<std::uint8_t>&&)>& sink);

  /// drain() into a vector of packets.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> drain_packets();

  struct Stats {
    StreamStats waveform;
    StreamStats metrics;
  };
  [[nodiscard]] Stats stats() const;

  /// Drops pending records, zeroes stats and sequences. Tests only.
  void reset_for_test();

private:
  Hub();

  bool env_enabled_ = false;
  std::atomic<int> override_{-1};

  mutable std::mutex mutex_;
  StreamEncoder waveform_;
  StreamEncoder metrics_;
};

/// RAII override of the MGT_TELEMETRY gate, mirroring ScopedThreads so
/// tests can exercise both sides of the knob.
class ScopedTelemetry {
public:
  explicit ScopedTelemetry(bool on);
  ~ScopedTelemetry();
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

private:
  int previous_;
};

}  // namespace mgt::telemetry
