#include "telemetry/hub.hpp"

#include <algorithm>
#include <utility>

#include "util/env.hpp"

namespace mgt::telemetry {

namespace {

/// Pending-record budget. The streams take fixed shares of it (waveform
/// 1/2, metrics 1/4), so pending memory stays under it whatever is offered.
constexpr std::uint64_t kBufferBytes = 4ull << 20;

struct RingPlan {
  std::size_t waveform_records;
  std::size_t metrics_records;
};

/// Turns each stream's share into a record capacity using a typical record
/// footprint (a 512-sample chunk ≈ 4 KB, a metric snapshot ≈ 8 KB). The
/// split is a sizing heuristic; the *bound* itself is exact — each ring sheds oldest-first past its
/// capacity, so pending memory is constant regardless of offered volume.
constexpr RingPlan kRingPlan{
    std::max<std::size_t>(16, kBufferBytes / 2 / 4096),
    std::max<std::size_t>(16, kBufferBytes / 4 / 8192)};

}  // namespace

Hub& Hub::instance() {
  static Hub hub;
  return hub;
}

Hub::Hub()
    : env_enabled_(util::env_flag("MGT_TELEMETRY", false)),
      waveform_({kWaveformStreamId, "waveform", kRingPlan.waveform_records}),
      metrics_({kMetricsStreamId, "metrics", kRingPlan.metrics_records}) {}

void Hub::publish_waveform(std::uint64_t tick, WaveformChunk chunk) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  waveform_.offer(Record{tick, std::move(chunk)});
}

void Hub::publish_metrics(std::uint64_t tick, MetricSnapshot snapshot) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_.offer(Record{tick, std::move(snapshot)});
}

std::size_t Hub::drain(
    const std::function<void(std::vector<std::uint8_t>&&)>& sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t emitted = 0;
  emitted += waveform_.drain(sink);
  emitted += metrics_.drain(sink);
  return emitted;
}

std::vector<std::vector<std::uint8_t>> Hub::drain_packets() {
  std::vector<std::vector<std::uint8_t>> packets;
  drain([&](std::vector<std::uint8_t>&& p) { packets.push_back(std::move(p)); });
  return packets;
}

Hub::Stats Hub::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{waveform_.stats(), metrics_.stats()};
}

void Hub::reset_for_test() {
  std::lock_guard<std::mutex> lock(mutex_);
  waveform_ =
      StreamEncoder({kWaveformStreamId, "waveform", kRingPlan.waveform_records});
  metrics_ =
      StreamEncoder({kMetricsStreamId, "metrics", kRingPlan.metrics_records});
}

ScopedTelemetry::ScopedTelemetry(bool on)
    : previous_(Hub::instance().enabled_override()) {
  Hub::instance().set_enabled_override(on ? 1 : 0);
}

ScopedTelemetry::~ScopedTelemetry() {
  Hub::instance().set_enabled_override(previous_);
}

}  // namespace mgt::telemetry
