// Telemetry encoder: bounded buffering with explicit backpressure.
//
// Producers offer records faster than a sink may drain them, and a soak
// that runs for a billion samples must not grow without bound — so every
// stream buffers its pending records in a bounded ring that sheds
// oldest-first when full. Shedding is never silent: every offered record
// is accounted for,
//
//     offered == encoded + shed + pending()
//
// at every instant, and the shed count is mirrored into obs per stream
// ("telemetry.<stream>.shed"). Oldest-first decimation keeps the freshest
// telemetry (the useful half in an overload) and makes the policy
// deterministic: what is shed depends only on the offer/drain sequence,
// never on timing or thread count.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/wire.hpp"

namespace mgt::telemetry {

/// Exact per-stream backpressure accounting.
struct StreamStats {
  std::uint64_t offered = 0;
  std::uint64_t encoded = 0;
  std::uint64_t shed = 0;
  std::size_t pending = 0;
  std::size_t pending_bytes = 0;
  std::size_t pending_bytes_high_water = 0;

  [[nodiscard]] bool accounting_exact() const {
    return offered == encoded + shed + pending;
  }
};

/// One telemetry stream: a bounded decimating ring of pending records with
/// a monotone per-packet sequence number. Serial sections only.
class StreamEncoder {
public:
  struct Config {
    std::uint16_t stream_id = 0;
    /// Obs/self-test name ("waveform", "metrics").
    std::string name;
    /// Ring bound in records; offers beyond it shed the oldest pending.
    std::size_t capacity_records = 256;
  };

  explicit StreamEncoder(Config config);

  /// Offers one record. When the ring is full the oldest pending record is
  /// shed (counted, never silent) to make room — overload keeps the
  /// freshest telemetry and bounded memory.
  void offer(Record record);

  /// Encodes every pending record into packets, oldest first, assigning
  /// consecutive sequence numbers; each packet goes to `sink`. Returns the
  /// number of packets emitted.
  std::size_t drain(
      const std::function<void(std::vector<std::uint8_t>&&)>& sink);

  [[nodiscard]] const StreamStats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint32_t next_sequence() const { return sequence_; }

private:
  /// Approximate in-memory cost of one pending record (for the soak's
  /// constant-memory evidence, not an allocator contract).
  [[nodiscard]] static std::size_t record_cost(const Record& record);

  Config config_;
  std::deque<Record> ring_;
  std::uint32_t sequence_ = 0;
  StreamStats stats_;
};

}  // namespace mgt::telemetry
