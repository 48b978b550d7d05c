// Versioned binary telemetry wire format.
//
// The paper's testers only pay off at scale when results stream off the
// instrument instead of landing in JSON at process exit, and a streamed
// format is only trustworthy if its decoder survives a hostile channel.
// This header defines the packet layout and the byte-level codec both ends
// share; encoder.hpp and decoder.hpp build the buffered endpoints on top.
//
// Packet layout (all multi-byte fields little-endian, written through the
// explicit byte layer in util/bytes.hpp — the format is identical on every
// host):
//
//   offset  size  field
//   0       4     magic 'M' 'G' 'T' '~'
//   4       1     version (kWireVersion)
//   5       1     packet type (PacketType)
//   6       2     stream id
//   8       4     sequence number (per stream, increments per packet)
//   12      8     tick (virtual time at publication)
//   20      4     payload length in bytes
//   24      1     CRC-8 over bytes [0, 24)
//   25      n     payload (type-specific, see the Record structs)
//   25+n    4     CRC-32 (IEEE, reflected) over the payload
//
// Design rules the decoder relies on:
//  - The header is self-checking: its CRC-8 covers every field including
//    the payload length, so a header that passes CRC has a trustworthy
//    length and the whole packet can be skipped on a typed rejection.
//  - Resynchronization is magic-anchored: after corruption the decoder
//    rescans for the magic bytes, so one bad packet never poisons the rest
//    of the stream.
//  - Every payload codec is total over arbitrary bytes: decode_payload
//    reads through a bounds-checked ByteReader and reports failure instead
//    of ever reading out of bounds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace mgt::telemetry {

inline constexpr std::uint8_t kMagic[4] = {0x4D, 0x47, 0x54, 0x7E};  // MGT~
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 25;
inline constexpr std::size_t kTrailerBytes = 4;  // payload CRC-32
/// Hard ceiling a decoder enforces on the payload-length field; anything
/// larger is rejected kOversized before a single payload byte is trusted.
inline constexpr std::size_t kDefaultMaxPayloadBytes = 64 * 1024;

/// Bytes on the wire for a payload of `n` bytes.
[[nodiscard]] constexpr std::size_t packet_bytes(std::size_t n) {
  return kHeaderBytes + n + kTrailerBytes;
}

/// What a packet carries. Values are wire bytes — never reorder.
enum class PacketType : std::uint8_t {
  kWaveformChunk = 1,   // decimated rendered-waveform samples
  kMetricSnapshot = 2,  // obs counter/gauge snapshot entries
  kPlanSummary = 3,     // one finished test plan's accounting summary
};

[[nodiscard]] std::string_view to_string(PacketType type);
[[nodiscard]] bool valid_type(std::uint8_t raw);

// ------------------------------------------------------------ byte reader --

/// Bounds-checked sequential reader: any overrun latches !ok() and every
/// subsequent read returns zero, so payload codecs are total by
/// construction — they can never read outside [data, data + size).
class ByteReader {
public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// Reads `n` bytes into `out` (cleared first). Latches !ok on overrun.
  bool bytes(std::size_t n, std::string& out);

private:
  [[nodiscard]] bool take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------- records --

/// Decimated rendered-waveform samples: `samples[i]` was taken at
/// `t0_ps + i * dt_ps * decimation` in the source grid.
struct WaveformChunk {
  std::uint16_t channel = 0;
  std::uint32_t decimation = 1;
  // Wire-image fields: raw doubles by design — the packet layout, not the
  // in-simulation unit system, owns their representation.
  double t0_ps = 0.0;  // lint:allow(unit-suffix-double)
  double dt_ps = 0.0;  // lint:allow(unit-suffix-double)
  std::vector<double> samples;

  [[nodiscard]] bool operator==(const WaveformChunk&) const = default;
};

/// One obs metric sample. Counters carry their value directly; gauges carry
/// the double's bit pattern so the snapshot round-trips exactly.
struct MetricEntry {
  enum Kind : std::uint8_t { kCounter = 0, kGauge = 1 };
  std::uint8_t kind = kCounter;
  std::string name;
  std::uint64_t bits = 0;

  [[nodiscard]] static MetricEntry counter(std::string name,
                                           std::uint64_t value);
  [[nodiscard]] static MetricEntry gauge(std::string name, double value);
  /// The gauge value carried in `bits` (meaningful when kind == kGauge).
  [[nodiscard]] double gauge_value() const;

  [[nodiscard]] bool operator==(const MetricEntry&) const = default;
};

struct MetricSnapshot {
  std::vector<MetricEntry> entries;

  [[nodiscard]] bool operator==(const MetricSnapshot&) const = default;
};

/// One finished test plan's accounting summary. `kind` and `outcome` are
/// opaque bytes whose meaning belongs to the producer.
struct PlanSummary {
  std::uint64_t plan_id = 0;
  std::uint8_t kind = 0;
  std::uint8_t outcome = 0;
  std::string tenant;
  std::uint32_t shards = 0;
  std::uint32_t shards_completed = 0;
  std::uint32_t shards_abandoned = 0;
  std::uint64_t chunks_completed = 0;
  std::uint64_t chunks_retried = 0;
  std::uint64_t chunks_abandoned = 0;
  std::uint64_t admitted_tick = 0;
  std::uint64_t finished_tick = 0;
  std::uint8_t deadline_exceeded = 0;
  std::uint64_t digest = 0;

  [[nodiscard]] bool operator==(const PlanSummary&) const = default;
};

/// One telemetry record: what a packet carries between the endpoints.
struct Record {
  std::uint64_t tick = 0;
  std::variant<WaveformChunk, MetricSnapshot, PlanSummary> body;

  [[nodiscard]] PacketType type() const;
  [[nodiscard]] bool operator==(const Record&) const = default;
};

/// Parsed packet header (fields host-order; see the layout table above).
struct PacketHeader {
  std::uint8_t version = kWireVersion;
  std::uint8_t type = 0;
  std::uint16_t stream_id = 0;
  std::uint32_t sequence = 0;
  std::uint64_t tick = 0;
  std::uint32_t payload_len = 0;
};

// ------------------------------------------------------------------ codec --

/// Serializes the record body (payload only, no header/CRCs).
void encode_payload(const Record& record, std::vector<std::uint8_t>& out);

/// Parses a payload of `type` into `out.body`. Total over arbitrary bytes:
/// returns false (never throws, never reads out of bounds) on any
/// inconsistency, including trailing slack bytes after a well-formed body.
[[nodiscard]] bool decode_payload(PacketType type, const std::uint8_t* data,
                                  std::size_t size, Record& out);

/// Appends one complete packet (header + payload + CRCs) to `out`.
void encode_packet(const Record& record, std::uint16_t stream_id,
                   std::uint32_t sequence, std::vector<std::uint8_t>& out);

/// Convenience: one packet as its own buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_packet(const Record& record,
                                                      std::uint16_t stream_id,
                                                      std::uint32_t sequence);

}  // namespace mgt::telemetry
