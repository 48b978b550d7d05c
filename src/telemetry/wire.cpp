#include "telemetry/wire.hpp"

#include <bit>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mgt::telemetry {

std::string_view to_string(PacketType type) {
  switch (type) {
    case PacketType::kWaveformChunk:
      return "waveform-chunk";
    case PacketType::kMetricSnapshot:
      return "metric-snapshot";
    case PacketType::kPlanSummary:
      return "plan-summary";
  }
  return "unknown";
}

bool valid_type(std::uint8_t raw) {
  return raw == static_cast<std::uint8_t>(PacketType::kWaveformChunk) ||
         raw == static_cast<std::uint8_t>(PacketType::kMetricSnapshot) ||
         raw == static_cast<std::uint8_t>(PacketType::kPlanSummary);
}

// ------------------------------------------------------------ byte reader --

bool ByteReader::take(std::size_t n) {
  if (!ok_ || n > size_ - pos_) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!take(1)) {
    return 0;
  }
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  if (!take(2)) {
    return 0;
  }
  const std::uint16_t v = util::get_u16(data_ + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  if (!take(4)) {
    return 0;
  }
  const std::uint32_t v = util::get_u32(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (!take(8)) {
    return 0;
  }
  const std::uint64_t v = util::get_u64(data_ + pos_);
  pos_ += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

bool ByteReader::bytes(std::size_t n, std::string& out) {
  out.clear();
  if (!take(n)) {
    return false;
  }
  out.assign(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return true;
}

// ---------------------------------------------------------------- records --

MetricEntry MetricEntry::counter(std::string name, std::uint64_t value) {
  MetricEntry e;
  e.kind = kCounter;
  e.name = std::move(name);
  e.bits = value;
  return e;
}

MetricEntry MetricEntry::gauge(std::string name, double value) {
  MetricEntry e;
  e.kind = kGauge;
  e.name = std::move(name);
  e.bits = std::bit_cast<std::uint64_t>(value);
  return e;
}

double MetricEntry::gauge_value() const { return std::bit_cast<double>(bits); }

PacketType Record::type() const {
  if (std::holds_alternative<WaveformChunk>(body)) {
    return PacketType::kWaveformChunk;
  }
  if (std::holds_alternative<MetricSnapshot>(body)) {
    return PacketType::kMetricSnapshot;
  }
  return PacketType::kPlanSummary;
}

// ------------------------------------------------------------------ codec --

namespace {

void encode_waveform(const WaveformChunk& wf, std::vector<std::uint8_t>& out) {
  util::put_u16(out, wf.channel);
  util::put_u32(out, wf.decimation);
  util::put_f64(out, wf.t0_ps);
  util::put_f64(out, wf.dt_ps);
  util::put_u32(out, static_cast<std::uint32_t>(wf.samples.size()));
  for (const double s : wf.samples) {
    util::put_f64(out, s);
  }
}

[[nodiscard]] bool decode_waveform(ByteReader& in, WaveformChunk& wf) {
  wf.channel = in.u16();
  wf.decimation = in.u32();
  wf.t0_ps = in.f64();
  wf.dt_ps = in.f64();
  const std::uint32_t count = in.u32();
  if (!in.ok() || wf.decimation == 0 ||
      static_cast<std::size_t>(count) * 8 != in.remaining()) {
    return false;
  }
  wf.samples.clear();
  wf.samples.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    wf.samples.push_back(in.f64());
  }
  return in.ok();
}

void encode_metrics(const MetricSnapshot& ms, std::vector<std::uint8_t>& out) {
  util::put_u32(out, static_cast<std::uint32_t>(ms.entries.size()));
  for (const MetricEntry& e : ms.entries) {
    util::put_u8(out, e.kind);
    util::put_u16(out, static_cast<std::uint16_t>(e.name.size()));
    for (const char c : e.name) {
      out.push_back(static_cast<std::uint8_t>(c));
    }
    util::put_u64(out, e.bits);
  }
}

[[nodiscard]] bool decode_metrics(ByteReader& in, MetricSnapshot& ms) {
  const std::uint32_t count = in.u32();
  if (!in.ok()) {
    return false;
  }
  // Each entry is at least 11 bytes; an absurd count fails fast instead of
  // reserving a hostile amount of memory.
  if (static_cast<std::size_t>(count) * 11 > in.remaining()) {
    return false;
  }
  ms.entries.clear();
  ms.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    MetricEntry e;
    e.kind = in.u8();
    const std::uint16_t name_len = in.u16();
    if (!in.bytes(name_len, e.name)) {
      return false;
    }
    e.bits = in.u64();
    if (!in.ok() ||
        (e.kind != MetricEntry::kCounter && e.kind != MetricEntry::kGauge)) {
      return false;
    }
    ms.entries.push_back(std::move(e));
  }
  return in.ok() && in.remaining() == 0;
}

void encode_plan(const PlanSummary& ps, std::vector<std::uint8_t>& out) {
  util::put_u64(out, ps.plan_id);
  util::put_u8(out, ps.kind);
  util::put_u8(out, ps.outcome);
  util::put_u16(out, static_cast<std::uint16_t>(ps.tenant.size()));
  for (const char c : ps.tenant) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  util::put_u32(out, ps.shards);
  util::put_u32(out, ps.shards_completed);
  util::put_u32(out, ps.shards_abandoned);
  util::put_u64(out, ps.chunks_completed);
  util::put_u64(out, ps.chunks_retried);
  util::put_u64(out, ps.chunks_abandoned);
  util::put_u64(out, ps.admitted_tick);
  util::put_u64(out, ps.finished_tick);
  util::put_u8(out, ps.deadline_exceeded);
  util::put_u64(out, ps.digest);
}

[[nodiscard]] bool decode_plan(ByteReader& in, PlanSummary& ps) {
  ps.plan_id = in.u64();
  ps.kind = in.u8();
  ps.outcome = in.u8();
  const std::uint16_t tenant_len = in.u16();
  if (!in.bytes(tenant_len, ps.tenant)) {
    return false;
  }
  ps.shards = in.u32();
  ps.shards_completed = in.u32();
  ps.shards_abandoned = in.u32();
  ps.chunks_completed = in.u64();
  ps.chunks_retried = in.u64();
  ps.chunks_abandoned = in.u64();
  ps.admitted_tick = in.u64();
  ps.finished_tick = in.u64();
  ps.deadline_exceeded = in.u8();
  ps.digest = in.u64();
  return in.ok() && in.remaining() == 0 && ps.deadline_exceeded <= 1;
}

}  // namespace

void encode_payload(const Record& record, std::vector<std::uint8_t>& out) {
  if (const auto* wf = std::get_if<WaveformChunk>(&record.body)) {
    encode_waveform(*wf, out);
  } else if (const auto* ms = std::get_if<MetricSnapshot>(&record.body)) {
    encode_metrics(*ms, out);
  } else {
    encode_plan(std::get<PlanSummary>(record.body), out);
  }
}

bool decode_payload(PacketType type, const std::uint8_t* data,
                    std::size_t size, Record& out) {
  ByteReader in(data, size);
  switch (type) {
    case PacketType::kWaveformChunk: {
      WaveformChunk wf;
      if (!decode_waveform(in, wf)) {
        return false;
      }
      out.body = std::move(wf);
      return true;
    }
    case PacketType::kMetricSnapshot: {
      MetricSnapshot ms;
      if (!decode_metrics(in, ms)) {
        return false;
      }
      out.body = std::move(ms);
      return true;
    }
    case PacketType::kPlanSummary: {
      PlanSummary ps;
      if (!decode_plan(in, ps)) {
        return false;
      }
      out.body = std::move(ps);
      return true;
    }
  }
  return false;
}

void encode_packet(const Record& record, std::uint16_t stream_id,
                   std::uint32_t sequence, std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> payload;
  encode_payload(record, payload);
  MGT_CHECK(payload.size() <= kDefaultMaxPayloadBytes,
            "telemetry payload exceeds the wire-format ceiling; chunk the "
            "record before encoding");

  const std::size_t header_at = out.size();
  out.insert(out.end(), kMagic, kMagic + 4);
  util::put_u8(out, kWireVersion);
  util::put_u8(out, static_cast<std::uint8_t>(record.type()));
  util::put_u16(out, stream_id);
  util::put_u32(out, sequence);
  util::put_u64(out, record.tick);
  util::put_u32(out, static_cast<std::uint32_t>(payload.size()));
  util::put_u8(out, util::crc8({out.data() + header_at, kHeaderBytes - 1}));
  out.insert(out.end(), payload.begin(), payload.end());
  util::put_u32(out, util::crc32(payload));
}

std::vector<std::uint8_t> encode_packet(const Record& record,
                                        std::uint16_t stream_id,
                                        std::uint32_t sequence) {
  std::vector<std::uint8_t> out;
  encode_packet(record, stream_id, sequence, out);
  return out;
}

}  // namespace mgt::telemetry
