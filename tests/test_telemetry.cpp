// Telemetry hardening suite (`ctest -L telemetry`).
//
// The decoder's contract is adversarial: it must be total over arbitrary
// bytes. This suite proves it with a seeded, deterministic fuzz corpus
// (10k+ mutated / truncated / spliced / garbage-flooded packet streams,
// greedily shrunk on failure), plus exact-accounting checks on both ends
// (offered == encoded + shed + pending, received == decoded + rejected),
// byte-identical encode→decode→re-encode round trips, MGT_THREADS 0/1/8
// byte-identity of the published stream, and MGT_TELEMETRY-off identity of
// the simulation results. CI runs it under TSan, UBSan and ASan.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/eye.hpp"
#include "fault/fault.hpp"
#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "telemetry/channel.hpp"
#include "telemetry/decoder.hpp"
#include "telemetry/encoder.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/wire.hpp"
#include "util/bytes.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mgt {
namespace {

using telemetry::DecodeError;
using telemetry::Decoder;
using telemetry::DecoderStats;
using telemetry::FaultyChannel;
using telemetry::MetricEntry;
using telemetry::MetricSnapshot;
using telemetry::PacketHeader;
using telemetry::PacketType;
using telemetry::PlanSummary;
using telemetry::Record;
using telemetry::StreamEncoder;
using telemetry::WaveformChunk;

// ------------------------------------------------------------ generators --

/// Deterministic record generator: the fuzz corpus and the round-trip
/// tests share it so every case is reproducible from its seed alone.
Record random_record(Rng& rng) {
  Record r;
  r.tick = rng.next() >> 16;
  switch (rng.below(3)) {
    case 0: {
      WaveformChunk wf;
      wf.channel = static_cast<std::uint16_t>(rng.below(8));
      wf.decimation = static_cast<std::uint32_t>(1 + rng.below(64));
      wf.t0_ps = rng.uniform(0.0, 1e6);
      wf.dt_ps = rng.uniform(0.1, 10.0);
      const std::size_t n = rng.below(64);
      for (std::size_t i = 0; i < n; ++i) {
        wf.samples.push_back(rng.gaussian(2000.0, 400.0));
      }
      r.body = std::move(wf);
      break;
    }
    case 1: {
      MetricSnapshot ms;
      const std::size_t n = rng.below(8);
      for (std::size_t i = 0; i < n; ++i) {
        const std::string name = "metric." + std::to_string(rng.below(100));
        if (rng.chance(0.5)) {
          ms.entries.push_back(MetricEntry::counter(name, rng.next()));
        } else {
          ms.entries.push_back(
              MetricEntry::gauge(name, rng.uniform(-1e9, 1e9)));
        }
      }
      r.body = std::move(ms);
      break;
    }
    default: {
      PlanSummary ps;
      ps.plan_id = rng.next();
      ps.kind = static_cast<std::uint8_t>(rng.below(3));
      ps.outcome = static_cast<std::uint8_t>(rng.below(3));
      ps.tenant = "tenant-" + std::to_string(rng.below(16));
      ps.shards = static_cast<std::uint32_t>(rng.below(64));
      ps.shards_completed = ps.shards;
      ps.chunks_completed = rng.below(1024);
      ps.finished_tick = rng.next() >> 20;
      ps.deadline_exceeded = rng.chance(0.1) ? 1 : 0;
      ps.digest = rng.next();
      r.body = std::move(ps);
      break;
    }
  }
  return r;
}

/// A clean wire stream of `n` packets, sequences 0..n-1 on one stream id.
std::vector<std::uint8_t> clean_stream(Rng& rng, std::size_t n,
                                       std::uint16_t stream_id = 7) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < n; ++i) {
    telemetry::encode_packet(random_record(rng), stream_id,
                             static_cast<std::uint32_t>(i), bytes);
  }
  return bytes;
}

// --------------------------------------------------------------- mutator --

/// One seeded adversarial mutation. Every branch is pure byte surgery, so
/// a failing case replays exactly from (corpus seed, case index).
void mutate(std::vector<std::uint8_t>& bytes, Rng& rng) {
  if (bytes.empty()) {
    return;
  }
  switch (rng.below(6)) {
    case 0: {  // bit flips
      const std::uint64_t flips = 1 + rng.below(8);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::uint64_t bit = rng.below(bytes.size() * 8);
        bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      break;
    }
    case 1:  // truncate the tail
      bytes.resize(rng.below(bytes.size()));
      break;
    case 2: {  // delete an interior range (splice the halves)
      const std::size_t a = rng.below(bytes.size());
      const std::size_t b =
          std::min(bytes.size(), a + 1 + rng.below(64));
      bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(a),
                  bytes.begin() + static_cast<std::ptrdiff_t>(b));
      break;
    }
    case 3: {  // insert garbage (sometimes magic-shaped, to bait resync)
      std::vector<std::uint8_t> junk(1 + rng.below(48));
      for (auto& b : junk) {
        b = static_cast<std::uint8_t>(rng.below(256));
      }
      if (rng.chance(0.3) && junk.size() >= 4) {
        std::copy(telemetry::kMagic, telemetry::kMagic + 4, junk.begin());
      }
      const std::size_t at = rng.below(bytes.size() + 1);
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   junk.begin(), junk.end());
      break;
    }
    case 4: {  // duplicate a range (stutter / replay)
      const std::size_t a = rng.below(bytes.size());
      const std::size_t len =
          std::min(bytes.size() - a, 1 + rng.below(64));
      std::vector<std::uint8_t> dup(bytes.begin() + static_cast<std::ptrdiff_t>(a),
                                    bytes.begin() + static_cast<std::ptrdiff_t>(a + len));
      const std::size_t at = rng.below(bytes.size() + 1);
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   dup.begin(), dup.end());
      break;
    }
    default: {  // splice in a fragment of a foreign clean stream
      Rng foreign(rng.next());
      std::vector<std::uint8_t> other = clean_stream(foreign, 1, 9);
      const std::size_t take = 1 + rng.below(other.size());
      const std::size_t at = rng.below(bytes.size() + 1);
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   other.begin(), other.begin() + static_cast<std::ptrdiff_t>(take));
      break;
    }
  }
}

// ------------------------------------------------------------- property --

constexpr std::size_t kFuzzMaxPayload = 2048;
constexpr std::size_t kFuzzBufferCap =
    telemetry::packet_bytes(kFuzzMaxPayload) + 64;

/// The decoder-totality property one fuzz case must satisfy. Returns a
/// failure description, or nullopt when the contract held.
std::optional<std::string> decoder_contract_violation(
    const std::vector<std::uint8_t>& bytes, std::uint64_t chop_seed) {
  Decoder::Config config;
  config.max_payload_bytes = kFuzzMaxPayload;
  config.buffer_cap_bytes = kFuzzBufferCap;
  Decoder decoder(config, [](const PacketHeader&, const Record&) {});

  // Feed in seeded chops so reassembly boundaries are part of the case.
  Rng chop(chop_seed);
  std::size_t at = 0;
  while (at < bytes.size()) {
    const std::size_t n = std::min<std::size_t>(
        bytes.size() - at, 1 + chop.below(97));
    decoder.feed(bytes.data() + at, n);
    at += n;
  }
  decoder.flush();

  const DecoderStats& s = decoder.stats();
  if (!s.accounting_exact()) {
    std::ostringstream why;
    why << "accounting broken: received=" << s.received
        << " decoded=" << s.decoded << " rejected=" << s.rejected;
    return why.str();
  }
  if (s.bytes_fed != bytes.size()) {
    return "bytes_fed drifted from input size";
  }
  if (decoder.buffered_high_water() > config.buffer_cap_bytes) {
    return "buffer grew past its configured cap";
  }
  if (decoder.buffered_bytes() != 0) {
    return "flush() left bytes buffered";
  }
  return std::nullopt;
}

/// Greedy ddmin-style shrink: repeatedly delete chunks while the property
/// still fails, halving the chunk size until single bytes. Deterministic,
/// so the minimized case is stable across runs.
std::vector<std::uint8_t> shrink_failing(
    std::vector<std::uint8_t> bytes,
    const std::function<bool(const std::vector<std::uint8_t>&)>& fails) {
  for (std::size_t chunk = bytes.size() / 2; chunk >= 1; chunk /= 2) {
    bool progress = true;
    while (progress && bytes.size() > 1) {
      progress = false;
      for (std::size_t at = 0; at + chunk <= bytes.size();) {
        std::vector<std::uint8_t> candidate = bytes;
        candidate.erase(
            candidate.begin() + static_cast<std::ptrdiff_t>(at),
            candidate.begin() + static_cast<std::ptrdiff_t>(at + chunk));
        if (fails(candidate)) {
          bytes = std::move(candidate);
          progress = true;
        } else {
          at += chunk;
        }
      }
    }
  }
  return bytes;
}

std::string hex_dump(const std::vector<std::uint8_t>& bytes,
                     std::size_t limit = 96) {
  std::ostringstream out;
  out << std::hex;
  for (std::size_t i = 0; i < bytes.size() && i < limit; ++i) {
    out << (bytes[i] >> 4) << (bytes[i] & 0xF);
  }
  if (bytes.size() > limit) {
    out << "... (" << std::dec << bytes.size() << " bytes)";
  }
  return out.str();
}

// ------------------------------------------------------------ wire tests --

TEST(TelemetryWire, HeaderLayoutIsTheDocumentedLittleEndianImage) {
  Record r;
  r.tick = 0x1122334455667788ull;
  WaveformChunk wf;
  wf.channel = 3;
  wf.decimation = 2;
  wf.samples = {1.0, -2.0};
  r.body = std::move(wf);
  const std::vector<std::uint8_t> p =
      telemetry::encode_packet(r, /*stream_id=*/0xBEEF, /*sequence=*/0x01020304);

  ASSERT_GE(p.size(), telemetry::kHeaderBytes + telemetry::kTrailerBytes);
  // Magic and fixed fields.
  EXPECT_EQ(p[0], 'M');
  EXPECT_EQ(p[1], 'G');
  EXPECT_EQ(p[2], 'T');
  EXPECT_EQ(p[3], 0x7E);
  EXPECT_EQ(p[4], telemetry::kWireVersion);
  EXPECT_EQ(p[5], static_cast<std::uint8_t>(PacketType::kWaveformChunk));
  // Little-endian stream id, sequence, tick, payload length.
  EXPECT_EQ(p[6], 0xEF);
  EXPECT_EQ(p[7], 0xBE);
  EXPECT_EQ(util::get_u32(p.data() + 8), 0x01020304u);
  EXPECT_EQ(util::get_u64(p.data() + 12), 0x1122334455667788ull);
  const std::uint32_t payload_len = util::get_u32(p.data() + 20);
  EXPECT_EQ(p.size(),
            telemetry::kHeaderBytes + payload_len + telemetry::kTrailerBytes);
  // Self-checking header and payload trailer.
  EXPECT_EQ(p[24], util::crc8({p.data(), telemetry::kHeaderBytes - 1}));
  EXPECT_EQ(util::get_u32(p.data() + telemetry::kHeaderBytes + payload_len),
            util::crc32({p.data() + telemetry::kHeaderBytes, payload_len}));
}

TEST(TelemetryWire, CrcReferenceVectors) {
  const std::uint8_t check[9] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  // CRC-32/ISO-HDLC ("123456789") and CRC-8 poly 0x07 reference values.
  EXPECT_EQ(util::crc32(check), 0xCBF43926u);
  EXPECT_EQ(util::crc8(check), 0xF4u);
  EXPECT_EQ(util::crc32({}), 0x00000000u);
}

TEST(TelemetryWire, PayloadCodecsRoundTripEveryRecordType) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const Record original = random_record(rng);
    std::vector<std::uint8_t> payload;
    telemetry::encode_payload(original, payload);
    Record decoded;
    decoded.tick = original.tick;
    ASSERT_TRUE(telemetry::decode_payload(original.type(), payload.data(),
                                          payload.size(), decoded));
    EXPECT_EQ(original, decoded);
  }
}

TEST(TelemetryWire, PayloadCodecsRejectStructuralLies) {
  Record scratch;
  // Trailing slack after a well-formed body is an inconsistency.
  Record r;
  r.body = WaveformChunk{};
  std::vector<std::uint8_t> payload;
  telemetry::encode_payload(r, payload);
  payload.push_back(0);
  EXPECT_FALSE(telemetry::decode_payload(PacketType::kWaveformChunk,
                                         payload.data(), payload.size(),
                                         scratch));
  // A sample count promising more than the payload holds must fail the
  // pre-check, not reserve a hostile amount.
  std::vector<std::uint8_t> lie;
  util::put_u16(lie, 0);
  util::put_u32(lie, 1);
  util::put_f64(lie, 0.0);
  util::put_f64(lie, 0.0);
  util::put_u32(lie, 0xFFFFFFFFu);  // count: 4 billion samples
  EXPECT_FALSE(telemetry::decode_payload(PacketType::kWaveformChunk,
                                         lie.data(), lie.size(), scratch));
  // Metric entries with an unknown kind byte are rejected.
  MetricSnapshot ms;
  ms.entries.push_back(MetricEntry::counter("x", 1));
  Record rm;
  rm.body = std::move(ms);
  std::vector<std::uint8_t> mp;
  telemetry::encode_payload(rm, mp);
  mp[4] = 9;  // first entry's kind byte
  EXPECT_FALSE(telemetry::decode_payload(PacketType::kMetricSnapshot,
                                         mp.data(), mp.size(), scratch));
}

// ------------------------------------------------------------ round trip --

TEST(TelemetryRoundTrip, DecodeThenReencodeIsByteIdentical) {
  Rng rng(1234);
  std::vector<Record> records;
  for (int i = 0; i < 64; ++i) {
    records.push_back(random_record(rng));
  }
  std::vector<std::uint8_t> original;
  for (std::size_t i = 0; i < records.size(); ++i) {
    telemetry::encode_packet(records[i], /*stream_id=*/5,
                             static_cast<std::uint32_t>(i), original);
  }

  std::vector<PacketHeader> headers;
  std::vector<Record> decoded;
  Decoder decoder(Decoder::Config{},
                  [&](const PacketHeader& h, const Record& r) {
                    headers.push_back(h);
                    decoded.push_back(r);
                  });
  decoder.feed(original);
  decoder.flush();

  ASSERT_EQ(decoded.size(), records.size());
  EXPECT_EQ(decoder.stats().rejected, 0u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded[i], records[i]);
  }
  // Re-encoding what was decoded reproduces the wire image bit for bit.
  std::vector<std::uint8_t> reencoded;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    telemetry::encode_packet(decoded[i], headers[i].stream_id,
                             headers[i].sequence, reencoded);
  }
  EXPECT_EQ(reencoded, original);
}

// ------------------------------------------------------------------ fuzz --

TEST(TelemetryFuzz, DecoderIsTotalOverTenThousandMutatedStreams) {
  constexpr std::uint64_t kCorpusSeed = 0xC0FFEE;
  constexpr int kCases = 10'000;
  for (int i = 0; i < kCases; ++i) {
    Rng rng(util::mix_seed(kCorpusSeed, static_cast<std::uint64_t>(i)));
    std::vector<std::uint8_t> bytes = clean_stream(rng, 1 + rng.below(4));
    const std::uint64_t mutations = 1 + rng.below(4);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      mutate(bytes, rng);
    }
    const std::uint64_t chop_seed = rng.next();
    const auto violation = decoder_contract_violation(bytes, chop_seed);
    if (violation) {
      const auto minimized = shrink_failing(bytes, [&](const auto& b) {
        return decoder_contract_violation(b, chop_seed).has_value();
      });
      FAIL() << "case " << i << " (seed " << kCorpusSeed << "): " << *violation
             << "\nminimized to " << minimized.size()
             << " bytes: " << hex_dump(minimized);
    }
  }
}

TEST(TelemetryFuzz, PureGarbageFloodStaysBoundedAndDecodesNothing) {
  Decoder::Config config;
  config.max_payload_bytes = kFuzzMaxPayload;
  config.buffer_cap_bytes = kFuzzBufferCap;
  Decoder decoder(config, [](const PacketHeader&, const Record&) {
    FAIL() << "garbage must not decode";
  });
  Rng rng(99);
  std::vector<std::uint8_t> junk(1 << 20);
  for (auto& b : junk) {
    // Heavy in magic bytes, to keep the resync scanner honest.
    b = rng.chance(0.25) ? 0x4D : static_cast<std::uint8_t>(rng.below(256));
  }
  decoder.feed(junk);
  decoder.flush();
  const DecoderStats& s = decoder.stats();
  EXPECT_EQ(s.decoded, 0u);
  EXPECT_TRUE(s.accounting_exact());
  EXPECT_LE(decoder.buffered_high_water(), config.buffer_cap_bytes);
  EXPECT_EQ(s.bytes_fed, junk.size());
}

TEST(TelemetryFuzz, ShrinkerFindsAMinimalFailingCase) {
  // Sanity-check the shrinking harness itself on a synthetic property
  // ("contains byte 0xAB"): it must minimize to exactly that byte.
  std::vector<std::uint8_t> noisy(257, 0x00);
  noisy[131] = 0xAB;
  const auto minimal = shrink_failing(noisy, [](const auto& b) {
    return std::find(b.begin(), b.end(), 0xAB) != b.end();
  });
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0], 0xAB);
}

// ---------------------------------------------------------------- resync --

TEST(TelemetryResync, OneCorruptPayloadLosesOnlyThatPacket) {
  Rng rng(7);
  const std::size_t kPackets = 10;
  std::vector<std::uint8_t> bytes = clean_stream(rng, kPackets);

  // Find packet 3's start and flip a payload byte (past the header).
  std::size_t offset = 0;
  for (int skip = 0; skip < 3; ++skip) {
    const std::uint32_t len = util::get_u32(bytes.data() + offset + 20);
    offset += telemetry::packet_bytes(len);
  }
  const std::uint32_t len3 = util::get_u32(bytes.data() + offset + 20);
  ASSERT_GT(len3, 0u) << "regenerate: packet 3 needs a payload to corrupt";
  bytes[offset + telemetry::kHeaderBytes + len3 / 2] ^= 0x40;

  Decoder decoder(Decoder::Config{},
                  [](const PacketHeader&, const Record&) {});
  decoder.feed(bytes);
  decoder.flush();
  const DecoderStats& s = decoder.stats();
  EXPECT_TRUE(s.accounting_exact());
  EXPECT_GE(s.decoded, kPackets - 2);
  EXPECT_GE(s.rejected, 1u);
  EXPECT_GE(s.errors[static_cast<std::size_t>(DecodeError::kPayloadCrc)], 1u);
  EXPECT_GE(s.resyncs, 1u);
}

TEST(TelemetryResync, VersionSkewSkipsWholePacketAndContinues) {
  Rng rng(8);
  std::vector<std::uint8_t> bytes = clean_stream(rng, 2);
  // Bump packet 0's version and re-seal its header CRC: a structurally
  // valid packet from a future version.
  bytes[4] = telemetry::kWireVersion + 1;
  bytes[24] = util::crc8({bytes.data(), telemetry::kHeaderBytes - 1});

  Decoder decoder(Decoder::Config{},
                  [](const PacketHeader&, const Record&) {});
  decoder.feed(bytes);
  decoder.flush();
  const DecoderStats& s = decoder.stats();
  EXPECT_EQ(s.decoded, 1u);  // the second packet
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.errors[static_cast<std::size_t>(DecodeError::kBadVersion)], 1u);
  EXPECT_TRUE(s.accounting_exact());
}

TEST(TelemetryResync, OversizedLengthClaimIsRejectedBeforeBuffering) {
  Rng rng(9);
  std::vector<std::uint8_t> bytes = clean_stream(rng, 2);
  // Claim a payload far past the decoder's cap, CRC-sealed so only the
  // kOversized check can stop it.
  const std::uint32_t hostile = 1u << 30;
  bytes[20] = static_cast<std::uint8_t>(hostile & 0xFF);
  bytes[21] = static_cast<std::uint8_t>((hostile >> 8) & 0xFF);
  bytes[22] = static_cast<std::uint8_t>((hostile >> 16) & 0xFF);
  bytes[23] = static_cast<std::uint8_t>((hostile >> 24) & 0xFF);
  bytes[24] = util::crc8({bytes.data(), telemetry::kHeaderBytes - 1});

  Decoder::Config config;
  config.max_payload_bytes = kFuzzMaxPayload;
  config.buffer_cap_bytes = kFuzzBufferCap;
  Decoder decoder(config, [](const PacketHeader&, const Record&) {});
  decoder.feed(bytes);
  decoder.flush();
  const DecoderStats& s = decoder.stats();
  EXPECT_GE(s.errors[static_cast<std::size_t>(DecodeError::kOversized)], 1u);
  EXPECT_TRUE(s.accounting_exact());
  EXPECT_LE(decoder.buffered_high_water(), config.buffer_cap_bytes);
}

TEST(TelemetryResync, TruncatedTailIsTypedAtFlush) {
  Rng rng(10);
  std::vector<std::uint8_t> bytes = clean_stream(rng, 3);
  bytes.resize(bytes.size() - 5);  // cut into the last packet

  Decoder decoder(Decoder::Config{},
                  [](const PacketHeader&, const Record&) {});
  decoder.feed(bytes);
  EXPECT_GT(decoder.buffered_bytes(), 0u) << "partial packet should wait";
  decoder.flush();
  const DecoderStats& s = decoder.stats();
  EXPECT_EQ(s.decoded, 2u);
  EXPECT_GE(s.errors[static_cast<std::size_t>(DecodeError::kTruncated)], 1u);
  EXPECT_TRUE(s.accounting_exact());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

// ---------------------------------------------------------- backpressure --

TEST(TelemetryBackpressure, ShedsOldestFirstWithExactAccounting) {
  StreamEncoder enc({/*stream_id=*/1, "test", /*capacity_records=*/4});
  for (std::uint64_t i = 0; i < 10; ++i) {
    Record r;
    r.tick = i;
    r.body = PlanSummary{};
    enc.offer(std::move(r));
    EXPECT_TRUE(enc.stats().accounting_exact()) << "after offer " << i;
  }
  EXPECT_EQ(enc.stats().offered, 10u);
  EXPECT_EQ(enc.stats().shed, 6u);
  EXPECT_EQ(enc.stats().pending, 4u);

  // Drain: survivors are the 4 freshest records (ticks 6..9), and the
  // sequence numbers are consecutive from zero.
  std::vector<std::uint64_t> ticks;
  std::vector<std::uint32_t> sequences;
  const std::size_t emitted = enc.drain([&](std::vector<std::uint8_t>&& p) {
    ticks.push_back(util::get_u64(p.data() + 12));
    sequences.push_back(util::get_u32(p.data() + 8));
  });
  EXPECT_EQ(emitted, 4u);
  EXPECT_EQ(ticks, (std::vector<std::uint64_t>{6, 7, 8, 9}));
  EXPECT_EQ(sequences, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(enc.stats().encoded, 4u);
  EXPECT_EQ(enc.stats().pending, 0u);
  EXPECT_TRUE(enc.stats().accounting_exact());
}

TEST(TelemetryBackpressure, PendingMemoryIsBoundedUnderSustainedOverload) {
  StreamEncoder enc({/*stream_id=*/1, "soak", /*capacity_records=*/64});
  Rng rng(11);
  for (int i = 0; i < 100'000; ++i) {
    Record r;
    r.tick = static_cast<std::uint64_t>(i);
    WaveformChunk wf;
    wf.decimation = 1;
    wf.samples.assign(32, rng.uniform());
    r.body = std::move(wf);
    enc.offer(std::move(r));
  }
  EXPECT_TRUE(enc.stats().accounting_exact());
  EXPECT_EQ(enc.stats().pending, 64u);
  // 64 records of ~32 samples: the high-water must reflect the ring bound,
  // not the 100k offers.
  EXPECT_LE(enc.stats().pending_bytes_high_water, 64 * 2048u);
}

// --------------------------------------------------------- fault channel --

TEST(TelemetryChannel, EmptyFaultPlanIsByteIdenticalPassThrough) {
  Rng rng(12);
  FaultyChannel channel{fault::ComponentFaults{}};
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::vector<std::uint8_t>> got;
  for (int i = 0; i < 16; ++i) {
    std::vector<std::uint8_t> packet =
        telemetry::encode_packet(random_record(rng), 1,
                                 static_cast<std::uint32_t>(i));
    sent.push_back(packet);
    channel.send(std::move(packet),
                 [&](std::vector<std::uint8_t>&& p) { got.push_back(std::move(p)); });
  }
  channel.flush([&](std::vector<std::uint8_t>&& p) { got.push_back(std::move(p)); });
  EXPECT_EQ(got, sent);
  EXPECT_EQ(channel.stats().corrupted, 0u);
  EXPECT_EQ(channel.stats().truncated, 0u);
  EXPECT_EQ(channel.stats().reordered, 0u);
}

TEST(TelemetryChannel, CorruptionIsDeterministicAndDecoderAccountsForIt) {
  fault::FaultPlan plan(21);
  plan.schedule({fault::FaultKind::kTelemetryCorruption, "telemetry",
                 fault::FaultSpec::kAllIndices, /*severity=*/0.5,
                 /*start=*/2, /*duration=*/4});
  auto run = [&] {
    Rng rng(13);
    FaultyChannel channel{plan.component("telemetry")};
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < 10; ++i) {
      channel.send(telemetry::encode_packet(random_record(rng), 1,
                                            static_cast<std::uint32_t>(i)),
                   [&](std::vector<std::uint8_t>&& p) {
                     wire.insert(wire.end(), p.begin(), p.end());
                   });
    }
    channel.flush([&](std::vector<std::uint8_t>&& p) {
      wire.insert(wire.end(), p.begin(), p.end());
    });
    return wire;
  };
  const std::vector<std::uint8_t> first = run();
  EXPECT_EQ(first, run()) << "fault damage must replay exactly";

  Decoder decoder(Decoder::Config{},
                  [](const PacketHeader&, const Record&) {});
  decoder.feed(first);
  decoder.flush();
  const DecoderStats& s = decoder.stats();
  EXPECT_TRUE(s.accounting_exact());
  EXPECT_GE(s.rejected + s.resyncs, 1u) << "window [2,6) must damage packets";
  EXPECT_GE(s.decoded, 4u) << "packets outside the fault window survive";
}

TEST(TelemetryChannel, ReorderSwapsAdjacentPacketsIntact) {
  fault::FaultPlan plan(22);
  plan.schedule({fault::FaultKind::kTelemetryReorder, "telemetry",
                 fault::FaultSpec::kAllIndices, /*severity=*/1.0,
                 /*start=*/0, /*duration=*/1});
  FaultyChannel channel{plan.component("telemetry")};
  Rng rng(14);
  const std::vector<std::uint8_t> a =
      telemetry::encode_packet(random_record(rng), 1, 0);
  const std::vector<std::uint8_t> b =
      telemetry::encode_packet(random_record(rng), 1, 1);
  std::vector<std::vector<std::uint8_t>> got;
  auto sink = [&](std::vector<std::uint8_t>&& p) { got.push_back(std::move(p)); };
  channel.send(a, sink);
  channel.send(b, sink);
  channel.flush(sink);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], b);
  EXPECT_EQ(got[1], a);
  EXPECT_EQ(channel.stats().reordered, 1u);

  // Reordered packets are intact: both still decode; the sequence numbers
  // expose the swap to any consumer that cares.
  std::vector<std::uint32_t> sequences;
  Decoder decoder(Decoder::Config{},
                  [&](const PacketHeader& h, const Record&) {
                    sequences.push_back(h.sequence);
                  });
  decoder.feed(got[0]);
  decoder.feed(got[1]);
  decoder.flush();
  EXPECT_EQ(decoder.stats().decoded, 2u);
  EXPECT_EQ(sequences, (std::vector<std::uint32_t>{1, 0}));
}

// ------------------------------------------------------------------- hub --

/// One deterministic eye workload with telemetry as configured by the
/// caller; returns (drained wire bytes, eye fingerprint).
std::pair<std::vector<std::uint8_t>, std::vector<std::uint64_t>>
eye_workload_with_telemetry() {
  telemetry::Hub::instance().reset_for_test();
  const Picoseconds ui{400.0};
  const sig::EdgeStream stream = sig::EdgeStream::clock(ui, 64);
  sig::FilterChain chain;
  chain.add_pole(Picoseconds{30.0});
  ana::EyeDiagram::Config eye_config;
  eye_config.ui = ui;
  eye_config.time_bins = 64;
  eye_config.volt_bins = 32;
  const ana::EyeDiagram eye = ana::accumulate_eye(
      stream, chain, sig::RenderConfig{}, Picoseconds{0},
      Picoseconds{64 * 2 * ui.ps()}, eye_config,
      sig::RenderChunking{4096, 2048});

  // A direct serial render exercises the waveform tap.
  sig::WaveformTrace trace;
  sig::render(stream, chain, sig::RenderConfig{}, Picoseconds{0},
              Picoseconds{8 * ui.ps()}, {&trace});

  std::vector<std::uint8_t> wire;
  telemetry::Hub::instance().drain([&](std::vector<std::uint8_t>&& p) {
    wire.insert(wire.end(), p.begin(), p.end());
  });
  std::vector<std::uint64_t> fp;
  fp.push_back(eye.total_samples());
  fp.push_back(eye.crossings().size());
  for (double v : trace.volts_mv()) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    fp.push_back(bits);
  }
  return {std::move(wire), std::move(fp)};
}

TEST(TelemetryHub, DisabledMeansZeroPacketsAndUntouchedResults) {
  std::vector<std::uint64_t> fp_off1, fp_off2, fp_on;
  std::vector<std::uint8_t> wire_off, wire_on;
  {
    telemetry::ScopedTelemetry off(false);
    std::tie(wire_off, fp_off1) = eye_workload_with_telemetry();
  }
  {
    telemetry::ScopedTelemetry on(true);
    std::tie(wire_on, fp_on) = eye_workload_with_telemetry();
  }
  {
    telemetry::ScopedTelemetry off(false);
    std::tie(wire_off, fp_off2) = eye_workload_with_telemetry();
  }
  EXPECT_TRUE(wire_off.empty()) << "MGT_TELEMETRY off must emit nothing";
  EXPECT_FALSE(wire_on.empty());
  // Telemetry observes; it never changes what the simulation computes.
  EXPECT_EQ(fp_off1, fp_on);
  EXPECT_EQ(fp_off1, fp_off2);
  const telemetry::Hub::Stats stats = telemetry::Hub::instance().stats();
  EXPECT_TRUE(stats.waveform.accounting_exact());
  EXPECT_TRUE(stats.metrics.accounting_exact());
}

TEST(TelemetryHub, PublishedStreamByteIdenticalAcrossThreadCounts) {
  telemetry::ScopedTelemetry on(true);
  std::vector<std::uint8_t> serial, one, eight;
  std::vector<std::uint64_t> fp0, fp1, fp8;
  {
    util::ScopedThreads t(0);
    std::tie(serial, fp0) = eye_workload_with_telemetry();
  }
  {
    util::ScopedThreads t(1);
    std::tie(one, fp1) = eye_workload_with_telemetry();
  }
  {
    util::ScopedThreads t(8);
    std::tie(eight, fp8) = eye_workload_with_telemetry();
  }
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, one);
  EXPECT_EQ(serial, eight);
  EXPECT_EQ(fp0, fp1);
  EXPECT_EQ(fp0, fp8);

  // And the stream decodes cleanly end to end.
  Decoder decoder(Decoder::Config{},
                  [](const PacketHeader&, const Record&) {});
  decoder.feed(serial);
  decoder.flush();
  EXPECT_GT(decoder.stats().decoded, 0u);
  EXPECT_EQ(decoder.stats().rejected, 0u);
}

TEST(TelemetryHub, RingCapacitiesShedOldestPastTheirShareOfTheBudget) {
  // Waveform holds kBufferBytes/2/4096 = 512 records, metrics
  // kBufferBytes/4/8192 = 128; every offer past that sheds the oldest.
  telemetry::ScopedTelemetry on(true);
  telemetry::Hub& hub = telemetry::Hub::instance();
  hub.reset_for_test();
  for (std::uint64_t i = 0; i < 600; ++i) {
    hub.publish_waveform(i, WaveformChunk{});
  }
  for (std::uint64_t i = 0; i < 200; ++i) {
    hub.publish_metrics(i, MetricSnapshot{});
  }
  const telemetry::Hub::Stats stats = hub.stats();
  EXPECT_EQ(stats.waveform.pending, 512u);
  EXPECT_EQ(stats.waveform.shed, 88u);
  EXPECT_EQ(stats.metrics.pending, 128u);
  EXPECT_EQ(stats.metrics.shed, 72u);
  EXPECT_TRUE(stats.waveform.accounting_exact());
  EXPECT_TRUE(stats.metrics.accounting_exact());
  hub.reset_for_test();
}

}  // namespace
}  // namespace mgt
