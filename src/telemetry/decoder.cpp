#include "telemetry/decoder.hpp"

#include <algorithm>
#include <cstring>

#include "obs/obs.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mgt::telemetry {

std::string_view to_string(DecodeError error) {
  switch (error) {
    case DecodeError::kHeaderCrc:
      return "header-crc";
    case DecodeError::kBadVersion:
      return "bad-version";
    case DecodeError::kBadType:
      return "bad-type";
    case DecodeError::kOversized:
      return "oversized";
    case DecodeError::kTruncated:
      return "truncated";
    case DecodeError::kPayloadCrc:
      return "payload-crc";
    case DecodeError::kBadPayload:
      return "bad-payload";
  }
  return "unknown";
}

Decoder::Decoder(Config config, Handler handler)
    : config_(config), handler_(std::move(handler)) {
  MGT_CHECK(config_.max_payload_bytes >= 8,
            "telemetry decoder payload cap too small for any record");
  // The buffer must be able to hold one maximal packet whole, or a valid
  // stream of maximal packets could never make progress.
  MGT_CHECK(config_.buffer_cap_bytes >=
                packet_bytes(config_.max_payload_bytes) + 64,
            "telemetry decoder buffer cap below one maximal packet");
  buffer_.reserve(config_.buffer_cap_bytes);
}

void Decoder::feed(const std::vector<std::uint8_t>& bytes) {
  if (!bytes.empty()) {
    feed(bytes.data(), bytes.size());
  }
}

void Decoder::feed(const std::uint8_t* data, std::size_t n) {
  stats_.bytes_fed += n;
  while (n > 0) {
    const std::size_t room = config_.buffer_cap_bytes - buffer_.size();
    const std::size_t chunk = std::min(n, room);
    // Progress is always possible: process() leaves at most one incomplete
    // packet (bounded by the max packet size, which the constructor checks
    // fits the cap with slack), so room can only be zero transiently.
    MGT_CHECK(chunk > 0, "telemetry decoder buffer wedged at capacity");
    buffer_.insert(buffer_.end(), data, data + chunk);
    high_water_ = std::max(high_water_, buffer_.size());
    data += chunk;
    n -= chunk;
    process(/*at_end=*/false);
  }
}

void Decoder::flush() {
  process(/*at_end=*/true);
  MGT_CHECK(buffer_.empty(), "telemetry decoder flush left pending bytes");
}

void Decoder::reject(DecodeError error) {
  ++stats_.received;
  ++stats_.rejected;
  ++stats_.errors[static_cast<std::size_t>(error)];
  obs::add_counter("telemetry.decoder.rejected");
}

void Decoder::process(bool at_end) {
  const std::uint8_t* buf = buffer_.data();
  const std::size_t size = buffer_.size();
  std::size_t pos = 0;

  auto resync_skip = [&](std::size_t begin, std::size_t end) {
    if (end > begin) {
      stats_.bytes_skipped += end - begin;
      ++stats_.resyncs;
    }
  };

  while (pos < size) {
    // Hunt for the magic. Bytes passed over here never anchored a packet
    // candidate; they are counted as skipped, not rejected.
    const std::size_t hunt_begin = pos;
    while (pos < size) {
      const std::size_t avail = std::min<std::size_t>(size - pos, 4);
      if (std::memcmp(buf + pos, kMagic, avail) == 0) {
        break;
      }
      ++pos;
    }
    resync_skip(hunt_begin, pos);
    if (pos >= size) {
      break;  // all garbage consumed
    }
    const std::size_t avail = size - pos;
    if (avail < 4) {
      // A magic prefix at the buffer tail: with more bytes coming it may
      // become a packet; at end of stream it is stray garbage.
      if (!at_end) {
        break;
      }
      resync_skip(pos, size);
      pos = size;
      break;
    }

    // Anchored: a full magic. From here every outcome is an adjudication.
    if (avail < kHeaderBytes) {
      if (!at_end) {
        break;  // wait for the rest of the header
      }
      reject(DecodeError::kTruncated);
      ++stats_.resyncs;
      ++pos;
      continue;
    }
    const std::uint8_t* h = buf + pos;
    if (util::crc8({h, kHeaderBytes - 1}) != h[kHeaderBytes - 1]) {
      // Header corrupt: nothing in it (including the length) can be
      // trusted, so resume the hunt one byte in.
      reject(DecodeError::kHeaderCrc);
      ++stats_.resyncs;
      ++pos;
      continue;
    }
    PacketHeader header;
    header.version = h[4];
    header.type = h[5];
    header.stream_id = util::get_u16(h + 6);
    header.sequence = util::get_u32(h + 8);
    header.tick = util::get_u64(h + 12);
    header.payload_len = util::get_u32(h + 20);

    if (header.payload_len > config_.max_payload_bytes) {
      // The length passed CRC but exceeds our ceiling: reject before
      // waiting for (or trusting) a hostile amount of payload.
      reject(DecodeError::kOversized);
      ++stats_.resyncs;
      ++pos;
      continue;
    }
    const std::size_t total = packet_bytes(header.payload_len);
    if (avail < total) {
      if (!at_end) {
        break;  // wait for the payload
      }
      reject(DecodeError::kTruncated);
      ++stats_.resyncs;
      ++pos;
      continue;
    }
    // Version/type skew: the header is intact, so the length field is
    // trustworthy and the whole packet can be stepped over.
    if (header.version != kWireVersion) {
      reject(DecodeError::kBadVersion);
      pos += total;
      continue;
    }
    if (!valid_type(header.type)) {
      reject(DecodeError::kBadType);
      pos += total;
      continue;
    }
    const std::uint8_t* payload = h + kHeaderBytes;
    const std::uint32_t want = util::get_u32(payload + header.payload_len);
    if (util::crc32({payload, header.payload_len}) != want) {
      // Corrupted payload: the framing may be a lie (a spliced header over
      // foreign bytes), so rescan instead of trusting the length.
      reject(DecodeError::kPayloadCrc);
      ++stats_.resyncs;
      ++pos;
      continue;
    }
    scratch_.tick = header.tick;
    if (!decode_payload(static_cast<PacketType>(header.type), payload,
                        header.payload_len, scratch_)) {
      reject(DecodeError::kBadPayload);
      pos += total;
      continue;
    }
    ++stats_.received;
    ++stats_.decoded;
    obs::add_counter("telemetry.decoder.decoded");
    if (handler_) {
      handler_(header, scratch_);
    }
    pos += total;
  }

  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
}

}  // namespace mgt::telemetry
