// Little-endian byte layer and byte-wise checksums.
//
// The one copy of the helpers every serialized image in the tree shares:
// the telemetry wire format, FPGA bitstream images and the optical
// transmitter's USB bulk payloads write their integers through put_* and
// read them back through get_*, and guard them with the CRCs below. Bytes
// are composed arithmetically, so an image is identical on every host.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace mgt::util {

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFFu));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFFu));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int byte = 0; byte < 4; ++byte) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * byte)) & 0xFFu));
  }
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * byte)) & 0xFFu));
  }
}

/// Doubles travel as their IEEE-754 bit pattern (exact round-trip).
inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Readers take a pointer to at least 2/4/8 readable bytes; bounds are the
/// caller's (see telemetry::ByteReader for a checked sequential reader).
[[nodiscard]] inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int byte = 3; byte >= 0; --byte) {
    v = (v << 8) | p[byte];
  }
  return v;
}

[[nodiscard]] inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int byte = 7; byte >= 0; --byte) {
    v = (v << 8) | p[byte];
  }
  return v;
}

/// CRC-8, polynomial x^8+x^2+x+1 (0x07, the ATM HEC generator), init 0x00,
/// no reflection, each byte fed MSB-first. "123456789" -> 0xF4.
[[nodiscard]] std::uint8_t crc8(std::span<const std::uint8_t> bytes);

/// CRC-32 (IEEE 802.3): reflected polynomial 0xEDB88320, init and final
/// XOR 0xFFFFFFFF. Table-driven, one lookup per byte.
/// "123456789" -> 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes);

}  // namespace mgt::util
