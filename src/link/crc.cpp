#include "link/crc.hpp"

#include "util/error.hpp"

namespace mgt::link {

namespace {

/// One bit through the CRC-8 shift register.
std::uint8_t crc8_step(std::uint8_t crc, bool bit) {
  const bool top = (crc & 0x80u) != 0;
  crc = static_cast<std::uint8_t>(crc << 1);
  if (top != bit) {
    crc ^= 0x07u;
  }
  return crc;
}

/// One bit through the CRC-16 shift register.
std::uint16_t crc16_step(std::uint16_t crc, bool bit) {
  const bool top = (crc & 0x8000u) != 0;
  crc = static_cast<std::uint16_t>(crc << 1);
  if (top != bit) {
    crc ^= 0x1021u;
  }
  return crc;
}

}  // namespace

std::uint8_t crc8(const BitVector& bits) {
  std::uint8_t crc = 0x00;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    crc = crc8_step(crc, bits.get(i));
  }
  return crc;
}

std::uint16_t crc16(const BitVector& bits) {
  std::uint16_t crc = 0xFFFFu;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    crc = crc16_step(crc, bits.get(i));
  }
  return crc;
}

std::uint16_t crc16(const std::vector<std::uint8_t>& bytes) {
  std::uint16_t crc = 0xFFFFu;
  for (const std::uint8_t byte : bytes) {
    for (int b = 7; b >= 0; --b) {
      crc = crc16_step(crc, ((byte >> b) & 1u) != 0);
    }
  }
  return crc;
}

BitVector pack_bits(std::uint64_t value, std::size_t n) {
  MGT_CHECK(n <= 64, "pack_bits packs at most 64 bits");
  BitVector out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.set(i, ((value >> i) & 1u) != 0);
  }
  return out;
}

std::uint64_t unpack_bits(const BitVector& bits, std::size_t begin,
                          std::size_t n) {
  MGT_CHECK(n <= 64, "unpack_bits reads at most 64 bits");
  MGT_CHECK(begin + n <= bits.size(), "unpack_bits range out of bounds");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (bits.get(begin + i)) {
      value |= 1ull << i;
    }
  }
  return value;
}

}  // namespace mgt::link
