// FPGA configuration bitstreams.
//
// The DLC's FLASH holds the FPGA "personalization data" which is loaded at
// power-up (Section 2); re-programming the FLASH re-targets the tester to a
// new application. A bitstream here is a named, CRC-protected blob plus the
// application parameters the personalization encodes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mgt::dig {

/// A configuration image for the DLC's FPGA.
struct Bitstream {
  std::string design_name;
  std::uint32_t version = 1;
  /// Personalization payload (synthesized netlist stand-in).
  std::vector<std::uint8_t> payload;

  /// Serializes to the FLASH image format:
  /// [magic(4) | version(4) | name_len(4) | name | payload_len(4) | payload
  ///  | crc32(4)], all little-endian. The CRC (util::crc32) covers
  /// everything before it.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Parses and CRC-checks a FLASH image; throws mgt::Error on any
  /// corruption (bad magic, truncated image, CRC mismatch).
  static Bitstream deserialize(const std::vector<std::uint8_t>& image);

  friend bool operator==(const Bitstream&, const Bitstream&) = default;
};

}  // namespace mgt::dig
