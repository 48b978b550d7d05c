// Cyclic redundancy checks for the link layer.
//
// Two generators cover the Fig 4 slot format's two protection domains:
// CRC-8 (poly 0x07, the ATM HEC generator) guards the short header+sequence
// field, CRC-16-CCITT (poly 0x1021, init 0xFFFF — the "CCITT-FALSE"
// variant every serial-link test bench speaks) guards the payload. Both are
// implemented bit-serially over BitVector so they consume bits in exactly
// the order the slot transmits them. The byte-wise CRC-8 is util::crc8
// (same generator); crc16 keeps a byte overload for the standard
// check-vector test ("123456789" -> 0x29B1).
#pragma once

#include <cstdint>
#include <vector>

#include "util/bitvec.hpp"

namespace mgt::link {

/// CRC-8, polynomial x^8+x^2+x+1 (0x07), init 0x00, no reflection.
/// Bits are consumed in BitVector index order (index 0 first on the wire).
[[nodiscard]] std::uint8_t crc8(const BitVector& bits);

/// CRC-16-CCITT-FALSE, polynomial 0x1021, init 0xFFFF, no reflection.
[[nodiscard]] std::uint16_t crc16(const BitVector& bits);

/// Byte-wise overload (each byte fed MSB-first, the standard convention)
/// so the classic "123456789" check value applies directly.
[[nodiscard]] std::uint16_t crc16(const std::vector<std::uint8_t>& bytes);

/// Packs the low `n` bits of `value` into a BitVector, LSB first (matching
/// BitVector's wire order). Requires n <= 64.
[[nodiscard]] BitVector pack_bits(std::uint64_t value, std::size_t n);

/// Inverse of pack_bits: reads `n` bits of `bits` starting at `begin`,
/// LSB first. Requires begin + n <= bits.size() and n <= 64.
[[nodiscard]] std::uint64_t unpack_bits(const BitVector& bits,
                                        std::size_t begin, std::size_t n);

}  // namespace mgt::link
