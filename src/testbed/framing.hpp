// Packet slot format of the Optical Test Bed (Fig 4).
//
// One packet slot is 64 bit periods (25.6 ns at 400 ps): a dead time of 8
// bits, guard times of 5 bits on each side of a 46-bit maximum valid
// clock/data window, which contains pre-clocks (receiver start-up), the
// 32-bit valid payload, and post-clocks (receiver pipeline flush). A
// source-synchronous clock toggles through the window; the Frame bit
// brackets the valid data; four header channels hold the routing address.
#pragma once

#include <array>
#include <cstdint>

#include "util/bitvec.hpp"
#include "util/units.hpp"

namespace mgt::testbed {

/// Slot geometry in bit periods. The defaults are exactly Fig 4.
struct SlotFormat {
  Picoseconds ui{400.0};          // 2.5 Gbps bit period
  std::size_t slot_bits = 64;     // packet slot
  std::size_t dead_bits = 8;      // inter-slot dead time
  std::size_t guard_bits = 5;     // each side of the valid window
  std::size_t window_bits = 46;   // max valid clock/data window
  std::size_t data_bits = 32;     // valid payload bits per channel
  std::size_t pre_clock_bits = 7; // receiver start-up
  std::size_t post_clock_bits = 7;// pipeline flush

  /// Bit index (within the slot) where the valid window starts.
  [[nodiscard]] std::size_t window_start() const {
    return dead_bits + guard_bits;
  }
  /// Bit index where the payload starts.
  [[nodiscard]] std::size_t data_start() const {
    return window_start() + pre_clock_bits;
  }
  [[nodiscard]] std::size_t data_end() const {
    return data_start() + data_bits;
  }
  [[nodiscard]] std::size_t window_end() const {
    return window_start() + window_bits;
  }

  [[nodiscard]] Picoseconds slot_duration() const {
    return Picoseconds{static_cast<double>(slot_bits) * ui.ps()};
  }
  [[nodiscard]] Picoseconds data_duration() const {
    return Picoseconds{static_cast<double>(data_bits) * ui.ps()};
  }
  [[nodiscard]] Picoseconds window_duration() const {
    return Picoseconds{static_cast<double>(window_bits) * ui.ps()};
  }

  /// Checks the arithmetic closes (Fig 4: 8+5+46+5 = 64, 7+32+7 = 46).
  /// Throws mgt::Error when inconsistent.
  void validate() const;
};

/// Number of payload channels (the 4-bit parallel word of Fig 4).
inline constexpr std::size_t kDataChannels = 4;
/// Number of header (routing address) channels.
inline constexpr std::size_t kHeaderChannels = 4;

/// Contents of one test-bed packet.
struct TestbedPacket {
  std::array<BitVector, kDataChannels> payload;  // data_bits each
  std::uint8_t header = 0;                       // routing address
};

/// Per-channel bit sequences for one slot (each slot_bits long).
struct SlotBits {
  std::array<BitVector, kDataChannels> data;
  BitVector clock;
  BitVector frame;
  std::array<BitVector, kHeaderChannels> header;
};

/// Lays a packet out into channel bit sequences per the slot format.
SlotBits build_slot(const SlotFormat& format, const TestbedPacket& packet);

/// Recovers packet contents from channel bit sequences (the inverse of
/// build_slot; used by tests and the receiver's frame parser).
[[nodiscard]] TestbedPacket parse_slot(const SlotFormat& format,
                                      const SlotBits& bits);

}  // namespace mgt::testbed
