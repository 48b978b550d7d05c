// IEEE 1149.1 (JTAG) test access port.
//
// The DLC's FLASH is programmed from the PC through a boundary-scan
// interface (Fig 2: "MultiLink adaptor" + "IEEE 1149.1"). This is a full
// 16-state TAP controller with IDCODE, BYPASS, SAMPLE/EXTEST boundary
// registers and vendor data registers that stream bytes into the FLASH.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "digital/flash.hpp"

namespace mgt::dig {

/// The 16 TAP controller states of IEEE 1149.1.
enum class TapState : std::uint8_t {
  TestLogicReset,
  RunTestIdle,
  SelectDrScan,
  CaptureDr,
  ShiftDr,
  Exit1Dr,
  PauseDr,
  Exit2Dr,
  UpdateDr,
  SelectIrScan,
  CaptureIr,
  ShiftIr,
  Exit1Ir,
  PauseIr,
  Exit2Ir,
  UpdateIr,
};

/// Next-state function of the TAP state machine for a TMS value.
TapState tap_next_state(TapState state, bool tms);

/// Printable state name (for diagnostics and tests).
std::string tap_state_name(TapState state);

/// TAP instructions implemented by the DLC device.
namespace tap_ins {
inline constexpr std::uint8_t kExtest = 0x00;
inline constexpr std::uint8_t kIdcode = 0x01;
inline constexpr std::uint8_t kSample = 0x02;
inline constexpr std::uint8_t kFlashAddr = 0x10;   // 32-bit address DR
inline constexpr std::uint8_t kFlashData = 0x11;   // 8-bit data DR, auto-inc
inline constexpr std::uint8_t kFlashErase = 0x12;  // 32-bit sector DR
inline constexpr std::uint8_t kBypass = 0xFF;
}  // namespace tap_ins

/// The DLC-side TAP device: state machine + IR + data registers.
class TapDevice {
public:
  /// `flash` may be null if flash instructions are unused; `boundary_length`
  /// is the number of boundary-scan cells (one per pin).
  TapDevice(std::uint32_t idcode, FlashMemory* flash,
            std::size_t boundary_length = 16);

  /// One TCK cycle with the given TMS/TDI; returns TDO (value shifted out).
  bool clock(bool tms, bool tdi);

  [[nodiscard]] TapState state() const { return state_; }
  [[nodiscard]] std::uint8_t instruction() const { return ir_; }

  /// Pin values sampled by SAMPLE (set by the surrounding model).
  void set_pins(const std::vector<bool>& pins);
  /// Pin values driven by EXTEST's last UpdateDR.
  [[nodiscard]] const std::vector<bool>& driven_pins() const {
    return driven_pins_;
  }
  /// Current flash address pointer (after auto-increments).
  [[nodiscard]] std::uint32_t flash_address() const { return flash_addr_; }

  static constexpr std::size_t kIrLength = 8;

private:
  [[nodiscard]] std::size_t dr_length() const;
  /// Bit `i` of the DR as the standard numbers it (bit 0 = next TDO).
  [[nodiscard]] bool dr_bit(std::size_t i) const;
  void capture_dr();
  void update_dr();

  TapState state_ = TapState::TestLogicReset;
  std::uint8_t ir_ = tap_ins::kIdcode;
  std::uint32_t idcode_;
  FlashMemory* flash_;
  std::uint32_t flash_addr_ = 0;
  std::vector<bool> pins_;
  std::vector<bool> driven_pins_;
  // Shift registers (LSB-first shifting: TDO from bit 0, TDI into the top).
  std::uint64_t ir_shift_ = 0;
  // The DR is a ring: bit i lives at dr_[(dr_head_ + i) % size], so one
  // Shift-DR clock reads TDO at the head, writes TDI there and advances the
  // head, O(1) whatever the register length.
  std::vector<bool> dr_;
  std::size_t dr_head_ = 0;
};

/// Host-side driver: wiggles TMS/TDI to navigate the TAP and run scans,
/// exactly as the PC-attached MultiLink adaptor does.
class JtagHost {
public:
  explicit JtagHost(TapDevice& device) : device_(device) { reset(); }

  /// Five TMS=1 clocks: synchronous reset into Test-Logic-Reset, then one
  /// TMS=0 clock into Run-Test/Idle.
  void reset();

  /// Loads an instruction (kIrLength bits, LSB first); ends in Run-Test/Idle.
  void shift_ir(std::uint8_t instruction);

  /// Shifts `bits_in` through the selected DR; returns the bits shifted
  /// out (same length); ends in Run-Test/Idle.
  std::vector<bool> shift_dr(const std::vector<bool>& bits_in);

  /// Convenience scans.
  std::uint32_t read_idcode();
  void write_flash_address(std::uint32_t addr);
  void program_flash_bytes(const std::vector<std::uint8_t>& bytes);
  std::vector<std::uint8_t> read_flash_bytes(std::uint32_t addr,
                                             std::size_t len);
  void erase_flash_sector(std::uint32_t sector);

  /// Programs a whole image: erases covered sectors, streams the bytes,
  /// reads back and verifies. Throws on verify mismatch.
  void program_flash_image(std::uint32_t addr,
                           const std::vector<std::uint8_t>& image,
                           std::size_t sector_size);

  [[nodiscard]] std::size_t tck_cycles() const { return tck_cycles_; }

private:
  bool clock(bool tms, bool tdi);
  /// Run-Test/Idle -> Select-DR -> Capture-DR -> Shift-DR.
  void begin_dr_scan();
  /// Exit1-DR -> Update-DR -> Run-Test/Idle.
  void end_dr_scan();
  /// shift_dr for the built-in scans: the low `n` bits of `bits` go in
  /// LSB first (1 <= n <= 64), the `n` bits shifted out come back the same
  /// way. Clocks exactly the TMS/TDI sequence shift_dr would.
  std::uint64_t shift_dr_word(std::uint64_t bits, std::size_t n);

  TapDevice& device_;
  std::size_t tck_cycles_ = 0;
};

}  // namespace mgt::dig
