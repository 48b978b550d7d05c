#include "digital/jtag.hpp"

#include "util/error.hpp"

namespace mgt::dig {

TapState tap_next_state(TapState state, bool tms) {
  switch (state) {
    case TapState::TestLogicReset:
      return tms ? TapState::TestLogicReset : TapState::RunTestIdle;
    case TapState::RunTestIdle:
      return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
    case TapState::SelectDrScan:
      return tms ? TapState::SelectIrScan : TapState::CaptureDr;
    case TapState::CaptureDr:
      return tms ? TapState::Exit1Dr : TapState::ShiftDr;
    case TapState::ShiftDr:
      return tms ? TapState::Exit1Dr : TapState::ShiftDr;
    case TapState::Exit1Dr:
      return tms ? TapState::UpdateDr : TapState::PauseDr;
    case TapState::PauseDr:
      return tms ? TapState::Exit2Dr : TapState::PauseDr;
    case TapState::Exit2Dr:
      return tms ? TapState::UpdateDr : TapState::ShiftDr;
    case TapState::UpdateDr:
      return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
    case TapState::SelectIrScan:
      return tms ? TapState::TestLogicReset : TapState::CaptureIr;
    case TapState::CaptureIr:
      return tms ? TapState::Exit1Ir : TapState::ShiftIr;
    case TapState::ShiftIr:
      return tms ? TapState::Exit1Ir : TapState::ShiftIr;
    case TapState::Exit1Ir:
      return tms ? TapState::UpdateIr : TapState::PauseIr;
    case TapState::PauseIr:
      return tms ? TapState::Exit2Ir : TapState::PauseIr;
    case TapState::Exit2Ir:
      return tms ? TapState::UpdateIr : TapState::ShiftIr;
    case TapState::UpdateIr:
      return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
  }
  throw Error("invalid TAP state");
}

std::string tap_state_name(TapState state) {
  switch (state) {
    case TapState::TestLogicReset: return "Test-Logic-Reset";
    case TapState::RunTestIdle: return "Run-Test/Idle";
    case TapState::SelectDrScan: return "Select-DR-Scan";
    case TapState::CaptureDr: return "Capture-DR";
    case TapState::ShiftDr: return "Shift-DR";
    case TapState::Exit1Dr: return "Exit1-DR";
    case TapState::PauseDr: return "Pause-DR";
    case TapState::Exit2Dr: return "Exit2-DR";
    case TapState::UpdateDr: return "Update-DR";
    case TapState::SelectIrScan: return "Select-IR-Scan";
    case TapState::CaptureIr: return "Capture-IR";
    case TapState::ShiftIr: return "Shift-IR";
    case TapState::Exit1Ir: return "Exit1-IR";
    case TapState::PauseIr: return "Pause-IR";
    case TapState::Exit2Ir: return "Exit2-IR";
    case TapState::UpdateIr: return "Update-IR";
  }
  return "?";
}

TapDevice::TapDevice(std::uint32_t idcode, FlashMemory* flash,
                     std::size_t boundary_length)
    : idcode_(idcode), flash_(flash), pins_(boundary_length, false),
      driven_pins_(boundary_length, false) {}

void TapDevice::set_pins(const std::vector<bool>& pins) {
  MGT_CHECK(pins.size() == pins_.size(), "boundary length mismatch");
  pins_ = pins;
}

std::size_t TapDevice::dr_length() const {
  switch (ir_) {
    case tap_ins::kIdcode:
      return 32;
    case tap_ins::kSample:
    case tap_ins::kExtest:
      return pins_.size();
    case tap_ins::kFlashAddr:
    case tap_ins::kFlashErase:
      return 32;
    case tap_ins::kFlashData:
      return 8;
    case tap_ins::kBypass:
    default:
      return 1;  // unknown instructions select BYPASS per the standard
  }
}

bool TapDevice::dr_bit(std::size_t i) const {
  const std::size_t k = dr_head_ + i;
  return dr_[k < dr_.size() ? k : k - dr_.size()];
}

void TapDevice::capture_dr() {
  dr_.assign(dr_length(), false);
  dr_head_ = 0;
  switch (ir_) {
    case tap_ins::kIdcode:
      for (std::size_t i = 0; i < 32; ++i) {
        dr_[i] = (idcode_ >> i) & 1u;
      }
      break;
    case tap_ins::kSample:
    case tap_ins::kExtest:
      for (std::size_t i = 0; i < pins_.size(); ++i) {
        dr_[i] = pins_[i];
      }
      break;
    case tap_ins::kFlashData:
      if (flash_ != nullptr && flash_addr_ < flash_->size()) {
        const std::uint8_t byte = flash_->read(flash_addr_);
        for (std::size_t i = 0; i < 8; ++i) {
          dr_[i] = (byte >> i) & 1u;
        }
      }
      break;
    default:
      break;  // BYPASS/addr/erase capture zeros
  }
}

void TapDevice::update_dr() {
  auto dr_value = [&]() {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < dr_.size(); ++i) {
      v |= static_cast<std::uint64_t>(dr_bit(i)) << i;
    }
    return v;
  };
  switch (ir_) {
    case tap_ins::kExtest:
      driven_pins_.resize(dr_.size());
      for (std::size_t i = 0; i < dr_.size(); ++i) {
        driven_pins_[i] = dr_bit(i);
      }
      break;
    case tap_ins::kFlashAddr:
      flash_addr_ = static_cast<std::uint32_t>(dr_value());
      break;
    case tap_ins::kFlashData:
      if (flash_ != nullptr) {
        flash_->program(flash_addr_, static_cast<std::uint8_t>(dr_value()));
        ++flash_addr_;  // auto-increment for streaming writes
      }
      break;
    case tap_ins::kFlashErase:
      if (flash_ != nullptr) {
        flash_->erase_sector(static_cast<std::size_t>(dr_value()));
      }
      break;
    default:
      break;
  }
}

bool TapDevice::clock(bool tms, bool tdi) {
  bool tdo = false;
  // TDO reflects the register bit being shifted out during Shift states.
  if (state_ == TapState::ShiftIr) {
    tdo = ir_shift_ & 1u;
    ir_shift_ = (ir_shift_ >> 1) |
                (static_cast<std::uint64_t>(tdi) << (kIrLength - 1));
  } else if (state_ == TapState::ShiftDr && !dr_.empty()) {
    tdo = dr_[dr_head_];
    dr_[dr_head_] = tdi;
    if (++dr_head_ == dr_.size()) {
      dr_head_ = 0;
    }
  }

  state_ = tap_next_state(state_, tms);

  switch (state_) {
    case TapState::TestLogicReset:
      ir_ = tap_ins::kIdcode;  // reset selects IDCODE per the standard
      break;
    case TapState::CaptureIr:
      ir_shift_ = 0b01;  // standard mandates LSBs = 01 for fault isolation
      break;
    case TapState::UpdateIr:
      ir_ = static_cast<std::uint8_t>(ir_shift_ & ((1u << kIrLength) - 1));
      break;
    case TapState::CaptureDr:
      capture_dr();
      break;
    case TapState::UpdateDr:
      update_dr();
      break;
    default:
      break;
  }
  return tdo;
}

void JtagHost::reset() {
  for (int i = 0; i < 5; ++i) {
    clock(true, false);
  }
  clock(false, false);  // -> Run-Test/Idle
  MGT_CHECK(device_.state() == TapState::RunTestIdle);
}

bool JtagHost::clock(bool tms, bool tdi) {
  ++tck_cycles_;
  return device_.clock(tms, tdi);
}

void JtagHost::shift_ir(std::uint8_t instruction) {
  // RTI -> Select-DR -> Select-IR -> Capture-IR -> Shift-IR
  clock(true, false);
  clock(true, false);
  clock(false, false);
  clock(false, false);
  for (std::size_t i = 0; i < TapDevice::kIrLength; ++i) {
    const bool last = i + 1 == TapDevice::kIrLength;
    clock(last, (instruction >> i) & 1u);  // last bit exits Shift-IR
  }
  clock(true, false);   // Exit1-IR -> Update-IR
  clock(false, false);  // -> Run-Test/Idle
  MGT_CHECK(device_.state() == TapState::RunTestIdle);
}

void JtagHost::begin_dr_scan() {
  clock(true, false);   // -> Select-DR
  clock(false, false);  // -> Capture-DR
  clock(false, false);  // -> Shift-DR
}

void JtagHost::end_dr_scan() {
  clock(true, false);   // Exit1-DR -> Update-DR
  clock(false, false);  // -> Run-Test/Idle
  MGT_CHECK(device_.state() == TapState::RunTestIdle);
}

std::vector<bool> JtagHost::shift_dr(const std::vector<bool>& bits_in) {
  MGT_CHECK(!bits_in.empty());
  begin_dr_scan();
  std::vector<bool> out(bits_in.size());
  for (std::size_t i = 0; i < bits_in.size(); ++i) {
    const bool last = i + 1 == bits_in.size();
    out[i] = clock(last, bits_in[i]);  // last bit exits Shift-DR
  }
  end_dr_scan();
  return out;
}

std::uint64_t JtagHost::shift_dr_word(std::uint64_t bits, std::size_t n) {
  MGT_CHECK(n >= 1 && n <= 64);
  begin_dr_scan();
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool last = i + 1 == n;
    out |= static_cast<std::uint64_t>(clock(last, (bits >> i) & 1u)) << i;
  }
  end_dr_scan();
  return out;
}

std::uint32_t JtagHost::read_idcode() {
  shift_ir(tap_ins::kIdcode);
  return static_cast<std::uint32_t>(shift_dr_word(0, 32));
}

void JtagHost::write_flash_address(std::uint32_t addr) {
  shift_ir(tap_ins::kFlashAddr);
  shift_dr_word(addr, 32);
}

void JtagHost::program_flash_bytes(const std::vector<std::uint8_t>& bytes) {
  shift_ir(tap_ins::kFlashData);
  for (std::uint8_t byte : bytes) {
    shift_dr_word(byte, 8);
  }
}

std::vector<std::uint8_t> JtagHost::read_flash_bytes(std::uint32_t addr,
                                                     std::size_t len) {
  std::vector<std::uint8_t> out;
  out.reserve(len);
  for (std::size_t k = 0; k < len; ++k) {
    // Each Capture-DR loads flash[addr]; shifting all-ones programs nothing
    // back because Update-DR would program 0xFF (no bit cleared).
    write_flash_address(addr + static_cast<std::uint32_t>(k));
    shift_ir(tap_ins::kFlashData);
    out.push_back(static_cast<std::uint8_t>(shift_dr_word(0xFF, 8)));
  }
  return out;
}

void JtagHost::erase_flash_sector(std::uint32_t sector) {
  shift_ir(tap_ins::kFlashErase);
  shift_dr_word(sector, 32);
}

void JtagHost::program_flash_image(std::uint32_t addr,
                                   const std::vector<std::uint8_t>& image,
                                   std::size_t sector_size) {
  MGT_CHECK(!image.empty());
  const std::uint32_t first = addr / static_cast<std::uint32_t>(sector_size);
  const std::uint32_t last = (addr + static_cast<std::uint32_t>(image.size()) - 1) /
                             static_cast<std::uint32_t>(sector_size);
  for (std::uint32_t s = first; s <= last; ++s) {
    erase_flash_sector(s);
  }
  write_flash_address(addr);
  program_flash_bytes(image);
  const auto readback = read_flash_bytes(addr, image.size());
  if (readback != image) {
    throw Error("flash program verify failed");
  }
}

}  // namespace mgt::dig
