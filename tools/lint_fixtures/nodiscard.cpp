// [[nodiscard]] fixture: every must-use function called bare, one call per
// line tagged with the function's name. Compiling it must give exactly one
// -Wunused-result diagnostic on each tagged line and none elsewhere: the
// (void) and static_cast<void> discards below are explicit and compile.
// Checked by tools/nodiscard_check.cmake (ctest `lint.nodiscard`).
#include <cstdint>
#include <vector>

#include "core/test_system.hpp"
#include "digital/usb.hpp"
#include "link/frame.hpp"
#include "link/link.hpp"
#include "telemetry/wire.hpp"
#include "testbed/framing.hpp"
#include "util/env.hpp"
#include "vortex/fabric.hpp"

namespace mgt {

void bare(core::TestSystem& sys, link::LinkChannel& channel,
          const link::FrameCodec& codec, vortex::DataVortex& fabric,
          const std::vector<BitVector>& payloads,
          const testbed::TestbedPacket& packet,
          const testbed::SlotFormat& format, const testbed::SlotBits& bits,
          const vortex::Packet& cell, std::vector<vortex::Delivery>& out,
          telemetry::PacketType type, const std::uint8_t* bytes,
          telemetry::Record& record) {
  sys.self_test();  // must-use: self_test
  channel.send_payload(payloads[0]);  // must-use: send_payload
  channel.transfer(payloads);  // must-use: transfer
  fabric.inject_with_retry(cell, 0, 8, out);  // must-use: inject_with_retry
  util::parse_env_u64("8");  // must-use: parse_env_u64
  util::parse_env_flag("on");  // must-use: parse_env_flag
  telemetry::decode_payload(type, bytes, 4, record);  // must-use: decode_payload
  codec.decode(packet);  // must-use: decode
  dig::decode_pid(0xE1);  // must-use: decode_pid
  testbed::parse_slot(format, bits);  // must-use: parse_slot
}

void discarded(core::TestSystem& sys, link::LinkChannel& channel,
               const std::vector<BitVector>& payloads,
               const testbed::SlotFormat& format,
               const testbed::SlotBits& bits) {
  (void)sys.self_test();
  static_cast<void>(channel.send_payload(payloads[0]));
  (void)util::parse_env_u64("8");
  static_cast<void>(testbed::parse_slot(format, bits));
}

}  // namespace mgt
