// USB control link between the PC and the DLC.
//
// The DLC talks to its controlling PC through a USB microcontroller
// (Fig 2). This model implements the protocol mechanics that matter for a
// control link's robustness: PID check nibbles, CRC5 token / CRC16 data
// integrity, DATA0/DATA1 toggle sequencing, ACK/NAK handshakes, and host
// retry on corrupted or lost packets. On top of it rides the DLC's vendor
// register protocol (read/write 32-bit registers, stream pattern words).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

namespace mgt::dig {

/// USB packet identifiers (subset used by a control/bulk link).
enum class Pid : std::uint8_t {
  Setup = 0xD,
  In = 0x9,
  Out = 0x1,
  Data0 = 0x3,
  Data1 = 0xB,
  Ack = 0x2,
  Nak = 0xA,
  Stall = 0xE,
};

/// CRC5 over the 11-bit token field (addr | endp << 7), USB polynomial
/// x^5 + x^2 + 1, as specified in USB 2.0 section 8.3.5.
std::uint8_t usb_crc5(std::uint16_t data11);

/// CRC16 over a data payload, USB polynomial x^16 + x^15 + x^2 + 1.
std::uint16_t usb_crc16(const std::vector<std::uint8_t>& data);

/// Serialized packet bytes on the wire.
using Wire = std::vector<std::uint8_t>;

/// PID byte = pid | (~pid << 4); receivers validate the complement nibble.
std::uint8_t pid_byte(Pid pid);
/// Decodes and validates a PID byte; nullopt if the check nibble is bad.
[[nodiscard]] std::optional<Pid> decode_pid(std::uint8_t byte);

/// Token packet (SETUP/IN/OUT): addressed to a device endpoint.
struct TokenPacket {
  Pid pid = Pid::Setup;
  std::uint8_t address = 0;  // 7 bits
  std::uint8_t endpoint = 0; // 4 bits

  [[nodiscard]] Wire serialize() const;
  static std::optional<TokenPacket> deserialize(const Wire& wire);
};

/// Data packet (DATA0/DATA1) with CRC16.
struct DataPacket {
  Pid pid = Pid::Data0;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] Wire serialize() const;
  static std::optional<DataPacket> deserialize(const Wire& wire);
};

/// Vendor register protocol carried in control transfers.
namespace usbreq {
inline constexpr std::uint8_t kWriteRegister = 0x01;
inline constexpr std::uint8_t kReadRegister = 0x02;

Wire make_write(std::uint16_t addr, std::uint32_t value);
Wire make_read(std::uint16_t addr);
}  // namespace usbreq

/// Maximum bulk packet payload (full-speed USB bulk endpoint size).
inline constexpr std::size_t kBulkMaxPacket = 64;

/// Device side: validates packets, maintains the data toggle, forwards
/// well-formed requests to the function handler.
class UsbDevice {
public:
  /// Handler receives a request payload and returns the response payload
  /// (empty for write-style requests).
  using ControlHandler = std::function<std::vector<std::uint8_t>(
      const std::vector<std::uint8_t>& request)>;

  /// Handler for a completed bulk OUT transfer (reassembled payload).
  using BulkHandler =
      std::function<void(const std::vector<std::uint8_t>& payload)>;

  UsbDevice(std::uint8_t address, ControlHandler handler);

  /// Installs a bulk OUT endpoint (1..15). Transfers end USB-style on a
  /// short packet (< kBulkMaxPacket, possibly zero-length).
  void set_bulk_handler(std::uint8_t endpoint, BulkHandler handler);

  /// OUT token + DATA stage on a bulk endpoint. Same corruption/toggle
  /// semantics as on_setup; delivers the reassembled transfer to the
  /// endpoint handler when a short packet arrives.
  std::optional<Pid> on_bulk_out(const Wire& token_wire,
                                 const Wire& data_wire);

  /// SETUP/OUT token + DATA stage. Returns the handshake, or nullopt when
  /// the packet is not for this device or arrived corrupted (no response —
  /// the host will time out and retry).
  std::optional<Pid> on_setup(const Wire& token_wire, const Wire& data_wire);

  /// IN token. Returns the serialized DATA packet, a NAK handshake when no
  /// response is pending, or nullopt when not addressed / corrupted.
  std::optional<Wire> on_in(const Wire& token_wire);

  /// Host's handshake after an IN data stage; ACK retires the pending
  /// response, anything else keeps it for retransmission.
  void on_host_handshake(Pid handshake);

  [[nodiscard]] std::uint8_t address() const { return address_; }
  [[nodiscard]] std::size_t requests_processed() const {
    return requests_processed_;
  }

  [[nodiscard]] std::size_t bulk_transfers_completed() const {
    return bulk_transfers_completed_;
  }

private:
  struct BulkEndpoint {
    BulkHandler handler;
    bool expected_toggle = false;
    std::vector<std::uint8_t> assembly;
  };

  std::uint8_t address_;
  ControlHandler handler_;
  bool expected_toggle_ = false;  // false = DATA0 expected next
  bool in_toggle_ = true;         // control IN stage starts at DATA1
  std::optional<std::vector<std::uint8_t>> pending_response_;
  std::size_t requests_processed_ = 0;
  std::map<std::uint8_t, BulkEndpoint> bulk_endpoints_;
  std::size_t bulk_transfers_completed_ = 0;
};

/// Host side: frames requests, applies wire fault injection, retries.
class UsbHost {
public:
  /// Corruptor is applied to every wire packet (both directions); it may
  /// flip bits to emulate a noisy link. Return value ignored.
  using Corruptor = std::function<void(Wire&)>;

  explicit UsbHost(UsbDevice& device);

  void set_corruptor(Corruptor corruptor) { corruptor_ = std::move(corruptor); }
  void set_max_retries(std::size_t retries) { max_retries_ = retries; }

  /// Control-write: SETUP + DATA; retries until ACK. Throws after
  /// max_retries consecutive failures.
  void control_write(const std::vector<std::uint8_t>& request);

  /// Control-read: SETUP + DATA, then IN until a valid DATA arrives; ACKs
  /// it and returns the payload.
  std::vector<std::uint8_t> control_read(const std::vector<std::uint8_t>& request);

  /// Register-level convenience API (the DLC driver the PC software uses).
  void write_register(std::uint16_t addr, std::uint32_t value);
  std::uint32_t read_register(std::uint16_t addr);

  /// Bulk OUT transfer: packetizes `payload` into kBulkMaxPacket chunks
  /// with alternating DATA0/1 and a terminating short packet, retrying
  /// corrupted chunks. Throws after max_retries on any chunk.
  void bulk_write(std::uint8_t endpoint,
                  const std::vector<std::uint8_t>& payload);

  [[nodiscard]] std::size_t transactions() const { return transactions_; }
  [[nodiscard]] std::size_t retries() const { return retries_total_; }

private:
  Wire transmit(Wire wire);

  UsbDevice& device_;
  Corruptor corruptor_;
  std::size_t max_retries_ = 8;
  bool host_toggle_ = false;
  std::map<std::uint8_t, bool> bulk_toggle_;  // per-endpoint pipe state
  std::size_t transactions_ = 0;
  std::size_t retries_total_ = 0;
};

}  // namespace mgt::dig
