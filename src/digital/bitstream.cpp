#include "digital/bitstream.hpp"

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mgt::dig {

namespace {

constexpr std::uint32_t kMagic = 0x464C4443;  // "CDLF"

/// Bounds-checked sequential read of one little-endian u32.
std::uint32_t read_u32(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  if (pos + 4 > in.size()) {
    throw Error("bitstream image truncated");
  }
  const std::uint32_t v = util::get_u32(in.data() + pos);
  pos += 4;
  return v;
}

}  // namespace

std::vector<std::uint8_t> Bitstream::serialize() const {
  std::vector<std::uint8_t> out;
  util::put_u32(out, kMagic);
  util::put_u32(out, version);
  util::put_u32(out, static_cast<std::uint32_t>(design_name.size()));
  out.insert(out.end(), design_name.begin(), design_name.end());
  util::put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  util::put_u32(out, util::crc32(out));
  return out;
}

Bitstream Bitstream::deserialize(const std::vector<std::uint8_t>& image) {
  std::size_t pos = 0;
  if (read_u32(image, pos) != kMagic) {
    throw Error("bitstream image has bad magic");
  }
  Bitstream bs;
  bs.version = read_u32(image, pos);
  const std::uint32_t name_len = read_u32(image, pos);
  if (pos + name_len > image.size()) {
    throw Error("bitstream image truncated in name");
  }
  bs.design_name.assign(image.begin() + static_cast<std::ptrdiff_t>(pos),
                        image.begin() + static_cast<std::ptrdiff_t>(pos + name_len));
  pos += name_len;
  const std::uint32_t payload_len = read_u32(image, pos);
  if (pos + payload_len > image.size()) {
    throw Error("bitstream image truncated in payload");
  }
  bs.payload.assign(image.begin() + static_cast<std::ptrdiff_t>(pos),
                    image.begin() + static_cast<std::ptrdiff_t>(pos + payload_len));
  pos += payload_len;
  const std::uint32_t computed_crc = util::crc32({image.data(), pos});
  const std::uint32_t stored_crc = read_u32(image, pos);
  if (computed_crc != stored_crc) {
    throw Error("bitstream CRC mismatch (corrupted FLASH image)");
  }
  return bs;
}

}  // namespace mgt::dig
