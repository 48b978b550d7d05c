// FNV-1a 64-bit content digests.
//
// Used for cheap structural fingerprints (perfbench's per-workload golden
// digests, result checks). Deterministic across processes and platforms: the digest is
// a pure function of the mixed-in bytes, with doubles folded in by bit
// pattern so two values collide only when they are the same double.
#pragma once

#include <bit>
#include <cstdint>

namespace mgt::util {

/// Incremental FNV-1a 64-bit hasher.
class Fnv64 {
public:
  void mix_u64(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (x >> (8 * byte)) & 0xFFu;
      h_ *= kPrime;
    }
  }

  void mix_bool(bool b) { mix_u64(b ? 1 : 0); }

  /// Folds in the exact bit pattern (distinguishes -0.0 from +0.0, so two
  /// fingerprints match only on bit-identical results).
  void mix_double(double d) { mix_u64(std::bit_cast<std::uint64_t>(d)); }

  [[nodiscard]] std::uint64_t digest() const { return h_; }

private:
  static constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h_ = kOffset;
};

}  // namespace mgt::util
