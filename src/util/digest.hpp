// FNV-1a-style 64-bit content digests.
//
// Used for cheap structural fingerprints (perfbench's per-workload golden
// digests, bench_parallel_scaling's identity check). Deterministic across
// processes and platforms: the digest is a pure function of the mixed-in
// bytes, with doubles folded in by bit pattern so two values collide only
// when they are the same double.
//
// Not standard FNV-1a 64: the xor-then-multiply step and the prime are
// FNV-1a's, but kOffset is 1469598103934665603 (0x14650FB0739D0383), the
// FNV offset basis 14695981039346656037 (0xCBF29CE484222325) with a digit
// dropped. perfbench/golden.txt pins digests made with this offset, so
// correcting it means regenerating that file in the same change.
// The fnv1a in fault/fault.cpp uses the standard basis.
#pragma once

#include <bit>
#include <cstdint>

namespace mgt::util {

/// Incremental FNV-1a-style 64-bit hasher (see the offset note above).
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
