// Unit tests for src/util: units, RNG, bit vectors, statistics, tables.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "util/bitvec.hpp"
#include "util/digest.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace mgt {
namespace {

using namespace mgt::literals;

// ---------------------------------------------------------------- units --

TEST(Units, PicosecondArithmetic) {
  const Picoseconds a{400.0};
  const Picoseconds b{100.0};
  EXPECT_DOUBLE_EQ((a + b).ps(), 500.0);
  EXPECT_DOUBLE_EQ((a - b).ps(), 300.0);
  EXPECT_DOUBLE_EQ((a * 2.0).ps(), 800.0);
  EXPECT_DOUBLE_EQ((a / 4.0).ps(), 100.0);
  EXPECT_DOUBLE_EQ(a / b, 4.0);
  EXPECT_LT(b, a);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(Picoseconds::from_ns(25.6).ps(), 25600.0);
  EXPECT_DOUBLE_EQ(Picoseconds{25600.0}.ns(), 25.6);
  EXPECT_DOUBLE_EQ(Millivolts{800.0}.volts(), 0.8);
  EXPECT_DOUBLE_EQ(Gigahertz{1.25}.period().ps(), 800.0);
  EXPECT_DOUBLE_EQ(GbitsPerSec{2.5}.unit_interval().ps(), 400.0);
  EXPECT_DOUBLE_EQ(GbitsPerSec::from_ui(Picoseconds{200.0}).gbps(), 5.0);
}

TEST(Units, Literals) {
  EXPECT_DOUBLE_EQ((400_ps).ps(), 400.0);
  EXPECT_DOUBLE_EQ((1.6_ns).ps(), 1600.0);
  EXPECT_DOUBLE_EQ((800_mV).mv(), 800.0);
  EXPECT_DOUBLE_EQ((2.5_Gbps).unit_interval().ps(), 400.0);
  EXPECT_DOUBLE_EQ((1.25_GHz).mhz(), 1250.0);
}

TEST(Units, CompoundAssignment) {
  Picoseconds t{100.0};
  t += Picoseconds{50.0};
  EXPECT_DOUBLE_EQ(t.ps(), 150.0);
  t -= Picoseconds{25.0};
  EXPECT_DOUBLE_EQ(t.ps(), 125.0);
  t *= 2.0;
  EXPECT_DOUBLE_EQ(t.ps(), 250.0);
}

TEST(Units, NegationAndScalarOrdering) {
  EXPECT_DOUBLE_EQ((-Picoseconds{40.0}).ps(), -40.0);
  EXPECT_DOUBLE_EQ((2.0 * Picoseconds{40.0}).ps(), 80.0);
  EXPECT_EQ(Picoseconds{40.0}, Picoseconds{40.0});
  EXPECT_GT(Picoseconds{40.0}, -Picoseconds{40.0});
  EXPECT_LE(Millivolts{0.0}, Millivolts{0.0});
}

TEST(Units, RatioEdgeCases) {
  // Ratio of like quantities is dimensionless, including the signed and
  // infinite cases a bathtub fit can produce.
  EXPECT_DOUBLE_EQ(Picoseconds{-200.0} / Picoseconds{400.0}, -0.5);
  EXPECT_DOUBLE_EQ(Picoseconds{0.0} / Picoseconds{400.0}, 0.0);
  EXPECT_TRUE(std::isinf(Picoseconds{1.0} / Picoseconds{0.0}));
  EXPECT_TRUE(std::isnan(Picoseconds{0.0} / Picoseconds{0.0}));
}

TEST(Units, PeriodAndUnitIntervalRoundTrips) {
  // f -> period -> f and rate -> UI -> rate are exact inverses.
  const Gigahertz f{1.25};
  EXPECT_DOUBLE_EQ(1e3 / f.period().ps(), f.ghz());
  const GbitsPerSec rate{5.0};
  EXPECT_DOUBLE_EQ(GbitsPerSec::from_ui(rate.unit_interval()).gbps(),
                   rate.gbps());
}

TEST(Units, UnitIntervalsScaleToAbsoluteTime) {
  const UnitIntervals opening{0.88};
  EXPECT_DOUBLE_EQ(opening.ui(), 0.88);
  EXPECT_DOUBLE_EQ(opening.at(Picoseconds{400.0}).ps(), 352.0);
  EXPECT_LT(UnitIntervals{0.5}, UnitIntervals{0.88});
}

TEST(Units, SlewRateDimensionalAnalysis) {
  const MvPerPs slope = Millivolts{800.0} / Picoseconds{120.0};
  EXPECT_NEAR(slope.mv_per_ps(), 6.6667, 1e-3);
  // slope * dt recovers the voltage change, in either operand order.
  EXPECT_NEAR((slope * Picoseconds{120.0}).mv(), 800.0, 1e-9);
  EXPECT_NEAR((Picoseconds{60.0} * slope).mv(), 400.0, 1e-9);
}

// ---------------------------------------------------------------- error --

TEST(Error, CheckWithMessagePassesSilently) {
  EXPECT_NO_THROW(MGT_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(MGT_CHECK(true, "never shown"));
}

TEST(Error, CheckFailureNamesConditionAndLocation) {
  const int lanes = 0;
  try {
    MGT_CHECK(lanes > 0);  // this line number appears in the message
    FAIL() << "MGT_CHECK did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lanes > 0"), std::string::npos) << what;
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("check failed"), std::string::npos) << what;
    // file:line formatting with a plausible line number.
    EXPECT_NE(what.find(":"), std::string::npos) << what;
  }
}

TEST(Error, CheckCarriesOptionalMessageViaVaOpt) {
  // The __VA_OPT__ branch: a second argument lands in parentheses.
  try {
    MGT_CHECK(2 + 2 == 5, "arithmetic is broken");
    FAIL() << "MGT_CHECK did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("(arithmetic is broken)"), std::string::npos) << what;
  }
  // And without one, no empty parentheses are appended.
  try {
    MGT_CHECK(false);
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("()"), std::string::npos);
  }
}

TEST(Error, CheckLineNumberMatchesCallSite) {
  const std::size_t expected_line = __LINE__ + 2;  // the MGT_CHECK below
  try {
    MGT_CHECK(false);
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":" + std::to_string(expected_line) + ":"),
              std::string::npos)
        << what;
  }
}

TEST(Error, ErrorIsARuntimeError) {
  // Callers may catch std::exception; the message must survive the slice.
  try {
    throw Error("bring-up failed");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bring-up failed");
  }
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 5.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(rng.uniform());
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.add(rng.gaussian(3.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), Error);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.fork();
  // Parent and child should not produce the same sequence.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += parent.next() == child.next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(29);
  Rng b(29);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(ca.next(), cb.next());
    EXPECT_EQ(a.next(), b.next());
  }
}

// --------------------------------------------------------------- bitvec --

TEST(BitVector, BasicSetGet) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_FALSE(v.get(42));
  v.set(42, true);
  EXPECT_TRUE(v.get(42));
  EXPECT_TRUE(v[42]);
  v.set(42, false);
  EXPECT_FALSE(v.get(42));
}

TEST(BitVector, OutOfRangeThrows) {
  BitVector v(10);
  EXPECT_THROW(static_cast<void>(v.get(10)), Error);
  EXPECT_THROW(v.set(10, true), Error);
}

TEST(BitVector, FillConstructorKeepsPopcountHonest) {
  BitVector v(70, true);
  EXPECT_EQ(v.popcount(), 70u);
  BitVector w(64, true);
  EXPECT_EQ(w.popcount(), 64u);
}

TEST(BitVector, FromStringIgnoresSeparators) {
  const auto v = BitVector::from_string("1010 1100_11");
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.to_string(), "1010110011");
}

TEST(BitVector, PushBackAndAppend) {
  BitVector v;
  for (int i = 0; i < 130; ++i) {
    v.push_back(i % 3 == 0);
  }
  EXPECT_EQ(v.size(), 130u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(129));

  BitVector w = BitVector::from_string("11");
  w.append(BitVector::from_string("00"));
  EXPECT_EQ(w.to_string(), "1100");
}

TEST(BitVector, HammingDistance) {
  const auto a = BitVector::from_string("10101010");
  const auto b = BitVector::from_string("10011010");
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
  EXPECT_THROW(static_cast<void>(a.hamming_distance(BitVector(7))), Error);
}

TEST(BitVector, TransitionsAndRuns) {
  const auto v = BitVector::from_string("11100110");
  EXPECT_EQ(v.transition_count(), 3u);
  EXPECT_EQ(v.longest_run(), 3u);
  EXPECT_EQ(BitVector().longest_run(), 0u);
  EXPECT_EQ(BitVector::alternating(10).transition_count(), 9u);
}

TEST(BitVector, Slice) {
  const auto v = BitVector::from_string("0011010111");
  EXPECT_EQ(v.slice(2, 4).to_string(), "1101");
  EXPECT_THROW(v.slice(8, 4), Error);
}

class InterleaveRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InterleaveRoundTrip, DeinterleaveInvertsInterleave) {
  const std::size_t k = GetParam();
  Rng rng(k * 7919);
  std::vector<BitVector> lanes;
  for (std::size_t i = 0; i < k; ++i) {
    lanes.push_back(BitVector::random(64, rng));
  }
  const BitVector serial = BitVector::interleave(lanes);
  EXPECT_EQ(serial.size(), 64 * k);
  const auto back = serial.deinterleave(k);
  ASSERT_EQ(back.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(back[i], lanes[i]) << "lane " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, InterleaveRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(BitVector, InterleaveOrdering) {
  // a0 b0 a1 b1 ...
  const auto a = BitVector::from_string("1111");
  const auto b = BitVector::from_string("0000");
  EXPECT_EQ(BitVector::interleave({a, b}).to_string(), "10101010");
}

TEST(BitVector, InterleaveRequiresEqualLanes) {
  EXPECT_THROW(BitVector::interleave(
                   {BitVector(4), BitVector(5)}),
               Error);
  EXPECT_THROW(BitVector::interleave({}), Error);
  EXPECT_THROW(BitVector(10).deinterleave(3), Error);
}

TEST(BitVector, RandomIsSeedDeterministic) {
  Rng a(5);
  Rng b(5);
  EXPECT_EQ(BitVector::random(999, a), BitVector::random(999, b));
}

// ---------------------------------------------------------------- stats --

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / 5.0;
  double var = 0.0;
  for (double x : xs) {
    var += (x - mean) * (x - mean);
  }
  var /= 5.0;
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.peak_to_peak(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.peak_to_peak(), 0.0);
}

TEST(RunningStats, MergeEqualsSinglePass) {
  Rng rng(31);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(1.0, 3.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, RmsVersusStddev) {
  RunningStats s;
  s.add(3.0);
  s.add(-3.0);
  EXPECT_DOUBLE_EQ(s.rms(), 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 3.0);
  RunningStats offset;
  offset.add(5.0);
  offset.add(5.0);
  EXPECT_DOUBLE_EQ(offset.rms(), 5.0);
  EXPECT_DOUBLE_EQ(offset.stddev(), 0.0);
}

// The fmod-based fold positive_mod had before its fma fast path.
double positive_mod_reference(double x, double m) {
  double r = std::fmod(x, m);
  if (r < 0.0) {
    r += m;
  }
  return r;
}

TEST(Stats, PositiveModMatchesFmodBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> moduli = {1e6 / 3.0, 312.5, 0.1, 1.0, 3.0, 7e-3,
                                std::nextafter(1.0, 2.0), 1e300,
                                std::numeric_limits<double>::denorm_min(),
                                3.0 * std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min() / 3.0,
                                std::numeric_limits<double>::max()};
  // m = 2 UI, the eye fold's span, at every paper rate (and 3 Gbps, whose
  // UI is not a whole number of ps).
  for (double gbps : {1.0, 1.25, 2.5, 3.0, 4.0, 5.0, 8.0, 10.0}) {
    moduli.push_back(2.0 * GbitsPerSec{gbps}.unit_interval().ps());
    moduli.push_back(GbitsPerSec{gbps}.unit_interval().ps());
  }

  std::size_t checked = 0;
  auto expect_same = [&](double x, double m) {
    ++checked;
    const double got = positive_mod(x, m);
    const double want = positive_mod_reference(x, m);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << "x=" << x << " m=" << m;
      return;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << std::hexfloat << "x=" << x << " m=" << m << " got=" << got
        << " want=" << want;
  };
  // x and its neighbours n ulps either side, positive and negative.
  auto expect_around = [&](double x, double m) {
    double up = x;
    double down = x;
    for (int n = 0; n <= 3; ++n) {
      expect_same(up, m);
      expect_same(down, m);
      expect_same(-up, m);
      expect_same(-down, m);
      up = std::nextafter(up, kInf);
      down = std::nextafter(down, -kInf);
    }
  };

  Rng rng(0xF0D5EEDull);
  for (double m : moduli) {
    // Seeded random x over many binades around m.
    for (int i = 0; i < 4000; ++i) {
      const int e = static_cast<int>(rng.below(120)) - 60;
      const double x = std::ldexp(m * rng.uniform(0.5, 1.0), e);
      expect_same(x, m);
      expect_same(-x, m);
    }
    // Adversarial x = k*m +- n ulp, where trunc(x / m) is most often one
    // too many.
    for (double k : {0.0, 1.0, 2.0, 3.0, 7.0, 10.0, 1000.0, 12345.0, 1e6,
                     1e9, 1e12, 1e15}) {
      const double km = k * m;
      if (std::isfinite(km)) {
        expect_around(km, m);
      }
    }
    for (int i = 0; i < 2000; ++i) {
      const double k = std::floor(
          std::ldexp(rng.uniform(), static_cast<int>(rng.below(50))));
      const double km = k * m;
      if (std::isfinite(km)) {
        expect_around(km, m);
      }
    }
    // Near the fast path's quotient limit of 2^52, both sides.
    for (double k : {0x1p52 - 2.0, 0x1p52 - 1.0, 0x1p52, 0x1p52 + 2.0,
                     0x1p53}) {
      const double km = k * m;
      if (std::isfinite(km)) {
        expect_around(km, m);
      }
    }
    // Signed zeros, the smallest values, and non-finite x.
    for (double x : {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                     std::numeric_limits<double>::min(), kInf, -kInf, kNan,
                     std::numeric_limits<double>::max()}) {
      expect_same(x, m);
      expect_same(-x, m);
    }
  }
  // Non-finite and zero moduli.
  for (double m : {kInf, kNan, 0.0}) {
    for (double x : {0.0, 1.5, -1.5, 1e300, kInf}) {
      expect_same(x, m);
    }
  }
  EXPECT_GT(checked, 300000u);
}

TEST(Histogram, CountsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.5);
  h.add(9.99);
  h.add(10.0);
  h.add(25.0);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(Histogram, QuantileLinearInterpolation) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) {
    h.add(static_cast<double>(i) + 0.5);
  }
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
  EXPECT_THROW(static_cast<void>(h.quantile(1.5)), Error);
}

TEST(Histogram, ModeBin) {
  Histogram h(0.0, 3.0, 3);
  h.add(1.5);
  h.add(1.6);
  h.add(0.5);
  EXPECT_EQ(h.mode_bin(), 1u);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
}

// ---------------------------------------------------------------- table --

TEST(ReportTable, PrintsAllCells) {
  ReportTable table("Fig X", {"metric", "paper", "measured", "note"});
  table.add_comparison("jitter p-p", "46.7 ps", "45.1 ps", "");
  std::ostringstream os;
  table.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Fig X"), std::string::npos);
  EXPECT_NE(text.find("46.7 ps"), std::string::npos);
  EXPECT_NE(text.find("45.1 ps"), std::string::npos);
}

TEST(ReportTable, RowWidthMismatchThrows) {
  ReportTable table("t", {"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Fmt, Formatting) {
  EXPECT_EQ(fmt(46.71, 1), "46.7");
  EXPECT_EQ(fmt(3.0, 0), "3");
  EXPECT_EQ(fmt_unit(0.88, "UI", 2), "0.88 UI");
}

// ---------------------------------------------------------------- error --

TEST(Error, CheckMacroThrowsWithLocation) {
  try {
    MGT_CHECK(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(MGT_CHECK(2 + 2 == 4));
}

// ------------------------------------------------------------------ env --

TEST(Env, U64AcceptsOnlyWholeInRangeIntegers) {
  EXPECT_EQ(util::parse_env_u64("64"), 64u);
  EXPECT_EQ(util::parse_env_u64("1"), 1u);
  EXPECT_EQ(util::parse_env_u64("18446744073709551615", 1, ~0ULL), ~0ULL);

  // Unset is not a rejection: the caller just keeps its default.
  EXPECT_EQ(util::parse_env_u64(nullptr), std::nullopt);
  EXPECT_EQ(util::parse_env_u64(""), std::nullopt);

  // Malformed values are rejected whole — never partially parsed.
  EXPECT_EQ(util::parse_env_u64("64x"), std::nullopt);
  EXPECT_EQ(util::parse_env_u64(" 64"), std::nullopt);
  EXPECT_EQ(util::parse_env_u64("-3"), std::nullopt);
  EXPECT_EQ(util::parse_env_u64("0x40"), std::nullopt);
  EXPECT_EQ(util::parse_env_u64("6.4"), std::nullopt);
  EXPECT_EQ(util::parse_env_u64("lots"), std::nullopt);
  // Overflow and range violations reject rather than saturate.
  EXPECT_EQ(util::parse_env_u64("18446744073709551616"), std::nullopt);
  EXPECT_EQ(util::parse_env_u64("0", 1), std::nullopt);
  EXPECT_EQ(util::parse_env_u64("9", 1, 8), std::nullopt);
  EXPECT_EQ(util::parse_env_u64("0", 0, 8), 0u);
  // MGT_THREADS's rows under [0, kMaxThreads] are the ParseThreadCount.*
  // tests in test_obs.cpp.
}

TEST(Env, FlagAcceptsOnlyCanonicalSpellings) {
  EXPECT_EQ(util::parse_env_flag("0"), false);
  EXPECT_EQ(util::parse_env_flag("off"), false);
  EXPECT_EQ(util::parse_env_flag("false"), false);
  EXPECT_EQ(util::parse_env_flag("1"), true);
  EXPECT_EQ(util::parse_env_flag("on"), true);
  EXPECT_EQ(util::parse_env_flag("true"), true);

  EXPECT_EQ(util::parse_env_flag(nullptr), std::nullopt);
  EXPECT_EQ(util::parse_env_flag(""), std::nullopt);
  EXPECT_EQ(util::parse_env_flag("yes"), std::nullopt);
  EXPECT_EQ(util::parse_env_flag("OFF"), std::nullopt);
  EXPECT_EQ(util::parse_env_flag("2"), std::nullopt);
}

TEST(Env, RejectionsAreCountedAndNamed) {
  util::reset_env_rejections_for_test();
  EXPECT_EQ(util::env_rejections(), 0u);
  EXPECT_EQ(util::env_rejected_names(), "");

  setenv("MGT_TEST_KNOB_A", "garbage", 1);
  setenv("MGT_TEST_KNOB_B", "definitely", 1);
  setenv("MGT_TEST_KNOB_C", "32", 1);

  // A rejection keeps the caller's fallback; so does an unset knob, which
  // is not counted. Only the well-formed value replaces the fallback.
  EXPECT_EQ(util::env_u64("MGT_TEST_KNOB_A", 7), 7u);
  EXPECT_EQ(util::env_rejections(), 1u);
  EXPECT_TRUE(util::env_flag("MGT_TEST_KNOB_B", true));
  EXPECT_FALSE(util::env_flag("MGT_TEST_KNOB_B", false));
  EXPECT_EQ(util::env_rejections(), 3u);
  EXPECT_EQ(util::env_u64("MGT_TEST_KNOB_C", 7), 32u);
  EXPECT_EQ(util::env_u64("MGT_TEST_KNOB_UNSET", 7), 7u);
  // Out-of-range is a rejection too, and keeps the fallback.
  EXPECT_EQ(util::env_u64("MGT_TEST_KNOB_C", 7, 1, 16), 7u);

  EXPECT_EQ(util::env_rejections(), 4u);
  EXPECT_EQ(util::env_rejected_names(),
            "MGT_TEST_KNOB_A,MGT_TEST_KNOB_B,MGT_TEST_KNOB_C");

  // Re-rejecting the same knob counts but does not duplicate the name.
  EXPECT_EQ(util::env_u64("MGT_TEST_KNOB_A", 7), 7u);
  EXPECT_EQ(util::env_rejections(), 5u);
  EXPECT_EQ(util::env_rejected_names(),
            "MGT_TEST_KNOB_A,MGT_TEST_KNOB_B,MGT_TEST_KNOB_C");

  unsetenv("MGT_TEST_KNOB_A");
  unsetenv("MGT_TEST_KNOB_B");
  unsetenv("MGT_TEST_KNOB_C");
  util::reset_env_rejections_for_test();
}

// Pinned check vectors for util::Fnv64 with its offset 0x14650FB0739D0383
// (not the FNV basis 0xCBF29CE484222325; see util/digest.hpp). perfbench's
// golden digests depend on these exact values.
TEST(Fnv64, CheckVectors) {
  EXPECT_EQ(util::Fnv64{}.digest(), 0x14650FB0739D0383ULL);

  util::Fnv64 zero;
  zero.mix_u64(0);
  EXPECT_EQ(zero.digest(), 0x47FE0D7EAF8E51E3ULL);

  util::Fnv64 word;
  word.mix_u64(0x0123456789ABCDEFULL);
  EXPECT_EQ(word.digest(), 0xE1B1F298CFB61863ULL);

  util::Fnv64 one;
  one.mix_double(1.0);
  EXPECT_EQ(one.digest(), 0x4A542A7EB18A78FAULL);

  // Doubles fold in by bit pattern: -0.0 and +0.0 differ.
  util::Fnv64 negative_zero;
  negative_zero.mix_double(-0.0);
  EXPECT_EQ(negative_zero.digest(), 0x47FE8D7EAF8F2B63ULL);
  util::Fnv64 positive_zero;
  positive_zero.mix_double(0.0);
  EXPECT_EQ(positive_zero.digest(), zero.digest());

  util::Fnv64 sequence;
  sequence.mix_bool(true);
  sequence.mix_double(1.0);
  sequence.mix_u64(0x0123456789ABCDEFULL);
  EXPECT_EQ(sequence.digest(), 0x819E5CC5A014B2BBULL);
}

}  // namespace
}  // namespace mgt
