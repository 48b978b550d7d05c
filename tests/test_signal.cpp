// Unit tests for src/signal: edge streams, jitter, filters, rendering,
// sinks and channels.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "signal/channel.hpp"
#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/jitter.hpp"
#include "signal/levels.hpp"
#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mgt::sig {
namespace {

using mgt::BitVector;
using mgt::Rng;
using mgt::RunningStats;

// ------------------------------------------------------------ EdgeStream --

TEST(EdgeStream, FromBitsPlacesTransitionsAtBoundaries) {
  const auto bits = BitVector::from_string("0110");
  const auto s = EdgeStream::from_bits(bits, Picoseconds{400.0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.initial_level());
  EXPECT_DOUBLE_EQ(s.transitions()[0].time.ps(), 400.0);
  EXPECT_TRUE(s.transitions()[0].level);
  EXPECT_DOUBLE_EQ(s.transitions()[1].time.ps(), 1200.0);
  EXPECT_FALSE(s.transitions()[1].level);
  EXPECT_TRUE(s.well_formed());
}

class NrzRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(NrzRoundTrip, ToBitsRecoversFromBits) {
  const Picoseconds ui{GetParam()};
  Rng rng(99);
  const auto bits = BitVector::random(500, rng);
  const auto s = EdgeStream::from_bits(bits, ui, Picoseconds{123.0});
  EXPECT_EQ(s.to_bits(500, ui, Picoseconds{123.0}), bits);
}

INSTANTIATE_TEST_SUITE_P(UnitIntervals, NrzRoundTrip,
                         ::testing::Values(1000.0, 400.0, 250.0, 200.0));

TEST(EdgeStream, JitterRoundTripStillRecovers) {
  // Jitter well below UI/2 must not corrupt center-sampled data.
  Rng rng(7);
  Rng jrng(8);
  const Picoseconds ui{400.0};
  const auto bits = BitVector::random(2000, rng);
  auto offset = [&](std::size_t, Picoseconds) {
    return Picoseconds{jrng.gaussian(0.0, 20.0)};
  };
  const auto s = EdgeStream::from_bits(bits, ui, Picoseconds{0.0}, offset);
  EXPECT_TRUE(s.well_formed());
  EXPECT_EQ(s.to_bits(2000, ui), bits);
}

TEST(EdgeStream, ExtremeJitterKeepsMonotonicity) {
  Rng jrng(9);
  const auto bits = BitVector::alternating(1000);
  auto offset = [&](std::size_t, Picoseconds) {
    return Picoseconds{jrng.gaussian(0.0, 300.0)};  // > UI/2: pulse collapse
  };
  const auto s = EdgeStream::from_bits(bits, Picoseconds{400.0},
                                       Picoseconds{0.0}, offset);
  EXPECT_TRUE(s.well_formed());
}

TEST(EdgeStream, Clock) {
  const auto clk = EdgeStream::clock(Picoseconds{800.0}, 3);
  ASSERT_EQ(clk.size(), 6u);
  EXPECT_TRUE(clk.transitions()[0].level);  // rising first
  EXPECT_DOUBLE_EQ(clk.transitions()[0].time.ps(), 0.0);
  EXPECT_DOUBLE_EQ(clk.transitions()[1].time.ps(), 400.0);
  EXPECT_DOUBLE_EQ(clk.transitions()[5].time.ps(), 2000.0);
}

TEST(EdgeStream, LevelAt) {
  const auto s = EdgeStream::from_bits(BitVector::from_string("0101"),
                                       Picoseconds{100.0});
  EXPECT_FALSE(s.level_at(Picoseconds{50.0}));
  EXPECT_TRUE(s.level_at(Picoseconds{150.0}));
  EXPECT_FALSE(s.level_at(Picoseconds{250.0}));
  EXPECT_TRUE(s.level_at(Picoseconds{1e9}));
  EXPECT_FALSE(s.level_at(Picoseconds{-10.0}));
}

TEST(EdgeStream, ShiftAndInvert) {
  const auto s = EdgeStream::from_bits(BitVector::from_string("01"),
                                       Picoseconds{100.0});
  const auto shifted = s.shifted(Picoseconds{37.0});
  EXPECT_DOUBLE_EQ(shifted.transitions()[0].time.ps(), 137.0);
  const auto inv = s.inverted();
  EXPECT_TRUE(inv.initial_level());
  EXPECT_FALSE(inv.transitions()[0].level);
}

TEST(EdgeStream, XorBehavesAsGate) {
  const Picoseconds ui{100.0};
  const auto a_bits = BitVector::from_string("00110101");
  const auto b_bits = BitVector::from_string("01010011");
  const auto a = EdgeStream::from_bits(a_bits, ui);
  const auto b = EdgeStream::from_bits(b_bits, ui);
  const auto x = a.xor_with(b);
  EXPECT_TRUE(x.well_formed());
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(x.level_at(Picoseconds{(static_cast<double>(k) + 0.5) * 100.0}),
              a_bits.get(k) != b_bits.get(k))
        << "bit " << k;
  }
}

TEST(EdgeStream, PushValidation) {
  EdgeStream s(false);
  s.push(Picoseconds{10.0}, true);
  EXPECT_THROW(s.push(Picoseconds{5.0}, false), Error);   // time reversal
  EXPECT_THROW(s.push(Picoseconds{20.0}, true), Error);   // no level change
  s.push(Picoseconds{20.0}, false);
  EXPECT_EQ(s.size(), 2u);
}

TEST(EdgeStream, Window) {
  const auto s = EdgeStream::from_bits(BitVector::alternating(10),
                                       Picoseconds{100.0});
  const auto w = s.window(Picoseconds{250.0}, Picoseconds{650.0});
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w.front().time.ps(), 300.0);
  EXPECT_DOUBLE_EQ(w.back().time.ps(), 600.0);
}

// --------------------------------------------------------------- jitter --

TEST(Jitter, RjSigmaIsRealized) {
  JitterSpec spec;
  spec.rj_sigma = Picoseconds{3.2};
  JitterSource src(spec, Rng(42));
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(src.offset(true, Picoseconds{0.0}).ps());
  }
  EXPECT_NEAR(stats.stddev(), 3.2, 0.1);
  EXPECT_NEAR(stats.mean(), 0.0, 0.1);
}

TEST(Jitter, DualDiracIsBimodalAndBounded) {
  JitterSpec spec;
  spec.dj_pp = Picoseconds{20.0};
  JitterSource src(spec, Rng(43));
  bool saw_plus = false;
  bool saw_minus = false;
  for (int i = 0; i < 1000; ++i) {
    const double dt = src.offset(true, Picoseconds{0.0}).ps();
    EXPECT_TRUE(std::abs(std::abs(dt) - 10.0) < 1e-12);
    saw_plus |= dt > 0;
    saw_minus |= dt < 0;
  }
  EXPECT_TRUE(saw_plus);
  EXPECT_TRUE(saw_minus);
}

TEST(Jitter, DcdSplitsByEdgeDirection) {
  JitterSpec spec;
  spec.dcd_pp = Picoseconds{8.0};
  JitterSource src(spec, Rng(44));
  EXPECT_DOUBLE_EQ(src.offset(true, Picoseconds{0.0}).ps(), 4.0);
  EXPECT_DOUBLE_EQ(src.offset(false, Picoseconds{0.0}).ps(), -4.0);
}

TEST(Jitter, PeriodicJitterFollowsSine) {
  JitterSpec spec;
  spec.pj_amplitude = Picoseconds{5.0};
  spec.pj_frequency = Gigahertz{0.001};  // period = 1e6 ps
  JitterSource src(spec, Rng(45));
  EXPECT_NEAR(src.offset(true, Picoseconds{0.0}).ps(), 0.0, 1e-9);
  EXPECT_NEAR(src.offset(true, Picoseconds{250000.0}).ps(), 5.0, 1e-6);
  EXPECT_NEAR(src.offset(true, Picoseconds{750000.0}).ps(), -5.0, 1e-6);
}

TEST(Jitter, ApplyPreservesWellFormedness) {
  JitterSpec spec;
  spec.rj_sigma = Picoseconds{50.0};
  JitterSource src(spec, Rng(46));
  const auto in = EdgeStream::from_bits(BitVector::alternating(500),
                                        Picoseconds{200.0});
  const auto out = src.apply(in);
  EXPECT_TRUE(out.well_formed());
  EXPECT_EQ(out.size(), in.size());
}

TEST(Jitter, ExpectedGaussianPpGrowsWithN) {
  const double pp_1k = expected_gaussian_pp(1000, 3.2);
  const double pp_10k = expected_gaussian_pp(10000, 3.2);
  EXPECT_GT(pp_10k, pp_1k);
  // Paper's Fig 9: 3.2 ps rms shows ~24 ps p-p on a 10^4-edge acquisition.
  EXPECT_NEAR(pp_10k, 24.0, 2.0);
  EXPECT_EQ(expected_gaussian_pp(0, 3.2), 0.0);
  EXPECT_EQ(expected_gaussian_pp(100, 0.0), 0.0);
}

TEST(Jitter, TotalJitterAddsDjToRj) {
  EXPECT_NEAR(expected_total_jitter_pp(10000, 3.2, 23.0), 47.0, 2.0);
}

// --------------------------------------------------------------- filter --

TEST(Filter, SinglePoleRiseTime) {
  EXPECT_NEAR(single_pole_rise_2080(Picoseconds{50.0}).ps(),
              50.0 * std::log(4.0), 1e-9);
  EXPECT_NEAR(tau_for_rise_2080(Picoseconds{70.0}).ps(), 70.0 / std::log(4.0),
              1e-9);
}

TEST(Filter, StepResponseMatchesAnalytic) {
  FilterChain chain;
  const double tau = 50.0;
  chain.add_pole(Picoseconds{tau});
  chain.reset(Millivolts{0.0});
  // Step to 1000 mV, advance in odd-sized steps; compare to 1 - e^{-t/tau}.
  double t = 0.0;
  for (double dt : {3.0, 7.0, 11.0, 29.0, 50.0, 100.0}) {
    chain.step(Millivolts{1000.0}, Picoseconds{dt});
    t += dt;
    const double expected = 1000.0 * (1.0 - std::exp(-t / tau));
    EXPECT_NEAR(chain.output().mv(), expected, 1e-6) << "t=" << t;
  }
}

TEST(Filter, StepExactnessIndependentOfStepSize) {
  // The exponential update is exact for constant input: fine and coarse
  // stepping must agree to machine precision.
  FilterChain fine;
  FilterChain coarse;
  fine.add_pole(Picoseconds{36.0});
  coarse.add_pole(Picoseconds{36.0});
  fine.reset(Millivolts{0.0});
  coarse.reset(Millivolts{0.0});
  for (int i = 0; i < 1000; ++i) {
    fine.step(Millivolts{500.0}, Picoseconds{0.1});
  }
  coarse.step(Millivolts{500.0}, Picoseconds{100.0});
  EXPECT_NEAR(fine.output().mv(), coarse.output().mv(), 1e-6);
}

TEST(Filter, GainActsAroundMidpoint) {
  FilterChain chain;
  chain.set_gain(0.5, Millivolts{2000.0});
  chain.reset(Millivolts{2400.0});
  EXPECT_NEAR(chain.output().mv(), 2200.0, 1e-9);  // 2000 + 0.5*400
  chain.step(Millivolts{1600.0}, Picoseconds{1.0});
  EXPECT_NEAR(chain.output().mv(), 1800.0, 1e-9);  // no poles: passthrough
}

TEST(Filter, RiseEstimateAndGroupDelay) {
  FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{60.0});
  chain.add_pole_rise_2080(Picoseconds{80.0});
  EXPECT_NEAR(chain.rise_2080_estimate().ps(), 100.0, 1e-9);  // 3-4-5
  EXPECT_NEAR(chain.group_delay().ps(),
              (60.0 + 80.0) / std::log(4.0), 1e-9);
  EXPECT_EQ(chain.pole_count(), 2u);
}

TEST(Filter, InvalidPoleThrows) {
  FilterChain chain;
  EXPECT_THROW(chain.add_pole(Picoseconds{0.0}), Error);
  EXPECT_THROW(chain.add_pole(Picoseconds{-5.0}), Error);
  EXPECT_THROW(chain.set_gain(0.0, Millivolts{0.0}), Error);
}

TEST(FilterChain, MemoizedStepMatchesDirectExp) {
  // Twelve distinct dt values, more than the memo's eight rows, visited in
  // runs of random length and random order: the round-robin replacement
  // evicts rows that come back later, and the most recently hit row goes
  // stale at every switch. Every output must still be the very double a
  // direct 1 - exp(-dt/tau) cascade produces.
  const std::vector<double> taus = {40.0, 25.0};
  const double gain = 0.9;
  const double midpoint = 2000.0;
  FilterChain chain;
  for (double tau : taus) {
    chain.add_pole(Picoseconds{tau});
  }
  chain.set_gain(gain, Millivolts{midpoint});
  chain.reset(Millivolts{1600.0});
  const double start = midpoint + gain * (1600.0 - midpoint);
  std::vector<double> state(taus.size(), start);

  const std::vector<double> dts = {0.5,  0.25, 0.125, 0.1,  0.3,   0.49,
                                   0.01, 1.0,  2.5,   0.37, 1e-9, 0.5 / 3.0};
  Rng rng(0xA1FAull);
  std::size_t steps = 0;
  for (int run = 0; run < 600; ++run) {
    const double dt = dts[rng.below(dts.size())];
    const double u = rng.chance(0.5) ? 2400.0 : 1600.0;
    const std::uint64_t len = 1 + rng.below(4);
    for (std::uint64_t k = 0; k < len; ++k, ++steps) {
      double x = midpoint + gain * (u - midpoint);
      for (std::size_t i = 0; i < taus.size(); ++i) {
        state[i] += (x - state[i]) * (1.0 - std::exp(-dt / taus[i]));
        x = state[i];
      }
      const double got = chain.step(Millivolts{u}, Picoseconds{dt}).mv();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(x))
          << "step " << steps << " dt=" << dt;
    }
  }
  EXPECT_GT(steps, 1000u);
}

// --------------------------------------------------------------- render --

TEST(Render, SquareWaveLevelsAndCrossings) {
  const auto s = EdgeStream::from_bits(BitVector::alternating(20, true),
                                       Picoseconds{400.0});
  FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{60.0});
  RenderConfig config;
  config.levels = PeclLevels{Millivolts{2400.0}, Millivolts{1600.0}};
  CrossingRecorder crossings(Millivolts{2000.0});
  AmplitudeTracker amplitude(Millivolts{2000.0});
  render(s, chain, config, Picoseconds{0.0}, Picoseconds{8000.0},
         {&crossings, &amplitude});

  // 19 interior transitions -> 19 threshold crossings.
  EXPECT_EQ(crossings.crossings().size(), 19u);
  EXPECT_NEAR(amplitude.settled_high().mv(), 2400.0, 5.0);
  EXPECT_NEAR(amplitude.settled_low().mv(), 1600.0, 5.0);
}

TEST(Render, CrossingTimeMatchesSinglePoleAnalytic) {
  // One rising step through a single pole: 50 % crossing at tau*ln(2).
  EdgeStream s(false);
  s.push(Picoseconds{1000.0}, true);
  FilterChain chain;
  const double tau = 40.0;
  chain.add_pole(Picoseconds{tau});
  RenderConfig config;
  config.levels = PeclLevels{Millivolts{1000.0}, Millivolts{0.0}};
  config.sample_step = Picoseconds{0.5};
  CrossingRecorder crossings(Millivolts{500.0});
  render(s, chain, config, Picoseconds{0.0}, Picoseconds{2000.0},
         {&crossings});
  ASSERT_EQ(crossings.crossings().size(), 1u);
  EXPECT_TRUE(crossings.crossings()[0].rising);
  EXPECT_NEAR(crossings.crossings()[0].time.ps(),
              1000.0 + tau * std::log(2.0), 0.05);
}

TEST(Render, TransitionsWithinOneSampleStepAreExact) {
  // An edge at a non-grid time must not be quantized to the grid.
  EdgeStream s(false);
  s.push(Picoseconds{1000.37}, true);
  FilterChain chain;
  chain.add_pole(Picoseconds{30.0});
  RenderConfig config;
  config.levels = PeclLevels{Millivolts{1000.0}, Millivolts{0.0}};
  config.sample_step = Picoseconds{2.0};  // coarse grid
  CrossingRecorder crossings(Millivolts{500.0});
  render(s, chain, config, Picoseconds{0.0}, Picoseconds{2000.0},
         {&crossings});
  ASSERT_EQ(crossings.crossings().size(), 1u);
  EXPECT_NEAR(crossings.crossings()[0].time.ps(),
              1000.37 + 30.0 * std::log(2.0), 0.1);
}

TEST(Render, EmptyWindowThrows) {
  EdgeStream s(false);
  FilterChain chain;
  RenderConfig config;
  EXPECT_THROW(render(s, chain, config, Picoseconds{10.0}, Picoseconds{10.0},
                      {}),
               Error);
}

// ---------------------------------------------------------------- sinks --

TEST(Sinks, WaveformTraceDecimates) {
  WaveformTrace trace(10);
  for (int i = 0; i < 100; ++i) {
    trace.on_sample(Picoseconds{static_cast<double>(i)}, Millivolts{0.0});
  }
  EXPECT_EQ(trace.size(), 10u);
}

TEST(Sinks, StrobeSamplerCapturesPattern) {
  const auto bits = BitVector::from_string("1011001110001011");
  const Picoseconds ui{200.0};
  const auto s = EdgeStream::from_bits(bits, ui);
  FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{40.0});

  std::vector<Picoseconds> strobes;
  for (std::size_t k = 1; k + 1 < bits.size(); ++k) {
    // Center of bit k plus the chain's group delay.
    strobes.push_back(Picoseconds{(static_cast<double>(k) + 0.5) * 200.0 +
                                  chain.group_delay().ps()});
  }
  StrobeSampler::Config config;
  config.threshold = Millivolts{2000.0};
  StrobeSampler sampler(strobes, config, Rng(4));

  RenderConfig render_config;
  render_config.levels = PeclLevels{Millivolts{2400.0}, Millivolts{1600.0}};
  render(s, chain, render_config, Picoseconds{0.0},
         Picoseconds{200.0 * 17.0}, {&sampler});

  EXPECT_EQ(sampler.missed(), 0u);
  for (std::size_t k = 1; k + 1 < bits.size(); ++k) {
    EXPECT_EQ(sampler.bits().get(k - 1), bits.get(k)) << "bit " << k;
  }
}

TEST(Sinks, StrobeSamplerRequiresSortedStrobes) {
  StrobeSampler::Config config;
  EXPECT_THROW(StrobeSampler({Picoseconds{10.0}, Picoseconds{5.0}}, config,
                             Rng(1)),
               Error);
}

TEST(Sinks, StrobeSamplerMissedStrobesAreCounted) {
  StrobeSampler::Config config;
  StrobeSampler sampler({Picoseconds{5000.0}}, config, Rng(1));
  sampler.on_sample(Picoseconds{0.0}, Millivolts{0.0});
  sampler.on_sample(Picoseconds{1.0}, Millivolts{0.0});
  sampler.finish();
  EXPECT_EQ(sampler.missed(), 1u);
}

TEST(Sinks, CrossingRecorderInterpolates) {
  CrossingRecorder recorder(Millivolts{500.0});
  recorder.on_sample(Picoseconds{0.0}, Millivolts{0.0});
  recorder.on_sample(Picoseconds{10.0}, Millivolts{1000.0});
  ASSERT_EQ(recorder.crossings().size(), 1u);
  EXPECT_NEAR(recorder.crossings()[0].time.ps(), 5.0, 1e-9);
  EXPECT_TRUE(recorder.crossings()[0].rising);
}

// --------------------------------------------------------------- levels --

TEST(Levels, DerivedQuantities) {
  const PeclLevels levels{Millivolts{2400.0}, Millivolts{1600.0}};
  EXPECT_DOUBLE_EQ(levels.swing().mv(), 800.0);
  EXPECT_DOUBLE_EQ(levels.midpoint().mv(), 2000.0);
  EXPECT_DOUBLE_EQ(levels.at_fraction(0.2).mv(), 1760.0);
}

TEST(Levels, Adjustments) {
  const PeclLevels levels{Millivolts{2400.0}, Millivolts{1600.0}};
  EXPECT_DOUBLE_EQ(levels.with_voh(Millivolts{2300.0}).voh.mv(), 2300.0);
  const auto swung = levels.with_swing(Millivolts{400.0});
  EXPECT_DOUBLE_EQ(swung.swing().mv(), 400.0);
  EXPECT_DOUBLE_EQ(swung.midpoint().mv(), 2000.0);
  const auto moved = levels.with_midpoint(Millivolts{1800.0});
  EXPECT_DOUBLE_EQ(moved.midpoint().mv(), 1800.0);
  EXPECT_DOUBLE_EQ(moved.swing().mv(), 800.0);
  EXPECT_THROW(static_cast<void>(levels.with_voh(Millivolts{1500.0})), Error);
  EXPECT_THROW(static_cast<void>(levels.with_swing(Millivolts{-10.0})),
               Error);
}

TEST(Levels, Attenuated) {
  const PeclLevels levels{Millivolts{2400.0}, Millivolts{1600.0}};
  const auto att = attenuated(levels, 0.5);
  EXPECT_DOUBLE_EQ(att.swing().mv(), 400.0);
  EXPECT_DOUBLE_EQ(att.midpoint().mv(), 2000.0);
}

// -------------------------------------------------------------- channel --

TEST(Channel, PresetsAreValid) {
  for (const auto& channel :
       {Channel::ideal(), Channel::sma_cable(), Channel::compliant_lead(),
        Channel::interposer_trace()}) {
    EXPECT_GT(channel.config().gain, 0.0);
    EXPECT_LE(channel.config().gain, 1.0);
    EXPECT_GE(channel.config().delay.ps(), 0.0);
  }
}

TEST(Channel, PropagateShiftsEdges) {
  const auto s = EdgeStream::from_bits(BitVector::from_string("01"),
                                       Picoseconds{100.0});
  const auto out = Channel::sma_cable().propagate(s);
  EXPECT_DOUBLE_EQ(out.transitions()[0].time.ps(),
                   100.0 + Channel::sma_cable().config().delay.ps());
}

TEST(Channel, ContributeAddsPolesAndGain) {
  FilterChain chain;
  Channel::compliant_lead().contribute(chain, Millivolts{2000.0});
  EXPECT_EQ(chain.pole_count(), 1u);
  EXPECT_LT(chain.gain(), 1.0);
}

TEST(Channel, InvalidGainThrows) {
  Channel::Config config;
  config.gain = 1.5;
  EXPECT_THROW(Channel{config}, Error);
  config.gain = 0.0;
  EXPECT_THROW(Channel{config}, Error);
}

}  // namespace
}  // namespace mgt::sig
