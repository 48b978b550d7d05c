// Property-based sweeps: cross-cutting invariants checked over parameter
// grids and random instances (TEST_P), complementing the per-module unit
// tests.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <tuple>

#include "analysis/eye.hpp"
#include "digital/dlc.hpp"
#include "digital/jtag.hpp"
#include "digital/pattern.hpp"
#include "digital/sequencer.hpp"
#include "digital/usb.hpp"
#include "minitester/dut.hpp"
#include "pecl/delayline.hpp"
#include "pecl/mux.hpp"
#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "vortex/fabric.hpp"

namespace mgt {
namespace {

// ---------------------------------------------------------------------------
// Property: NRZ data survives the full analog path (render + sample at
// centers) for any rate/rise/jitter combination where the eye is open.
// ---------------------------------------------------------------------------

class AnalogRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(AnalogRoundTrip, RenderAndSliceRecoverData) {
  const auto [rate_gbps, rise_ps, rj_sigma] = GetParam();
  const Picoseconds ui{1000.0 / rate_gbps};
  Rng data_rng(11);
  Rng jitter_rng(12);
  const auto bits = BitVector::random(600, data_rng);

  auto offset = [&](std::size_t, Picoseconds) {
    return Picoseconds{jitter_rng.gaussian(0.0, rj_sigma)};
  };
  const auto edges = sig::EdgeStream::from_bits(bits, ui, Picoseconds{0.0},
                                                offset);
  sig::FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{rise_ps});

  std::vector<Picoseconds> strobes;
  for (std::size_t k = 4; k + 4 < bits.size(); ++k) {
    strobes.push_back(Picoseconds{(static_cast<double>(k) + 0.5) * ui.ps() +
                                  chain.group_delay().ps()});
  }
  sig::StrobeSampler sampler(strobes, sig::StrobeSampler::Config{}, Rng(13));
  sig::RenderConfig config;
  config.levels = sig::PeclLevels{};
  sig::render(edges, chain, config, Picoseconds{0.0},
              Picoseconds{static_cast<double>(bits.size()) * ui.ps()},
              {&sampler});

  for (std::size_t k = 4; k + 4 < bits.size(); ++k) {
    ASSERT_EQ(sampler.bits().get(k - 4), bits.get(k))
        << "bit " << k << " at " << rate_gbps << " Gbps, rise " << rise_ps
        << ", rj " << rj_sigma;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AnalogRoundTrip,
    ::testing::Values(std::make_tuple(1.0, 120.0, 5.0),
                      std::make_tuple(2.5, 72.0, 5.0),
                      std::make_tuple(2.5, 120.0, 10.0),
                      std::make_tuple(4.0, 72.0, 8.0),
                      std::make_tuple(5.0, 60.0, 6.0),
                      std::make_tuple(5.0, 100.0, 3.0)));

// ---------------------------------------------------------------------------
// Property: eye opening identity. Inject pure dual-Dirac DJ of known
// peak-to-peak; the measured opening must equal 1 - DJ/UI within a small
// ISI allowance.
// ---------------------------------------------------------------------------

class EyeIdentity : public ::testing::TestWithParam<double> {};

TEST_P(EyeIdentity, OpeningEqualsOneMinusTjOverUi) {
  const double dj = GetParam();
  const Picoseconds ui{400.0};
  Rng data_rng(21);
  Rng jitter_rng(22);
  const auto bits = BitVector::random(6000, data_rng);
  auto offset = [&](std::size_t, Picoseconds) {
    return Picoseconds{jitter_rng.chance(0.5) ? dj / 2.0 : -dj / 2.0};
  };
  const auto edges = sig::EdgeStream::from_bits(bits, ui, Picoseconds{0.0},
                                                offset);
  sig::FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{40.0});  // fast: tiny ISI

  ana::EyeDiagram::Config config;
  config.ui = ui;
  config.v_lo = Millivolts{1400.0};
  config.v_hi = Millivolts{2600.0};
  config.threshold = Millivolts{2000.0};
  ana::EyeDiagram eye(config);
  sig::RenderConfig render_config;
  render_config.levels = sig::PeclLevels{};
  sig::render(edges, chain, render_config, Picoseconds{800.0},
              Picoseconds{5999.0 * 400.0}, {&eye});
  const auto metrics = eye.metrics();
  EXPECT_NEAR(metrics.eye_opening.ui(), 1.0 - dj / 400.0, 0.02) << "DJ " << dj;
}

INSTANTIATE_TEST_SUITE_P(DjSweep, EyeIdentity,
                         ::testing::Values(20.0, 40.0, 60.0, 80.0, 120.0));

// ---------------------------------------------------------------------------
// Property: serializer round trips for every tree shape.
// ---------------------------------------------------------------------------

class SerializerShapes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializerShapes, DistributeSerializeConsistency) {
  Rng rng(GetParam());
  // Random tree: 1-3 stages, fan-ins from {2,4,8}.
  pecl::SerializerTree::Config config;
  const std::size_t n_stages = 1 + rng.below(3);
  static const std::size_t kFanins[] = {2, 4, 8};
  for (std::size_t s = 0; s < n_stages; ++s) {
    config.stages.push_back(
        pecl::MuxStage{.fan_in = kFanins[rng.below(3)],
                       .skew_pp = Picoseconds{rng.uniform(0.0, 20.0)},
                       .rj_sigma = Picoseconds{rng.uniform(0.0, 2.0)},
                       .prop_delay = Picoseconds{rng.uniform(100.0, 300.0)}});
  }
  pecl::SerializerTree tree(config, rng.fork());
  const std::size_t lanes = tree.total_lanes();

  const auto serial = BitVector::random(lanes * 64, rng);
  // distribute -> interleave is the identity.
  EXPECT_EQ(BitVector::interleave(tree.distribute(serial)), serial);
  // serialize -> center-sample recovers the data (jitter << UI).
  const auto edges = tree.serialize(serial, GbitsPerSec{2.5});
  EXPECT_TRUE(edges.well_formed());
  EXPECT_EQ(edges.to_bits(serial.size(), Picoseconds{400.0},
                          tree.total_prop_delay()),
            serial);
  // skew profile repeats with period = lane count.
  for (std::size_t k = 0; k < lanes; ++k) {
    EXPECT_DOUBLE_EQ(tree.skew_for_bit(k).ps(),
                     tree.skew_for_bit(k + lanes).ps());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerShapes,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Property: USB transactions are never silently wrong. Under any single-
// bit corruption pattern, a register write/read pair either yields the
// correct value or throws — corrupted traffic must not commit bad state.
// ---------------------------------------------------------------------------

class UsbFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UsbFuzz, CorruptionNeverYieldsWrongData) {
  dig::Dlc dlc;
  dig::UsbDevice device(5, dlc.usb_handler());
  dig::UsbHost host(device);
  Rng rng(GetParam());
  host.set_corruptor([&](dig::Wire& wire) {
    // Flip a random bit in ~40 % of packets.
    if (!wire.empty() && rng.chance(0.4)) {
      wire[rng.below(wire.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
  });
  host.set_max_retries(16);

  for (std::uint32_t i = 0; i < 200; ++i) {
    const std::uint32_t value = static_cast<std::uint32_t>(rng.next());
    try {
      host.write_register(dig::reg::kScratch, value);
    } catch (const Error&) {
      continue;  // link gave up: acceptable, state may hold the old value
    }
    try {
      const std::uint32_t read = host.read_register(dig::reg::kScratch);
      EXPECT_EQ(read, value) << "silent corruption at iteration " << i;
    } catch (const Error&) {
      // Read retries exhausted: acceptable.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UsbFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------------------------------------------------------------------------
// Property: the TAP state machine always resets, and random scans never
// corrupt IDCODE readout.
// ---------------------------------------------------------------------------

class JtagWalk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JtagWalk, RandomWalkThenResetAlwaysRecovers) {
  dig::FlashMemory flash(4, 256);
  dig::TapDevice tap(0x2005DA7E, &flash);
  Rng rng(GetParam());
  // Random TMS/TDI walk.
  for (int i = 0; i < 500; ++i) {
    tap.clock(rng.chance(0.5), rng.chance(0.5));
  }
  // Five TMS=1 clocks reset from wherever we ended up.
  for (int i = 0; i < 5; ++i) {
    tap.clock(true, false);
  }
  EXPECT_EQ(tap.state(), dig::TapState::TestLogicReset);
  dig::JtagHost host(tap);
  EXPECT_EQ(host.read_idcode(), 0x2005DA7Eu);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JtagWalk,
                         ::testing::Values(7, 77, 777, 7777));

// ---------------------------------------------------------------------------
// Property: fabric conservation across geometries.
// ---------------------------------------------------------------------------

class FabricGeometries
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(FabricGeometries, ConservationAndCorrectDelivery) {
  const auto [heights, angles] = GetParam();
  vortex::DataVortex fabric(vortex::Geometry::for_heights(heights, angles));
  Rng rng(heights * 31 + angles);
  std::size_t injected = 0;
  std::set<std::uint64_t> ids;
  std::uint64_t next_id = 1;
  std::vector<vortex::Delivery> deliveries;
  for (int slot = 0; slot < 200; ++slot) {
    for (std::size_t port = 0; port < heights; ++port) {
      if (rng.chance(0.5)) {
        vortex::Packet p;
        p.id = next_id++;
        p.destination = static_cast<std::uint32_t>(rng.below(heights));
        if (fabric.inject(std::move(p), port)) {
          ++injected;
        }
      }
    }
    auto out = fabric.step();
    deliveries.insert(deliveries.end(), out.begin(), out.end());
  }
  ASSERT_TRUE(fabric.drain(deliveries, 100000));
  EXPECT_EQ(deliveries.size(), injected);
  for (const auto& d : deliveries) {
    EXPECT_TRUE(ids.insert(d.packet.id).second);
    EXPECT_EQ(d.output_port, d.packet.destination);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FabricGeometries,
    ::testing::Values(std::make_tuple(4, 2), std::make_tuple(4, 5),
                      std::make_tuple(8, 3), std::make_tuple(16, 4),
                      std::make_tuple(32, 4), std::make_tuple(16, 8)));

// ---------------------------------------------------------------------------
// Property: MISR signatures separate distinct streams.
// ---------------------------------------------------------------------------

TEST(MisrProperty, RandomPairsRarelyCollide) {
  Rng rng(9);
  std::size_t collisions = 0;
  for (int i = 0; i < 500; ++i) {
    const auto a = BitVector::random(256, rng);
    auto b = a;
    b.set(rng.below(256), !b.get(rng.below(256)));
    if (a != b && minitester::misr_signature(a) ==
                      minitester::misr_signature(b)) {
      ++collisions;
    }
  }
  // A 16-bit MISR has 2^-16 aliasing probability; 500 trials should see 0.
  EXPECT_EQ(collisions, 0u);
}

TEST(MisrProperty, AllSingleBitErrorsDetected) {
  // Single-bit errors never alias in a MISR (linearity: the signature
  // difference is the error bit's own response, which is nonzero).
  Rng rng(10);
  const auto base = BitVector::random(400, rng);
  const auto golden = minitester::misr_signature(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    auto mutated = base;
    mutated.set(i, !mutated.get(i));
    ASSERT_NE(minitester::misr_signature(mutated), golden) << "bit " << i;
  }
}

// ---------------------------------------------------------------------------
// Property: delay-line parts meet spec across manufacturing instances.
// ---------------------------------------------------------------------------

class DelayLineLot : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DelayLineLot, EveryPartWithinAccuracySpec) {
  pecl::ProgrammableDelay part(pecl::ProgrammableDelay::Config{},
                               Rng(GetParam()));
  EXPECT_LE(part.worst_case_error().ps(), 25.0);
  // Delay strictly increases over spans of 4 codes (local monotonicity
  // within mismatch noise).
  for (std::size_t c = 0; c + 4 < part.code_count(); c += 4) {
    EXPECT_LT(part.actual_delay(c).ps(), part.actual_delay(c + 4).ps());
  }
}

INSTANTIATE_TEST_SUITE_P(Lot, DelayLineLot,
                         ::testing::Range<std::uint64_t>(100, 116));

// ---------------------------------------------------------------------------
// Property: sequencer loops == pattern-memory looping.
// ---------------------------------------------------------------------------

class SequencerVsMemory : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SequencerVsMemory, LoopedBankMatchesLoopedMemory) {
  Rng rng(GetParam());
  const std::size_t cell = 8 + rng.below(24);
  const std::size_t reps = 2 + rng.below(6);
  const auto pattern = BitVector::random(cell, rng);

  std::map<std::uint32_t, BitVector> banks;
  banks[0] = pattern;
  dig::TestSequencer sequencer(
      {dig::seq::emit_pattern(0, static_cast<std::uint32_t>(reps)),
       dig::seq::halt()},
      banks);

  dig::PatternMemory memory;
  memory.load(pattern);
  EXPECT_EQ(sequencer.run(), memory.read(cell * reps));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequencerVsMemory,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Property: RunningStats merge is order-insensitive.
// ---------------------------------------------------------------------------

class StatsMerge : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsMerge, AnySplitMatchesSinglePass) {
  Rng rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(rng.gaussian(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 4.0)));
  }
  RunningStats whole;
  for (double x : xs) {
    whole.add(x);
  }
  const std::size_t cut = 1 + rng.below(xs.size() - 2);
  RunningStats a;
  RunningStats b;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < cut ? a : b).add(xs[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), whole.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsMerge,
                         ::testing::Range<std::uint64_t>(40, 52));

// ---------------------------------------------------------------------------
// Property: for ANY randomly drawn engine configuration, the chunked /
// parallel render pipeline is byte-identical to the serial reference.
// Failures shrink greedily to a minimal failing configuration, printed on
// one line so it can be pasted straight into a regression test.
// ---------------------------------------------------------------------------

/// One randomly drawn engine configuration (everything the pipelines vary).
struct EngineConfig {
  std::uint64_t seed = 0;
  std::size_t n_bits = 32;
  double ui_ps = 400.0;
  std::vector<double> taus_ps;
  double gain = 1.0;
  double jitter_ps = 0.0;
  std::size_t chunk_samples = 4096;
  std::size_t settle_samples = 2048;
  std::size_t threads = 0;
};

std::string describe(const EngineConfig& c) {
  std::string s = "seed=" + std::to_string(c.seed) +
                  " n_bits=" + std::to_string(c.n_bits) +
                  " ui_ps=" + std::to_string(c.ui_ps) + " taus=[";
  for (std::size_t i = 0; i < c.taus_ps.size(); ++i) {
    s += (i ? "," : "") + std::to_string(c.taus_ps[i]);
  }
  s += "] gain=" + std::to_string(c.gain) +
       " jitter_ps=" + std::to_string(c.jitter_ps) +
       " chunk=" + std::to_string(c.chunk_samples) +
       " settle=" + std::to_string(c.settle_samples) +
       " threads=" + std::to_string(c.threads);
  return s;
}

EngineConfig draw_config(Rng& rng) {
  EngineConfig c;
  c.seed = rng.next();
  c.n_bits = 8 + rng.below(56);
  c.ui_ps = rng.uniform(100.0, 500.0);
  const std::size_t poles = rng.below(4);  // 0..3
  for (std::size_t i = 0; i < poles; ++i) {
    c.taus_ps.push_back(rng.uniform(5.0, 60.0));
  }
  c.gain = rng.uniform(0.7, 1.0);
  c.jitter_ps = rng.uniform(0.0, 6.0);
  c.chunk_samples = 512 + rng.below(8192);
  c.settle_samples = rng.below(4096);  // 0 allowed: regression territory
  const std::size_t thread_choices[] = {0, 1, 2, 5};
  c.threads = thread_choices[rng.below(4)];
  return c;
}

std::vector<std::uint64_t> eye_bits_fingerprint(const ana::EyeDiagram& eye) {
  std::vector<std::uint64_t> fp;
  fp.push_back(eye.total_samples());
  for (std::size_t tb = 0; tb < eye.config().time_bins; ++tb) {
    for (std::size_t vb = 0; vb < eye.config().volt_bins; ++vb) {
      fp.push_back(eye.count_at(tb, vb));
    }
  }
  for (const sig::Crossing& cr : eye.crossings()) {
    fp.push_back(std::bit_cast<std::uint64_t>(cr.time.ps()));
    fp.push_back(cr.rising ? 1u : 0u);
  }
  fp.push_back(std::bit_cast<std::uint64_t>(eye.eye_height().mv()));
  return fp;
}

ana::EyeDiagram property_eye(const EngineConfig& c,
                             const sig::RenderChunking& chunking) {
  Rng rng(c.seed);
  const auto bits = BitVector::random(c.n_bits, rng);
  // Pure per-index jitter so both pipelines build identical streams.
  const double amp = c.jitter_ps;
  const std::uint64_t jseed = c.seed ^ 0xD6E8FEB86659FD93ULL;
  auto offset = [amp, jseed](std::size_t idx, Picoseconds) {
    std::uint64_t z = jseed + 0x9E3779B97F4A7C15ULL * (idx + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return Picoseconds{(2.0 * static_cast<double>(z >> 11) * 0x1.0p-53 - 1.0) *
                       amp};
  };
  const auto stream = sig::EdgeStream::from_bits(bits, Picoseconds{c.ui_ps},
                                                 Picoseconds{0}, offset);
  sig::FilterChain chain;
  for (double tau : c.taus_ps) {
    chain.add_pole(Picoseconds{tau});
  }
  chain.set_gain(c.gain, sig::PeclLevels{}.midpoint());
  ana::EyeDiagram::Config eye_cfg;
  eye_cfg.ui = Picoseconds{c.ui_ps};
  eye_cfg.time_bins = 32;
  eye_cfg.volt_bins = 16;
  return ana::accumulate_eye(
      stream, chain, sig::RenderConfig{}, Picoseconds{0},
      Picoseconds{static_cast<double>(c.n_bits) * c.ui_ps}, eye_cfg, chunking);
}

/// Property 1: for a FIXED chunk decomposition, the pipeline run at the
/// drawn worker count is byte-identical to the serial reference. Holds at
/// ANY settle depth, including the drawn settle_samples == 0.
bool pipeline_equivalence_holds(const EngineConfig& c) {
  const sig::RenderChunking chunking{c.chunk_samples, c.settle_samples};
  std::vector<std::uint64_t> reference;
  {
    util::ScopedThreads serial(0);
    reference = eye_bits_fingerprint(property_eye(c, chunking));
  }
  util::ScopedThreads threads(c.threads);
  return eye_bits_fingerprint(property_eye(c, chunking)) == reference;
}

/// Property 2: at the DEFAULT settle depth (hundreds of time constants for
/// every drawn tau) the chunk decomposition itself is byte-identical to a
/// single-pass render. Shallower settles are documented approximations and
/// are covered by property 1 only.
bool decomposition_equivalence_holds(const EngineConfig& c) {
  util::ScopedThreads serial(0);
  const auto whole = eye_bits_fingerprint(
      property_eye(c, sig::RenderChunking{1u << 26, 32768}));
  const auto chunked = eye_bits_fingerprint(
      property_eye(c, sig::RenderChunking{c.chunk_samples, 32768}));
  return whole == chunked;
}

/// Greedy shrink: repeatedly applies the simplest still-failing reduction
/// until no candidate both simplifies the config and keeps it failing
/// against `holds`.
EngineConfig shrink_config(
    EngineConfig failing,
    const std::function<bool(const EngineConfig&)>& holds) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    std::vector<EngineConfig> candidates;
    if (failing.n_bits > 4) {
      EngineConfig c = failing;
      c.n_bits = std::max<std::size_t>(4, c.n_bits / 2);
      candidates.push_back(c);
    }
    if (!failing.taus_ps.empty()) {
      EngineConfig c = failing;
      c.taus_ps.pop_back();
      candidates.push_back(c);
    }
    if (failing.jitter_ps != 0.0) {
      EngineConfig c = failing;
      c.jitter_ps = 0.0;
      candidates.push_back(c);
    }
    if (failing.gain != 1.0) {
      EngineConfig c = failing;
      c.gain = 1.0;
      candidates.push_back(c);
    }
    if (failing.threads != 0) {
      EngineConfig c = failing;
      c.threads = 0;
      candidates.push_back(c);
    }
    if (failing.settle_samples != 32768) {
      EngineConfig c = failing;
      c.settle_samples = 32768;  // the default depth
      candidates.push_back(c);
    }
    if (failing.chunk_samples < (1u << 26)) {
      EngineConfig c = failing;
      c.chunk_samples = 1u << 26;  // single chunk
      candidates.push_back(c);
    }
    if (failing.ui_ps != 400.0) {
      EngineConfig c = failing;
      c.ui_ps = 400.0;
      candidates.push_back(c);
    }
    for (const EngineConfig& c : candidates) {
      if (!holds(c)) {
        failing = c;
        progressed = true;
        break;
      }
    }
  }
  return failing;
}

/// Checks one property over one config; on violation shrinks and fails
/// with the minimal reproducer on one line.
void expect_property(const std::function<bool(const EngineConfig&)>& holds,
                     const EngineConfig& config, const char* name) {
  if (holds(config)) {
    return;
  }
  const EngineConfig minimal = shrink_config(config, holds);
  FAIL() << name << " violated; minimal failing config: " << describe(minimal)
         << "  (original: " << describe(config) << ")";
}

class PipelineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineEquivalence, RandomConfigsRoundTripByteIdentically) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 1);
  for (int i = 0; i < 4; ++i) {
    const EngineConfig config = draw_config(rng);
    expect_property(pipeline_equivalence_holds, config,
                    "serial/threads pipeline equivalence");
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST_P(PipelineEquivalence, RandomConfigsDecomposeByteIdentically) {
  Rng rng(GetParam() * 0xD6E8FEB86659FD93ULL + 3);
  for (int i = 0; i < 2; ++i) {
    const EngineConfig config = draw_config(rng);
    expect_property(decomposition_equivalence_holds, config,
                    "chunk decomposition equivalence");
    if (HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineEquivalence,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace mgt
