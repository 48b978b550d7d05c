// Render-path equivalence gate (ctest label: render).
//
// The renderer delivers samples in SoA blocks and splits long windows into
// chunks rendered in parallel. Both are only allowed because no result
// depends on where the block or chunk boundaries fall. This suite is that
// gate:
//
//   - sink level: every sink ends in the same state for ANY partitioning
//     of the sample sequence into blocks, one-sample blocks included;
//   - pipeline level: a single-chunk accumulation matches render();
//   - parallel level: a mixed eye + shmoo workload is bitwise identical at
//     MGT_THREADS 0, 1 and 8;
//   - plus the chunk-boundary regression: a zero settle depth must not
//     silently drop the context sample (and with it every crossing pair
//     that straddles a chunk boundary).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/eye.hpp"
#include "analysis/risefall.hpp"
#include "minitester/shmoo.hpp"
#include "obs/obs.hpp"
#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace mgt;

std::uint64_t dbits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Deterministic per-edge jitter that needs no shared RNG state: hash the
// bit index, map to a small offset. Pure function of the index, so streams
// built from it are identical however they are constructed.
sig::EdgeOffsetFn hash_jitter(std::uint64_t seed, double amplitude_ps) {
  return [seed, amplitude_ps](std::size_t bit_index, Picoseconds) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (bit_index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    return Picoseconds{(2.0 * u - 1.0) * amplitude_ps};
  };
}

sig::EdgeStream test_stream(std::uint64_t seed, std::size_t n_bits,
                            Picoseconds ui) {
  Rng rng(seed);
  BitVector bits = BitVector::random(n_bits, rng);
  return sig::EdgeStream::from_bits(bits, ui, Picoseconds{0},
                                    hash_jitter(seed, 3.0));
}

sig::FilterChain test_chain() {
  sig::FilterChain chain;
  chain.add_pole(Picoseconds{40.0})
      .add_pole(Picoseconds{25.0})
      .set_gain(0.9, Millivolts{2000.0});
  return chain;
}

ana::EyeDiagram::Config eye_config(Picoseconds ui) {
  ana::EyeDiagram::Config cfg;
  cfg.ui = ui;
  cfg.time_bins = 64;
  cfg.volt_bins = 32;
  return cfg;
}

// Everything observable about an accumulated eye, bit-exact.
std::vector<std::uint64_t> fingerprint(const ana::EyeDiagram& eye) {
  std::vector<std::uint64_t> fp;
  fp.push_back(eye.total_samples());
  const auto& cfg = eye.config();
  for (std::size_t tb = 0; tb < cfg.time_bins; ++tb) {
    for (std::size_t vb = 0; vb < cfg.volt_bins; ++vb) {
      fp.push_back(eye.count_at(tb, vb));
    }
  }
  for (const sig::Crossing& c : eye.crossings()) {
    fp.push_back(dbits(c.time.ps()));
    fp.push_back(c.rising ? 1 : 0);
  }
  const ana::EyeMetrics m = eye.metrics();
  fp.push_back(m.jitter.count);
  fp.push_back(dbits(m.jitter.peak_to_peak.ps()));
  fp.push_back(dbits(m.jitter.rms.ps()));
  fp.push_back(dbits(m.jitter.mean_phase.ps()));
  fp.push_back(dbits(m.eye_opening.ui()));
  fp.push_back(dbits(m.eye_width.ps()));
  fp.push_back(dbits(m.eye_height.mv()));
  fp.push_back(dbits(m.level_high.mv()));
  fp.push_back(dbits(m.level_low.mv()));
  return fp;
}

std::uint64_t counter_value(const char* name) {
  return obs::registry().counter(name).value();
}

// ------------------------------------------------ block delivery gate ----

// Feeds the same sample sequence to `per_sample` one sample at a time
// (WaveformSink::on_sample, i.e. one-sample blocks) and to `blocked` in
// blocks whose sizes cycle through `parts`. Afterwards the two sinks must
// be in identical states (checked by the caller).
void feed_both(sig::WaveformSink& per_sample, sig::WaveformSink& blocked,
               const std::vector<double>& ts, const std::vector<double>& vs,
               const std::vector<std::size_t>& parts) {
  for (std::size_t i = 0; i < ts.size(); ++i) {
    per_sample.on_sample(Picoseconds{ts[i]}, Millivolts{vs[i]});
  }
  sig::SampleBlock block;
  std::size_t pi = 0;
  std::size_t i = 0;
  while (i < ts.size()) {
    const std::size_t want =
        std::min(std::min(parts[pi % parts.size()], sig::SampleBlock::kCapacity),
                 ts.size() - i);
    ++pi;
    block.clear();
    for (std::size_t k = 0; k < want; ++k, ++i) {
      block.push(ts[i], vs[i]);
    }
    blocked.on_block(block);
  }
  per_sample.finish();
  blocked.finish();
}

struct Synth {
  std::vector<double> ts, vs;
};

Synth synth_waveform(std::size_t n) {
  Synth s;
  s.ts.reserve(n);
  s.vs.reserve(n);
  Rng rng(0x5EEDull);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = 0.5 * static_cast<double>(i);
    // Band-limited-ish squarish wave with noise: plenty of threshold
    // straddles, flat stretches for the slope gate, excursions for min/max.
    const double phase = std::fmod(t, 800.0) / 800.0;
    const double base = phase < 0.5 ? 2400.0 : 1600.0;
    s.ts.push_back(t);
    s.vs.push_back(base + rng.uniform(-30.0, 30.0));
  }
  return s;
}

// Trapezoid wave with 60 ps edges and +-3.5 mV noise: every transition
// spans many samples (and so block boundaries), and the noise, just above
// the 6.7 mV per-sample edge step, adds rare mid-edge reversals for the
// rise/fall gate.
Synth synth_edges(std::size_t n) {
  Synth s;
  s.ts.reserve(n);
  s.vs.reserve(n);
  Rng rng(0xED6E5ull);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = 0.5 * static_cast<double>(i);
    const double phase = std::fmod(t, 800.0);
    double base = 1600.0;
    if (phase < 60.0) {
      base = 1600.0 + 800.0 * phase / 60.0;
    } else if (phase < 400.0) {
      base = 2400.0;
    } else if (phase < 460.0) {
      base = 2400.0 - 800.0 * (phase - 400.0) / 60.0;
    }
    s.ts.push_back(t);
    s.vs.push_back(base + rng.uniform(-3.5, 3.5));
  }
  return s;
}

std::vector<std::uint64_t> stats_bits(const RunningStats& st) {
  return {st.count(), dbits(st.mean()), dbits(st.stddev()), dbits(st.min()),
          dbits(st.max())};
}

const std::vector<std::size_t> kPartitions[] = {
    {1}, {7}, {512}, {3, 64, 1, 500, 2},
};

TEST(BlockDelivery, CrossingRecorderPartitionInvariant) {
  const Synth s = synth_waveform(4000);
  for (const auto& parts : kPartitions) {
    sig::CrossingRecorder a{Millivolts{2000.0}};
    sig::CrossingRecorder b{Millivolts{2000.0}};
    feed_both(a, b, s.ts, s.vs, parts);
    ASSERT_EQ(a.crossings().size(), b.crossings().size());
    for (std::size_t i = 0; i < a.crossings().size(); ++i) {
      EXPECT_EQ(dbits(a.crossings()[i].time.ps()),
                dbits(b.crossings()[i].time.ps()));
      EXPECT_EQ(a.crossings()[i].rising, b.crossings()[i].rising);
    }
  }
}

TEST(BlockDelivery, AmplitudeTrackerPartitionInvariant) {
  const Synth s = synth_waveform(4000);
  for (const auto& parts : kPartitions) {
    sig::AmplitudeTracker a{Millivolts{2000.0}};
    sig::AmplitudeTracker b{Millivolts{2000.0}};
    feed_both(a, b, s.ts, s.vs, parts);
    EXPECT_EQ(dbits(a.v_max().mv()), dbits(b.v_max().mv()));
    EXPECT_EQ(dbits(a.v_min().mv()), dbits(b.v_min().mv()));
    EXPECT_EQ(dbits(a.settled_high().mv()), dbits(b.settled_high().mv()));
    EXPECT_EQ(dbits(a.settled_low().mv()), dbits(b.settled_low().mv()));
  }
}

TEST(BlockDelivery, StrobeSamplerPartitionInvariant) {
  const Synth s = synth_waveform(4000);
  std::vector<Picoseconds> strobes;
  for (double t = 100.0; t < 1900.0; t += 400.0) {
    strobes.push_back(Picoseconds{t});
  }
  sig::StrobeSampler::Config cfg;
  for (const auto& parts : kPartitions) {
    sig::StrobeSampler a{strobes, cfg, Rng(7)};
    sig::StrobeSampler b{strobes, cfg, Rng(7)};
    feed_both(a, b, s.ts, s.vs, parts);
    ASSERT_EQ(a.bits().size(), b.bits().size());
    for (std::size_t i = 0; i < a.bits().size(); ++i) {
      EXPECT_EQ(a.bits()[i], b.bits()[i]);
      EXPECT_EQ(dbits(a.analog()[i].mv()), dbits(b.analog()[i].mv()));
    }
    EXPECT_EQ(a.missed(), b.missed());
  }
}

TEST(BlockDelivery, EyeDiagramPartitionInvariant) {
  const Synth s = synth_waveform(8000);
  for (const auto& parts : kPartitions) {
    ana::EyeDiagram a{eye_config(Picoseconds{400.0})};
    ana::EyeDiagram b{eye_config(Picoseconds{400.0})};
    feed_both(a, b, s.ts, s.vs, parts);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
  }
}

TEST(BlockDelivery, RiseFallMeterPartitionInvariant) {
  const Synth s = synth_edges(16000);
  for (const auto& parts : kPartitions) {
    ana::RiseFallMeter a{Millivolts{1600.0}, Millivolts{2400.0}};
    ana::RiseFallMeter b{Millivolts{1600.0}, Millivolts{2400.0}};
    feed_both(a, b, s.ts, s.vs, parts);
    ASSERT_GT(a.rise().count(), 0u);
    ASSERT_GT(a.fall().count(), 0u);
    EXPECT_EQ(stats_bits(a.rise()), stats_bits(b.rise()));
    EXPECT_EQ(stats_bits(a.fall()), stats_bits(b.fall()));
  }
}

TEST(BlockDelivery, WaveformTracePartitionInvariant) {
  const Synth s = synth_waveform(4000);
  for (const auto& parts : kPartitions) {
    // Decimation 3 puts the kept samples at every offset within a block.
    sig::WaveformTrace a{3};
    sig::WaveformTrace b{3};
    feed_both(a, b, s.ts, s.vs, parts);
    ASSERT_EQ(a.size(), (s.ts.size() + 2) / 3);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(dbits(a.times_ps()[i]), dbits(b.times_ps()[i]));
      EXPECT_EQ(dbits(a.volts_mv()[i]), dbits(b.volts_mv()[i]));
    }
  }
}

// The eye fold as it was before positive_mod's fma fast path: two fmod-based
// folds per sample, mod 2 UI for the histogram column and mod 1 UI for the
// centre window. EyeDiagram must reach the same bits.
double fmod_fold(double x, double m) {
  double r = std::fmod(x, m);
  if (r < 0.0) {
    r += m;
  }
  return r;
}

class TwoFmodEyeReference final : public sig::WaveformSink {
public:
  explicit TwoFmodEyeReference(const ana::EyeDiagram::Config& cfg)
      : cfg_(cfg), grid_(cfg.time_bins * cfg.volt_bins, 0),
        crossings_(cfg.threshold) {}

  void on_block(const sig::SampleBlock& block) override {
    crossings_.on_block(block);
    const double ui = cfg_.ui.ps();
    const double span = 2.0 * ui;
    const double v_lo = cfg_.v_lo.mv();
    const double v_span = cfg_.v_hi.mv() - v_lo;
    for (std::size_t i = 0; i < block.size; ++i) {
      const double t = block.t[i];
      const double v = block.v[i];
      const double phase2 = fmod_fold(t - cfg_.t_ref.ps(), span);
      const double vfrac = (v - v_lo) / v_span;
      if (vfrac >= 0.0 && vfrac < 1.0) {
        const auto tb = static_cast<std::size_t>(
            phase2 / span * static_cast<double>(cfg_.time_bins));
        const auto vb =
            static_cast<std::size_t>(vfrac * static_cast<double>(cfg_.volt_bins));
        ++grid_[std::min(tb, cfg_.time_bins - 1) * cfg_.volt_bins +
                std::min(vb, cfg_.volt_bins - 1)];
      }
      const double phase1 = fmod_fold(t - cfg_.t_ref.ps(), ui);
      if (std::abs(phase1 - ui / 2.0) <= cfg_.center_window * ui) {
        if (t < cfg_.t_ref.ps()) {
          ++negative_center_;
        }
        if (v >= cfg_.threshold.mv()) {
          min_high_ = std::min(min_high_, v);
          high_.add(v);
        } else {
          max_low_ = std::max(max_low_, v);
          low_.add(v);
        }
      }
    }
  }
  void on_context(Picoseconds t, Millivolts v) override {
    crossings_.on_context(t, v);
  }

  std::size_t count_at(std::size_t tb, std::size_t vb) const {
    return grid_[tb * cfg_.volt_bins + vb];
  }
  double eye_height() const {
    return high_.count() == 0 || low_.count() == 0 ? 0.0 : min_high_ - max_low_;
  }
  double level_high() const { return high_.mean(); }
  double level_low() const { return low_.mean(); }
  const std::vector<sig::Crossing>& crossings() const {
    return crossings_.crossings();
  }
  std::size_t negative_center() const { return negative_center_; }

private:
  ana::EyeDiagram::Config cfg_;
  std::vector<std::size_t> grid_;
  sig::CrossingRecorder crossings_;
  double min_high_ = 1e300;
  double max_low_ = -1e300;
  RunningStats high_;
  RunningStats low_;
  std::size_t negative_center_ = 0;
};

TEST(BlockDelivery, EyeFoldMatchesTwoFmodReference) {
  // 3 Gbps: the UI (333.33 ps) and 2 UI are not whole numbers of the
  // 0.5 ps grid, so folded phases land everywhere in the UI.
  const Picoseconds ui = GbitsPerSec{3.0}.unit_interval();
  const std::size_t n_bits = 160;
  const sig::EdgeStream stream = test_stream(11, n_bits, ui);
  const sig::FilterChain chain = test_chain();
  const sig::RenderConfig rc;
  const Picoseconds t_end{static_cast<double>(n_bits) * ui.ps()};
  // t_ref = 0 folds non-negative offsets only; a t_ref 7.3 UI into the
  // window also folds the negative offsets before it.
  for (const double t_ref_ui : {0.0, 7.3}) {
    for (const double window : {0.1, 0.45}) {
      ana::EyeDiagram::Config cfg = eye_config(ui);
      cfg.t_ref = Picoseconds{t_ref_ui * ui.ps()};
      cfg.center_window = window;
      ana::EyeDiagram eye{cfg};
      TwoFmodEyeReference ref{cfg};
      std::vector<sig::WaveformSink*> sinks{&eye, &ref};
      sig::render(stream, chain, rc, Picoseconds{0}, t_end, sinks);

      SCOPED_TRACE(testing::Message()
                   << "t_ref " << t_ref_ui << " UI, window " << window);
      EXPECT_EQ(ref.negative_center() > 0, t_ref_ui > 0.0);
      for (std::size_t tb = 0; tb < cfg.time_bins; ++tb) {
        for (std::size_t vb = 0; vb < cfg.volt_bins; ++vb) {
          ASSERT_EQ(eye.count_at(tb, vb), ref.count_at(tb, vb))
              << "cell " << tb << "," << vb;
        }
      }
      EXPECT_GT(eye.level_high().mv(), eye.level_low().mv());
      EXPECT_EQ(dbits(eye.eye_height().mv()), dbits(ref.eye_height()));
      EXPECT_EQ(dbits(eye.level_high().mv()), dbits(ref.level_high()));
      EXPECT_EQ(dbits(eye.level_low().mv()), dbits(ref.level_low()));
      ASSERT_EQ(eye.crossings().size(), ref.crossings().size());
      ASSERT_GT(eye.crossings().size(), 40u);
      for (std::size_t i = 0; i < eye.crossings().size(); ++i) {
        EXPECT_EQ(dbits(eye.crossings()[i].time.ps()),
                  dbits(ref.crossings()[i].time.ps()));
        EXPECT_EQ(eye.crossings()[i].rising, ref.crossings()[i].rising);
      }
    }
  }
}

// ---------------------------------------------------- pipeline gate ----

// One chunked eye accumulation over a jittered pseudorandom pattern: small
// chunks so several boundaries (and their settle windows) are exercised.
ana::EyeDiagram run_eye_workload(std::uint64_t seed) {
  const Picoseconds ui{400.0};
  const std::size_t n_bits = 96;
  const sig::EdgeStream stream = test_stream(seed, n_bits, ui);
  const sig::FilterChain chain = test_chain();
  const sig::RenderConfig rc;
  const sig::RenderChunking chunking{4096, 2048};
  return ana::accumulate_eye(stream, chain, rc, Picoseconds{0},
                             Picoseconds{static_cast<double>(n_bits) * ui.ps()},
                             eye_config(ui), chunking);
}

TEST(PipelineEquiv, BlockedEngineMatchesPlainRenderSinglePass) {
  // render() (single pass, never chunked) against the chunked accumulate
  // path over a single-chunk window: the documented identity.
  const Picoseconds ui{400.0};
  const std::size_t n_bits = 24;
  const sig::EdgeStream stream = test_stream(3, n_bits, ui);
  const sig::FilterChain chain = test_chain();
  const sig::RenderConfig rc;
  const Picoseconds t_end{static_cast<double>(n_bits) * ui.ps()};

  ana::EyeDiagram direct{eye_config(ui)};
  std::vector<sig::WaveformSink*> sinks{&direct};
  sig::render(stream, chain, rc, Picoseconds{0}, t_end, sinks);

  const sig::RenderChunking one_chunk{1u << 26, 2048};
  const ana::EyeDiagram chunked = ana::accumulate_eye(
      stream, chain, rc, Picoseconds{0}, t_end, eye_config(ui), one_chunk);
  EXPECT_EQ(fingerprint(direct), fingerprint(chunked));
}

// ----------------------------------------------------- parallel gate ----

// Mixed workload: a chunked eye pass and a small shmoo whose cells each run
// a nested eye accumulation. Returns every result double bit-cast, plus the
// render chunk/sample counter deltas: all must be identical at every worker
// count.
std::vector<std::uint64_t> mixed_workload() {
  std::vector<std::uint64_t> out;

  const std::uint64_t chunks0 = counter_value("render.chunks");
  const std::uint64_t samples0 = counter_value("render.chunk_samples");
  const auto fp = fingerprint(run_eye_workload(1234));
  out.insert(out.end(), fp.begin(), fp.end());

  const minitester::Shmoo shmoo = minitester::run_shmoo(
      "tau_ps", {20.0, 30.0, 40.0}, "jitter_ps", {0.0, 2.0, 5.0},
      [](double tau_ps, double jitter_ps) {
        const Picoseconds ui{400.0};
        const std::size_t n_bits = 32;
        Rng rng(77);
        const BitVector bits = BitVector::random(n_bits, rng);
        const sig::EdgeStream stream = sig::EdgeStream::from_bits(
            bits, ui, Picoseconds{0},
            hash_jitter(static_cast<std::uint64_t>(jitter_ps * 1000.0) + 5,
                        jitter_ps));
        sig::FilterChain chain;
        chain.add_pole(Picoseconds{tau_ps});
        const ana::EyeDiagram eye = ana::accumulate_eye(
            stream, chain, sig::RenderConfig{}, Picoseconds{0},
            Picoseconds{static_cast<double>(n_bits) * ui.ps()},
            eye_config(ui), sig::RenderChunking{4096, 2048});
        return 1.0 - eye.metrics().eye_opening.ui();
      });
  for (const auto& row : shmoo.ber) {
    for (double x : row) {
      out.push_back(dbits(x));
    }
  }
  out.push_back(counter_value("render.chunks") - chunks0);
  out.push_back(counter_value("render.chunk_samples") - samples0);
  return out;
}

TEST(ParallelEquiv, MixedEyeShmooWorkloadByteIdenticalAcrossThreadCounts) {
  std::vector<std::uint64_t> serial, one, eight;
  {
    util::ScopedThreads t(0);  // serial fallback
    serial = mixed_workload();
  }
  {
    util::ScopedThreads t(1);
    one = mixed_workload();
  }
  {
    util::ScopedThreads t(8);
    eight = mixed_workload();
  }
  EXPECT_EQ(serial, one);
  EXPECT_EQ(serial, eight);
}

// ------------------------------------------- chunk-boundary regression ----

// An earlier equivalence harness exposed this latent chunked-path bug: with
// settle_samples == 0 a chunk past the first starts with k_start == k_emit,
// so the `k + 1 == k_emit` context branch in run_window is unreachable and
// on_context() is never called. Pairwise sinks then silently drop every
// adjacent-sample pair that straddles a chunk boundary — for a pole-free
// chain (which genuinely needs no settling) that loses real crossings. The
// fix keeps at least one settle sample for chunks past the first, restoring
// the render.hpp promise that pairwise sinks see every adjacent pair
// exactly once.
TEST(ChunkedRenderRegression, ZeroSettleMustNotDropBoundaryCrossings) {
  // Ideal square wave through a pole-free chain: transitions at t = 0, 50,
  // 100, ... ps. At the 0.5 ps grid every transition lands exactly on
  // sample index 100*m — which chunk_samples = 100 places at a chunk
  // boundary, so every crossing straddles a boundary pair.
  const sig::EdgeStream stream =
      sig::EdgeStream::clock(Picoseconds{100.0}, 24);
  sig::FilterChain chain;  // no poles: passthrough, exact at any settle
  const sig::RenderConfig rc;
  const Picoseconds t_end{2400.0};
  const Millivolts th = rc.levels.midpoint();

  sig::CrossingRecorder whole{th};
  std::vector<sig::WaveformSink*> whole_sinks{&whole};
  sig::render(stream, chain, rc, Picoseconds{0}, t_end, whole_sinks);
  ASSERT_GT(whole.crossings().size(), 10u);

  const sig::RenderChunking chunking{100, 0};
  const std::size_t n_chunks =
      sig::render_chunk_count(rc, Picoseconds{0}, t_end, chunking);
  ASSERT_GT(n_chunks, 10u);
  sig::CrossingRecorder merged{th};
  for (std::size_t c = 0; c < n_chunks; ++c) {
    sig::CrossingRecorder part{th};
    std::vector<sig::WaveformSink*> sinks{&part};
    sig::render_chunk(stream, chain, rc, Picoseconds{0}, t_end, chunking, c,
                      sinks);
    merged.merge(part);
  }

  ASSERT_EQ(merged.crossings().size(), whole.crossings().size());
  for (std::size_t i = 0; i < merged.crossings().size(); ++i) {
    EXPECT_EQ(dbits(merged.crossings()[i].time.ps()),
              dbits(whole.crossings()[i].time.ps()));
    EXPECT_EQ(merged.crossings()[i].rising, whole.crossings()[i].rising);
  }
}

}  // namespace
