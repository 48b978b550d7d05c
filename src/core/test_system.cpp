#include "core/test_system.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "digital/bitstream.hpp"
#include "digital/jtag.hpp"
#include "digital/pattern.hpp"
#include "obs/obs.hpp"
#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "telemetry/hub.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mgt::core {

namespace {

constexpr std::uint8_t kUsbAddress = 5;

/// Rails as seen at the measurement point after channel attenuation.
sig::PeclLevels effective_levels(const sig::PeclLevels& levels, double gain) {
  return sig::attenuated(levels, gain);
}

/// Render window + grid settings of one scope-style acquisition.
struct AcqWindow {
  Picoseconds begin{0.0};
  Picoseconds end{0.0};
  sig::RenderConfig render;
};

AcqWindow acquisition_window(const core::Stimulus& stimulus,
                             std::size_t n_bits, const EyeOptions& options) {
  AcqWindow w;
  w.begin = Picoseconds{stimulus.t0.ps() +
                        static_cast<double>(options.warmup_bits) *
                            stimulus.ui.ps()};
  w.end = Picoseconds{stimulus.t0.ps() +
                      static_cast<double>(n_bits) * stimulus.ui.ps()};
  w.render = sig::RenderConfig{.levels = stimulus.levels,
                               .sample_step = options.sample_step};
  return w;
}

}  // namespace

std::vector<Picoseconds> Stimulus::boundary_grid(std::size_t n) const {
  std::vector<Picoseconds> grid;
  grid.reserve(n + 1);
  for (std::size_t k = 0; k <= n; ++k) {
    grid.push_back(Picoseconds{t0.ps() + static_cast<double>(k) * ui.ps()});
  }
  return grid;
}

TestSystem::TestSystem(ChannelConfig config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      flash_(),
      dlc_(config.dlc_spec),
      usb_device_(kUsbAddress, dlc_.usb_handler()),
      usb_host_(usb_device_),
      clock_(config.clock, rng_.fork()),
      serializer_(config.serializer, rng_.fork()),
      buffer_(config.buffer, rng_.fork()),
      hookup_(config.hookup) {
  // Boot exactly the way the hardware does: the personalization image is
  // programmed into FLASH through the IEEE 1149.1 port, then the FPGA
  // loads it at power-up.
  dig::Bitstream bitstream;
  bitstream.design_name = config_.design_name;
  bitstream.payload.assign(1024, 0xA5);
  const auto image = bitstream.serialize();

  dig::TapDevice tap(0x2005DA7Eu, &flash_);
  dig::JtagHost jtag(tap);
  jtag.program_flash_image(0, image, flash_.sector_size());
  dlc_.boot_from_flash(flash_, 0, image.size());

  // Tell the DLC how wide the serializer is (the personalization fixes
  // this in real hardware).
  usb_host_.write_register(dig::reg::kLaneCount,
                           static_cast<std::uint32_t>(serializer_.total_lanes()));
  const auto lane_rate = dlc_.check_lane_rate(config_.rate);
  usb_host_.write_register(dig::reg::kLaneRateMbps,
                           static_cast<std::uint32_t>(lane_rate.mbps()));

  serializer_.set_faults(config_.faults.component("serializer"));
  clock_.set_faults(config_.faults.component("clock"));
}

void TestSystem::program_prbs(unsigned order, std::uint64_t seed) {
  usb_host_.write_register(dig::reg::kPrbsOrder, order);
  usb_host_.write_register(dig::reg::kSeedLo,
                           static_cast<std::uint32_t>(seed & 0xFFFFFFFF));
  usb_host_.write_register(dig::reg::kSeedHi,
                           static_cast<std::uint32_t>(seed >> 32));
  usb_host_.write_register(dig::reg::kCtrl, 0);  // PRBS mode
}

void TestSystem::program_pattern(const BitVector& pattern) {
  MGT_CHECK(!pattern.empty());
  usb_host_.write_register(dig::reg::kPatternAddr, 0);
  for (std::size_t w = 0; w * 32 < pattern.size(); ++w) {
    std::uint32_t word = 0;
    for (std::size_t b = 0; b < 32 && w * 32 + b < pattern.size(); ++b) {
      word |= static_cast<std::uint32_t>(pattern.get(w * 32 + b)) << b;
    }
    usb_host_.write_register(dig::reg::kPatternData, word);
  }
  usb_host_.write_register(dig::reg::kPatternLen,
                           static_cast<std::uint32_t>(pattern.size()));
  usb_host_.write_register(dig::reg::kCtrl, dig::reg::kCtrlModePattern);
}

void TestSystem::start() {
  const std::uint32_t mode =
      usb_host_.read_register(dig::reg::kCtrl) & dig::reg::kCtrlModePattern;
  usb_host_.write_register(dig::reg::kCtrl, mode | dig::reg::kCtrlStart);
}

void TestSystem::stop() {
  const std::uint32_t mode =
      usb_host_.read_register(dig::reg::kCtrl) & dig::reg::kCtrlModePattern;
  usb_host_.write_register(dig::reg::kCtrl, mode | dig::reg::kCtrlStop);
}

Stimulus TestSystem::generate(std::size_t n_bits) {
  MGT_CHECK(dlc_.status() == dig::reg::kStatusRunning,
            "start() the system before generating stimulus");
  const std::size_t lanes = serializer_.total_lanes();
  MGT_CHECK(n_bits % lanes == 0,
            "bit count must be a multiple of the serializer width");

  // The DLC emits the parallel lane streams (rate-checked), the serializer
  // re-interleaves them with its timing signature.
  const auto lane_streams = dlc_.generate_lanes(n_bits, config_.rate);
  const BitVector bits = BitVector::interleave(lane_streams);

  Stimulus out;
  out.bits = bits;
  out.ui = config_.rate.unit_interval();
  out.edges = hookup_.propagate(
      buffer_.apply(serializer_.serialize(bits, config_.rate)));
  out.levels = buffer_.levels();

  buffer_.contribute(out.chain);
  hookup_.contribute(out.chain, out.levels.midpoint());

  // The bit-boundary grid at the measurement plane includes the analog
  // cascade's group delay (edges rendered through the chain lag by it).
  out.t0 = serializer_.total_prop_delay() + buffer_.config().prop_delay +
           Picoseconds{hookup_.config().delay.ps()} + out.chain.group_delay();
  return out;
}

fault::HealthReport TestSystem::self_test() {
  fault::HealthReport report;

  // USB + register file: scratch write/read-back, restored afterwards.
  {
    constexpr std::uint32_t kProbe = 0xA5C3F00Du;
    const std::uint32_t saved = usb_host_.read_register(dig::reg::kScratch);
    usb_host_.write_register(dig::reg::kScratch, kProbe);
    const std::uint32_t readback = usb_host_.read_register(dig::reg::kScratch);
    usb_host_.write_register(dig::reg::kScratch, saved);
    report.add("usb",
               readback == kProbe ? fault::HealthStatus::kOk
                                  : fault::HealthStatus::kFailed,
               readback == kProbe ? "" : "scratch read-back mismatch");
  }

  // DLC: identification register plus a capture-memory loopback over the
  // same USB path pattern uploads take.
  {
    const std::uint32_t id = usb_host_.read_register(dig::reg::kId);
    if (id != dig::reg::kIdValue) {
      report.add("dlc", fault::HealthStatus::kFailed, "bad ID register");
    } else {
      const BitVector pattern = BitVector::alternating(64, true);
      dlc_.store_capture(pattern);
      const BitVector back = dig::read_capture(usb_host_);
      const bool ok = back.size() == pattern.size() &&
                      back.hamming_distance(pattern) == 0;
      report.add("dlc",
                 ok ? fault::HealthStatus::kOk : fault::HealthStatus::kFailed,
                 ok ? "" : "capture-memory loopback mismatch");
    }
  }

  // RF clock: a short burst must produce one transition per half-period,
  // strictly ordered. Glitched edges survive as ordering violations once
  // displacement exceeds the half-period.
  {
    constexpr std::size_t kCycles = 16;
    const auto clk = clock_.generate(kCycles);
    if (!clk.well_formed() || clk.size() != 2 * kCycles) {
      report.add("clock", fault::HealthStatus::kFailed,
                 "malformed clock burst");
    } else {
      // Every half-period must stay within half a UI of nominal.
      const double half = clock_.period().ps() / 2.0;
      std::size_t displaced = 0;
      for (std::size_t k = 0; k < clk.size(); ++k) {
        const double nominal = static_cast<double>(k) * half;
        if (std::abs(clk.transitions()[k].time.ps() - nominal) > 0.25 * half) {
          ++displaced;
        }
      }
      report.add("clock",
                 displaced == 0 ? fault::HealthStatus::kOk
                                : fault::HealthStatus::kDegraded,
                 displaced == 0
                     ? ""
                     : std::to_string(displaced) + " displaced edges");
    }
  }

  // Serializer: loop an alternating sequence through the tree and recover
  // it by center-sampling; skew and RJ are small against the UI, so any
  // mismatch is a stuck or dropped lane.
  {
    const std::size_t lanes = serializer_.total_lanes();
    const std::size_t n_bits = 8 * lanes;
    const BitVector bits = BitVector::alternating(n_bits, false);
    const auto edges = serializer_.serialize(bits, config_.rate);
    const BitVector recovered = edges.to_bits(
        n_bits, config_.rate.unit_interval(), serializer_.total_prop_delay());
    const std::size_t mismatches = recovered.hamming_distance(bits);
    fault::HealthStatus status = fault::HealthStatus::kOk;
    if (mismatches > n_bits / 8) {
      status = fault::HealthStatus::kFailed;
    } else if (mismatches > 0) {
      status = fault::HealthStatus::kDegraded;
    }
    report.add("serializer", status,
               mismatches == 0 ? ""
                               : std::to_string(mismatches) + "/" +
                                     std::to_string(n_bits) +
                                     " loopback mismatches");
  }

  // Output buffer: the programmed rails must leave a positive swing.
  {
    const auto& levels = buffer_.levels();
    const bool ok = levels.voh.mv() > levels.vol.mv();
    report.add("buffer",
               ok ? fault::HealthStatus::kOk : fault::HealthStatus::kFailed,
               ok ? "" : "non-positive output swing");
  }

  // Hookup: a single edge must come through delayed and intact.
  {
    sig::EdgeStream probe(false);
    probe.push(Picoseconds{100.0}, true);
    const auto through = hookup_.propagate(probe);
    const bool ok = through.well_formed() && through.size() == 1;
    report.add("hookup",
               ok ? fault::HealthStatus::kOk : fault::HealthStatus::kFailed,
               ok ? "" : "edge lost in hookup");
  }

  // Observability: surface rejected environment knobs (each keeps its
  // default; a rejected MGT_THREADS runs serial) and fold a census of the
  // metrics registry into the report. MGT_THREADS and MGT_TELEMETRY are
  // otherwise read lazily (first parallel section, first render), so force
  // both reads first: a malformed value shows even before anything renders.
  {
    static_cast<void>(util::thread_count());
    static_cast<void>(telemetry::Hub::instance().enabled());
    obs::refresh_bridged();
    if (util::env_rejections() > 0) {
      report.add("obs", fault::HealthStatus::kDegraded,
                 "malformed environment knobs rejected, defaults kept: " +
                     util::env_rejected_names());
    } else if (!obs::enabled()) {
      report.add("obs", fault::HealthStatus::kOk, "metrics disabled");
    } else {
      report.add("obs", fault::HealthStatus::kOk,
                 obs::registry().summary());
    }
  }

  return report;
}

void TestSystem::render_stimulus(const Stimulus& stimulus, std::size_t n_bits,
                                 const EyeOptions& options,
                                 const std::vector<sig::WaveformSink*>& sinks) {
  const AcqWindow window = acquisition_window(stimulus, n_bits, options);
  sig::render(stimulus.edges, stimulus.chain, window.render, window.begin,
              window.end, sinks);
}

ana::EyeDiagram TestSystem::acquire_eye(std::size_t n_bits,
                                        EyeOptions options) {
  const obs::ProfileScope profile("core.acquire_eye");
  Stimulus stimulus = generate(n_bits);
  const sig::PeclLevels rails =
      effective_levels(stimulus.levels, stimulus.chain.gain());
  const double margin = 0.25 * rails.swing().mv();
  ana::EyeDiagram::Config config{
      .ui = stimulus.ui,
      .t_ref = stimulus.t0,
      .v_lo = Millivolts{rails.vol.mv() - margin},
      .v_hi = Millivolts{rails.voh.mv() + margin},
      .threshold = rails.midpoint(),
      .time_bins = options.time_bins,
      .volt_bins = options.volt_bins,
  };
  const AcqWindow window = acquisition_window(stimulus, n_bits, options);
  return ana::accumulate_eye(stimulus.edges, stimulus.chain, window.render,
                             window.begin, window.end, config);
}

ana::EyeMetrics TestSystem::measure_eye(std::size_t n_bits,
                                        EyeOptions options) {
  return acquire_eye(n_bits, options).metrics();
}

TestSystem::RiseFall TestSystem::measure_risefall(std::size_t n_bits,
                                                  EyeOptions options) {
  Stimulus stimulus = generate(n_bits);
  const sig::PeclLevels rails =
      effective_levels(stimulus.levels, stimulus.chain.gain());
  ana::RiseFallMeter meter(rails.vol, rails.voh);
  render_stimulus(stimulus, n_bits, options, {&meter});
  RiseFall out;
  out.rise_mean = meter.mean_rise();
  out.rise_min = Picoseconds{meter.rise().min()};
  out.rise_max = Picoseconds{meter.rise().max()};
  out.fall_mean = meter.mean_fall();
  out.fall_min = Picoseconds{meter.fall().min()};
  out.fall_max = Picoseconds{meter.fall().max()};
  out.rise_count = meter.rise().count();
  out.fall_count = meter.fall().count();
  return out;
}

ana::CrossoverJitter TestSystem::measure_single_edge_jitter(
    std::size_t n_edges, bool rising) {
  // One isolated edge per pattern period, always sourced from the same mux
  // input on every stage, so skew and data history repeat exactly: the
  // spread that remains is the chain's random jitter (Fig 9).
  const std::size_t lanes = serializer_.total_lanes();
  program_pattern(dig::patterns::square(2 * lanes, lanes));
  start();
  const std::size_t n_bits = n_edges * 2 * lanes;
  Stimulus stimulus = generate(n_bits);

  const sig::PeclLevels rails =
      effective_levels(stimulus.levels, stimulus.chain.gain());
  const AcqWindow window = acquisition_window(stimulus, n_bits, EyeOptions{});
  const auto recorder = sig::accumulate<sig::CrossingRecorder>(
      stimulus.edges, stimulus.chain, window.render, window.begin,
      window.end, [&] { return sig::CrossingRecorder(rails.midpoint()); });

  const Picoseconds pattern_period{2.0 * static_cast<double>(lanes) *
                                   stimulus.ui.ps()};
  return ana::measure_edge_jitter(recorder.crossings(), pattern_period,
                                  rising, stimulus.t0);
}

TestSystem::Amplitude TestSystem::measure_amplitude(std::size_t n_bits,
                                                    EyeOptions options) {
  Stimulus stimulus = generate(n_bits);
  const sig::PeclLevels rails =
      effective_levels(stimulus.levels, stimulus.chain.gain());
  const AcqWindow window = acquisition_window(stimulus, n_bits, options);
  const auto tracker = sig::accumulate<sig::AmplitudeTracker>(
      stimulus.edges, stimulus.chain, window.render, window.begin,
      window.end, [&] { return sig::AmplitudeTracker(rails.midpoint()); });
  Amplitude out;
  out.settled_high = tracker.settled_high();
  out.settled_low = tracker.settled_low();
  out.peak_to_peak = tracker.peak_to_peak();
  return out;
}

}  // namespace mgt::core
