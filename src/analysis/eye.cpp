#include "analysis/eye.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "telemetry/hub.hpp"
#include "util/error.hpp"

namespace mgt::ana {

namespace {

CrossoverJitter jitter_from_phases(const std::vector<double>& phases,
                                   double ui) {
  CrossoverJitter out;
  if (phases.empty()) {
    return out;
  }
  // Recenter all phases to within +-UI/2 of the first one, then of the
  // mean, to avoid wrap-around splitting the crossover cluster. Valid while
  // TJ << UI, which holds for every eye the paper shows.
  auto recenter = [&](double center) {
    RunningStats stats;
    for (double p : phases) {
      double d = positive_mod(p - center + ui / 2.0, ui) - ui / 2.0;
      stats.add(center + d);
    }
    return stats;
  };
  RunningStats pass1 = recenter(phases.front());
  RunningStats pass2 = recenter(pass1.mean());
  out.count = pass2.count();
  out.peak_to_peak = Picoseconds{pass2.peak_to_peak()};
  out.rms = Picoseconds{pass2.stddev()};
  out.mean_phase = Picoseconds{positive_mod(pass2.mean(), ui)};
  return out;
}

}  // namespace

CrossoverJitter measure_crossover_jitter(
    const std::vector<sig::Crossing>& crossings, Picoseconds ui,
    Picoseconds t_ref) {
  MGT_CHECK(ui.ps() > 0.0);
  std::vector<double> phases;
  phases.reserve(crossings.size());
  for (const auto& c : crossings) {
    phases.push_back(positive_mod(c.time.ps() - t_ref.ps(), ui.ps()));
  }
  return jitter_from_phases(phases, ui.ps());
}

CrossoverJitter measure_edge_jitter(const std::vector<sig::Crossing>& crossings,
                                    Picoseconds ui, bool rising,
                                    Picoseconds t_ref) {
  std::vector<sig::Crossing> filtered;
  filtered.reserve(crossings.size());
  for (const auto& c : crossings) {
    if (c.rising == rising) {
      filtered.push_back(c);
    }
  }
  return measure_crossover_jitter(filtered, ui, t_ref);
}

EyeDiagram::EyeDiagram(Config config)
    : config_(config),
      grid_(config.time_bins * config.volt_bins, 0),
      crossings_(config.threshold) {
  MGT_CHECK(config_.ui.ps() > 0.0);
  MGT_CHECK(config_.time_bins > 0 && config_.volt_bins > 0);
  MGT_CHECK(config_.v_hi > config_.v_lo);
  MGT_CHECK(config_.center_window > 0.0 && config_.center_window < 0.5);
}

void EyeDiagram::on_block(const sig::SampleBlock& block) {
  crossings_.on_block(block);
  total_ += block.size;

  const double ui = config_.ui.ps();
  const double span = 2.0 * ui;
  // Loop-invariant voltage span, hoisted out of the sample loop.
  const double v_lo = config_.v_lo.mv();
  const double v_span = config_.v_hi.mv() - v_lo;

  for (std::size_t i = 0; i < block.size; ++i) {
    const double x = block.t[i] - config_.t_ref.ps();
    const double v = block.v[i];
    const double phase2 = positive_mod(x, span);
    const double vfrac = (v - v_lo) / v_span;
    if (vfrac >= 0.0 && vfrac < 1.0) {
      const auto tb = static_cast<std::size_t>(
          phase2 / span * static_cast<double>(config_.time_bins));
      const auto vb = static_cast<std::size_t>(
          vfrac * static_cast<double>(config_.volt_bins));
      ++grid_[std::min(tb, config_.time_bins - 1) * config_.volt_bins +
              std::min(vb, config_.volt_bins - 1)];
    }
    // For x >= 0, phase2 is the exact remainder mod 2 UI, so the remainder
    // mod 1 UI is phase2 or phase2 - ui, and that subtraction is exact by
    // Sterbenz's lemma (ui <= phase2 < 2 ui). Negative offsets keep the
    // second fold: there positive_mod's `r += m` rounds (DESIGN.md §4).
    const double phase1 = x >= 0.0 ? (phase2 >= ui ? phase2 - ui : phase2)
                                   : positive_mod(x, ui);
    if (std::abs(phase1 - ui / 2.0) <= config_.center_window * ui) {
      if (v >= config_.threshold.mv()) {
        center_min_high_ = std::min(center_min_high_, v);
        center_high_.add(v);
      } else {
        center_max_low_ = std::max(center_max_low_, v);
        center_low_.add(v);
      }
    }
  }
}

void EyeDiagram::on_context(Picoseconds t, Millivolts v) {
  crossings_.on_context(t, v);
}

void EyeDiagram::merge(const EyeDiagram& later) {
  MGT_CHECK(config_.time_bins == later.config_.time_bins &&
                config_.volt_bins == later.config_.volt_bins,
            "cannot merge eyes with different grids");
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    grid_[i] += later.grid_[i];
  }
  total_ += later.total_;
  crossings_.merge(later.crossings_);
  center_min_high_ = std::min(center_min_high_, later.center_min_high_);
  center_max_low_ = std::max(center_max_low_, later.center_max_low_);
  center_high_.merge(later.center_high_);
  center_low_.merge(later.center_low_);
}

std::size_t EyeDiagram::count_at(std::size_t time_bin,
                                 std::size_t volt_bin) const {
  MGT_CHECK(time_bin < config_.time_bins && volt_bin < config_.volt_bins);
  return grid_[time_bin * config_.volt_bins + volt_bin];
}

Millivolts EyeDiagram::eye_height() const {
  if (center_high_.count() == 0 || center_low_.count() == 0) {
    return Millivolts{0.0};
  }
  return Millivolts{center_min_high_ - center_max_low_};
}

Millivolts EyeDiagram::level_high() const {
  return Millivolts{center_high_.mean()};
}

Millivolts EyeDiagram::level_low() const {
  return Millivolts{center_low_.mean()};
}

EyeMetrics EyeDiagram::metrics() const {
  EyeMetrics m;
  m.jitter = measure_crossover_jitter(crossings(), config_.ui, config_.t_ref);
  m.eye_width = config_.ui - m.jitter.peak_to_peak;
  m.eye_opening = UnitIntervals{m.eye_width.ps() / config_.ui.ps()};
  m.eye_height = eye_height();
  m.level_high = level_high();
  m.level_low = level_low();
  return m;
}

std::string EyeDiagram::ascii_art(std::size_t cols, std::size_t rows) const {
  static const char kShades[] = " .:-=+*#%@";
  std::string art;
  art.reserve((cols + 1) * rows);
  std::size_t peak = 1;
  for (std::size_t c : grid_) {
    peak = std::max(peak, c);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    // Row 0 is the top (highest voltage).
    const std::size_t vb_hi =
        config_.volt_bins - r * config_.volt_bins / rows - 1;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t tb = c * config_.time_bins / cols;
      // Aggregate the grid cells mapping to this character cell.
      std::size_t sum = 0;
      const std::size_t vb_lo =
          config_.volt_bins - (r + 1) * config_.volt_bins / rows;
      for (std::size_t vb = vb_lo; vb <= vb_hi; ++vb) {
        sum += grid_[tb * config_.volt_bins + vb];
      }
      const double norm =
          std::log1p(static_cast<double>(sum)) / std::log1p(static_cast<double>(peak));
      const auto shade = static_cast<std::size_t>(
          norm * (sizeof(kShades) - 2));
      art.push_back(kShades[std::min<std::size_t>(shade, sizeof(kShades) - 2)]);
    }
    art.push_back('\n');
  }
  return art;
}

EyeDiagram accumulate_eye(const sig::EdgeStream& stream,
                          const sig::FilterChain& chain,
                          const sig::RenderConfig& render_config,
                          Picoseconds t_begin, Picoseconds t_end,
                          const EyeDiagram::Config& eye_config,
                          const sig::RenderChunking& chunking) {
  const std::size_t n_chunks =
      sig::render_chunk_count(render_config, t_begin, t_end, chunking);
  EyeDiagram out = sig::accumulate<EyeDiagram>(
      stream, chain, render_config, t_begin, t_end,
      [&] { return EyeDiagram(eye_config); }, chunking);
  // Recorded after the ordered merge, on the caller: totals are properties
  // of the merged eye, so they are identical at every worker count.
  obs::add_counter("eye.accumulations");
  obs::add_counter("eye.chunks", n_chunks);
  obs::add_counter("eye.samples", out.total_samples());
  obs::add_counter("eye.crossings", out.crossings().size());
  obs::observe("eye.chunk_crossings", 0.0, 4096.0, 64,
               static_cast<double>(out.crossings().size()) /
                   static_cast<double>(n_chunks));
  telemetry::Hub& hub = telemetry::Hub::instance();
  if (hub.enabled()) {
    // Post-merge tail: these are properties of the merged eye, identical
    // at every worker count, so the telemetry stream is too. The obs
    // counters above are process-cumulative totals; this snapshot holds
    // this one accumulation's values, so it repeats none of them.
    telemetry::MetricSnapshot snap;
    snap.entries.push_back(
        telemetry::MetricEntry::counter("eye.samples", out.total_samples()));
    snap.entries.push_back(telemetry::MetricEntry::counter(
        "eye.crossings", out.crossings().size()));
    // The unit survives in the metric name: the wire codec is unit-erased
    // by design.
    snap.entries.push_back(telemetry::MetricEntry::gauge(
        "eye.height_mv", out.eye_height().mv()));
    hub.publish_metrics(out.total_samples(), std::move(snap));
  }
  return out;
}

}  // namespace mgt::ana
