// Eye-diagram construction and crossover jitter measurement.
//
// These functions implement the measurements the paper reports from its
// sampling oscilloscope: peak-to-peak and rms jitter of the threshold
// crossings at the eye crossover point, and the usable eye opening in unit
// intervals (UI), defined as 1 - TJpp/UI exactly as in Figs 7, 8, 16, 17
// and 19.
#pragma once

#include <string>
#include <vector>

#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace mgt::ana {

/// Crossover jitter statistics extracted from threshold crossings.
struct CrossoverJitter {
  std::size_t count = 0;
  Picoseconds peak_to_peak{0.0};
  Picoseconds rms{0.0};
  /// Mean crossing phase within the UI, relative to the UI grid origin.
  Picoseconds mean_phase{0.0};
};

/// Folds crossing times onto a single unit interval and measures their
/// spread. `t_ref` is any time on the ideal bit-boundary grid.
CrossoverJitter measure_crossover_jitter(
    const std::vector<sig::Crossing>& crossings, Picoseconds ui,
    Picoseconds t_ref = Picoseconds{0});

/// Restriction of the same measurement to rising or falling edges only
/// (Fig 9 measures a single falling edge's jitter).
CrossoverJitter measure_edge_jitter(const std::vector<sig::Crossing>& crossings,
                                    Picoseconds ui, bool rising,
                                    Picoseconds t_ref = Picoseconds{0});

/// Summary eye metrics in the units the paper uses.
struct EyeMetrics {
  CrossoverJitter jitter;
  UnitIntervals eye_opening{0.0};  // 1 - TJpp/UI
  Picoseconds eye_width{0.0};    // UI - TJpp
  Millivolts eye_height{0.0};    // vertical opening at eye center
  Millivolts level_high{0.0};    // settled logic-high voltage
  Millivolts level_low{0.0};     // settled logic-low voltage
};

/// 2D-folded eye diagram: time (phase within 2 UI) x voltage histogram,
/// plus the vertical-opening bookkeeping needed for EyeMetrics.
class EyeDiagram final : public sig::WaveformSink {
public:
  struct Config {
    Picoseconds ui{400.0};
    Picoseconds t_ref{0.0};        // a bit-boundary time
    Millivolts v_lo{1500.0};
    Millivolts v_hi{2500.0};
    Millivolts threshold{2000.0};  // decision threshold / crossover level
    std::size_t time_bins = 128;   // across 2 UI
    std::size_t volt_bins = 64;
    /// Half-width of the "eye center" phase window used for the vertical
    /// opening, as a fraction of UI. Keep narrow enough that band-limited
    /// edge tails at high rates stay outside it.
    double center_window = 0.1;
  };

  explicit EyeDiagram(Config config);

  void on_block(const sig::SampleBlock& block) override;
  void on_context(Picoseconds t, Millivolts v) override;

  /// Folds another eye accumulated over a later, disjoint part of the same
  /// acquisition into this one (histograms add, crossings append). Merges
  /// must run in chunk order so the crossing record stays time-ordered —
  /// the fixed-order-reduction rule of the parallel layer.
  void merge(const EyeDiagram& later);

  /// Density count at (time_bin, volt_bin).
  [[nodiscard]] std::size_t count_at(std::size_t time_bin,
                                     std::size_t volt_bin) const;
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t total_samples() const { return total_; }

  /// Vertical eye opening measured in the center window: the gap between
  /// the lowest sample of the high rail and the highest sample of the low
  /// rail. Zero or negative means a closed eye.
  [[nodiscard]] Millivolts eye_height() const;

  /// Mean settled rail voltages within the center window.
  [[nodiscard]] Millivolts level_high() const;
  [[nodiscard]] Millivolts level_low() const;

  /// Crossings of the decision threshold observed while accumulating.
  [[nodiscard]] const std::vector<sig::Crossing>& crossings() const {
    return crossings_.crossings();
  }

  /// Full metric set.
  [[nodiscard]] EyeMetrics metrics() const;

  /// ASCII-art rendering (rows = voltage top-down, cols = phase across 2 UI)
  /// using density shading, for examples and debug output.
  [[nodiscard]] std::string ascii_art(std::size_t cols = 64,
                                      std::size_t rows = 20) const;

private:
  Config config_;
  std::vector<std::size_t> grid_;  // time_bins x volt_bins
  std::size_t total_ = 0;
  sig::CrossingRecorder crossings_;
  // Vertical-opening trackers within the center window.
  double center_min_high_ = 1e300;
  double center_max_low_ = -1e300;
  RunningStats center_high_;
  RunningStats center_low_;
};

/// Accumulates an eye over [t_begin, t_end) of the rendered stream through
/// sig::accumulate (fixed chunk decomposition, parallel chunks, ordered
/// merge), then records the eye.* counters and telemetry of the merged eye.
/// Byte-identical results at every thread count (including the
/// MGT_THREADS=0 serial fallback); single-chunk windows are additionally
/// byte-identical to a plain sig::render pass.
EyeDiagram accumulate_eye(const sig::EdgeStream& stream,
                          const sig::FilterChain& chain,
                          const sig::RenderConfig& render_config,
                          Picoseconds t_begin, Picoseconds t_end,
                          const EyeDiagram::Config& eye_config,
                          const sig::RenderChunking& chunking = {});

}  // namespace mgt::ana
