// Reusable waveform sinks: threshold-crossing recorder, trace recorder,
// strobe sampler, and amplitude tracker. The measurement library builds the
// paper's instruments (eye diagram, jitter, rise/fall) on top of these.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "signal/render.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace mgt::sig {

/// A threshold crossing with interpolated time.
struct Crossing {
  Picoseconds time;
  bool rising;
};

/// Records every crossing of a voltage threshold, with linear interpolation
/// between adjacent samples.
class CrossingRecorder final : public WaveformSink {
public:
  explicit CrossingRecorder(Millivolts threshold) : threshold_(threshold) {}

  void on_block(const SampleBlock& block) override;
  void on_context(Picoseconds t, Millivolts v) override;

  [[nodiscard]] const std::vector<Crossing>& crossings() const {
    return crossings_;
  }

  /// Appends `later`'s crossings (a chunk rendered after this one) so
  /// chunked acquisitions merge into one time-ordered record.
  void merge(const CrossingRecorder& later);

private:
  Millivolts threshold_;
  bool have_prev_ = false;
  double prev_t_ = 0.0;
  double prev_v_ = 0.0;
  std::vector<Crossing> crossings_;
};

/// Stores samples, optionally decimated, for plotting and debugging.
class WaveformTrace final : public WaveformSink {
public:
  explicit WaveformTrace(std::size_t decimation = 1)
      : decimation_(decimation == 0 ? 1 : decimation) {}

  void on_block(const SampleBlock& block) override;

  [[nodiscard]] const std::vector<double>& times_ps() const { return t_; }
  [[nodiscard]] const std::vector<double>& volts_mv() const { return v_; }
  [[nodiscard]] std::size_t size() const { return t_.size(); }

private:
  std::size_t decimation_;
  std::size_t counter_ = 0;
  std::vector<double> t_;
  std::vector<double> v_;
};

/// Captures the analog value at each of a sorted list of strobe times
/// (linear interpolation), then slices to bits against a threshold. This is
/// the behavioral model of the mini-tester's PECL data-capture flip-flop:
/// an aperture RJ on the strobe and a +-aperture/2 uncertainty band around
/// the threshold (metastability) are applied.
class StrobeSampler final : public WaveformSink {
public:
  struct Config {
    Millivolts threshold{2000.0};
    /// RMS random jitter on the strobe position.
    Picoseconds strobe_rj_sigma{0.0};
    /// Total setup+hold aperture: if the waveform crosses the threshold
    /// within +-aperture/2 of the strobe, the captured bit is random.
    Picoseconds aperture{0.0};
  };

  /// `strobes` must be sorted ascending.
  StrobeSampler(std::vector<Picoseconds> strobes, Config config, Rng rng);

  /// Skips whole blocks that contain no strobe (the common case for sparse
  /// strobe lists); otherwise steps sample by sample.
  void on_block(const SampleBlock& block) override;
  void finish() override;

  /// Captured logic values, one per strobe (valid after finish()).
  [[nodiscard]] const BitVector& bits() const { return bits_; }
  /// Interpolated analog values at each strobe.
  [[nodiscard]] const std::vector<Millivolts>& analog() const {
    return analog_;
  }
  /// Number of strobes that fell outside the rendered window (unfilled).
  [[nodiscard]] std::size_t missed() const { return missed_; }

private:
  /// Advances the pair state by one sample, capturing every strobe at or
  /// before `t`.
  void step(double t, double v);
  void capture(Picoseconds strobe, Millivolts v, MvPerPs slope);

  std::vector<Picoseconds> strobes_;  // jittered, sorted
  Config config_;
  Rng rng_;
  std::size_t next_ = 0;
  bool have_prev_ = false;
  double prev_t_ = 0.0;
  double prev_v_ = 0.0;
  BitVector bits_;
  std::vector<Millivolts> analog_;
  std::size_t missed_ = 0;
};

/// Tracks the extreme voltages reached and the settled high/low levels.
/// "Settled" samples are those taken while the waveform slope is below a
/// threshold (flat tops/bottoms), which is how a scope's histogram measures
/// logic levels.
class AmplitudeTracker final : public WaveformSink {
public:
  /// `slope_limit` is the |dV/dt| below which a sample counts as settled.
  explicit AmplitudeTracker(Millivolts decision_threshold,
                            MvPerPs slope_limit = MvPerPs{0.5});

  void on_block(const SampleBlock& block) override;
  void on_context(Picoseconds t, Millivolts v) override;

  /// Folds in another tracker over a disjoint window (chunked renders).
  void merge(const AmplitudeTracker& other);

  [[nodiscard]] Millivolts v_max() const { return Millivolts{max_}; }
  [[nodiscard]] Millivolts v_min() const { return Millivolts{min_}; }
  /// Mean of settled samples above / below the decision threshold.
  [[nodiscard]] Millivolts settled_high() const;
  [[nodiscard]] Millivolts settled_low() const;
  [[nodiscard]] Millivolts peak_to_peak() const {
    return Millivolts{max_ - min_};
  }

private:
  Millivolts threshold_;
  MvPerPs slope_limit_;
  bool have_prev_ = false;
  double prev_t_ = 0.0;
  double prev_v_ = 0.0;
  double max_ = -std::numeric_limits<double>::infinity();
  double min_ = std::numeric_limits<double>::infinity();
  RunningStats high_;
  RunningStats low_;
};

}  // namespace mgt::sig
