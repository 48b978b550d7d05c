// 20-80 % rise/fall time measurement (the paper's transition-time metric:
// "20 to 80 percent rise and fall times ... 70 to 75 ps", Section 3).
#pragma once

#include "signal/render.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace mgt::ana {

/// Measures 20 %-to-80 % transition times of a waveform against reference
/// logic levels. Only complete traversals (20 % and 80 % crossed without a
/// direction reversal in between) are counted, which is how a scope's
/// rise-time measurement gates.
class RiseFallMeter final : public sig::WaveformSink {
public:
  /// `vol`/`voh` are the reference rails defining the 20 %/80 % thresholds.
  RiseFallMeter(Millivolts vol, Millivolts voh);

  void on_block(const sig::SampleBlock& block) override;

  [[nodiscard]] const RunningStats& rise() const { return rise_; }
  [[nodiscard]] const RunningStats& fall() const { return fall_; }
  [[nodiscard]] Picoseconds mean_rise() const {
    return Picoseconds{rise_.mean()};
  }
  [[nodiscard]] Picoseconds mean_fall() const {
    return Picoseconds{fall_.mean()};
  }

private:
  /// Advances the transition state machine by one sample.
  void step(double tv, double vv);

  double v20_;
  double v80_;
  bool have_prev_ = false;
  double prev_t_ = 0.0;
  double prev_v_ = 0.0;
  // In-flight transition state.
  enum class Phase { Idle, Rising, Falling } phase_ = Phase::Idle;
  double start_time_ = 0.0;  // time the 20 % (rise) / 80 % (fall) was crossed
  RunningStats rise_;
  RunningStats fall_;
};

}  // namespace mgt::ana
