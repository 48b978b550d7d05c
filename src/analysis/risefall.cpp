#include "analysis/risefall.hpp"

#include "util/error.hpp"

namespace mgt::ana {

RiseFallMeter::RiseFallMeter(Millivolts vol, Millivolts voh) {
  MGT_CHECK(voh > vol, "VOH must exceed VOL");
  const double swing = voh.mv() - vol.mv();
  v20_ = vol.mv() + 0.2 * swing;
  v80_ = vol.mv() + 0.8 * swing;
}

void RiseFallMeter::on_block(const sig::SampleBlock& block) {
  for (std::size_t i = 0; i < block.size; ++i) {
    step(block.t[i], block.v[i]);
  }
}

void RiseFallMeter::step(double tv, double vv) {
  if (have_prev_) {
    auto crossing_up = [&](double level) {
      return prev_v_ < level && vv >= level;
    };
    auto crossing_down = [&](double level) {
      return prev_v_ > level && vv <= level;
    };
    auto interp = [&](double level) {
      return prev_t_ + (level - prev_v_) / (vv - prev_v_) * (tv - prev_t_);
    };

    switch (phase_) {
      case Phase::Idle:
        if (crossing_up(v20_)) {
          phase_ = Phase::Rising;
          start_time_ = interp(v20_);
          // A fast edge may cross both thresholds within one step.
          if (crossing_up(v80_)) {
            rise_.add(interp(v80_) - start_time_);
            phase_ = Phase::Idle;
          }
        } else if (crossing_down(v80_)) {
          phase_ = Phase::Falling;
          start_time_ = interp(v80_);
          if (crossing_down(v20_)) {
            fall_.add(interp(v20_) - start_time_);
            phase_ = Phase::Idle;
          }
        }
        break;
      case Phase::Rising:
        if (crossing_up(v80_)) {
          rise_.add(interp(v80_) - start_time_);
          phase_ = Phase::Idle;
        } else if (vv < prev_v_) {
          // Reversal before reaching 80 %: incomplete transition, discard.
          phase_ = Phase::Idle;
          // The reversal may itself begin a fall if it started high enough,
          // but an incomplete rise never reached 80 %, so nothing to do.
        }
        break;
      case Phase::Falling:
        if (crossing_down(v20_)) {
          fall_.add(interp(v20_) - start_time_);
          phase_ = Phase::Idle;
        } else if (vv > prev_v_) {
          phase_ = Phase::Idle;
        }
        break;
    }
  }
  prev_t_ = tv;
  prev_v_ = vv;
  have_prev_ = true;
}

}  // namespace mgt::ana
