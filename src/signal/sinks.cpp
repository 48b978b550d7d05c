#include "signal/sinks.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mgt::sig {

void CrossingRecorder::on_block(const SampleBlock& block) {
  if (block.size == 0) {
    return;
  }
  const double th = threshold_.mv();
  std::size_t first = 0;
  if (!have_prev_) {
    // The first-ever sample only primes the pair state.
    prev_t_ = block.t[0];
    prev_v_ = block.v[0];
    have_prev_ = true;
    first = 1;
  }
  double pt = prev_t_;
  double pv = prev_v_;
  for (std::size_t i = first; i < block.size; ++i) {
    const double t = block.t[i];
    const double v = block.v[i];
    if ((pv < th) != (v < th) && v != pv) {
      const double frac = (th - pv) / (v - pv);
      crossings_.push_back({Picoseconds{pt + frac * (t - pt)}, pv < th});
    }
    pt = t;
    pv = v;
  }
  prev_t_ = pt;
  prev_v_ = pv;
}

void CrossingRecorder::on_context(Picoseconds t, Millivolts v) {
  // Prime only: the straddling pair is detected by the next on_block.
  prev_t_ = t.ps();
  prev_v_ = v.mv();
  have_prev_ = true;
}

void CrossingRecorder::merge(const CrossingRecorder& later) {
  crossings_.insert(crossings_.end(), later.crossings_.begin(),
                    later.crossings_.end());
}

void WaveformTrace::on_block(const SampleBlock& block) {
  for (std::size_t i = 0; i < block.size; ++i) {
    if (counter_++ % decimation_ == 0) {
      t_.push_back(block.t[i]);
      v_.push_back(block.v[i]);
    }
  }
}

StrobeSampler::StrobeSampler(std::vector<Picoseconds> strobes, Config config,
                             Rng rng)
    : strobes_(std::move(strobes)), config_(config), rng_(rng) {
  if (config_.strobe_rj_sigma.ps() > 0.0) {
    for (auto& s : strobes_) {
      s += Picoseconds{rng_.gaussian(0.0, config_.strobe_rj_sigma.ps())};
    }
    std::sort(strobes_.begin(), strobes_.end());
  } else {
    MGT_CHECK(std::is_sorted(strobes_.begin(), strobes_.end()),
              "strobe times must be sorted");
  }
  bits_ = BitVector(strobes_.size());
  analog_.assign(strobes_.size(), Millivolts{0.0});
}

void StrobeSampler::capture(Picoseconds strobe, Millivolts v, MvPerPs slope) {
  bool bit = v >= config_.threshold;
  if (config_.aperture.ps() > 0.0 && slope.mv_per_ps() != 0.0) {
    // Metastability: if the threshold crossing lies within the aperture
    // around the strobe, the latch resolves randomly.
    const double t_to_threshold =
        (config_.threshold - v).mv() / slope.mv_per_ps();
    if (std::abs(t_to_threshold) <= config_.aperture.ps() / 2.0) {
      bit = rng_.chance(0.5);
    }
  }
  bits_.set(next_, bit);
  analog_[next_] = v;
  ++next_;
  (void)strobe;
}

void StrobeSampler::step(double t, double v) {
  if (have_prev_) {
    while (next_ < strobes_.size() && strobes_[next_].ps() <= t) {
      const double s = strobes_[next_].ps();
      if (s < prev_t_) {
        // Strobe before the rendered window: count as missed.
        bits_.set(next_, false);
        ++next_;
        ++missed_;
        continue;
      }
      const double span = t - prev_t_;
      const double frac = span > 0.0 ? (s - prev_t_) / span : 0.0;
      const double v_at_strobe = prev_v_ + frac * (v - prev_v_);
      const double slope = span > 0.0 ? (v - prev_v_) / span : 0.0;
      capture(Picoseconds{s}, Millivolts{v_at_strobe}, MvPerPs{slope});
    }
  }
  prev_t_ = t;
  prev_v_ = v;
  have_prev_ = true;
}

void StrobeSampler::on_block(const SampleBlock& block) {
  if (block.size == 0) {
    return;
  }
  if (have_prev_ && (next_ >= strobes_.size() ||
                     strobes_[next_].ps() > block.t[block.size - 1])) {
    // No strobe falls at or before this block's last sample: stepping
    // would only walk the pair state forward.
    prev_t_ = block.t[block.size - 1];
    prev_v_ = block.v[block.size - 1];
    return;
  }
  for (std::size_t i = 0; i < block.size; ++i) {
    step(block.t[i], block.v[i]);
  }
}

void StrobeSampler::finish() {
  while (next_ < strobes_.size()) {
    bits_.set(next_, false);
    ++next_;
    ++missed_;
  }
}

AmplitudeTracker::AmplitudeTracker(Millivolts decision_threshold,
                                   MvPerPs slope_limit)
    : threshold_(decision_threshold), slope_limit_(slope_limit) {}

void AmplitudeTracker::on_block(const SampleBlock& block) {
  if (block.size == 0) {
    return;
  }
  for (std::size_t i = 0; i < block.size; ++i) {
    const double t = block.t[i];
    const double v = block.v[i];
    max_ = std::max(max_, v);
    min_ = std::min(min_, v);
    if (have_prev_) {
      const double dt = t - prev_t_;
      const double slope = dt > 0.0 ? std::abs(v - prev_v_) / dt : 0.0;
      if (slope <= slope_limit_.mv_per_ps()) {
        if (v >= threshold_.mv()) {
          high_.add(v);
        } else {
          low_.add(v);
        }
      }
    }
    prev_t_ = t;
    prev_v_ = v;
    have_prev_ = true;
  }
}

void AmplitudeTracker::on_context(Picoseconds t, Millivolts v) {
  // Prime the slope gate without counting the sample (it belongs to the
  // previous chunk's window).
  prev_t_ = t.ps();
  prev_v_ = v.mv();
  have_prev_ = true;
}

void AmplitudeTracker::merge(const AmplitudeTracker& other) {
  max_ = std::max(max_, other.max_);
  min_ = std::min(min_, other.min_);
  high_.merge(other.high_);
  low_.merge(other.low_);
}

Millivolts AmplitudeTracker::settled_high() const {
  return Millivolts{high_.mean()};
}

Millivolts AmplitudeTracker::settled_low() const {
  return Millivolts{low_.mean()};
}

}  // namespace mgt::sig
