#include "signal/filter.hpp"

#include <cmath>

#include "util/error.hpp"

namespace mgt::sig {

namespace {
const double kLn4 = std::log(4.0);
}

FilterChain& FilterChain::add_pole(Picoseconds tau) {
  MGT_CHECK(tau.ps() > 0.0, "pole time constant must be positive");
  taus_.push_back(tau.ps());
  state_.push_back(0.0);
  // The memoized alpha rows are per-stage; changing the cascade drops them.
  memo_rows_ = 0;
  memo_next_ = 0;
  memo_last_ = 0;
  memo_alpha_.assign(kAlphaMemoRows * taus_.size(), 0.0);
  return *this;
}

FilterChain& FilterChain::add_pole_rise_2080(Picoseconds rise) {
  return add_pole(tau_for_rise_2080(rise));
}

FilterChain& FilterChain::set_gain(double gain, Millivolts midpoint) {
  MGT_CHECK(gain > 0.0);
  gain_ = gain;
  midpoint_mv_ = midpoint.mv();
  return *this;
}

Picoseconds FilterChain::rise_2080_estimate() const {
  double sum_sq = 0.0;
  for (double tau : taus_) {
    const double r = tau * kLn4;
    sum_sq += r * r;
  }
  return Picoseconds{std::sqrt(sum_sq)};
}

Picoseconds FilterChain::group_delay() const {
  double sum = 0.0;
  for (double tau : taus_) {
    sum += tau;
  }
  return Picoseconds{sum};
}

void FilterChain::reset(Millivolts v) {
  const double steady = midpoint_mv_ + gain_ * (v.mv() - midpoint_mv_);
  for (double& s : state_) {
    s = steady;
  }
  passthrough_ = steady;
}

const double* FilterChain::alpha_row(Picoseconds dt) {
  const double dt_ps = dt.ps();
  if (memo_rows_ > 0 && memo_dt_[memo_last_] == dt_ps) {
    return memo_alpha_.data() + memo_last_ * taus_.size();
  }
  for (std::size_t r = 0; r < memo_rows_; ++r) {
    if (memo_dt_[r] == dt_ps) {
      memo_last_ = r;
      return memo_alpha_.data() + r * taus_.size();
    }
  }
  std::size_t r;
  if (memo_rows_ < kAlphaMemoRows) {
    r = memo_rows_++;
  } else {
    r = memo_next_;
    memo_next_ = (memo_next_ + 1) % kAlphaMemoRows;
  }
  double* row = memo_alpha_.data() + r * taus_.size();
  for (std::size_t i = 0; i < taus_.size(); ++i) {
    row[i] = 1.0 - std::exp(-dt_ps / taus_[i]);
  }
  memo_dt_[r] = dt_ps;
  memo_last_ = r;
  return row;
}

Millivolts FilterChain::step(Millivolts u, Picoseconds dt) {
  double x = midpoint_mv_ + gain_ * (u.mv() - midpoint_mv_);
  passthrough_ = x;
  if (!taus_.empty()) {
    const double* alpha = alpha_row(dt);
    for (std::size_t i = 0; i < taus_.size(); ++i) {
      state_[i] += (x - state_[i]) * alpha[i];
      x = state_[i];
    }
  }
  return Millivolts{x};
}

Millivolts FilterChain::output() const {
  if (state_.empty()) {
    return Millivolts{passthrough_};
  }
  return Millivolts{state_.back()};
}

Picoseconds single_pole_rise_2080(Picoseconds tau) {
  return Picoseconds{tau.ps() * kLn4};
}

Picoseconds tau_for_rise_2080(Picoseconds rise) {
  MGT_CHECK(rise.ps() > 0.0);
  return Picoseconds{rise.ps() / kLn4};
}

}  // namespace mgt::sig
