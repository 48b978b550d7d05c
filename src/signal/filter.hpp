// Bandwidth models: cascades of single-pole low-pass stages.
//
// A single pole driven by a step settles exponentially; the 20-80 % rise
// time of one pole is tau * ln(4). Cascading two identical poles gives a
// more realistic S-shaped edge. The state update is exact for piecewise-
// constant input, which is exactly what an NRZ edge stream provides — so
// the renderer introduces no numerical integration error at transition
// boundaries.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "util/units.hpp"

namespace mgt::sig {

/// Cascade of first-order low-pass stages with optional gain applied around
/// a reference midpoint (models channel attenuation of the AC swing while
/// preserving bias).
class FilterChain {
public:
  FilterChain() = default;

  /// Adds a pole with the given time constant.
  FilterChain& add_pole(Picoseconds tau);

  /// Adds a pole specified by its 20-80 % rise time (tau = t_r / ln 4).
  FilterChain& add_pole_rise_2080(Picoseconds rise);

  /// Sets AC gain (1.0 = lossless) applied around the midpoint reference.
  FilterChain& set_gain(double gain, Millivolts midpoint);

  [[nodiscard]] std::size_t pole_count() const { return taus_.size(); }
  [[nodiscard]] double gain() const { return gain_; }

  /// Combined 20-80 % rise time estimate (root-sum-square of stages).
  [[nodiscard]] Picoseconds rise_2080_estimate() const;

  /// DC group delay of the cascade (sum of time constants): approximately
  /// how far the 50 %-crossing of an output edge lags the input step. Used
  /// to deskew strobes and eye phase references.
  [[nodiscard]] Picoseconds group_delay() const;

  /// Resets all stage states to the steady-state response of `v`.
  void reset(Millivolts v);

  /// Advances the chain by dt with constant input u; returns the output.
  /// Exact for each stage given stage input constant over dt; with the fine
  /// steps the renderer uses, inter-stage error is negligible.
  Millivolts step(Millivolts u, Picoseconds dt);

  /// Output without advancing time.
  [[nodiscard]] Millivolts output() const;

private:
  /// Returns the per-stage alphas 1 - exp(-dt/tau) for this dt, computing
  /// and memoizing the row on first sight of the dt value. The renderer
  /// revisits a handful of distinct dt values (the grid step and the edge
  /// fragments around it) millions of times, so this removes exp() from the
  /// per-sample path while staying byte-identical: a memoized alpha is the
  /// very double the direct computation would produce. The most recently
  /// returned row is checked before the scan: between transitions every
  /// step is a grid step, so almost every lookup hits it with one compare.
  const double* alpha_row(Picoseconds dt);

  static constexpr std::size_t kAlphaMemoRows = 8;

  std::vector<double> taus_;      // per-stage time constants, ps
  std::vector<double> state_;     // per-stage outputs, mV
  double gain_ = 1.0;
  double midpoint_mv_ = 0.0;
  double passthrough_ = 0.0;  // last gain-scaled input, output when no poles
  std::array<double, kAlphaMemoRows> memo_dt_{};  // dt key per memo row, ps
  std::vector<double> memo_alpha_;  // kAlphaMemoRows x pole_count, row-major
  std::size_t memo_rows_ = 0;       // valid rows
  std::size_t memo_next_ = 0;       // round-robin replacement cursor
  std::size_t memo_last_ = 0;       // most recently returned row
};

/// 20-80 % rise time of a single pole: tau * ln 4.
Picoseconds single_pole_rise_2080(Picoseconds tau);

/// Time constant giving the requested single-pole 20-80 % rise time.
Picoseconds tau_for_rise_2080(Picoseconds rise);

}  // namespace mgt::sig
