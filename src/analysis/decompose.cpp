#include "analysis/decompose.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/berextrap.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace mgt::ana {

Picoseconds JitterDecomposition::tj_at_ber(double ber) const {
  return Picoseconds{dj_pp.ps() + 2.0 * q_of_ber(ber) * rj_sigma.ps()};
}

namespace {

/// Least-squares line fit; returns false when degenerate.
bool fit_line(const std::vector<double>& xs, const std::vector<double>& ys,
              double& m, double& c) {
  if (xs.size() < 3) {
    return false;
  }
  const auto n = static_cast<double>(xs.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) {
    return false;
  }
  m = (n * sxy - sx * sy) / denom;
  c = (sy - m * sx) / n;
  return true;
}

}  // namespace

JitterDecomposition decompose_jitter(
    const std::vector<sig::Crossing>& crossings, Picoseconds ui,
    Picoseconds t_ref, double tail_fraction) {
  MGT_CHECK(ui.ps() > 0.0);
  MGT_CHECK(tail_fraction > 0.0 && tail_fraction < 0.5);

  JitterDecomposition out;
  out.samples = crossings.size();
  if (crossings.size() < 100) {
    return out;  // not enough statistics for tail fits
  }

  // Fold to phases and recenter around the cluster (same approach as
  // measure_crossover_jitter).
  std::vector<double> phases;
  phases.reserve(crossings.size());
  for (const auto& c : crossings) {
    phases.push_back(positive_mod(c.time.ps() - t_ref.ps(), ui.ps()));
  }
  const double center0 = phases.front();
  for (double& p : phases) {
    p = center0 +
        (positive_mod(p - center0 + ui.ps() / 2.0, ui.ps()) - ui.ps() / 2.0);
  }
  std::sort(phases.begin(), phases.end());

  // Q-scale fit on each empirical-CDF tail: for the left tail,
  // Q(p) = (x - mu_l)/sigma_l where p = CDF(x).
  const auto n = phases.size();
  std::vector<double> lx, lq, rx, rq;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    if (p < tail_fraction && p > 1.0 / static_cast<double>(n)) {
      lx.push_back(phases[i]);
      lq.push_back(inverse_normal_cdf(p));
    } else if (p > 1.0 - tail_fraction &&
               p < 1.0 - 1.0 / static_cast<double>(n)) {
      rx.push_back(phases[i]);
      rq.push_back(inverse_normal_cdf(p));
    }
  }
  double ml = 0.0, cl = 0.0, mr = 0.0, cr = 0.0;
  if (!fit_line(lq, lx, ml, cl) || !fit_line(rq, rx, mr, cr)) {
    return out;
  }
  // x = sigma*Q + mu on both tails (sigma = slope).
  if (ml <= 0.0 || mr <= 0.0) {
    return out;
  }
  const double sigma = (ml + mr) / 2.0;
  const double dj = cr - cl;  // separation of the dual-Dirac means
  out.rj_sigma = Picoseconds{sigma};
  out.dj_pp = Picoseconds{std::max(0.0, dj)};
  out.valid = true;
  return out;
}

}  // namespace mgt::ana
