// Shared eye-diagram reproduction logic for Figs 7, 8, 16, 17 and 19.
#pragma once

#include "analysis/decompose.hpp"
#include "analysis/eye.hpp"
#include "bench_common.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"

namespace mgt::bench {

struct EyeSpec {
  double paper_tj_pp_ps;      // <= 0: paper gives no number for this figure
  double paper_opening_ui;
  double tj_tolerance_ps = 6.0;
  double ui_tolerance = 0.03;
};

/// Runs a PRBS eye on `config`, appends paper-vs-measured rows, prints the
/// folded eye as ASCII art (our stand-in for the paper's scope photo).
inline void run_eye_reproduction(ReportTable& table,
                                 const core::ChannelConfig& config,
                                 const EyeSpec& spec, std::uint64_t seed,
                                 std::size_t n_bits = 20000) {
  core::TestSystem sys(config, seed);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto eye = sys.acquire_eye(n_bits);
  const auto metrics = eye.metrics();

  if (spec.paper_tj_pp_ps > 0.0) {
    table.add_comparison(
        "crossover jitter p-p", fmt_unit(spec.paper_tj_pp_ps, "ps", 1),
        fmt_unit(metrics.jitter.peak_to_peak.ps(), "ps", 1),
        verdict(metrics.jitter.peak_to_peak.ps(), spec.paper_tj_pp_ps,
                spec.tj_tolerance_ps));
  } else {
    table.add_comparison("crossover jitter p-p", "(not quoted)",
                         fmt_unit(metrics.jitter.peak_to_peak.ps(), "ps", 1),
                         "-");
  }
  table.add_comparison(
      "usable eye opening", fmt_unit(spec.paper_opening_ui, "UI", 2),
      fmt_unit(metrics.eye_opening.ui(), "UI", 3),
      verdict(metrics.eye_opening.ui(), spec.paper_opening_ui,
              spec.ui_tolerance));
  table.add_comparison("eye height (vertical)", "open",
                       fmt_unit(metrics.eye_height.mv(), "mV", 0),
                       metrics.eye_height.mv() > 0.0 ? "OK (open)"
                                                     : "DEVIATES");
  table.add_comparison("crossings folded", "~10^4-edge acquisition",
                       std::to_string(metrics.jitter.count), "-");

  // Dual-Dirac decomposition of the same acquisition: ties the eye's TJ to
  // the Fig 9 single-edge RJ budget.
  const auto decomposition =
      ana::decompose_jitter(eye.crossings(), eye.config().ui,
                            eye.config().t_ref);
  if (decomposition.valid) {
    table.add_comparison(
        "RJ / DJ split (dual-Dirac)", "RJ ~3.2 ps rms (Fig 9) + mux DJ",
        "RJ " + fmt(decomposition.rj_sigma.ps(), 2) + " ps, DJ " +
            fmt(decomposition.dj_pp.ps(), 1) + " ps",
        "-");
  }

  std::cout << "\nFolded eye (2 UI wide, density-shaded):\n"
            << eye.ascii_art(72, 18) << "\n";
}

}  // namespace mgt::bench
