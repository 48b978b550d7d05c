// Fig 19: 5.0 Gbps eye diagram from the miniature WLP tester (the
// application's target rate).
//
// Paper: the ~50 ps jitter is proportionately larger at the 200 ps bit
// period, decreasing the eye opening to about 0.75 UI — but the eyes stay
// open. With 10 ps strobe resolution and ~+-25 ps accuracy this is the
// timing-critical operating point of the whole system (Summary).
#include "bench_eye_common.hpp"

using namespace mgt;

namespace {

void bm_minitester_eye_5g0(benchmark::State& state) {
  core::TestSystem sys(core::presets::minitester(GbitsPerSec{5.0}), 99);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  for (auto _ : state) {
    auto eye = sys.measure_eye(2000);
    benchmark::DoNotOptimize(eye);
  }
}
BENCHMARK(bm_minitester_eye_5g0)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto table = bench::make_table(
      "Fig 19 - 5.0 Gbps eye, miniature WLP tester (target rate)");
  bench::run_eye_reproduction(table,
                              core::presets::minitester(GbitsPerSec{5.0}),
                              bench::EyeSpec{.paper_tj_pp_ps = 50.0,
                                             .paper_opening_ui = 0.75,
                                             .tj_tolerance_ps = 7.0,
                                             .ui_tolerance = 0.03},
                              /*seed=*/99);
  return bench::finish(table, argc, argv);
}
