// Fig 7: 2.5 Gbps eye diagram of the Optical Test Bed transmitter.
//
// Paper: PRBS from an LFSR in the DLC, serialized by the PECL chain with
// SiGe output buffers; jitter at the crossover 46.7 ps p-p, usable eye
// opening 0.88 UI.
#include "bench_eye_common.hpp"

using namespace mgt;

namespace {

void bm_eye_acquisition_2g5(benchmark::State& state) {
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  for (auto _ : state) {
    auto eye = sys.measure_eye(2000);
    benchmark::DoNotOptimize(eye);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(bm_eye_acquisition_2g5)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto table = bench::make_table(
      "Fig 7 - 2.5 Gbps PRBS eye, optical test bed TX (target rate)");
  bench::run_eye_reproduction(table,
                              core::presets::optical_testbed(GbitsPerSec{2.5}),
                              bench::EyeSpec{.paper_tj_pp_ps = 46.7,
                                             .paper_opening_ui = 0.88},
                              /*seed=*/42);
  return bench::finish(table, argc, argv);
}
