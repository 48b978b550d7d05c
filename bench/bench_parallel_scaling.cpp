// Parallel scaling of the deterministic execution layer (util/parallel).
//
// Times the two heaviest pipelines — eye accumulation over a multi-chunk
// acquisition and a 16-site probe-array wafer pass — at 1, 2, 4 and 8
// worker threads, reporting wall time and speedup versus 1 thread. The
// determinism contract means every row computes byte-identical results;
// only the wall clock may change. Each threaded row is graded on that
// identity (a digest of the full result against the 1-thread pass), not
// on its speedup, which depends on the host's load and core count (a
// single-core host shows ~1.0x everywhere, honestly) and is informational.
#include <chrono>
#include <optional>

#include "bench_common.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "minitester/array.hpp"
#include "util/digest.hpp"
#include "util/parallel.hpp"

using namespace mgt;

namespace {

constexpr std::size_t kThreadSteps[] = {1, 2, 4, 8};

/// One timed pass and a digest of everything it computed.
struct Pass {
  double seconds = 0.0;
  std::uint64_t digest = 0;
};

double time_s(const std::function<void()>& work) {
  const auto begin = std::chrono::steady_clock::now();
  work();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - begin).count();
}

Pass eye_pass(std::size_t threads) {
  util::ScopedThreads scoped(threads);
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  std::optional<ana::EyeDiagram> eye;
  Pass pass;
  pass.seconds = time_s([&] {
    eye.emplace(sys.acquire_eye(4000));  // 3.2 M samples, multi-chunk
  });
  util::Fnv64 h;
  h.mix_u64(eye->total_samples());
  for (std::size_t t = 0; t < eye->config().time_bins; ++t) {
    for (std::size_t v = 0; v < eye->config().volt_bins; ++v) {
      h.mix_u64(eye->count_at(t, v));
    }
  }
  for (const auto& crossing : eye->crossings()) {
    h.mix_double(crossing.time.ps());
    h.mix_bool(crossing.rising);
  }
  h.mix_double(eye->eye_height().mv());
  h.mix_double(eye->level_high().mv());
  h.mix_double(eye->level_low().mv());
  pass.digest = h.digest();
  return pass;
}

Pass probe_pass(std::size_t threads) {
  util::ScopedThreads scoped(threads);
  minitester::TesterArray::Config config;
  config.testers = 16;
  config.defect_rate = 0.08;
  config.bist_bits = 256;
  minitester::TesterArray array(config, 7);
  minitester::TesterArray::WaferResult wafer;
  Pass pass;
  pass.seconds = time_s([&] { wafer = array.probe_wafer(64); });
  util::Fnv64 h;
  for (const std::size_t n : {wafer.dies, wafer.touchdowns, wafer.fails,
                              wafer.escapes, wafer.overkills, wafer.masked}) {
    h.mix_u64(n);
  }
  h.mix_double(wafer.total_time_s);
  pass.digest = h.digest();
  return pass;
}

void scaling_rows(ReportTable& table, const char* what,
                  Pass (*run)(std::size_t)) {
  const Pass serial = run(1);
  for (std::size_t threads : kThreadSteps) {
    const Pass pass = threads == 1 ? serial : run(threads);
    const double speedup =
        pass.seconds == 0.0 ? 0.0 : serial.seconds / pass.seconds;
    std::string expect = "reference";
    std::string verdict = "-";
    if (threads != 1) {
      expect = "identical to 1 thread";
      if (threads == 4) {
        expect += "; >= 2x informational (needs >= 4 cores)";
      }
      verdict = pass.digest == serial.digest ? "OK (identical)" : "DEVIATES";
    }
    table.add_comparison(
        std::string(what) + ", " + std::to_string(threads) + " thread" +
            (threads == 1 ? "" : "s"),
        expect, fmt(pass.seconds, 3) + " s  (x" + fmt(speedup, 2) + ")",
        verdict);
  }
}

void run_reproduction(ReportTable& table) {
  scaling_rows(table, "eye accumulation (4k bits)", eye_pass);
  scaling_rows(table, "16-site probe array (64 dies)", probe_pass);
}

void bm_eye_accumulation(benchmark::State& state) {
  util::ScopedThreads scoped(static_cast<std::size_t>(state.range(0)));
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  for (auto _ : state) {
    auto eye = sys.acquire_eye(2000);
    benchmark::DoNotOptimize(eye);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(bm_eye_accumulation)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void bm_wafer_probe(benchmark::State& state) {
  util::ScopedThreads scoped(static_cast<std::size_t>(state.range(0)));
  minitester::TesterArray::Config config;
  config.testers = 16;
  config.bist_bits = 128;
  minitester::TesterArray array(config, 7);
  for (auto _ : state) {
    auto wafer = array.probe_wafer(32);
    benchmark::DoNotOptimize(wafer);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(bm_wafer_probe)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto table = bench::make_table(
      "Parallel scaling - deterministic thread pool (MGT_THREADS)");
  run_reproduction(table);
  return bench::finish(table, argc, argv);
}
