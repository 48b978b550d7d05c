// Observability-layer suite (`ctest -L obs`).
//
// Three families:
//  - regression tests for the histogram quantile/mode fixes (each written
//    to fail against the pre-fix code) and the rejected-knob self-test
//    report, in process and through a real MGT_THREADS=8x environment,
//  - registry semantics: registration, reset, disabled mode, spans,
//    profile scopes, the bench JSON document,
//  - the determinism contract itself: a mixed workload (eye acquisition,
//    wafer probing, link ARQ, vortex routing) must yield byte-identical
//    snapshots at MGT_THREADS 0/1/8, and identical simulation results with
//    the obs layer enabled and disabled.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "fault/fault.hpp"
#include "link/link.hpp"
#include "minitester/array.hpp"
#include "obs/benchjson.hpp"
#include "obs/obs.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "vortex/fabric.hpp"

namespace mgt {
namespace {

/// Restores the enabled flag and clears values around every test so suites
/// can run in any order.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::registry().set_enabled(true);
    obs::registry().reset();
  }
  void TearDown() override {
    obs::registry().set_enabled(true);
    obs::registry().reset();
  }
};

// ------------------------------------------------- quantile regressions --

TEST(HistogramQuantile, SkipsLeadingAndTrailingEmptyBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(7.2);
  h.add(7.5);
  h.add(7.8);  // all mass in bin 7 = [7, 8)
  // Pre-fix, q=0 interpolated into the empty bin 0 (0/0 division); the
  // support of the recorded samples is [7, 8).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.5);
  EXPECT_EQ(h.mode_bin(), 7u);
}

TEST(HistogramQuantile, SkipsInteriorEmptyBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(1.5);  // bin 1
  h.add(8.5);  // bin 8; bins 2..7 empty
  // q=0.5 -> target = 1.0, satisfied exactly at the end of bin 1: the
  // pre-fix loop could report a value inside the empty gap. Both 50% marks
  // must land within populated bins.
  const double q50 = h.quantile(0.5);
  EXPECT_GE(q50, 1.0);
  EXPECT_LE(q50, 2.0);
  const double q75 = h.quantile(0.75);
  EXPECT_GE(q75, 8.0);
  EXPECT_LE(q75, 9.0);
}

TEST(HistogramQuantile, SingleSampleNeverInterpolatesOutOfSupport) {
  Histogram h(-5.0, 5.0, 20);  // width 0.5
  h.add(0.2);                  // bin 10 = [0, 0.5)
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, 0.0) << "q=" << q;
    EXPECT_LE(v, 0.5) << "q=" << q;
  }
}

TEST(HistogramQuantile, GoldenUniformRampUnchanged) {
  // The existing calibration shape: quantiles of a dense uniform ramp are
  // the identity. The empty-bin fix must not disturb the populated case.
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) {
    h.add(static_cast<double>(i) + 0.5);
  }
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(HistogramQuantile, OutOfRangeMassOnlyStillThrows) {
  Histogram h(0.0, 1.0, 4);
  h.add(-3.0);  // underflow
  h.add(7.0);   // overflow
  EXPECT_THROW((void)h.quantile(0.5), Error);
  // Pre-fix, mode_bin of an empty histogram silently reported bin 0.
  EXPECT_THROW((void)h.mode_bin(), Error);
}

// ----------------------------------------------- MGT_THREADS parsing fix --

// thread_count() reads MGT_THREADS through the shared env grammar with
// bounds [0, kMaxThreads]; nullopt means the serial default of 0 is kept.
std::optional<std::uint64_t> parse_threads(const char* raw) {
  return util::parse_env_u64(raw, 0, util::kMaxThreads);
}

TEST(ParseThreadCount, AcceptsPlainCounts) {
  EXPECT_EQ(parse_threads("8"), 8u);
  EXPECT_EQ(parse_threads("0"), 0u);
  EXPECT_EQ(parse_threads("16"), 16u);
  const std::string max = std::to_string(util::kMaxThreads);
  EXPECT_EQ(parse_threads(max.c_str()), util::kMaxThreads);
}

TEST(ParseThreadCount, UnsetMeansZero) {
  EXPECT_EQ(parse_threads(nullptr), std::nullopt);
  EXPECT_EQ(parse_threads(""), std::nullopt);
}

TEST(ParseThreadCount, RejectsTrailingGarbage) {
  // strtol would silently truncate "8x" to 8 and " 8 " to 8.
  EXPECT_EQ(parse_threads("8x"), std::nullopt);
  EXPECT_EQ(parse_threads("8 "), std::nullopt);
  EXPECT_EQ(parse_threads(" 8"), std::nullopt);
  EXPECT_EQ(parse_threads("+4"), std::nullopt);
  EXPECT_EQ(parse_threads("1.5"), std::nullopt);
  EXPECT_EQ(parse_threads("x"), std::nullopt);
  EXPECT_EQ(parse_threads("eight"), std::nullopt);
}

TEST(ParseThreadCount, RejectsNegativeAndOutOfRange) {
  EXPECT_EQ(parse_threads("-1"), std::nullopt);
  // strtol would saturate these to LONG_MAX/LONG_MIN.
  EXPECT_EQ(parse_threads("99999999999999999999999999"), std::nullopt);
  EXPECT_EQ(parse_threads("-99999999999999999999999999"), std::nullopt);
  // A typo such as "80000" must not start 80,000 threads.
  const std::string over = std::to_string(util::kMaxThreads + 1);
  EXPECT_EQ(parse_threads(over.c_str()), std::nullopt);
  EXPECT_EQ(parse_threads("80000"), std::nullopt);
}

TEST(ParseThreadCount, HexIsGarbageNotBase16) {
  // Base-10 parse: "0x8" stops at 'x', which is trailing garbage.
  EXPECT_EQ(parse_threads("0x8"), std::nullopt);
}

// ------------------------------------------------------ registry basics --

TEST_F(ObsTest, CountersAccumulateAndExpose) {
  obs::add_counter("t.alpha");
  obs::add_counter("t.alpha", 4);
  obs::add_counter("t.beta", 2);
  EXPECT_EQ(obs::registry().counter("t.alpha").value(), 5u);
  EXPECT_EQ(obs::registry().counter("t.beta").value(), 2u);
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  obs::set_gauge("t.level", 1.5);
  obs::set_gauge("t.level", -2.25);
  EXPECT_DOUBLE_EQ(obs::registry().gauge("t.level").value(), -2.25);
}

TEST_F(ObsTest, HistogramRegistrationIsFirstComeFixed) {
  obs::observe("t.h", 0.0, 10.0, 10, 3.5);
  // A later caller with different bounds gets the existing histogram.
  obs::observe("t.h", -100.0, 100.0, 4, 3.5);
  const Histogram snap = obs::registry().histogram("t.h", 0.0, 10.0, 10)
                             .snapshot();
  EXPECT_DOUBLE_EQ(snap.lo(), 0.0);
  EXPECT_DOUBLE_EQ(snap.hi(), 10.0);
  EXPECT_EQ(snap.bin_count(), 10u);
  EXPECT_EQ(snap.total(), 2u);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsRegistrations) {
  obs::Counter& c = obs::registry().counter("t.keep");
  c.add(7);
  obs::registry().reset();
  // The reference stays valid and the entry is still listed.
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  const auto counters = obs::registry().counter_values();
  bool found = false;
  for (const auto& [name, v] : counters) {
    if (name == "t.keep") {
      found = true;
      EXPECT_EQ(v, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, DisabledHelpersAreNoOpsAndRegisterNothing) {
  obs::registry().set_enabled(false);
  obs::add_counter("t.ghost");
  obs::set_gauge("t.ghost.g", 1.0);
  obs::observe("t.ghost.h", 0.0, 1.0, 4, 0.5);
  obs::record_span("t.ghost.s", 0, 10);
  for (const auto& [name, v] : obs::registry().counter_values()) {
    EXPECT_NE(name, "t.ghost");
  }
  for (const auto& [name, v] : obs::registry().gauge_values()) {
    EXPECT_NE(name, "t.ghost.g");
  }
  EXPECT_TRUE(obs::registry().spans().empty());
}

TEST_F(ObsTest, SnapshotIsSortedAndVersioned) {
  obs::add_counter("t.zzz");
  obs::add_counter("t.aaa");
  const std::string snap = obs::registry().snapshot();
  EXPECT_EQ(snap.rfind("obs-snapshot v1\n", 0), 0u);
  EXPECT_LT(snap.find("counter t.aaa"), snap.find("counter t.zzz"));
}

TEST_F(ObsTest, SpansAreBoundedWithDropAccounting) {
  const std::size_t cap = obs::registry().span_capacity();
  for (std::size_t i = 0; i < cap + 3; ++i) {
    obs::record_span("t.span", i, i + 1);
  }
  EXPECT_EQ(obs::registry().spans().size(), cap);
  const std::string snap = obs::registry().snapshot();
  EXPECT_NE(snap.find("spans_dropped 3"), std::string::npos);
}

TEST_F(ObsTest, TickSpanRecordsSimTicks) {
  std::uint64_t tick = 100;
  {
    obs::TickSpan span("t.window", tick);
    tick += 42;
  }
  const auto spans = obs::registry().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "t.window");
  EXPECT_EQ(spans[0].begin, 100u);
  EXPECT_EQ(spans[0].end, 142u);
}

TEST_F(ObsTest, ProfileScopeSeparatesTicksFromWallClock) {
  std::uint64_t tick = 0;
  {
    obs::ProfileScope scope("t.scope", &tick);
    tick = 17;
  }
  const auto profiles = obs::registry().profile_values();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].first, "t.scope");
  EXPECT_EQ(profiles[0].second.calls, 1u);
  EXPECT_EQ(profiles[0].second.ticks, 17u);
  // The deterministic snapshot must carry the tick cost but never wall_ns.
  const std::string snap = obs::registry().snapshot();
  EXPECT_NE(snap.find("profile t.scope calls=1 ticks=17"), std::string::npos);
  EXPECT_EQ(snap.find("wall"), std::string::npos);
  // Wall time lives only in the quarantined side channel.
  EXPECT_NE(obs::registry().profile_wall_ns().find("t.scope"),
            std::string::npos);
}

TEST_F(ObsTest, BridgedEnvRejectionsAppearInSnapshot) {
  const std::string snap = obs::registry().snapshot();
  EXPECT_NE(snap.find("counter mgt.env.rejected " +
                      std::to_string(util::env_rejections())),
            std::string::npos);
}

// ---------------------------------------------------- bench JSON export --

TEST_F(ObsTest, BenchJsonCarriesSchemaTableAndMetrics) {
  obs::add_counter("t.bench.counter", 3);
  ReportTable table("Fig X", {"metric", "paper", "measured", "verdict"});
  table.add_row({"eye width", "0.8 UI", "0.79 UI", "OK"});
  const std::string doc = obs::bench_json(table, "fig_x");
  EXPECT_NE(doc.find("\"schema\": \"mgt-bench-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"bench\": \"fig_x\""), std::string::npos);
  EXPECT_NE(doc.find("\"title\": \"Fig X\""), std::string::npos);
  EXPECT_NE(doc.find("\"eye width\""), std::string::npos);
  EXPECT_NE(doc.find("\"t.bench.counter\": 3"), std::string::npos);
  EXPECT_NE(doc.find("\"wallclock_ns\""), std::string::npos);
}

TEST_F(ObsTest, BenchJsonEscapesControlCharacters) {
  ReportTable table("quote \" and\nnewline", {"h"});
  table.add_row({"back\\slash"});
  const std::string doc = obs::bench_json(table, "esc");
  EXPECT_NE(doc.find("quote \\\" and\\nnewline"), std::string::npos);
  EXPECT_NE(doc.find("back\\\\slash"), std::string::npos);
}

TEST(ObsBenchName, StripsPathAndPrefix) {
  EXPECT_EQ(obs::bench_name_from_argv0("build/bench/bench_fig07_eye_2g5"),
            "fig07_eye_2g5");
  EXPECT_EQ(obs::bench_name_from_argv0("bench_x"), "x");
  EXPECT_EQ(obs::bench_name_from_argv0("custom"), "custom");
}

// ------------------------------------------------- determinism contract --

/// A mixed workload touching every instrumented subsystem: one eye
/// acquisition (signal render + eye accumulation through the PECL mux),
/// one wafer probe, one clean ARQ transfer, and a short vortex run.
void run_workload() {
  core::TestSystem sys(core::presets::optical_testbed(), 17);
  sys.program_prbs(7, 0xACE1u);
  sys.start();
  (void)sys.measure_eye(512);

  minitester::TesterArray::Config array_config;
  array_config.testers = 8;
  array_config.bist_bits = 64;
  minitester::TesterArray array(array_config, 23);
  (void)array.probe_wafer(64);

  const fault::FaultPlan empty;
  link::LinkChannel channel(link::LinkChannel::Config{},
                            link::make_fault_transport(empty, "link.fwd"),
                            link::make_fault_transport(empty, "link.rev"));
  Rng rng(31);
  std::vector<BitVector> payloads;
  for (int i = 0; i < 8; ++i) {
    payloads.push_back(
        BitVector::random(channel.codec().user_bits(), rng));
  }
  (void)channel.transfer(payloads);

  vortex::DataVortex fabric(vortex::Geometry::for_heights(8, 4));
  for (std::uint64_t id = 0; id < 16; ++id) {
    vortex::Packet p;
    p.id = id;
    p.destination = static_cast<std::uint32_t>(id % 8);
    p.payload = BitVector::random(128, rng);
    std::vector<vortex::Delivery> deliveries;
    (void)fabric.inject_with_retry(p, id % 8, 32, deliveries);
  }
  std::vector<vortex::Delivery> deliveries;
  (void)fabric.drain(deliveries, 256);
}

std::string snapshot_at(std::size_t threads) {
  util::ScopedThreads scoped(threads);
  obs::registry().reset();
  run_workload();
  return obs::registry().snapshot();
}

TEST_F(ObsTest, SnapshotByteIdenticalAcrossThreadCounts) {
  const std::string serial = snapshot_at(0);
  // The workload must have actually recorded something.
  EXPECT_NE(serial.find("counter render.chunks"), std::string::npos);
  EXPECT_NE(serial.find("counter eye.samples"), std::string::npos);
  EXPECT_NE(serial.find("counter minitester.dies"), std::string::npos);
  EXPECT_NE(serial.find("counter link.delivered"), std::string::npos);
  EXPECT_NE(serial.find("counter vortex.injected"), std::string::npos);
  EXPECT_EQ(snapshot_at(1), serial) << "1 thread vs serial";
  EXPECT_EQ(snapshot_at(8), serial) << "8 threads vs serial";
}

TEST_F(ObsTest, SimulationResultsIdenticalEnabledVsDisabled) {
  auto eye_fingerprint = [] {
    core::TestSystem sys(core::presets::optical_testbed(), 99);
    sys.program_prbs(7, 0xBEEFu);
    sys.start();
    const ana::EyeMetrics m = sys.measure_eye(256);
    return std::to_string(m.jitter.rms.ps()) + "|" +
           std::to_string(m.eye_height.mv()) + "|" +
           std::to_string(m.jitter.count);
  };
  obs::registry().set_enabled(true);
  const std::string with_obs = eye_fingerprint();
  obs::registry().set_enabled(false);
  const std::string without_obs = eye_fingerprint();
  EXPECT_EQ(with_obs, without_obs);
}

TEST_F(ObsTest, SelfTestReportsObsComponent) {
  core::TestSystem sys(core::presets::optical_testbed(), 5);
  const fault::HealthReport report = sys.self_test();
  const fault::ComponentHealth* obs_health = report.find("obs");
  ASSERT_NE(obs_health, nullptr);
  EXPECT_EQ(obs_health->status, fault::HealthStatus::kOk);
  EXPECT_NE(obs_health->detail.find("counters"), std::string::npos);
}

TEST_F(ObsTest, SelfTestDegradesAndNamesRejectedKnobs) {
  util::reset_env_rejections_for_test();
  setenv("MGT_TEST_SELF_TEST_KNOB", "garbage", 1);
  EXPECT_EQ(util::env_u64("MGT_TEST_SELF_TEST_KNOB", 3), 3u);
  core::TestSystem sys(core::presets::optical_testbed(), 7);
  const fault::HealthReport report = sys.self_test();
  const fault::ComponentHealth* obs_health = report.find("obs");
  ASSERT_NE(obs_health, nullptr);
  EXPECT_EQ(obs_health->status, fault::HealthStatus::kDegraded);
  EXPECT_NE(obs_health->detail.find("MGT_TEST_SELF_TEST_KNOB"),
            std::string::npos);
  unsetenv("MGT_TEST_SELF_TEST_KNOB");
  util::reset_env_rejections_for_test();
}

// Runs only as the `obs.env.threads_rejected` ctest case, which sets
// MGT_THREADS=8x for a fresh process: the real environment path, from
// getenv through thread_count() to the self-test report.
TEST(EnvProcess, MalformedThreadsRunsSerialAndDegradesSelfTest) {
  const char* raw = std::getenv("MGT_THREADS");
  if (raw == nullptr || std::string(raw) != "8x") {
    GTEST_SKIP() << "needs MGT_THREADS=8x (ctest obs.env.threads_rejected)";
  }
  EXPECT_EQ(util::thread_count(), 0u);
  EXPECT_NE(util::env_rejected_names().find("MGT_THREADS"),
            std::string::npos);
  core::TestSystem sys(core::presets::optical_testbed(), 8);
  const fault::HealthReport report = sys.self_test();
  const fault::ComponentHealth* obs_health = report.find("obs");
  ASSERT_NE(obs_health, nullptr);
  EXPECT_EQ(obs_health->status, fault::HealthStatus::kDegraded);
  EXPECT_NE(obs_health->detail.find("MGT_THREADS"), std::string::npos);
}

// Runs only as the `obs.env.self_test_only` ctest case, which sets
// MGT_THREADS=+2 and MGT_TELEMETRY=maybe for a fresh process that never
// renders nor runs a parallel section: self_test() itself must read both
// knobs, so the report names them although nothing else has.
TEST(EnvProcess, SelfTestAloneNamesMalformedKnobs) {
  const char* raw = std::getenv("MGT_THREADS");
  if (raw == nullptr || std::string(raw) != "+2") {
    GTEST_SKIP() << "needs MGT_THREADS=+2 (ctest obs.env.self_test_only)";
  }
  core::TestSystem sys(core::presets::optical_testbed(), 9);
  ASSERT_EQ(util::env_rejections(), 0u) << "a knob was read before self_test";
  const fault::HealthReport report = sys.self_test();
  const fault::ComponentHealth* obs_health = report.find("obs");
  ASSERT_NE(obs_health, nullptr);
  EXPECT_EQ(obs_health->status, fault::HealthStatus::kDegraded);
  EXPECT_NE(obs_health->detail.find("MGT_THREADS"), std::string::npos);
  EXPECT_NE(obs_health->detail.find("MGT_TELEMETRY"), std::string::npos);
  EXPECT_EQ(util::env_rejections(), 2u);
}

TEST_F(ObsTest, SelfTestReportsDisabledMetrics) {
  obs::registry().set_enabled(false);
  core::TestSystem sys(core::presets::optical_testbed(), 6);
  const fault::HealthReport report = sys.self_test();
  const fault::ComponentHealth* obs_health = report.find("obs");
  ASSERT_NE(obs_health, nullptr);
  EXPECT_EQ(obs_health->detail, "metrics disabled");
}

}  // namespace
}  // namespace mgt
