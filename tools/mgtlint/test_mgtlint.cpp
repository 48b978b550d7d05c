// Fixture suite for mgtlint: every rule gets at least one known-bad snippet
// (must fire) and one allowlisted snippet (must stay silent), plus lexer and
// scoping edge cases. The snippets live in raw strings, which the lexer
// skips — so this file itself lints clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "lint.hpp"
#include "sarif.hpp"

namespace {

using mgtlint::Diagnostic;
using mgtlint::FileKind;
using mgtlint::lint_source;

std::vector<std::string> fired_rules(std::string_view path,
                                     std::string_view code) {
  std::vector<std::string> rules;
  for (const auto& d : lint_source(path, code)) {
    rules.push_back(d.rule);
  }
  return rules;
}

bool fires(std::string_view path, std::string_view code,
           std::string_view rule) {
  const auto rules = fired_rules(path, code);
  return std::find(rules.begin(), rules.end(), std::string(rule)) !=
         rules.end();
}

// ------------------------------------------------------------ determinism --

TEST(MgtlintDeterminism, RandomDeviceBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    #include <random>
    int seed() { std::random_device rd; return (int)rd(); }
  )",
                    "no-random-device"));
}

TEST(MgtlintDeterminism, RandomDeviceAllowlisted) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    int seed() {
      std::random_device rd;  // mgtlint:allow(no-random-device)
      return (int)rd();
    }
  )",
                     "no-random-device"));
}

TEST(MgtlintDeterminism, AllowOnPreviousLine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    // mgtlint:allow(no-random-device)
    std::random_device rd;
  )",
                     "no-random-device"));
}

TEST(MgtlintDeterminism, RandAndSrandBad) {
  const char* code = R"(
    int roll() { srand(7); return rand(); }
  )";
  EXPECT_TRUE(fires("src/a.cpp", code, "no-rand"));
  const auto rules = fired_rules("src/a.cpp", code);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "no-rand"), 2);
}

TEST(MgtlintDeterminism, RandAllowlistedAndMembersExempt) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    int roll(Rng& rng) { return (int)rng.rand(); }
    int legacy() { return rand(); }  // mgtlint:allow(no-rand)
  )",
                     "no-rand"));
}

TEST(MgtlintDeterminism, RandomizeIdentifierNotConfusedWithRand) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void randomize_codes(int n);
    int strand(int x) { return x; }
  )",
                     "no-rand"));
}

TEST(MgtlintDeterminism, TimeBadOutsideBench) {
  EXPECT_TRUE(fires("src/a.cpp", "long now() { return time(nullptr); }",
                    "no-time"));
  EXPECT_TRUE(fires("tests/t.cpp", "long now() { return time(nullptr); }",
                    "no-time"));
}

TEST(MgtlintDeterminism, TimeAllowedInBenchAndAsMember) {
  EXPECT_FALSE(fires("bench/b.cpp", "long now() { return time(nullptr); }",
                     "no-time"));
  EXPECT_FALSE(fires("src/a.cpp", "auto t = sim.time();", "no-time"));
  EXPECT_FALSE(fires("src/a.cpp",
                     "double rise_time(int code); auto x = rise_time(3);",
                     "no-time"));
}

TEST(MgtlintDeterminism, TimeAllowlisted) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "long now() { return time(nullptr); }  "
                     "// mgtlint:allow(no-time)",
                     "no-time"));
}

TEST(MgtlintDeterminism, WallClockBadOutsideBench) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "auto t = std::chrono::steady_clock::now();",
                    "no-wall-clock"));
  EXPECT_TRUE(fires("examples/e.cpp",
                    "auto t = std::chrono::system_clock::now();",
                    "no-wall-clock"));
}

TEST(MgtlintDeterminism, WallClockAllowedInBenchAndAllowlisted) {
  EXPECT_FALSE(fires("bench/b.cpp",
                     "auto t = std::chrono::steady_clock::now();",
                     "no-wall-clock"));
  EXPECT_FALSE(fires("src/a.cpp",
                     "auto t = std::chrono::steady_clock::now();  "
                     "// mgtlint:allow(no-wall-clock)",
                     "no-wall-clock"));
}

TEST(MgtlintDeterminism, UnorderedIterationBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    #include <unordered_map>
    double total(const std::unordered_map<int, double>& weights) {
      double sum = 0.0;
      for (const auto& kv : weights) { sum += kv.second; }
      return sum;
    }
  )",
                    "no-unordered-iter"));
}

TEST(MgtlintDeterminism, UnorderedBeginCallBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    std::unordered_set<int> pool;
    auto it = pool.begin();
  )",
                    "no-unordered-iter"));
}

TEST(MgtlintDeterminism, UnorderedIterationAllowlistedAndLookupFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    std::unordered_map<int, double> weights;
    double w = weights.at(3);          // keyed lookup: order-independent
    // mgtlint:allow(no-unordered-iter)
    for (const auto& kv : weights) { use(kv); }
  )",
                     "no-unordered-iter"));
}

TEST(MgtlintDeterminism, OrderedContainerIterationFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    std::map<int, double> weights;
    for (const auto& kv : weights) { use(kv); }
  )",
                     "no-unordered-iter"));
}

// --------------------------------------------------- wall-clock -> metrics --

TEST(MgtlintWallclockMetric, ClockIntoFreeHelperBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      obs::add_counter("x", std::chrono::steady_clock::now()
                                .time_since_epoch().count());
    }
  )",
                    "no-wallclock-metric"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() { obs::set_gauge("t", (double)time(nullptr)); }
  )",
                    "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, ClockIntoChainedUpdateBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      obs::registry().counter("x").add(clock_gettime(0, nullptr));
    }
  )",
                    "no-wallclock-metric"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      obs::registry().histogram("h", 0.0, 1.0, 8).observe(rdtsc());
    }
  )",
                    "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, FiresInBenchFilesToo) {
  // The broad no-wall-clock rule exempts bench/; this one does not — a
  // bench may time itself, but never through a metric.
  EXPECT_TRUE(fires("bench/bench_x.cpp", R"(
    void f() {
      obs::add_counter("x", std::chrono::steady_clock::now()
                                .time_since_epoch().count());
    }
  )",
                    "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, SimValuesMembersAndProfileFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(std::uint64_t n) { obs::add_counter("x", n); }
  )",
                     "no-wallclock-metric"));
  // `.time()` is a member read, not the libc wall clock.
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(const Span& s) { obs::set_gauge("t", s.time()); }
  )",
                     "no-wallclock-metric"));
  // profile_add is the designated wall-clock channel (quarantined from the
  // deterministic snapshot), so it is exempt by construction.
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(std::uint64_t wall_ns) {
      obs::registry().profile_add("scope", 1, 0, wall_ns);
    }
  )",
                     "no-wallclock-metric"));
  // An unrelated call chain ending in .add() is not a metric sink.
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() { widget().add(std::chrono::steady_clock::now()); }
  )",
                     "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, Allowlisted) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      // mgtlint:allow(no-wallclock-metric)
      obs::add_counter("x", (unsigned long long)time(nullptr));
    }
  )",
                     "no-wallclock-metric"));
}

// ------------------------------------------------------------ unit safety --

TEST(MgtlintUnits, RawDoubleParameterBad) {
  EXPECT_TRUE(fires("src/pecl/x.hpp", "void set_delay(double delay_ps);",
                    "unit-suffix-double"));
  EXPECT_TRUE(fires("src/signal/x.hpp", "void drive(double swing_mv);",
                    "unit-suffix-double"));
  EXPECT_TRUE(fires("src/a.hpp", "struct S { double rate_gbps = 0.0; };",
                    "unit-suffix-double"));
  EXPECT_TRUE(fires("src/a.hpp", "struct S { double f_ghz; };",
                    "unit-suffix-double"));
  EXPECT_TRUE(fires("src/a.hpp", "struct S { double opening_ui; };",
                    "unit-suffix-double"));
}

TEST(MgtlintUnits, RawDoubleAllowlisted) {
  EXPECT_FALSE(fires("src/a.hpp",
                     "void set_delay(double delay_ps);  "
                     "// mgtlint:allow(unit-suffix-double)",
                     "unit-suffix-double"));
}

TEST(MgtlintUnits, StrongTypesAndImplFilesFine) {
  // Strong types carry the unit; the suffix rule only bites raw doubles.
  EXPECT_FALSE(fires("src/a.hpp", "void set_delay(Picoseconds delay);",
                     "unit-suffix-double"));
  // Function *names* with a unit suffix document their return value.
  EXPECT_FALSE(fires("src/a.hpp", "double worst_residual_ps() const;",
                     "unit-suffix-double"));
  // The rule covers the public API surface (headers), not .cpp internals.
  EXPECT_FALSE(fires("src/a.cpp", "void set_delay(double delay_ps) {}",
                     "unit-suffix-double"));
}

TEST(MgtlintUnits, FloatInSrcBad) {
  EXPECT_TRUE(fires("src/a.cpp", "float gain = 1.0f;", "no-float"));
  EXPECT_TRUE(fires("src/a.hpp", "float gain();", "no-float"));
}

TEST(MgtlintUnits, FloatAllowlistedAndOutsideSrcFine) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "float gain = 1.0f;  // mgtlint:allow(no-float)",
                     "no-float"));
  EXPECT_FALSE(fires("bench/b.cpp", "float gain = 1.0f;", "no-float"));
  // Words containing "float" are not the keyword.
  EXPECT_FALSE(fires("src/a.cpp", "bool floating_output = false;",
                     "no-float"));
}

// ------------------------------------------------------- contract hygiene --

TEST(MgtlintContracts, AssertBad) {
  EXPECT_TRUE(fires("src/a.cpp", "void f(int n) { assert(n > 0); }",
                    "no-assert"));
}

TEST(MgtlintContracts, AssertAllowlistedAndRelativesFine) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f(int n) { assert(n > 0); }  "
                     "// mgtlint:allow(no-assert)",
                     "no-assert"));
  EXPECT_FALSE(fires("src/a.cpp", "static_assert(sizeof(int) == 4);",
                     "no-assert"));
  EXPECT_FALSE(fires("tests/t.cpp", "ASSERT_EQ(a, b); MGT_CHECK(a > 0);",
                     "no-assert"));
}

TEST(MgtlintContracts, UsingNamespaceHeaderBad) {
  EXPECT_TRUE(fires("src/a.hpp", "using namespace std;",
                    "no-using-namespace-header"));
}

TEST(MgtlintContracts, UsingNamespaceCppFineAndAllowlisted) {
  EXPECT_FALSE(fires("src/a.cpp", "using namespace mgt;",
                     "no-using-namespace-header"));
  EXPECT_FALSE(fires("src/a.hpp",
                     "using namespace std;  "
                     "// mgtlint:allow(no-using-namespace-header)",
                     "no-using-namespace-header"));
  EXPECT_FALSE(fires("src/a.hpp", "using mgt::Picoseconds;",
                     "no-using-namespace-header"));
}

TEST(MgtlintContracts, NonExplicitSingleArgCtorBad) {
  EXPECT_TRUE(fires("src/a.hpp", R"(
    class Delay {
    public:
      Delay(double ps);
    };
  )",
                    "explicit-ctor"));
  // Trailing defaulted params still make it single-argument callable.
  EXPECT_TRUE(fires("src/a.hpp", R"(
    struct Delay {
      Delay(double ps, int taps = 4);
    };
  )",
                    "explicit-ctor"));
}

TEST(MgtlintContracts, ExplicitCtorAndSpecialMembersFine) {
  EXPECT_FALSE(fires("src/a.hpp", R"(
    class Delay {
    public:
      Delay() = default;
      explicit Delay(double ps);
      constexpr explicit Delay(int code);
      Delay(const Delay& other) = default;
      Delay(Delay&& other) = default;
      Delay(double ps, int taps);
      ~Delay();
    private:
      double ps_ = 0.0;
    };
  )",
                     "explicit-ctor"));
}

TEST(MgtlintContracts, CtorAllowlisted) {
  EXPECT_FALSE(fires("src/a.hpp", R"(
    class Delay {
    public:
      Delay(double ps);  // mgtlint:allow(explicit-ctor)
    };
  )",
                     "explicit-ctor"));
}

TEST(MgtlintContracts, MemberInitListDelegationNotFlagged) {
  EXPECT_FALSE(fires("src/a.hpp", R"(
    class Delay {
    public:
      explicit Delay(double ps) : ps_(ps) {}
      Delay(int code, double step) : Delay(code * step) {}
    private:
      double ps_;
    };
  )",
                     "explicit-ctor"));
}

TEST(MgtlintContracts, NestedClassTracking) {
  EXPECT_TRUE(fires("src/a.hpp", R"(
    class Outer {
    public:
      struct Config {
        Config(int bins);
      };
      explicit Outer(Config c);
    };
  )",
                    "explicit-ctor"));
}

TEST(MgtlintContracts, EmptyCatchBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (...) {}
    }
  )",
                    "no-catch-ignore"));
  // A comment is not handling: the lexer strips it, the body stays empty.
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (const Error&) { /* best effort */ }
    }
  )",
                    "no-catch-ignore"));
}

TEST(MgtlintContracts, NonEmptyCatchAndAllowlistedFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (const Error& e) { ++failures; }
    }
  )",
                     "no-catch-ignore"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      // mgtlint:allow(no-catch-ignore)
      try { g(); } catch (...) {}
    }
  )",
                     "no-catch-ignore"));
  // Outside src/ the rule stays quiet (tests legitimately probe throws).
  EXPECT_FALSE(fires("tests/a.cpp", R"(
    void f() {
      try { g(); } catch (...) {}
    }
  )",
                     "no-catch-ignore"));
}

TEST(MgtlintContracts, CatchByValueBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (Error e) { log(e); }
    }
  )",
                    "catch-by-reference"));
}

TEST(MgtlintContracts, CatchByReferenceEllipsisAndAllowlistedFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (const Error& e) { log(e); }
    }
  )",
                     "catch-by-reference"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      try { g(); } catch (...) { ++failures; }
    }
  )",
                     "catch-by-reference"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f() {
      // mgtlint:allow(catch-by-reference)
      try { g(); } catch (Error e) { log(e); }
    }
  )",
                     "catch-by-reference"));
}

TEST(MgtlintContracts, UncheckedStatusBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(core::TestSystem& sys) {
      sys.self_test();
    }
  )",
                    "no-unchecked-status"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(link::LinkChannel& ch, const BitVector& p) {
      ch.send_payload(p);
    }
  )",
                    "no-unchecked-status"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(Deep& d) {
      d.sys->inner.self_test();
    }
  )",
                    "no-unchecked-status"));
}

TEST(MgtlintContracts, UncheckedStatusConsumedResultFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    bool f(core::TestSystem& sys) {
      const auto report = sys.self_test();
      return sys.self_test().worst() == fault::HealthStatus::kOk;
    }
  )",
                     "no-unchecked-status"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    fault::HealthReport f(core::TestSystem& sys) {
      return sys.self_test();
    }
  )",
                     "no-unchecked-status"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(link::LinkChannel& ch, const std::vector<BitVector>& ps) {
      const auto results = ch.transfer(ps);
      if (ch.send_payload(ps[0]).delivered) { note(); }
    }
  )",
                     "no-unchecked-status"));
}

TEST(MgtlintContracts, UncheckedStatusVoidCastAndAllowlistedFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(core::TestSystem& sys) {
      (void)sys.self_test();
    }
  )",
                     "no-unchecked-status"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(link::LinkChannel& ch, const BitVector& p) {
      ch.send_payload(p);  // mgtlint:allow(no-unchecked-status)
    }
  )",
                     "no-unchecked-status"));
}

TEST(MgtlintContracts, UncheckedDecodeBad) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(const std::uint8_t* p, std::size_t n, Record& out) {
      telemetry::decode_payload(PacketType::kWaveformChunk, p, n, out);
    }
  )",
                    "no-unchecked-decode"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(const char* raw) {
      util::parse_env_u64(raw);
    }
  )",
                    "no-unchecked-decode"));
  EXPECT_TRUE(fires("src/a.cpp", R"(
    void f(Frame& frame, const Bytes& b) {
      frame.decoder.decode_frame(b);
    }
  )",
                    "no-unchecked-decode"));
}

TEST(MgtlintContracts, UncheckedDecodeCheckedResultFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    bool f(const std::uint8_t* p, std::size_t n, Record& out) {
      if (!telemetry::decode_payload(PacketType::kWaveformChunk, p, n, out)) {
        return false;
      }
      const auto v = util::parse_env_u64(raw);
      return parse_env_flag(raw).has_value();
    }
  )",
                     "no-unchecked-decode"));
}

TEST(MgtlintContracts, UncheckedDecodeVoidCastAllowAndNonSrcFine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(const char* raw) {
      (void)util::parse_env_u64(raw);
    }
  )",
                     "no-unchecked-decode"));
  EXPECT_FALSE(fires("src/a.cpp", R"(
    void f(const char* raw) {
      util::parse_env_u64(raw);  // mgtlint:allow(no-unchecked-decode)
    }
  )",
                     "no-unchecked-decode"));
  // Outside src/ the rule stays quiet: tests/benches legitimately call
  // decoders for side effects on counters.
  EXPECT_FALSE(fires("tests/t.cpp", R"(
    void f(const char* raw) {
      util::parse_env_u64(raw);
    }
  )",
                     "no-unchecked-decode"));
}

// ------------------------------------------------------------------ lexer --

TEST(MgtlintLexer, StringsCommentsAndIncludesAreSkipped) {
  EXPECT_FALSE(fires("src/a.cpp", R"__(
    #include <ctime>
    const char* label = "guard time (each side)";
    // calling time() here would be bad
    /* std::random_device in prose */
    char c = '"';
  )__",
                     "no-time"));
  EXPECT_FALSE(fires("src/a.cpp", "const char* s = \"rand()\";", "no-rand"));
  EXPECT_FALSE(fires("src/a.cpp",
                     "const char* s = R\"(std::random_device)\";",
                     "no-random-device"));
}

TEST(MgtlintLexer, AllowListsMultipleRules) {
  EXPECT_TRUE(fired_rules("src/a.cpp",
                          "// mgtlint:allow(no-rand, no-time)\n"
                          "int x = rand() + (int)time(nullptr);")
                  .empty());
}

TEST(MgtlintLexer, AllowOfOneRuleDoesNotSuppressAnother) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "int x = rand();  // mgtlint:allow(no-time)", "no-rand"));
}

TEST(MgtlintLexer, DiagnosticPositionsAreOneBased) {
  const auto diags = lint_source("src/a.cpp", "int x = rand();");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 1u);
  EXPECT_EQ(diags[0].column, 9u);
  EXPECT_EQ(mgtlint::format_diagnostic(diags[0]).substr(0, 14),
            "src/a.cpp:1:9:");
}

// ------------------------------------------------------------------ misc --

TEST(MgtlintMisc, ClassifyPath) {
  EXPECT_EQ(mgtlint::classify_path("src/pecl/mux.hpp"),
            FileKind::kSourceHeader);
  EXPECT_EQ(mgtlint::classify_path("/root/repo/src/pecl/mux.cpp"),
            FileKind::kSourceImpl);
  EXPECT_EQ(mgtlint::classify_path("bench/bench_common.hpp"),
            FileKind::kBenchFile);
  EXPECT_EQ(mgtlint::classify_path("tests/test_core.cpp"),
            FileKind::kTestFile);
  EXPECT_EQ(mgtlint::classify_path("examples/quickstart.cpp"),
            FileKind::kExampleFile);
  EXPECT_EQ(mgtlint::classify_path("tools/mgtlint/lint.cpp"),
            FileKind::kToolFile);
}

// -------------------------------------------------------- unbounded wait --

TEST(MgtlintUnboundedWait, CondVarWaitBad) {
  EXPECT_TRUE(fires("src/util/pool.cpp", R"(
    void block(std::condition_variable& cv, std::unique_lock<std::mutex>& l) {
      cv.wait(l);
    }
  )",
                    "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, ThreadJoinAndSemaphoreAcquireBad) {
  EXPECT_TRUE(fires("src/util/parallel.cpp", R"(
    void stop(std::thread& t) { t.join(); }
  )",
                    "no-unbounded-wait"));
  EXPECT_TRUE(fires("src/util/parallel.cpp", R"(
    void take(std::counting_semaphore<4>& s) { s.acquire(); }
  )",
                    "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, ArrowAccessBad) {
  EXPECT_TRUE(fires("src/util/pool.cpp", R"(
    void block(std::condition_variable* cv,
               std::unique_lock<std::mutex>& l) { cv->wait(l); }
  )",
                    "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, DeadlineVariantsFine) {
  EXPECT_FALSE(fires("src/util/pool.cpp", R"(
    bool block(std::condition_variable& cv, std::unique_lock<std::mutex>& l,
               std::chrono::milliseconds d) {
      return cv.wait_for(l, d) == std::cv_status::no_timeout;
    }
    bool take(std::counting_semaphore<4>& s, std::chrono::milliseconds d) {
      return s.try_acquire_for(d);
    }
  )",
                     "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, FreeFunctionsAndOtherTreesFine) {
  // A free function named wait() is not a blocking primitive call, and the
  // rule only polices src/ (tests and benches may block indefinitely).
  EXPECT_FALSE(fires("src/core/sim.cpp", R"(
    void wait(int ticks);
    void run() { wait(4); }
  )",
                     "no-unbounded-wait"));
  EXPECT_FALSE(fires("tests/test_pool.cpp", R"(
    void stop(std::thread& t) { t.join(); }
  )",
                     "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, AllowlistSuppresses) {
  EXPECT_FALSE(fires("src/util/pool.cpp", R"(
    void stop(std::thread& t) {
      t.join();  // mgtlint:allow(no-unbounded-wait)
    }
  )",
                     "no-unbounded-wait"));
}

TEST(MgtlintMisc, AllRulesListsEveryRuleOnce) {
  const auto& rules = mgtlint::all_rules();
  EXPECT_EQ(rules.size(), 19u);
  for (const auto rule : rules) {
    EXPECT_EQ(std::count(rules.begin(), rules.end(), rule), 1)
        << std::string(rule);
  }
}

TEST(MgtlintMisc, CatalogMarksCrossTuAndFixableRules) {
  int cross_tu = 0;
  int fixable = 0;
  for (const auto& r : mgtlint::rule_catalog()) {
    cross_tu += r.cross_tu ? 1 : 0;
    fixable += r.fixable ? 1 : 0;
  }
  EXPECT_EQ(cross_tu, 3);
  EXPECT_EQ(fixable, 3);
}

TEST(MgtlintMisc, MissingFileReportsIoError) {
  const auto diags = mgtlint::lint_file("definitely/not/a/file.cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "io-error");
}

// ------------------------------------------- allow directive attribution --

// Regression: a directive inside a multi-line /* */ comment must be
// attributed to the line it is *written* on, not the comment's first line.
TEST(MgtlintAllow, DirectiveOnLastCommentLineCoversNextLine) {
  EXPECT_FALSE(fires("src/a.cpp", R"(
    /* legacy seeding, scheduled for removal
       mgtlint:allow(no-rand) */
    int r() { return rand(); }
  )",
                     "no-rand"));
}

TEST(MgtlintAllow, DirectiveOnFirstCommentLineDoesNotReachPastComment) {
  EXPECT_TRUE(fires("src/a.cpp", R"(
    /* mgtlint:allow(no-rand)
       two more lines of prose push the code
       out of the directive's reach */
    int r() { return rand(); }
  )",
                    "no-rand"));
}

// ----------------------------------------------------- cross-TU: helpers --

std::vector<Diagnostic> project(
    std::vector<mgtlint::ProjectInput> files) {
  return mgtlint::lint_project(std::move(files));
}

bool project_fires(std::vector<mgtlint::ProjectInput> files,
                   std::string_view rule) {
  for (const auto& d : project(std::move(files))) {
    if (d.rule == rule) {
      return true;
    }
  }
  return false;
}

// ------------------------------------- cross-TU: parallel-capture family --

// The headline case: each file lints clean in isolation (what v1 saw), yet
// the pair is a race — the lambda calls a function defined in another TU
// that increments a file-scope counter.
TEST(MgtlintCrossTu, LambdaCallingGlobalMutatorAcrossFilesFires) {
  const char* stats = R"(
    namespace mgt {
    int g_hits = 0;
    void bump() { g_hits += 1; }
    }  // namespace mgt
  )";
  const char* render = R"(
    namespace mgt {
    void render(std::size_t n) {
      util::parallel_for(n, [&](std::size_t i) { bump(); });
    }
    }  // namespace mgt
  )";
  // Per-file pass (v1's whole view): silent on both halves.
  EXPECT_TRUE(fired_rules("src/stats.cpp", stats).empty());
  EXPECT_TRUE(fired_rules("src/render.cpp", render).empty());
  // Project pass: the index connects bump() to g_hits.
  const auto diags = project({{"src/stats.cpp", stats},
                              {"src/render.cpp", render}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "no-shared-mutation-in-parallel");
  EXPECT_EQ(diags[0].file, "src/render.cpp");
  EXPECT_NE(diags[0].message.find("bump"), std::string::npos);
  EXPECT_NE(diags[0].message.find("g_hits"), std::string::npos);
  EXPECT_NE(diags[0].message.find("src/stats.cpp"), std::string::npos);
}

TEST(MgtlintCrossTu, DirectCapturedAccumulatorFires) {
  EXPECT_TRUE(project_fires({{"src/sum.cpp", R"(
    double sum(const std::vector<double>& v) {
      double total = 0.0;
      util::parallel_for(v.size(), [&](std::size_t i) { total += v[i]; });
      return total;
    }
  )"}},
                            "no-shared-mutation-in-parallel"));
}

TEST(MgtlintCrossTu, PerTaskSlotIdiomStaysSilent) {
  EXPECT_FALSE(project_fires({{"src/sum.cpp", R"(
    void produce(std::vector<double>& partial) {
      util::parallel_for(partial.size(),
                         [&](std::size_t i) { partial[i] = work(i); });
    }
  )"}},
                             "no-shared-mutation-in-parallel"));
}

TEST(MgtlintCrossTu, AtomicCounterStaysSilent) {
  EXPECT_FALSE(project_fires({{"src/count.cpp", R"(
    int count(std::size_t n) {
      std::atomic<int> done{0};
      util::parallel_for(n, [&](std::size_t) { ++done; });
      return done.load();
    }
  )"}},
                             "no-shared-mutation-in-parallel"));
}

TEST(MgtlintCrossTu, LocalStaticMutatorFires) {
  EXPECT_TRUE(project_fires({{"src/memo.cpp", R"(
    int next_id() {
      static int counter = 0;
      counter += 1;
      return counter;
    }
  )"},
                             {"src/tag.cpp", R"(
    void tag_all(std::size_t n) {
      util::parallel_for(n, [&](std::size_t i) { stamp(i, next_id()); });
    }
  )"}},
                            "no-shared-mutation-in-parallel"));
}

TEST(MgtlintCrossTu, SerialLambdaMutationStaysSilent) {
  // Mutation is only a hazard under the parallel layer; a lambda handed to
  // a plain algorithm may accumulate freely.
  EXPECT_FALSE(project_fires({{"src/serial.cpp", R"(
    double sum(const std::vector<double>& v) {
      double total = 0.0;
      std::for_each(v.begin(), v.end(), [&](double x) { total += x; });
      return total;
    }
  )"}},
                             "no-shared-mutation-in-parallel"));
}

TEST(MgtlintCrossTu, ParallelMutationAllowDirectiveSuppresses) {
  EXPECT_FALSE(project_fires({{"src/sum.cpp", R"(
    double sum(const std::vector<double>& v) {
      double total = 0.0;
      // disjoint by construction  mgtlint:allow(no-shared-mutation-in-parallel)
      util::parallel_for(v.size(), [&](std::size_t i) { total += v[i]; });
      return total;
    }
  )"}},
                             "no-shared-mutation-in-parallel"));
}

// ---------------------------------------- cross-TU: nondet-flow family --

// The wall-clock read hides in another file behind a sanctioned
// mgtlint:allow — v1 is silent on both files, the taint still flows.
TEST(MgtlintCrossTu, WallClockFlowsIntoCounterAcrossFilesFires) {
  const char* boot = R"(
    std::uint64_t boot_ns() {
      // startup stamp, quarantined  mgtlint:allow(no-wall-clock)
      auto t = std::chrono::steady_clock::now();
      return (std::uint64_t)t.time_since_epoch().count();
    }
  )";
  const char* metrics = R"(
    void snapshot() { obs::add_counter("boot_ns", boot_ns()); }
  )";
  EXPECT_TRUE(fired_rules("src/boot.cpp", boot).empty());
  EXPECT_TRUE(fired_rules("src/metrics.cpp", metrics).empty());
  const auto diags = project({{"src/boot.cpp", boot},
                              {"src/metrics.cpp", metrics}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "no-nondet-flow");
  EXPECT_EQ(diags[0].file, "src/metrics.cpp");
  EXPECT_NE(diags[0].message.find("steady_clock"), std::string::npos);
  EXPECT_NE(diags[0].message.find("src/boot.cpp"), std::string::npos);
}

TEST(MgtlintCrossTu, NondetFlowIsTransitiveThroughWrappers) {
  const auto diags = project({{"src/boot.cpp", R"(
    std::uint64_t boot_ns() {
      // mgtlint:allow(no-wall-clock)
      auto t = std::chrono::steady_clock::now();
      return (std::uint64_t)t.time_since_epoch().count();
    }
  )"},
                              {"src/uptime.cpp", R"(
    std::uint64_t uptime_ns() { return boot_ns(); }
  )"},
                              {"src/metrics.cpp", R"(
    void snapshot() {
      obs::registry().gauge("uptime").set((double)uptime_ns());
    }
  )"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "no-nondet-flow");
  EXPECT_NE(diags[0].message.find("uptime_ns"), std::string::npos);
  EXPECT_NE(diags[0].message.find("via"), std::string::npos);
}

TEST(MgtlintCrossTu, RngSeedFromRandFires) {
  EXPECT_TRUE(project_fires({{"src/seed.cpp", R"(
    std::uint64_t entropy() { return (std::uint64_t)rand(); }
  )"},
                             {"src/run.cpp", R"(
    void run(std::size_t i) {
      auto rng = util::task_rng(entropy(), i);
      use(rng);
    }
  )"}},
                            "no-nondet-flow"));
}

TEST(MgtlintCrossTu, DeterministicHelperIntoCounterStaysSilent) {
  EXPECT_FALSE(project_fires({{"src/edges.cpp", R"(
    std::uint64_t count_edges() { return 42; }
  )"},
                              {"src/metrics.cpp", R"(
    void snapshot() { obs::add_counter("edges", count_edges()); }
  )"}},
                             "no-nondet-flow"));
}

TEST(MgtlintCrossTu, ProfileChannelIsQuarantinedNotFlagged) {
  // profile_add is the designated wall-clock channel; routing a timestamp
  // there is the *fix* for this rule, so it must stay silent.
  EXPECT_FALSE(project_fires({{"src/boot.cpp", R"(
    std::uint64_t boot_ns() {
      // mgtlint:allow(no-wall-clock)
      auto t = std::chrono::steady_clock::now();
      return (std::uint64_t)t.time_since_epoch().count();
    }
  )"},
                              {"src/metrics.cpp", R"(
    void snapshot() { obs::registry().profile_add("boot", boot_ns()); }
  )"}},
                             "no-nondet-flow"));
}

TEST(MgtlintCrossTu, NondetFlowInBenchFilesStaysSilent) {
  // Benches time themselves on purpose; the sinks only matter in src/.
  EXPECT_FALSE(project_fires({{"src/boot.cpp", R"(
    std::uint64_t boot_ns() {
      // mgtlint:allow(no-wall-clock)
      auto t = std::chrono::steady_clock::now();
      return (std::uint64_t)t.time_since_epoch().count();
    }
  )"},
                              {"bench/bench_x.cpp", R"(
    void record() { obs::add_counter("boot", boot_ns()); }
  )"}},
                             "no-nondet-flow"));
}

// ------------------------------------------- cross-TU: unit-flow family --

// Declaration in one header, unit-carrying call in another file: neither
// buffer alone betrays the mismatch (the parameter has no unit suffix for
// v1's unit-suffix-double rule to catch).
TEST(MgtlintCrossTu, UnitValueIntoRawDoubleHeaderParamFires) {
  const char* hdr = R"(
    namespace pll {
    void set_phase(double x);
    }  // namespace pll
  )";
  const char* impl = R"(
    void tune(Picoseconds step) { pll::set_phase(step.ps()); }
  )";
  EXPECT_TRUE(fired_rules("src/pll/phase.hpp", hdr).empty());
  EXPECT_TRUE(fired_rules("src/pll/tune.cpp", impl).empty());
  const auto diags = project({{"src/pll/phase.hpp", hdr},
                              {"src/pll/tune.cpp", impl}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unit-flow-raw-double");
  EXPECT_EQ(diags[0].file, "src/pll/tune.cpp");
  EXPECT_NE(diags[0].message.find("Picoseconds"), std::string::npos);
  EXPECT_NE(diags[0].message.find("set_phase"), std::string::npos);
  EXPECT_NE(diags[0].message.find("src/pll/phase.hpp"), std::string::npos);
}

TEST(MgtlintCrossTu, UnitSuffixedIdentifierAlsoCarriesEvidence) {
  EXPECT_TRUE(project_fires({{"src/pll/phase.hpp", R"(
    void set_phase(double x);
  )"},
                             {"src/pll/tune.cpp", R"(
    void tune(double jitter_ps) { set_phase(jitter_ps); }
  )"}},
                            "unit-flow-raw-double"));
}

TEST(MgtlintCrossTu, StrongTypedParameterStaysSilent) {
  EXPECT_FALSE(project_fires({{"src/pll/phase.hpp", R"(
    void set_phase(Picoseconds x);
  )"},
                              {"src/pll/tune.cpp", R"(
    void tune(Picoseconds step) { set_phase(step); }
  )"}},
                             "unit-flow-raw-double"));
}

TEST(MgtlintCrossTu, UtilNumericSubstrateIsExempt) {
  // rng/digest/hashing deliberately erase units; gaussian(mean, sigma) on
  // raw doubles is the contract there, not an omission.
  EXPECT_FALSE(project_fires({{"src/util/rng.hpp", R"(
    double gaussian(double mean, double sigma);
  )"},
                              {"src/pll/tune.cpp", R"(
    double jitter(Rng& rng, Picoseconds sigma) {
      return gaussian(0.0, sigma.ps());
    }
  )"}},
                             "unit-flow-raw-double"));
}

TEST(MgtlintCrossTu, ImplOnlyDeclarationStaysSilent) {
  // No header declaration -> not a public API boundary; a TU-local helper
  // taking a raw double is fine.
  EXPECT_FALSE(project_fires({{"src/pll/tune.cpp", R"(
    static void set_phase_impl(double x) { poke(x); }
    void tune(Picoseconds step) { set_phase_impl(step.ps()); }
  )"}},
                             "unit-flow-raw-double"));
}

// --------------------------------------------------------------- fixes --

TEST(MgtlintFix, CatchByValueFixRewritesToConstRef) {
  const std::string code = R"(
    void f() {
      try { g(); } catch (std::runtime_error e) { log(e); }
    }
  )";
  const auto diags = lint_source("src/a.cpp", code);
  ASSERT_EQ(diags.size(), 1u);
  ASSERT_TRUE(diags[0].fix.has_value());
  std::string fixed = code;
  fixed.replace(diags[0].fix->begin, diags[0].fix->end - diags[0].fix->begin,
                diags[0].fix->replacement);
  EXPECT_NE(fixed.find("catch (const std::runtime_error& e)"),
            std::string::npos);
  EXPECT_TRUE(lint_source("src/a.cpp", fixed).empty());
}

TEST(MgtlintFix, DiscardedStatusFixInsertsVoidCast) {
  const std::string code = R"(
    void f(System& sys) {
      sys.self_test();
    }
  )";
  const auto diags = lint_source("src/a.cpp", code);
  ASSERT_EQ(diags.size(), 1u);
  ASSERT_TRUE(diags[0].fix.has_value());
  std::string fixed = code;
  fixed.replace(diags[0].fix->begin, diags[0].fix->end - diags[0].fix->begin,
                diags[0].fix->replacement);
  EXPECT_NE(fixed.find("(void)sys.self_test();"), std::string::npos);
  EXPECT_TRUE(lint_source("src/a.cpp", fixed).empty());
}

// ------------------------------------------------------------- baseline --

TEST(MgtlintBaseline, RoundTripSuppressesExactlyTheSnapshot) {
  const std::vector<mgtlint::ProjectInput> files = {
      {"src/sum.cpp", R"(
    double sum(const std::vector<double>& v) {
      double total = 0.0;
      util::parallel_for(v.size(), [&](std::size_t i) { total += v[i]; });
      return total;
    }
  )"}};
  const auto diags = project(files);
  ASSERT_EQ(diags.size(), 1u);
  const std::string text = mgtlint::write_baseline(diags);
  EXPECT_NE(text.find("# mgtlint baseline v1"), std::string::npos);
  const auto entries = mgtlint::parse_baseline(text);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rule, "no-shared-mutation-in-parallel");
  EXPECT_EQ(entries[0].path, "src/sum.cpp");
  EXPECT_EQ(entries[0].line_hash, diags[0].line_hash);
  EXPECT_TRUE(mgtlint::apply_baseline(diags, entries).empty());
}

TEST(MgtlintBaseline, FingerprintSurvivesLineDrift) {
  const char* v1_code = R"(
    double sum(const std::vector<double>& v) {
      double total = 0.0;
      util::parallel_for(v.size(), [&](std::size_t i) { total += v[i]; });
      return total;
    }
  )";
  // Same finding, pushed three lines down by an unrelated edit.
  const char* v2_code = R"(
    // A header comment added later,
    // spanning several lines,
    // moves everything below it.
    double sum(const std::vector<double>& v) {
      double total = 0.0;
      util::parallel_for(v.size(), [&](std::size_t i) { total += v[i]; });
      return total;
    }
  )";
  const auto baseline = mgtlint::parse_baseline(
      mgtlint::write_baseline(project({{"src/sum.cpp", v1_code}})));
  const auto drifted = project({{"src/sum.cpp", v2_code}});
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_TRUE(mgtlint::apply_baseline(drifted, baseline).empty());
}

TEST(MgtlintBaseline, NewFindingIsNotSuppressed) {
  const auto baseline = mgtlint::parse_baseline("# mgtlint baseline v1\n");
  const auto diags = project({{"src/sum.cpp", R"(
    double sum(const std::vector<double>& v) {
      double total = 0.0;
      util::parallel_for(v.size(), [&](std::size_t i) { total += v[i]; });
      return total;
    }
  )"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(mgtlint::apply_baseline(diags, baseline).size(), 1u);
}

TEST(MgtlintBaseline, MalformedLinesAreSkippedNotFatal) {
  const auto entries = mgtlint::parse_baseline(
      "# comment\n"
      "\n"
      "just-a-rule\n"
      "rule path nothex 0\n"
      "rule path 00000000000000ff notanumber\n"
      "good-rule src/a.cpp 00000000000000ff 2\n");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rule, "good-rule");
  EXPECT_EQ(entries[0].line_hash, 0xffu);
  EXPECT_EQ(entries[0].ordinal, 2u);
}

// ---------------------------------------------------------------- SARIF --

TEST(MgtlintSarif, GoldenSingleResult) {
  mgtlint::Diagnostic d;
  d.file = "src/pll/tune.cpp";
  d.line = 3;
  d.column = 7;
  d.rule = "unit-flow-raw-double";
  d.message = "a \"quoted\" message";
  d.line_hash = 0x1234abcd5678ef00ull;
  const std::string sarif = mgtlint::to_sarif({d});
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"mgtlint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"unit-flow-raw-double\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/pll/tune.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3, \"startColumn\": 7"),
            std::string::npos);
  EXPECT_NE(sarif.find("a \\\"quoted\\\" message"), std::string::npos);
  EXPECT_NE(sarif.find("\"mgtlintLineHash/v1\": \"1234abcd5678ef00\""),
            std::string::npos);
  // Every catalog rule appears in tool.driver.rules.
  for (const auto& r : mgtlint::rule_catalog()) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(r.id) + "\""),
              std::string::npos)
        << std::string(r.id);
  }
}

TEST(MgtlintSarif, EmptyRunHasEmptyResults) {
  const std::string sarif = mgtlint::to_sarif({});
  EXPECT_NE(sarif.find("\"results\": [\n      ]"), std::string::npos);
}

}  // namespace
