// Snippet tests for the lint census (tools/lint_census.cmake): each snippet
// is written at a repo-relative path into a scratch tree, the census runs
// over that tree in a child `cmake -P`, and the test checks which rules it
// reports. Every rule gets a known-bad snippet (must fire), an allowed one
// (`lint:allow(<rule>)`, must stay silent) and its near misses.
//
// The suites keep the names they had as the fixture tests of the retired
// mgtlint analyzer, whose token rules the census took over with the same
// ids and directory scopes. The snippets are ordinary string literals,
// which the census strips, so this file itself scans clean.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
};

// Runs the census over a scratch tree holding only `code` at `path`.
std::vector<Finding> census(const std::string& path, const std::string& code) {
  static int serial = 0;
  const fs::path root =
      fs::temp_directory_path() / ("lint_census_" + std::to_string(::getpid()) +
                                   "_" + std::to_string(serial++));
  fs::create_directories((root / path).parent_path());
  std::ofstream(root / path) << code << '\n';

  const std::string cmd = std::string("\"") + MGT_CMAKE_COMMAND + "\" -DREPO=\"" +
                          root.string() + "\" -P \"" + MGT_LINT_CENSUS +
                          "\" 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  std::string out;
  if (pipe != nullptr) {
    std::array<char, 512> buf{};
    while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe) !=
           nullptr) {
      out += buf.data();
    }
  }
  const int status = pipe != nullptr ? ::pclose(pipe) : -1;
  fs::remove_all(root);

  std::vector<Finding> findings;
  static const std::regex kFinding("^\\s+(\\S+):([0-9]+): \\[([a-z-]+)\\]");
  std::size_t begin = 0;
  while (begin < out.size()) {
    std::size_t end = out.find('\n', begin);
    if (end == std::string::npos) {
      end = out.size();
    }
    const std::string line = out.substr(begin, end - begin);
    std::smatch m;
    if (std::regex_search(line, m, kFinding)) {
      findings.push_back({m[1], std::stoi(m[2]), m[3]});
      EXPECT_EQ(findings.back().file, path) << line;
    }
    begin = end + 1;
  }
  // The census fails exactly when it reports a finding; anything else
  // (a missing script, a CMake error) is a broken run, not a verdict.
  EXPECT_EQ(status != 0, !findings.empty()) << cmd << "\n" << out;
  return findings;
}

std::vector<std::string> fired_rules(const std::string& path,
                                     const std::string& code) {
  std::vector<std::string> rules;
  for (const auto& f : census(path, code)) {
    rules.push_back(f.rule);
  }
  return rules;
}

bool fires(const std::string& path, const std::string& code,
           const std::string& rule) {
  const auto rules = fired_rules(path, code);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

// ------------------------------------------------------------ determinism --

TEST(MgtlintDeterminism, RandomDeviceBad) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "#include <random>\n"
                    "int seed() { std::random_device rd; return (int)rd(); }\n",
                    "no-random-device"));
}

TEST(MgtlintDeterminism, RandomDeviceAllowlisted) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "int seed() {\n"
                     "  std::random_device rd;  // lint:allow(no-random-device)\n"
                     "  return (int)rd();\n"
                     "}\n",
                     "no-random-device"));
}

TEST(MgtlintDeterminism, AllowOnPreviousLine) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "// lint:allow(no-random-device)\n"
                     "std::random_device rd;\n",
                     "no-random-device"));
}

TEST(MgtlintDeterminism, RandAndSrandBad) {
  // The census reports a rule once per line, so the two calls sit on two.
  const std::string code =
      "int roll() { srand(7);\n"
      "  return rand(); }\n";
  EXPECT_TRUE(fires("src/a.cpp", code, "no-rand"));
  const auto rules = fired_rules("src/a.cpp", code);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "no-rand"), 2);
}

TEST(MgtlintDeterminism, RandAllowlistedAndMembersExempt) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "int roll(Rng& rng) { return (int)rng.rand(); }\n"
                     "int legacy() { return rand(); }  // lint:allow(no-rand)\n",
                     "no-rand"));
}

TEST(MgtlintDeterminism, RandomizeIdentifierNotConfusedWithRand) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "void randomize_codes(int n);\n"
                     "int strand(int x) { return x; }\n",
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
                     "// lint:allow(no-time)",
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
                     "// lint:allow(no-wall-clock)",
                     "no-wall-clock"));
}

TEST(MgtlintDeterminism, UnorderedIterationBad) {
  EXPECT_TRUE(
      fires("src/a.cpp",
            "#include <unordered_map>\n"
            "double total(const std::unordered_map<int, double>& weights) {\n"
            "  double sum = 0.0;\n"
            "  for (const auto& kv : weights) { sum += kv.second; }\n"
            "  return sum;\n"
            "}\n",
            "no-unordered-iter"));
}

TEST(MgtlintDeterminism, UnorderedBeginCallBad) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "std::unordered_set<int> pool;\n"
                    "auto it = pool.begin();\n",
                    "no-unordered-iter"));
}

TEST(MgtlintDeterminism, OrderedContainerIterationFine) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "std::map<int, double> weights;\n"
                     "for (const auto& kv : weights) { use(kv); }\n",
                     "no-unordered-iter"));
}

// --------------------------------------------------- wall-clock -> metrics --

TEST(MgtlintWallclockMetric, ClockIntoFreeHelperBad) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "void f() {\n"
                    "  obs::add_counter(\"x\", std::chrono::steady_clock::now()\n"
                    "                            .time_since_epoch().count());\n"
                    "}\n",
                    "no-wallclock-metric"));
  EXPECT_TRUE(fires("src/a.cpp",
                    "void f() { obs::set_gauge(\"t\", (double)time(nullptr)); }\n",
                    "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, ClockIntoChainedUpdateBad) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "void f() {\n"
                    "  obs::registry().counter(\"x\").add(clock_gettime(0, "
                    "nullptr));\n"
                    "}\n",
                    "no-wallclock-metric"));
  EXPECT_TRUE(fires("src/a.cpp",
                    "void f() {\n"
                    "  obs::registry().histogram(\"h\", 0.0, 1.0, 8)"
                    ".observe(rdtsc());\n"
                    "}\n",
                    "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, FiresInBenchFilesToo) {
  // The broad no-wall-clock rule exempts bench/; this one does not — a
  // bench may time itself, but never through a metric.
  EXPECT_TRUE(fires("bench/bench_x.cpp",
                    "void f() {\n"
                    "  obs::add_counter(\"x\", std::chrono::steady_clock::now()\n"
                    "                            .time_since_epoch().count());\n"
                    "}\n",
                    "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, SimValuesMembersAndProfileFine) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f(std::uint64_t n) { obs::add_counter(\"x\", n); }\n",
                     "no-wallclock-metric"));
  // `.time()` is a member read, not the libc wall clock.
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f(const Span& s) { obs::set_gauge(\"t\", s.time()); }\n",
                     "no-wallclock-metric"));
  // profile_add is the designated wall-clock channel (quarantined from the
  // deterministic snapshot), so it is exempt by construction.
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f(std::uint64_t wall_ns) {\n"
                     "  obs::registry().profile_add(\"scope\", 1, 0, wall_ns);\n"
                     "}\n",
                     "no-wallclock-metric"));
  // An unrelated call chain ending in .add() is not a metric sink.
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f() { widget().add(std::chrono::steady_clock::now()); }\n",
                     "no-wallclock-metric"));
}

TEST(MgtlintWallclockMetric, Allowlisted) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f() {\n"
                     "  // lint:allow(no-wallclock-metric)\n"
                     "  obs::add_counter(\"x\", (unsigned long long)time(nullptr));\n"
                     "}\n",
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
                     "// lint:allow(unit-suffix-double)",
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
                     "float gain = 1.0f;  // lint:allow(no-float)",
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
                     "// lint:allow(no-assert)",
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
                     "// lint:allow(no-using-namespace-header)",
                     "no-using-namespace-header"));
  EXPECT_FALSE(fires("src/a.hpp", "using mgt::Picoseconds;",
                     "no-using-namespace-header"));
}

TEST(MgtlintContracts, EmptyCatchBad) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "void f() {\n"
                    "  try { g(); } catch (...) {}\n"
                    "}\n",
                    "no-catch-ignore"));
  // A comment is not handling: the census strips it, the body stays empty.
  EXPECT_TRUE(fires("src/a.cpp",
                    "void f() {\n"
                    "  try { g(); } catch (const Error&) { /* best effort */ }\n"
                    "}\n",
                    "no-catch-ignore"));
}

TEST(MgtlintContracts, NonEmptyCatchAndAllowlistedFine) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f() {\n"
                     "  try { g(); } catch (const Error& e) { ++failures; }\n"
                     "}\n",
                     "no-catch-ignore"));
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f() {\n"
                     "  // lint:allow(no-catch-ignore)\n"
                     "  try { g(); } catch (...) {}\n"
                     "}\n",
                     "no-catch-ignore"));
  // Outside src/ the rule stays quiet (tests legitimately probe throws).
  EXPECT_FALSE(fires("tests/a.cpp",
                     "void f() {\n"
                     "  try { g(); } catch (...) {}\n"
                     "}\n",
                     "no-catch-ignore"));
}

TEST(MgtlintContracts, CatchByValueBad) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "void f() {\n"
                    "  try { g(); } catch (Error e) { log(e); }\n"
                    "}\n",
                    "catch-by-reference"));
}

TEST(MgtlintContracts, CatchByReferenceEllipsisAndAllowlistedFine) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f() {\n"
                     "  try { g(); } catch (const Error& e) { log(e); }\n"
                     "}\n",
                     "catch-by-reference"));
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f() {\n"
                     "  try { g(); } catch (...) { ++failures; }\n"
                     "}\n",
                     "catch-by-reference"));
  EXPECT_FALSE(fires("src/a.cpp",
                     "void f() {\n"
                     "  // lint:allow(catch-by-reference)\n"
                     "  try { g(); } catch (Error e) { log(e); }\n"
                     "}\n",
                     "catch-by-reference"));
}

// ----------------------------------------------------- comments and marks --

TEST(MgtlintLexer, StringsCommentsAndIncludesAreSkipped) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "#include <ctime>\n"
                     "const char* label = \"guard time (each side)\";\n"
                     "// calling time() here would be bad\n"
                     "/* std::random_device in prose */\n"
                     "char c = '\"';\n",
                     "no-time"));
  EXPECT_FALSE(fires("src/a.cpp", "const char* s = \"rand()\";", "no-rand"));
  EXPECT_FALSE(fires("src/a.cpp",
                     "const char* s = R\"(std::random_device)\";",
                     "no-random-device"));
}

TEST(MgtlintLexer, AllowListsMultipleRules) {
  EXPECT_TRUE(fired_rules("src/a.cpp",
                          "// lint:allow(no-rand, no-time)\n"
                          "int x = rand() + (int)time(nullptr);")
                  .empty());
}

TEST(MgtlintLexer, AllowOfOneRuleDoesNotSuppressAnother) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "int x = rand();  // lint:allow(no-time)", "no-rand"));
}

// -------------------------------------------------------- unbounded wait --

TEST(MgtlintUnboundedWait, CondVarWaitBad) {
  EXPECT_TRUE(fires(
      "src/util/pool.cpp",
      "void block(std::condition_variable& cv, std::unique_lock<std::mutex>& l) {\n"
      "  cv.wait(l);\n"
      "}\n",
      "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, ThreadJoinAndSemaphoreAcquireBad) {
  EXPECT_TRUE(fires("src/util/parallel.cpp",
                    "void stop(std::thread& t) { t.join(); }\n",
                    "no-unbounded-wait"));
  EXPECT_TRUE(fires("src/util/parallel.cpp",
                    "void take(std::counting_semaphore<4>& s) { s.acquire(); }\n",
                    "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, ArrowAccessBad) {
  EXPECT_TRUE(fires("src/util/pool.cpp",
                    "void block(std::condition_variable* cv,\n"
                    "           std::unique_lock<std::mutex>& l) { cv->wait(l); }\n",
                    "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, DeadlineVariantsFine) {
  EXPECT_FALSE(fires(
      "src/util/pool.cpp",
      "bool block(std::condition_variable& cv, std::unique_lock<std::mutex>& l,\n"
      "           std::chrono::milliseconds d) {\n"
      "  return cv.wait_for(l, d) == std::cv_status::no_timeout;\n"
      "}\n"
      "bool take(std::counting_semaphore<4>& s, std::chrono::milliseconds d) {\n"
      "  return s.try_acquire_for(d);\n"
      "}\n",
      "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, FreeFunctionsAndOtherTreesFine) {
  // A free function named wait() is not a blocking primitive call, and the
  // rule only polices src/ (tests and benches may block indefinitely).
  EXPECT_FALSE(fires("src/core/sim.cpp",
                     "void wait(int ticks);\n"
                     "void run() { wait(4); }\n",
                     "no-unbounded-wait"));
  EXPECT_FALSE(fires("tests/test_pool.cpp",
                     "void stop(std::thread& t) { t.join(); }\n",
                     "no-unbounded-wait"));
}

TEST(MgtlintUnboundedWait, AllowlistSuppresses) {
  EXPECT_FALSE(fires("src/util/pool.cpp",
                     "void stop(std::thread& t) {\n"
                     "  t.join();  // lint:allow(no-unbounded-wait)\n"
                     "}\n",
                     "no-unbounded-wait"));
}

// ------------------------------------------- allow directive attribution --

// A directive inside a multi-line /* */ comment covers the line it is
// written on and the next, not the line after the comment's first.
TEST(MgtlintAllow, DirectiveOnLastCommentLineCoversNextLine) {
  EXPECT_FALSE(fires("src/a.cpp",
                     "/* legacy seeding, scheduled for removal\n"
                     "   lint:allow(no-rand) */\n"
                     "int r() { return rand(); }\n",
                     "no-rand"));
}

TEST(MgtlintAllow, DirectiveOnFirstCommentLineDoesNotReachPastComment) {
  EXPECT_TRUE(fires("src/a.cpp",
                    "/* lint:allow(no-rand)\n"
                    "   two more lines of prose push the code\n"
                    "   out of the directive's reach */\n"
                    "int r() { return rand(); }\n",
                    "no-rand"));
}

}  // namespace
