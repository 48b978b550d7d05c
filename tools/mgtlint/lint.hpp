// mgtlint: repo-specific static analysis for the mgt reproduction.
//
// v2 is a two-layer analyzer:
//
//   per-file rules   - the fast token-level checks of v1 (determinism,
//                      unit safety, contract hygiene), one buffer at a time
//   cross-TU rules   - a project-wide pass over a symbol index built from
//                      every file of one invocation: parallel-capture
//                      discipline, determinism escape analysis, and
//                      unit-safety flow across declaration boundaries
//
// The library half (this header) lints in-memory buffers so the rules are
// unit-testable; main.cpp wraps it in a directory walker, SARIF writer,
// baseline filter and fixer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mgtlint {

/// Where a file sits in the repo; controls which rules apply.
enum class FileKind {
  kSourceHeader,  // .hpp under src/ (public API surface)
  kSourceImpl,    // .cpp under src/
  kTestFile,      // tests/
  kBenchFile,     // bench/ (wall-clock timing of benchmarks is allowed)
  kExampleFile,   // examples/
  kToolFile,      // tools/
  kOtherHeader,   // any other .hpp/.h
  kOtherImpl,     // any other .cpp
};

/// Classifies a path by its repo-relative location and extension.
FileKind classify_path(std::string_view path);

/// Path with everything left of the repo anchor (src/, tests/, bench/,
/// examples/, tools/) stripped: "/root/repo/src/pecl/mux.hpp" ->
/// "src/pecl/mux.hpp". Used for baseline keys and SARIF artifact URIs so
/// findings survive a checkout moving.
std::string repo_relative(std::string_view path);

/// A mechanical, compile-safe replacement for a finding: replace source
/// bytes [begin, end) with `replacement`. Only rules whose catalog entry is
/// `fixable` emit one.
struct FixIt {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string replacement;
};

/// One finding. `rule` is the stable kebab-case id usable in
/// `// mgtlint:allow(<rule>)` suppressions.
struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::size_t column = 0;
  std::string rule;
  std::string message;
  /// FNV-1a of the trimmed source line text; with (rule, repo-relative
  /// file) and an occurrence ordinal this forms the baseline fingerprint,
  /// which survives unrelated edits moving the finding's line number.
  std::uint64_t line_hash = 0;
  std::optional<FixIt> fix;
};

/// Stable rule ids (see README for the catalog).
namespace rules {
inline constexpr std::string_view kRandomDevice = "no-random-device";
inline constexpr std::string_view kRand = "no-rand";
inline constexpr std::string_view kTime = "no-time";
inline constexpr std::string_view kWallClock = "no-wall-clock";
inline constexpr std::string_view kUnorderedIter = "no-unordered-iter";
inline constexpr std::string_view kUnitDouble = "unit-suffix-double";
inline constexpr std::string_view kFloat = "no-float";
inline constexpr std::string_view kAssert = "no-assert";
inline constexpr std::string_view kUsingNamespace = "no-using-namespace-header";
inline constexpr std::string_view kExplicitCtor = "explicit-ctor";
inline constexpr std::string_view kCatchIgnore = "no-catch-ignore";
inline constexpr std::string_view kCatchByValue = "catch-by-reference";
inline constexpr std::string_view kUncheckedStatus = "no-unchecked-status";
inline constexpr std::string_view kUncheckedDecode = "no-unchecked-decode";
inline constexpr std::string_view kWallclockMetric = "no-wallclock-metric";
inline constexpr std::string_view kUnboundedWait = "no-unbounded-wait";
// Cross-TU families (v2): these need the whole-project index and only fire
// from lint_project, never from single-buffer lint_source.
inline constexpr std::string_view kParallelMutation =
    "no-shared-mutation-in-parallel";
inline constexpr std::string_view kNondetFlow = "no-nondet-flow";
inline constexpr std::string_view kUnitFlow = "unit-flow-raw-double";
}  // namespace rules

/// Rule metadata, consumed by --list-rules, the SARIF tool.driver.rules
/// array, and the fixer.
struct RuleInfo {
  std::string_view id;
  std::string_view summary;  // one line, imperative
  bool fixable = false;      // --fix can rewrite findings mechanically
  bool cross_tu = false;     // needs the project index (lint_project only)
};

/// The full catalog, one entry per rule, stable order.
const std::vector<RuleInfo>& rule_catalog();

/// All rule ids, for --list-rules and the fixture suite.
const std::vector<std::string_view>& all_rules();

/// Lints one in-memory buffer with the per-file rules. `path` is used for
/// classification (unless a kind is passed) and for the diagnostics' file
/// field.
std::vector<Diagnostic> lint_source(std::string_view path,
                                    std::string_view content);
std::vector<Diagnostic> lint_source(std::string_view path,
                                    std::string_view content, FileKind kind);

/// One input buffer of a project-wide invocation.
struct ProjectInput {
  std::string path;
  std::string content;
};

/// Lints a whole project in one invocation: per-file rules on every buffer
/// plus the cross-TU rule families over the combined symbol index. Results
/// are sorted by (file, line, column, rule).
std::vector<Diagnostic> lint_project(const std::vector<ProjectInput>& files);

/// Reads and lints a file on disk (per-file rules only). Missing/unreadable
/// files produce a single diagnostic with rule "io-error".
std::vector<Diagnostic> lint_file(const std::string& path);

/// Formats a diagnostic as "file:line:col: [rule] message".
std::string format_diagnostic(const Diagnostic& d);

/// FNV-1a 64-bit over the trimmed text of `line` (1-based) in `content`;
/// the line-identity half of a baseline fingerprint.
std::uint64_t hash_source_line(std::string_view content, std::size_t line);

}  // namespace mgtlint
