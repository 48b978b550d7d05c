#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "index.hpp"
#include "parse.hpp"

namespace mgtlint {

namespace {

// ------------------------------------------------------------- rule logic --

bool has_unit_suffix(std::string_view name) {
  for (const std::string_view s :
       {"_ps", "_mv", "_gbps", "_ghz", "_ui"}) {
    if (name.size() > s.size() && name.ends_with(s)) {
      return true;
    }
  }
  return false;
}

bool is_header(FileKind k) {
  return k == FileKind::kSourceHeader || k == FileKind::kOtherHeader;
}

bool in_src(FileKind k) {
  return k == FileKind::kSourceHeader || k == FileKind::kSourceImpl;
}

class Linter {
public:
  Linter(std::string_view path, std::string_view content, FileKind kind)
      : path_(path), content_(content), kind_(kind), lexed_(lex(content)) {}

  std::vector<Diagnostic> run() {
    collect_unordered_names();
    const auto& toks = lexed_.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      check_determinism(i);
      check_wallclock_metric(i);
      check_units(i);
      check_contracts(i);
      check_unbounded_wait(i);
      track_classes(i);
    }
    return std::move(diags_);
  }

private:
  const Token& tok(std::size_t i) const { return lexed_.tokens[i]; }
  std::size_t size() const { return lexed_.tokens.size(); }

  bool next_is(std::size_t i, std::string_view text) const {
    return i + 1 < size() && tok(i + 1).text == text;
  }
  bool prev_is(std::size_t i, std::string_view text) const {
    return i > 0 && tok(i - 1).text == text;
  }
  bool member_access_before(std::size_t i) const {
    return prev_is(i, ".") || prev_is(i, "->");
  }

  void report(std::size_t i, std::string_view rule, std::string message,
              std::optional<FixIt> fix = std::nullopt) {
    const Token& t = tok(i);
    const auto it = lexed_.allow.find(t.line);
    if (it != lexed_.allow.end() && it->second.count(std::string(rule))) {
      return;
    }
    diags_.push_back({std::string(path_), t.line, t.column, std::string(rule),
                      std::move(message), hash_source_line(content_, t.line),
                      std::move(fix)});
  }

  // --- determinism ---

  void check_determinism(std::size_t i) {
    const Token& t = tok(i);
    if (t.kind != TokKind::kIdent) {
      return;
    }
    if (t.text == "random_device") {
      report(i, rules::kRandomDevice,
             "std::random_device is non-deterministic; seed an mgt::Rng "
             "explicitly");
    }
    if ((t.text == "rand" || t.text == "srand") && next_is(i, "(") &&
        !member_access_before(i)) {
      report(i, rules::kRand,
             std::string(t.text) +
                 "() uses hidden global state; use mgt::Rng streams");
    }
    if (kind_ != FileKind::kBenchFile) {
      if (t.text == "time" && next_is(i, "(") && !member_access_before(i)) {
        report(i, rules::kTime,
               "time() reads the wall clock; results must not depend on it "
               "outside bench/");
      }
      if (t.text == "system_clock" || t.text == "steady_clock") {
        report(i, rules::kWallClock,
               "std::chrono::" + std::string(t.text) +
                   " is wall-clock state; only bench/ may time itself");
      }
    }
    // Range-for (or explicit .begin()) over an unordered container declared
    // in this file: iteration order is unspecified, which silently breaks
    // ordered reductions.
    if (unordered_names_.count(std::string(t.text)) != 0U) {
      const bool range_for = prev_is(i, ":");
      const bool begin_call =
          next_is(i, ".") && i + 2 < size() &&
          (tok(i + 2).text == "begin" || tok(i + 2).text == "cbegin");
      if (range_for || begin_call) {
        report(i, rules::kUnorderedIter,
               "iterating unordered container '" + std::string(t.text) +
                   "' has unspecified order; use a sorted/ordered container "
                   "in reduction paths");
      }
    }
  }

  // --- unbounded blocking waits ---

  /// Blocking member calls with no deadline in src/: `cv.wait(...)`,
  /// `thread.join()`, `future.wait()`, `semaphore.acquire()`. Every wait is
  /// bounded — by a *_for/*_until variant or a caller-side budget — so one
  /// hung worker can never hang the process. Intentionally indefinite waits (a pool's idle workers parked
  /// on a condition variable) carry a mgtlint:allow with a justification.
  void check_unbounded_wait(std::size_t i) {
    const Token& t = tok(i);
    if (t.kind != TokKind::kIdent || !in_src(kind_)) {
      return;
    }
    if (!member_access_before(i) || !next_is(i, "(")) {
      return;
    }
    if (t.text != "wait" && t.text != "join" && t.text != "acquire") {
      return;
    }
    report(i, rules::kUnboundedWait,
           "blocking '" + std::string(t.text) +
               "()' has no deadline; bound it (wait_for/wait_until, a tick "
               "budget) or justify with mgtlint:allow(no-unbounded-wait)");
  }

  // --- wall-clock into metrics ---

  static bool wallclock_source(std::string_view name) {
    return name == "steady_clock" || name == "system_clock" ||
           name == "high_resolution_clock" || name == "clock_gettime" ||
           name == "gettimeofday" || name == "rdtsc" || name == "__rdtsc";
  }

  /// Wall-clock values flowing into an obs metric sink. The obs snapshot is
  /// contractually deterministic, so a clock read anywhere in the argument
  /// list of add_counter/set_gauge/observe/record_span — or of a chained
  /// counter()/gauge()/histogram() update — poisons it. Unlike the broad
  /// no-wall-clock rule this applies to EVERY file kind, bench/ included:
  /// benches may time themselves, but never through a metric. profile_add
  /// is exempt by construction — it is the designated wall-clock channel.
  void check_wallclock_metric(std::size_t i) {
    const Token& t = tok(i);
    if (t.kind != TokKind::kIdent || !next_is(i, "(")) {
      return;
    }
    bool sink = !member_access_before(i) &&
                (t.text == "add_counter" || t.text == "set_gauge" ||
                 t.text == "observe" || t.text == "record_span");
    if (!sink && member_access_before(i) &&
        (t.text == "add" || t.text == "set" || t.text == "observe")) {
      // `registry().counter("x").add(v)`: walk back over the accessor's
      // balanced parens to the identifier naming it.
      const std::size_t dot = i - 1;
      if (dot >= 1 && tok(dot - 1).text == ")") {
        std::size_t k = dot - 1;
        int depth = 0;
        while (true) {
          if (tok(k).text == ")") {
            ++depth;
          } else if (tok(k).text == "(" && --depth == 0) {
            break;
          }
          if (k == 0) {
            return;
          }
          --k;
        }
        if (k >= 1 && (tok(k - 1).text == "counter" ||
                       tok(k - 1).text == "gauge" ||
                       tok(k - 1).text == "histogram")) {
          sink = true;
        }
      }
    }
    if (!sink) {
      return;
    }
    std::size_t j = i + 1;  // at '('
    int depth = 0;
    for (; j < size(); ++j) {
      if (tok(j).text == "(") {
        ++depth;
        continue;
      }
      if (tok(j).text == ")") {
        if (--depth == 0) {
          break;
        }
        continue;
      }
      if (depth >= 1 && tok(j).kind == TokKind::kIdent) {
        const std::string_view x = tok(j).text;
        const bool time_call =
            x == "time" && next_is(j, "(") && !member_access_before(j);
        if (wallclock_source(x) || time_call) {
          report(i, rules::kWallclockMetric,
                 "wall-clock value '" + std::string(x) +
                     "' feeds metric sink '" + std::string(t.text) +
                     "'; obs metrics must be simulation-derived (profile "
                     "scopes are the wall-clock channel)");
          return;
        }
      }
    }
  }

  // --- unit safety ---

  void check_units(std::size_t i) {
    const Token& t = tok(i);
    if (t.kind != TokKind::kIdent) {
      return;
    }
    if (t.text == "float" && in_src(kind_)) {
      report(i, rules::kFloat,
             "float narrows ps-resolution math; use double or a strong unit "
             "type");
      return;  // also suppresses a duplicate unit-suffix hit below
    }
    if ((t.text == "double" || t.text == "float") &&
        kind_ == FileKind::kSourceHeader) {
      // Skip cv/ref/pointer decoration between the type and the name.
      std::size_t j = i + 1;
      while (j < size() && (tok(j).text == "const" || tok(j).text == "*" ||
                            tok(j).text == "&")) {
        ++j;
      }
      if (j < size() && tok(j).kind == TokKind::kIdent &&
          has_unit_suffix(tok(j).text) && !next_is(j, "(")) {
        report(j, rules::kUnitDouble,
               "raw " + std::string(t.text) + " '" + std::string(tok(j).text) +
                   "' carries a unit suffix; use the strong type from "
                   "util/units.hpp");
      }
    }
  }

  // --- contract hygiene ---

  void check_contracts(std::size_t i) {
    const Token& t = tok(i);
    if (t.kind != TokKind::kIdent) {
      return;
    }
    if (t.text == "assert" && next_is(i, "(") && !member_access_before(i) &&
        !prev_is(i, "::")) {
      report(i, rules::kAssert,
             "assert() compiles out under NDEBUG; use MGT_CHECK so contracts "
             "hold in every build");
    }
    if (t.text == "using" && next_is(i, "namespace") && is_header(kind_)) {
      report(i, rules::kUsingNamespace,
             "'using namespace' in a header pollutes every includer");
    }
    if (t.text == "catch" && next_is(i, "(") && in_src(kind_)) {
      check_catch(i);
    }
    if (next_is(i, "(") && is_must_use_call(t.text)) {
      check_discarded_status(i, rules::kUncheckedStatus,
                             "check the returned status");
    }
    if (next_is(i, "(") && in_src(kind_) && is_decode_call(t.text)) {
      check_discarded_status(i, rules::kUncheckedDecode,
                             "a decode/parse result carries the only "
                             "evidence the input was valid");
    }
    if (!class_stack_.empty() && t.text == class_stack_.back().name &&
        next_is(i, "(") && brace_depth_ == class_stack_.back().member_depth) {
      check_ctor(i);
    }
  }

  /// Calls whose return value is a health/delivery verdict that must not
  /// be silently dropped: self-test reports and the ARQ send-result types.
  static bool is_must_use_call(std::string_view name) {
    return name == "self_test" || name == "send_payload" ||
           name == "transfer" || name == "inject_with_retry";
  }

  /// Decoders/parsers are total over arbitrary input only because they
  /// *report* failure instead of trusting the bytes; dropping that report
  /// turns hostile input into silent garbage. Applies to any call whose
  /// name starts with decode/parse in src/ (telemetry::decode_payload,
  /// util::parse_env_u64, util::parse_env_flag, ...).
  static bool is_decode_call(std::string_view name) {
    return name.size() >= 6 &&
           (name.substr(0, 6) == "decode" || name.substr(0, 5) == "parse");
  }

  /// A must-use call whose result is discarded as a bare statement:
  /// `sys.self_test();`. Consuming the result in any way — assignment,
  /// member access on the returned object, a surrounding expression,
  /// `return`, or an explicit `(void)` cast — is fine.
  void check_discarded_status(std::size_t i, std::string_view rule,
                              std::string_view why) {
    // The full-expression must end right after the call's closing paren.
    std::size_t j = i + 1;  // at '('
    int depth = 0;
    for (; j < size(); ++j) {
      if (tok(j).text == "(") {
        ++depth;
      } else if (tok(j).text == ")") {
        if (--depth == 0) {
          break;
        }
      }
    }
    if (j + 1 >= size() || tok(j + 1).text != ";") {
      return;  // result feeds a larger expression (.worst(), comparison...)
    }
    // Walk the object chain back to the start of the statement:
    // `a.b->c.self_test();` starts at `a`.
    std::size_t head = i;
    while (head >= 2 &&
           (tok(head - 1).text == "." || tok(head - 1).text == "->" ||
            tok(head - 1).text == "::") &&
           tok(head - 2).kind == TokKind::kIdent) {
      head -= 2;
    }
    if (head == 0) {
      return;  // nothing before: can't prove it's a statement
    }
    const std::string_view before = tok(head - 1).text;
    // `(void)chain.call();` is an explicit, reviewable discard.
    if (before == ")" && head >= 3 && tok(head - 2).text == "void" &&
        tok(head - 3).text == "(") {
      return;
    }
    if (before == ";" || before == "{" || before == "}") {
      // Mechanical fix: make the discard explicit. (Checking the status is
      // better, but that needs a human; (void) at least survives review.)
      FixIt fix{tok(head).offset, tok(head).offset, "(void)"};
      report(i, rule,
             "discarded result of '" + std::string(tok(i).text) + "()'; " +
                 std::string(why) + " (or cast to (void) / mgtlint:allow(" +
                 std::string(rule) + "))",
             fix);
    }
  }

  /// catch clause in src/: the handler must not swallow the exception
  /// silently (empty body) and must not catch by value (slicing loses the
  /// derived type, e.g. RecoverableError decays to Error).
  void check_catch(std::size_t i) {
    // Parse the exception declaration between the parens.
    std::size_t j = i + 1;  // at '('
    int depth = 0;
    bool by_reference = false;
    for (; j < size(); ++j) {
      const std::string_view x = tok(j).text;
      if (x == "(") {
        ++depth;
        continue;
      }
      if (x == ")") {
        if (--depth == 0) {
          break;
        }
        continue;
      }
      // `...` lexes as three '.' puncts; pointers are odd but don't slice.
      if (x == "." || x == "&" || x == "*") {
        by_reference = true;
      }
    }
    if (!by_reference) {
      report(i, rules::kCatchByValue,
             "catching an exception by value slices the object; catch by "
             "const reference",
             catch_fix(i + 1, j));
    }
    // Body: an empty brace pair (comments are stripped by the lexer) means
    // the exception vanishes without a trace.
    std::size_t k = j + 1;  // expected '{'
    if (k >= size() || tok(k).text != "{") {
      return;  // malformed or macro trickery; leave it to the compiler
    }
    int braces = 0;
    std::size_t body_tokens = 0;
    for (; k < size(); ++k) {
      const std::string_view x = tok(k).text;
      if (x == "{") {
        ++braces;
        continue;
      }
      if (x == "}") {
        if (--braces == 0) {
          break;
        }
        continue;
      }
      if (braces >= 1) {
        ++body_tokens;
      }
    }
    if (body_tokens == 0) {
      report(i, rules::kCatchIgnore,
             "empty catch block swallows the exception; record or translate "
             "the failure (or suppress with mgtlint:allow)");
    }
  }

  /// Mechanical fix for catch-by-value: rewrite `catch (Type name)` /
  /// `catch (ns::Type)` as a const-reference declaration. Returns nullopt
  /// for anything fancier than ident/`::` sequences (no fix is safer than a
  /// wrong fix).
  std::optional<FixIt> catch_fix(std::size_t open, std::size_t close) {
    if (close <= open + 1 || close >= size()) {
      return std::nullopt;
    }
    std::vector<std::size_t> parts;
    for (std::size_t k = open + 1; k < close; ++k) {
      if (tok(k).kind == TokKind::kIdent || tok(k).text == "::") {
        parts.push_back(k);
      } else {
        return std::nullopt;
      }
    }
    if (parts.empty()) {
      return std::nullopt;
    }
    // Name present iff the last two parts are adjacent identifiers.
    std::string name;
    std::size_t type_end = parts.size();
    if (parts.size() >= 2 &&
        tok(parts[parts.size() - 1]).kind == TokKind::kIdent &&
        tok(parts[parts.size() - 2]).kind == TokKind::kIdent) {
      name = std::string(tok(parts.back()).text);
      type_end = parts.size() - 1;
    }
    std::string type;
    for (std::size_t p = 0; p < type_end; ++p) {
      type += std::string(tok(parts[p]).text);
    }
    std::string repl = "const " + type + "&";
    if (!name.empty()) {
      repl += " " + name;
    }
    const Token& first = tok(open + 1);
    const Token& last = tok(close - 1);
    return FixIt{first.offset, last.offset + last.text.size(),
                 std::move(repl)};
  }

  /// Candidate constructor at member level: flag single-argument-callable
  /// ctors that are not marked explicit (copy/move/self excluded).
  void check_ctor(std::size_t i) {
    // Reject destructors, qualified names, and member-init-list delegation
    // (`: Name(...)` — unless the `:` is an access specifier's).
    if (prev_is(i, "~") || prev_is(i, "::")) {
      return;
    }
    if (prev_is(i, ":") && i >= 2 && tok(i - 2).text != "public" &&
        tok(i - 2).text != "protected" && tok(i - 2).text != "private") {
      return;
    }
    if (prev_is(i, ",")) {
      return;  // second entry of a member-init list
    }
    // Look back for `explicit` (possibly through constexpr/inline).
    std::size_t back = i;
    while (back > 0) {
      const std::string_view p = tok(back - 1).text;
      if (p == "constexpr" || p == "inline") {
        --back;
        continue;
      }
      if (p == "explicit") {
        return;  // already explicit
      }
      break;
    }
    // Parse the parameter list.
    std::size_t j = i + 1;  // at '('
    int depth = 0;
    std::vector<std::vector<std::size_t>> params;
    std::vector<std::size_t> current;
    for (; j < size(); ++j) {
      const std::string_view x = tok(j).text;
      if (x == "(" || x == "[" || x == "{" || x == "<") {
        ++depth;
        if (depth == 1) {
          continue;
        }
      } else if (x == ")" || x == "]" || x == "}" || x == ">") {
        --depth;
        if (depth == 0) {
          break;
        }
      } else if (x == "," && depth == 1) {
        params.push_back(current);
        current.clear();
        continue;
      }
      if (depth >= 1) {
        current.push_back(j);
      }
    }
    if (!current.empty()) {
      params.push_back(current);
    }
    if (params.empty()) {
      return;  // default ctor
    }
    // Callable with one argument: one param, or trailing params defaulted.
    bool one_arg = params.size() == 1;
    if (!one_arg) {
      one_arg = true;
      for (std::size_t p = 1; p < params.size(); ++p) {
        bool has_default = false;
        for (const std::size_t ti : params[p]) {
          if (tok(ti).text == "=") {
            has_default = true;
            break;
          }
        }
        if (!has_default) {
          one_arg = false;
          break;
        }
      }
    }
    if (!one_arg) {
      return;
    }
    // Copy/move/self-converting ctors are fine.
    for (const std::size_t ti : params[0]) {
      if (tok(ti).text == class_stack_.back().name) {
        return;
      }
    }
    report(i, rules::kExplicitCtor,
           "single-argument constructor of '" + class_stack_.back().name +
               "' should be explicit (implicit conversions hide unit "
               "mistakes)");
  }

  // --- class tracking for explicit-ctor ---

  void track_classes(std::size_t i) {
    const Token& t = tok(i);
    if (t.text == "{") {
      ++brace_depth_;
      if (pending_class_ && pending_class_depth_ == 0) {
        class_stack_.push_back({pending_class_name_, brace_depth_});
        pending_class_ = false;
      }
      return;
    }
    if (t.text == "}") {
      if (!class_stack_.empty() &&
          brace_depth_ == class_stack_.back().member_depth) {
        class_stack_.pop_back();
      }
      --brace_depth_;
      return;
    }
    if (pending_class_) {
      // Between `class Name` and its `{`: a `;` means forward declaration;
      // track <> nesting in base-clause templates.
      if (t.text == ";" && pending_class_depth_ == 0) {
        pending_class_ = false;
      } else if (t.text == "<") {
        ++pending_class_depth_;
      } else if (t.text == ">") {
        --pending_class_depth_;
      }
      return;
    }
    if ((t.text == "class" || t.text == "struct") && i + 1 < size() &&
        tok(i + 1).kind == TokKind::kIdent && !prev_is(i, "enum")) {
      // The class name is the last identifier before `{`, `;` or `:` —
      // skips attribute/export macros between the keyword and the name.
      std::size_t j = i + 1;
      std::string name;
      while (j < size() && tok(j).kind == TokKind::kIdent) {
        name = std::string(tok(j).text);
        ++j;
      }
      if (j < size() && (tok(j).text == "{" || tok(j).text == ":" ||
                         tok(j).text == "final")) {
        pending_class_ = true;
        pending_class_name_ = name;
        pending_class_depth_ = 0;
      }
    }
  }

  /// Names of variables declared with an unordered container type anywhere
  /// in this translation unit.
  void collect_unordered_names() {
    const auto& toks = lexed_.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent ||
          !toks[i].text.starts_with("unordered_")) {
        continue;
      }
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") {
        int depth = 0;
        for (; j < toks.size(); ++j) {
          if (toks[j].text == "<") {
            ++depth;
          } else if (toks[j].text == ">") {
            if (--depth == 0) {
              ++j;
              break;
            }
          }
        }
      }
      while (j < toks.size() &&
             (toks[j].text == "&" || toks[j].text == "*" ||
              toks[j].text == "const")) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
          !(j + 1 < toks.size() && toks[j + 1].text == "(")) {
        unordered_names_.insert(std::string(toks[j].text));
      }
    }
  }

  struct ClassScope {
    std::string name;
    int member_depth;  // brace depth at which members appear
  };

  std::string_view path_;
  std::string_view content_;
  FileKind kind_;
  LexResult lexed_;
  std::vector<Diagnostic> diags_;
  std::set<std::string> unordered_names_;
  std::vector<ClassScope> class_stack_;
  bool pending_class_ = false;
  std::string pending_class_name_;
  int pending_class_depth_ = 0;
  int brace_depth_ = 0;
};

}  // namespace

// ------------------------------------------------------------- public API --

FileKind classify_path(std::string_view path) {
  const bool header = path.ends_with(".hpp") || path.ends_with(".h");
  auto in_dir = [&](std::string_view dir) {
    return path.find(std::string(dir) + "/") != std::string_view::npos ||
           path.starts_with(dir);
  };
  if (in_dir("bench")) {
    return FileKind::kBenchFile;
  }
  if (in_dir("tests")) {
    return FileKind::kTestFile;
  }
  if (in_dir("examples")) {
    return FileKind::kExampleFile;
  }
  if (in_dir("tools")) {
    return FileKind::kToolFile;
  }
  if (in_dir("src")) {
    return header ? FileKind::kSourceHeader : FileKind::kSourceImpl;
  }
  return header ? FileKind::kOtherHeader : FileKind::kOtherImpl;
}

std::string repo_relative(std::string_view path) {
  for (const std::string_view anchor :
       {"src/", "tests/", "bench/", "examples/", "tools/"}) {
    if (path.starts_with(anchor)) {
      return std::string(path);
    }
    const std::string probe = "/" + std::string(anchor);
    const auto pos = path.rfind(probe);
    if (pos != std::string_view::npos) {
      return std::string(path.substr(pos + 1));
    }
  }
  return std::string(path);
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {rules::kRandomDevice,
       "std::random_device is non-deterministic; seed mgt::Rng explicitly",
       false, false},
      {rules::kRand, "rand()/srand() use hidden global state", false, false},
      {rules::kTime, "time() reads the wall clock outside bench/", false,
       false},
      {rules::kWallClock,
       "std::chrono wall clocks outside bench/ break determinism", false,
       false},
      {rules::kUnorderedIter,
       "iterating an unordered container has unspecified order", false,
       false},
      {rules::kUnitDouble,
       "raw double with a unit-suffixed name; use a strong unit type", false,
       false},
      {rules::kFloat, "float narrows ps-resolution math in src/", false,
       false},
      {rules::kAssert, "assert() compiles out under NDEBUG; use MGT_CHECK",
       false, false},
      {rules::kUsingNamespace,
       "'using namespace' in a header pollutes every includer", false,
       false},
      {rules::kExplicitCtor,
       "single-argument constructors must be explicit", false, false},
      {rules::kCatchIgnore, "empty catch block swallows the exception",
       false, false},
      {rules::kCatchByValue,
       "catching an exception by value slices; catch by const reference",
       true, false},
      {rules::kUncheckedStatus,
       "status-bearing call result discarded as a bare statement", true,
       false},
      {rules::kUncheckedDecode,
       "decode*/parse* call result discarded in src/; the result is the "
       "only evidence the input was valid",
       true, false},
      {rules::kWallclockMetric,
       "wall-clock value feeds a deterministic obs metric sink", false,
       false},
      {rules::kUnboundedWait,
       "blocking wait/join without a deadline in src/", false, false},
      {rules::kParallelMutation,
       "lambda under parallel_for mutates shared state (possibly via a "
       "function in another file)",
       false, true},
      {rules::kNondetFlow,
       "wall-clock/rand-derived value flows into a deterministic sink "
       "across file boundaries",
       false, true},
      {rules::kUnitFlow,
       "unit-carrying value passed to a raw double parameter of a public "
       "API declared elsewhere",
       false, true},
  };
  return kCatalog;
}

const std::vector<std::string_view>& all_rules() {
  static const std::vector<std::string_view> kRules = [] {
    std::vector<std::string_view> ids;
    for (const auto& r : rule_catalog()) {
      ids.push_back(r.id);
    }
    return ids;
  }();
  return kRules;
}

std::uint64_t hash_source_line(std::string_view content, std::size_t line) {
  std::size_t begin = 0;
  for (std::size_t l = 1; l < line && begin < content.size(); ++begin) {
    if (content[begin] == '\n') {
      ++l;
    }
  }
  std::size_t end = begin;
  while (end < content.size() && content[end] != '\n') {
    ++end;
  }
  std::string_view text = content.substr(begin, end - begin);
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<Diagnostic> lint_source(std::string_view path,
                                    std::string_view content, FileKind kind) {
  return Linter(path, content, kind).run();
}

std::vector<Diagnostic> lint_source(std::string_view path,
                                    std::string_view content) {
  return lint_source(path, content, classify_path(path));
}

std::vector<Diagnostic> lint_project(const std::vector<ProjectInput>& files) {
  std::vector<Diagnostic> diags;
  std::vector<ParsedUnit> units;
  units.reserve(files.size());
  for (const auto& f : files) {
    const FileKind kind = classify_path(f.path);
    auto file_diags = lint_source(f.path, f.content, kind);
    diags.insert(diags.end(),
                 std::make_move_iterator(file_diags.begin()),
                 std::make_move_iterator(file_diags.end()));
    units.push_back({parse_source(f.path, f.content), kind});
  }
  auto project_diags = run_project_rules(units);
  diags.insert(diags.end(),
               std::make_move_iterator(project_diags.begin()),
               std::make_move_iterator(project_diags.end()));
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.column, a.rule, a.message) <
                     std::tie(b.file, b.line, b.column, b.rule, b.message);
            });
  return diags;
}

std::vector<Diagnostic> lint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{path, 0, 0, "io-error", "cannot open file", 0, std::nullopt}};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  return lint_source(path, content);
}

std::string format_diagnostic(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ":" +
         std::to_string(d.column) + ": [" + d.rule + "] " + d.message;
}

}  // namespace mgtlint
