// Shared types of the benchmark driver: the in-memory span tracer and the
// workload interface.
//
// Every layer is timed from outside, around calls into its public
// functions; nothing here reaches into the library's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Host nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One traced interval. `op` is the op id the span belongs to (probes use
/// the id of the op they follow); `parent` indexes the enclosing span, or
/// -1 for a root. `units` counts work items (samples) where the span sets
/// them.
struct Span {
  const char* name = "";
  std::uint64_t op = 0;
  std::int32_t parent = -1;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t units = 0;
};

/// Records spans in memory; the driver writes them out at exit.
class Tracer {
public:
  void set_op(std::uint64_t op) { op_ = op; }
  std::int32_t open(const char* name) {
    spans_.push_back(Span{name, op_, stack_.empty() ? -1 : stack_.back(),
                          now_ns(), 0, 0});
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  /// Adds a closed span, timed elsewhere (on another thread), under the
  /// innermost open span.
  void record(const char* name, std::int64_t begin_ns, std::int64_t end_ns) {
    spans_.push_back(Span{name, op_, stack_.empty() ? -1 : stack_.back(),
                          begin_ns, end_ns, 0});
  }
  void set_units(std::int32_t id, std::uint64_t units) {
    spans_[static_cast<std::size_t>(id)].units = units;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t op_ = 0;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class SpanScope {
public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->close(id_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_units(std::uint64_t units) {
    if (tracer_ != nullptr) {
      tracer_->set_units(id_, units);
    }
  }

private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// What one op produced, for the throughput metric and the checks.
struct OpResult {
  /// FNV-1a digest of every simulated statistic the op produced.
  std::uint64_t digest = 0;
  /// Simulated bits carried end to end (see README.md per workload).
  double sim_bits = 0.0;
  /// Strobes captured (sparse consumers); 0 where none are taken.
  std::uint64_t strobes = 0;
  /// Simulated opening compared with the paper's 0.75 UI at 5 Gbps; < 0
  /// on workloads that measure none.
  double opening_ui = -1.0;
  /// Invariant violations; any entry fails the op.
  std::vector<std::string> violations;
};

/// Op sizes: `full` is the measured configuration, `tiny` the self-test's.
enum class Size { kFull, kTiny };

class Workload {
public:
  virtual ~Workload() = default;
  /// Runs op `op` (0 is the warm-up op). With a tracer, the op makes the
  /// same public calls, each wrapped in a span, so the simulated
  /// statistics are identical either way.
  virtual OpResult run_op(std::uint64_t op, Tracer* tracer) = 0;
  /// Attribution probes for the traced run: separate calls into single
  /// layers that the op cannot split from outside. They use their own
  /// objects, so they never disturb the op sequence.
  virtual void probe(Tracer& tracer) = 0;
};

/// Builds a workload's state from the seed; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size);

}  // namespace perfbench
