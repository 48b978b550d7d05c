// Deterministic observability: the simulation watching itself.
//
// The paper's entire contribution is instrumentation — a tester that can
// measure its own jitter, eye opening and BER — and this layer gives the
// simulation the same property: a process-wide metrics registry (counters,
// gauges, bounded histograms reusing util::Histogram), tick-based trace
// spans, and RAII profiling hooks, threaded through every hot path
// (signal/render, eye accumulation, the PECL mux tree, vortex routing,
// link ARQ, TesterArray probing).
//
// Determinism contract (same shape as the parallel and fault layers):
//  1. Every value in snapshot() is derived from simulation state only —
//     integer counters, serial-section gauges, integer histogram bins and
//     simulation-tick spans. Counter and histogram updates are commutative
//     (unsigned addition into fixed bins), so totals are byte-identical at
//     every MGT_THREADS setting even when updated from worker threads.
//  2. Wall-clock never reaches snapshot(). ProfileScope measures both the
//     sim-tick cost and the wall-clock cost of a scope, but wall time is
//     quarantined in profile_wall_ns() / the benches' "wallclock_ns" JSON
//     section and is excluded from the deterministic snapshot.
//  3. Disabled mode (set_enabled(false), or MGT_OBS=0 in the environment)
//     turns every instrumentation helper into an early-out on one relaxed
//     atomic load; simulation results are byte-identical either way.
//
// Instrumentation sites use the free helpers (add_counter, set_gauge,
// observe, record_span) — they skip registry registration entirely when
// disabled. Tests and exporters use Registry directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace mgt::obs {

/// Monotonic event count. Updates are relaxed atomic additions, which are
/// commutative: worker threads may increment concurrently and the total is
/// still identical at every thread count.
class Counter {
public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Overwrites the value. Serial sections only (used to bridge externally
  /// tracked totals such as util::env_rejections into the registry).
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins level (rate steps, occupancy, configured sizes).
/// Overwrites are not commutative, so gauges must only be set from serial
/// sections — never from inside a parallel_for task.
class Gauge {
public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<double> value_{0.0};
};

/// A util::Histogram behind a lock: bin increments are commutative, so a
/// fixed sample set lands in identical bins at every thread count.
class BoundedHistogram {
public:
  BoundedHistogram(double lo, double hi, std::size_t bins);
  ~BoundedHistogram();
  BoundedHistogram(const BoundedHistogram&) = delete;
  BoundedHistogram& operator=(const BoundedHistogram&) = delete;

  void observe(double x);
  /// Copy of the underlying histogram for inspection/export.
  [[nodiscard]] Histogram snapshot() const;
  void reset();

private:
  struct Impl;
  Impl* impl_;
};

/// One simulation-time trace span: [begin, end] in whatever tick domain
/// the recording site lives in (protocol slots, touchdowns, sample
/// indices). No wall-clock — traces replay byte-identically.
struct SpanRecord {
  std::string name;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Deterministic half of a profile entry; wall time is kept separately.
struct ProfileEntry {
  std::uint64_t calls = 0;
  std::uint64_t ticks = 0;    // sim-tick cost (deterministic)
  std::uint64_t wall_ns = 0;  // wall-clock cost (NEVER in snapshot())
};

/// Process-wide metric store. Entries are created on first use and are
/// never destroyed before process exit (reset() zeroes values but keeps
/// registrations), so references returned here stay valid forever.
class Registry {
public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First registration fixes [lo, hi) and the bin count; later calls with
  /// the same name return the existing histogram unchanged.
  BoundedHistogram& histogram(std::string_view name, double lo, double hi,
                              std::size_t bins);

  /// Appends one tick span (bounded: beyond `span_capacity()` spans the
  /// oldest are kept and the new ones counted in `spans_dropped`).
  void record_span(std::string_view name, std::uint64_t begin,
                   std::uint64_t end);
  [[nodiscard]] std::size_t span_capacity() const;

  /// Accumulates one profiled scope. `wall_ns` is stored but excluded from
  /// the deterministic snapshot.
  void profile_add(std::string_view name, std::uint64_t calls,
                   std::uint64_t ticks, std::uint64_t wall_ns);

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Zeroes every value and clears spans; registrations (and therefore
  /// outstanding references) survive.
  void reset();

  /// Deterministic text snapshot: sorted "kind name value" lines. Contains
  /// only simulation-derived values — byte-identical at MGT_THREADS 0/1/8
  /// and free of wall-clock by construction.
  [[nodiscard]] std::string snapshot() const;

  /// One-line census ("4 counters, 1 gauge, ...") for HealthReport details.
  [[nodiscard]] std::string summary() const;

  // Structured (name-sorted, deterministic) copies for exporters.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_values() const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauge_values()
      const;
  [[nodiscard]] std::vector<std::pair<std::string, Histogram>>
  histogram_values() const;
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] std::vector<std::pair<std::string, ProfileEntry>>
  profile_values() const;

  /// Wall-clock side channel: "name ns" lines for the profiled scopes.
  /// Non-deterministic; quarantined from snapshot().
  [[nodiscard]] std::string profile_wall_ns() const;

private:
  Registry();
  struct Impl;
  Impl* impl_;
  std::atomic<bool> enabled_{true};
};

inline Registry& registry() { return Registry::instance(); }
inline bool enabled() { return Registry::instance().enabled(); }

// ---------------------------------------------------------------- helpers --
// Instrumentation entry points: one relaxed load when disabled, no
// registration, no locking.

inline void add_counter(std::string_view name, std::uint64_t n = 1) {
  if (enabled()) {
    registry().counter(name).add(n);
  }
}

inline void set_gauge(std::string_view name, double v) {
  if (enabled()) {
    registry().gauge(name).set(v);
  }
}

inline void observe(std::string_view name, double lo, double hi,
                    std::size_t bins, double x) {
  if (enabled()) {
    registry().histogram(name, lo, hi, bins).observe(x);
  }
}

inline void record_span(std::string_view name, std::uint64_t begin,
                        std::uint64_t end) {
  if (enabled()) {
    registry().record_span(name, begin, end);
  }
}

/// RAII simulation-time span: reads the referenced tick counter at entry
/// and exit and records [begin, end]. The counter must outlive the guard.
class TickSpan {
public:
  TickSpan(std::string_view name, const std::uint64_t& tick)
      : name_(name), tick_(&tick), begin_(tick), armed_(enabled()) {}
  ~TickSpan() {
    if (armed_) {
      registry().record_span(name_, begin_, *tick_);
    }
  }
  TickSpan(const TickSpan&) = delete;
  TickSpan& operator=(const TickSpan&) = delete;

private:
  std::string name_;
  const std::uint64_t* tick_;
  std::uint64_t begin_;
  bool armed_;
};

/// RAII profiling hook: accumulates calls (deterministic), the sim-tick
/// delta of `tick` if given (deterministic), and the wall-clock duration
/// (quarantined). Serial sections only — profile totals are ordered
/// reductions over call sites, not worker threads.
class ProfileScope {
public:
  explicit ProfileScope(std::string_view name,
                        const std::uint64_t* tick = nullptr);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

private:
  std::string name_;
  const std::uint64_t* tick_;
  std::uint64_t tick_begin_ = 0;
  std::uint64_t wall_begin_ns_ = 0;
  bool armed_;
};

/// Re-reads the externally tracked total (util::env_rejections, the count
/// of rejected MGT_* knob values) into counter "mgt.env.rejected" so
/// snapshots and health reports see it. Serial sections only.
void refresh_bridged();

}  // namespace mgt::obs
