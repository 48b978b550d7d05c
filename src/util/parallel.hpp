// Deterministic parallel execution layer.
//
// Every pipeline in this library is a metrology simulation: the numbers it
// produces are compared against paper-calibrated golden values, so results
// must be bit-identical no matter how many threads run them. The rules that
// make that possible:
//
//  1. Task decomposition depends only on the problem (chunk sizes, site
//     counts, grid shapes), never on the worker count.
//  2. Each task draws randomness only from its own Rng stream, derived as
//     splitmix64(seed, task_index) via task_rng() — never from a shared
//     generator whose consumption order would depend on scheduling.
//  3. Reductions merge per-task results in task-index order (ordered
//     reduction); no atomics, no "first finished wins".
//
// Under these rules, MGT_THREADS=0 (serial in-caller fallback), 1, 2 and 8
// threads all produce byte-identical stimulus, histograms and metrics —
// tests/test_parallel.cpp enforces exactly that.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace mgt::util {

/// Stateless splitmix64 mix of (seed, task_index): the canonical way to give
/// task k of a run seeded with s its own decorrelated 64-bit seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t task_index);

/// Independent per-task Rng stream for task `task_index` of a run seeded
/// with `seed`. Two distinct (seed, index) pairs yield decorrelated streams.
Rng task_rng(std::uint64_t seed, std::uint64_t task_index);

/// Largest accepted MGT_THREADS value. Anything above it is a typo, not a
/// machine: it is rejected like any malformed knob and the run goes serial.
inline constexpr std::uint64_t kMaxThreads = 256;

/// Worker count this process would use for parallel sections:
///   - set_thread_override(n) wins if called (tests, benches),
///   - else the MGT_THREADS environment variable, read once through
///     util::env_u64 with bounds [0, kMaxThreads],
///   - else 0 (also when MGT_THREADS is malformed; the rejection is counted
///     in util::env_rejections).
/// 0 means "serial fallback": parallel_for runs tasks inline on the caller.
std::size_t thread_count();

/// Overrides the worker count (0 = serial fallback). Takes effect on the
/// next parallel_for. Intended for tests/benches; not thread safe against
/// concurrent parallel_for calls.
void set_thread_override(std::size_t n);

/// Removes the override, returning to the MGT_THREADS environment value.
void clear_thread_override();

/// RAII worker-count override for tests and benches.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n);
  ~ScopedThreads();
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  std::size_t previous_;
  bool had_previous_;
};

/// Fixed-size pool of workers executing index ranges with static chunk
/// assignment: worker w of W always gets tasks [w*n/W, (w+1)*n/W). The
/// assignment is deterministic, but correctness must never rely on it —
/// tasks have to be independent.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t workers() const;

  /// Runs task(i) for every i in [0, n) across the workers; blocks until
  /// all complete. The first exception thrown by any task is rethrown on
  /// the caller after the batch finishes.
  void run(std::size_t n, const std::function<void(std::size_t)>& task);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Executes task(i) for i in [0, n). With thread_count() == 0 (or n < 2)
/// the tasks run inline on the caller in index order; otherwise they run on
/// a shared ThreadPool with static chunk assignment. Tasks must be
/// independent and must not share mutable state; any result whose value
/// could depend on execution order must instead be produced per-task and
/// combined afterwards in index order (see parallel_ordered_reduce).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& task);

/// Produces produce(i) for i in [0, n) (in parallel) and folds the results
/// into `acc` strictly in index order: acc = combine(acc, r_0), then r_1,
/// ... r_{n-1}. This is the fixed-order reduction every parallel merge in
/// the library must use.
template <typename T, typename Produce, typename Combine>
void parallel_ordered_reduce(std::size_t n, T& acc, Produce&& produce,
                             Combine&& combine) {
  std::vector<T> partial(n);
  parallel_for(n, [&](std::size_t i) { partial[i] = produce(i); });
  for (std::size_t i = 0; i < n; ++i) {
    combine(acc, partial[i]);
  }
}

}  // namespace mgt::util
