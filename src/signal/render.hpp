// Streaming analog renderer.
//
// Converts an edge stream plus level configuration through a FilterChain
// into a uniformly sampled voltage waveform, pushed sample-by-sample into
// WaveformSinks (eye accumulators, crossing detectors, samplers, ...).
// Nothing is ever stored whole: a million-UI acquisition uses O(1) memory in
// the renderer.
//
// Accuracy: the chain state is advanced exactly to each transition time, so
// edge placement carries no sampling-grid quantization; only the linear
// interpolation done by downstream sinks between grid samples contributes
// error (sub-0.01 ps at the default 0.5 ps step).
#pragma once

#include <cstddef>
#include <vector>

#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/levels.hpp"
#include "util/units.hpp"

namespace mgt::sig {

/// One batch of rendered grid samples in structure-of-arrays layout. The
/// renderer fills fixed-capacity blocks and hands whole blocks to sinks
/// instead of one virtual call per grid sample. Times are picoseconds,
/// voltages millivolts: the same doubles on_sample() carries.
struct SampleBlock {
  /// Samples per block. Two arrays of 512 doubles (8 KiB) stay resident in
  /// L1 while a sink's per-block loops run.
  static constexpr std::size_t kCapacity = 512;

  std::size_t size = 0;
  double t[kCapacity];  // sample times, ps, strictly increasing
  double v[kCapacity];  // rendered voltages, mV

  [[nodiscard]] bool full() const { return size == kCapacity; }
  void clear() { size = 0; }
  void push(double t_sample, double v_sample) {
    t[size] = t_sample;
    v[size] = v_sample;
    ++size;
  }
};

/// Consumer of rendered waveform samples.
class WaveformSink {
public:
  virtual ~WaveformSink() = default;
  /// Called for each grid sample in time order.
  virtual void on_sample(Picoseconds t, Millivolts v) = 0;
  /// Batch delivery: the renderer hands samples in SampleBlocks (time
  /// order, partition-independent semantics). The default unrolls to
  /// on_sample(), so per-sample sinks behave byte-identically; hot sinks
  /// override this and run their loops over the SoA arrays. An override
  /// must produce the same state as the per-sample replay for any
  /// partitioning of the sample sequence into blocks.
  virtual void on_block(const SampleBlock& block) {
    for (std::size_t i = 0; i < block.size; ++i) {
      on_sample(Picoseconds{block.t[i]}, Millivolts{block.v[i]});
    }
  }
  /// Called once after the last sample.
  virtual void finish() {}
  /// Called with the grid sample immediately preceding this sink's window
  /// when rendering a chunk of a larger acquisition: sinks that look at
  /// adjacent-sample pairs (crossing interpolation, slope gates) use it to
  /// prime their previous-sample state without counting the sample itself.
  virtual void on_context(Picoseconds, Millivolts) {}
};

/// Renderer configuration.
struct RenderConfig {
  PeclLevels levels{};
  Picoseconds sample_step{0.5};
};

/// Renders `stream` over [t_begin, t_end), pushing samples into every sink.
/// The chain is reset to steady state at t_begin and advanced exactly at
/// transition boundaries. Sinks' finish() is invoked at the end.
void render(const EdgeStream& stream, FilterChain chain,
            const RenderConfig& config, Picoseconds t_begin,
            Picoseconds t_end, const std::vector<WaveformSink*>& sinks);

// ------------------------------------------------- chunked rendering ----
//
// A long acquisition can be split into fixed-size chunks of the sample
// grid and rendered chunk-by-chunk into private sinks that are merged in
// chunk order afterwards. The decomposition depends only on the window and
// these parameters — never on how many threads execute the chunks — so a
// serial and a parallel run produce byte-identical results (the rule
// tests/test_parallel.cpp enforces).
//
// Chunk 0 starts exactly like render(): chain reset to steady state at
// t_begin. Later chunks re-settle the chain over `settle_samples` grid
// samples before their window; the single-pole chain state contracts
// exponentially, so with the default settle depth (32768 samples = 16.4 ns
// at the 0.5 ps step, hundreds of time constants) the entry state matches
// the single-pass trajectory to the last bit. The sample just before each
// chunk window is handed to sinks via on_context() so pairwise sinks
// (crossing interpolation) see every adjacent-sample pair exactly once
// across chunk boundaries.

struct RenderChunking {
  /// Grid samples per chunk (task granularity). Must not depend on the
  /// worker count.
  std::size_t chunk_samples = 1u << 20;
  /// Chain re-settle depth before each chunk after the first. A floor of
  /// one settle sample is always applied to such chunks so the on_context()
  /// sample exists for every boundary; depth beyond that only affects how
  /// precisely the chain state converges to the single-pass trajectory.
  std::size_t settle_samples = 32768;
};

/// Number of grid samples render() would emit over [t_begin, t_end).
std::size_t render_sample_count(const RenderConfig& config,
                                Picoseconds t_begin, Picoseconds t_end);

/// Number of chunks the decomposition yields (>= 1 for non-empty windows).
std::size_t render_chunk_count(const RenderConfig& config, Picoseconds t_begin,
                               Picoseconds t_end,
                               const RenderChunking& chunking);

/// Renders chunk `chunk_index` of the decomposition into `sinks`: exactly
/// the samples with global grid index in [chunk*chunk_samples,
/// (chunk+1)*chunk_samples), preceded by one on_context() sample for chunks
/// past the first. finish() is NOT called — the caller merges the chunk
/// sinks in chunk order and finishes the merged result.
void render_chunk(const EdgeStream& stream, FilterChain chain,
                  const RenderConfig& config, Picoseconds t_begin,
                  Picoseconds t_end, const RenderChunking& chunking,
                  std::size_t chunk_index,
                  const std::vector<WaveformSink*>& sinks);

}  // namespace mgt::sig
