#include "signal/render.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "telemetry/hub.hpp"
#include "util/error.hpp"

namespace mgt::sig {

namespace {

/// Decimating telemetry tee: forwards nothing, keeps every Nth rendered
/// sample, and publishes bounded WaveformChunk records to the hub. Only
/// constructed when MGT_TELEMETRY is on, and only in render() — the serial
/// entry point — so the published stream is thread-count independent and a
/// disabled run never pays for it.
class TelemetryTap final : public WaveformSink {
public:
  explicit TelemetryTap(double dt_ps) : dt_ps_(dt_ps) {}

  static constexpr std::size_t kChunkSamples = 512;
  static constexpr std::size_t kDecimation =
      telemetry::Hub::kWaveformDecimation;

  void on_block(const SampleBlock& block) override {
    for (std::size_t i = 0; i < block.size; ++i) {
      if (phase_ == 0) {
        if (chunk_.samples.empty()) {
          chunk_.t0_ps = block.t[i];
        }
        chunk_.samples.push_back(block.v[i]);
        if (chunk_.samples.size() >= kChunkSamples) {
          publish();
        }
      }
      phase_ = (phase_ + 1 == kDecimation) ? 0 : phase_ + 1;
      ++index_;
    }
  }

  void finish() override {
    if (!chunk_.samples.empty()) {
      publish();
    }
  }

private:
  void publish() {
    chunk_.decimation = static_cast<std::uint32_t>(kDecimation);
    chunk_.dt_ps = dt_ps_;
    telemetry::Hub::instance().publish_waveform(index_, std::move(chunk_));
    chunk_ = telemetry::WaveformChunk{};
  }

  double dt_ps_;
  std::size_t phase_ = 0;
  std::uint64_t index_ = 0;  // source-grid sample index, used as the tick
  telemetry::WaveformChunk chunk_;
};

/// Core sample loop shared by render() and render_chunk(): steps `chain`
/// through grid samples [k_start, k_end) of the grid anchored at t_begin,
/// delivering samples with index >= k_emit to sinks (the one just before
/// k_emit goes out as context). The chain must already be reset to the
/// steady state of the stream level at sample k_start.
void run_window(const EdgeStream& stream, FilterChain& chain,
                const RenderConfig& config, Picoseconds t_begin,
                std::size_t k_start, std::size_t k_emit, std::size_t k_end,
                const std::vector<WaveformSink*>& sinks) {
  const double dt = config.sample_step.ps();

  auto level_to_mv = [&](bool level) {
    return level ? config.levels.voh : config.levels.vol;
  };

  const double t_start =
      t_begin.ps() + static_cast<double>(k_start) * dt;

  // Position in the transition list: first transition at or after t_start.
  const auto& trs = stream.transitions();
  std::size_t next_tr = static_cast<std::size_t>(
      std::lower_bound(trs.begin(), trs.end(), Picoseconds{t_start},
                       [](const Transition& tr, Picoseconds t) {
                         return tr.time < t;
                       }) -
      trs.begin());

  bool level = stream.level_at(Picoseconds{t_start});
  chain.reset(level_to_mv(level));

  // Emitted samples accumulate into a SoA block and go out whole.
  SampleBlock block;
  auto flush = [&] {
    if (block.size == 0) {
      return;
    }
    for (WaveformSink* sink : sinks) {
      sink->on_block(block);
    }
    block.clear();
  };

  double now = t_start;
  for (std::size_t k = k_start; k < k_end; ++k) {
    const double t_sample = t_begin.ps() + static_cast<double>(k) * dt;
    // Advance exactly through any transitions before this sample.
    while (next_tr < trs.size() && trs[next_tr].time.ps() <= t_sample) {
      const double t_tr = trs[next_tr].time.ps();
      if (t_tr > now) {
        chain.step(level_to_mv(level), Picoseconds{t_tr - now});
        now = t_tr;
      }
      level = trs[next_tr].level;
      ++next_tr;
    }
    if (t_sample > now) {
      chain.step(level_to_mv(level), Picoseconds{t_sample - now});
      now = t_sample;
    }
    const Millivolts v = chain.output();
    if (k >= k_emit) {
      block.push(t_sample, v.mv());
      if (block.full()) {
        flush();
      }
    } else if (k + 1 == k_emit) {
      for (WaveformSink* sink : sinks) {
        sink->on_context(Picoseconds{t_sample}, v);
      }
    }
  }
  flush();
}

}  // namespace

std::size_t render_sample_count(const RenderConfig& config,
                                Picoseconds t_begin, Picoseconds t_end) {
  MGT_CHECK(t_end > t_begin, "render window must be non-empty");
  MGT_CHECK(config.sample_step.ps() > 0.0);
  const double dt = config.sample_step.ps();
  const auto n = static_cast<std::size_t>(
      static_cast<long long>((t_end.ps() - t_begin.ps()) / dt));
  // Sample times are monotone in the index, so only the last candidate can
  // land at or past t_end.
  if (t_begin.ps() + static_cast<double>(n) * dt < t_end.ps()) {
    return n + 1;
  }
  return n;
}

void render(const EdgeStream& stream, FilterChain chain,
            const RenderConfig& config, Picoseconds t_begin,
            Picoseconds t_end, const std::vector<WaveformSink*>& sinks) {
  const std::size_t total = render_sample_count(config, t_begin, t_end);
  obs::add_counter("render.calls");
  obs::add_counter("render.samples", total);
  telemetry::Hub& hub = telemetry::Hub::instance();
  if (hub.enabled()) {
    // Tee the render through a decimating telemetry tap. The tap is one
    // more sink; the real sinks see exactly the same samples, so the
    // simulation results stay byte-identical to a telemetry-off run.
    TelemetryTap tap(config.sample_step.ps());
    std::vector<WaveformSink*> tee = sinks;
    tee.push_back(&tap);
    run_window(stream, chain, config, t_begin, 0, 0, total, tee);
    for (WaveformSink* sink : tee) {
      sink->finish();
    }
    return;
  }
  run_window(stream, chain, config, t_begin, 0, 0, total, sinks);
  for (WaveformSink* sink : sinks) {
    sink->finish();
  }
}

std::size_t render_chunk_count(const RenderConfig& config, Picoseconds t_begin,
                               Picoseconds t_end,
                               const RenderChunking& chunking) {
  MGT_CHECK(chunking.chunk_samples > 0);
  const std::size_t total = render_sample_count(config, t_begin, t_end);
  return total == 0 ? 1
                    : (total + chunking.chunk_samples - 1) /
                          chunking.chunk_samples;
}

void render_chunk(const EdgeStream& stream, FilterChain chain,
                  const RenderConfig& config, Picoseconds t_begin,
                  Picoseconds t_end, const RenderChunking& chunking,
                  std::size_t chunk_index,
                  const std::vector<WaveformSink*>& sinks) {
  const std::size_t total = render_sample_count(config, t_begin, t_end);
  MGT_CHECK(chunk_index <
                render_chunk_count(config, t_begin, t_end, chunking),
            "chunk index out of range");
  const std::size_t k0 = chunk_index * chunking.chunk_samples;
  const std::size_t k1 = std::min(k0 + chunking.chunk_samples, total);
  // At least one settle sample for chunks past the first, whatever the
  // configured depth: the sample at k0-1 doubles as the on_context() sample,
  // and without it pairwise sinks would silently drop every adjacent pair
  // straddling a chunk boundary (the settle_samples=0 regression in
  // tests/test_render_equiv.cpp). The configured depth remains the accuracy
  // knob for chain-state convergence.
  const std::size_t settle =
      chunk_index == 0
          ? 0
          : std::min(std::max<std::size_t>(chunking.settle_samples, 1), k0);
  // Counter additions are commutative, so these are worker-thread safe:
  // render_chunk is the unit parallel_for fans out over.
  obs::add_counter("render.chunks");
  obs::add_counter("render.chunk_samples", k1 - k0);

  run_window(stream, chain, config, t_begin, k0 - settle, k0, k1, sinks);
}

}  // namespace mgt::sig
