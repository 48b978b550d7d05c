// The four benchmark workloads. Each op makes the same public calls traced
// or untraced; a traced op only wraps them in spans. What an op cannot
// split from outside is timed by probes on separate objects.
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ber.hpp"
#include "analysis/decompose.hpp"
#include "analysis/eye.hpp"
#include "bench.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "fault/fault.hpp"
#include "link/link.hpp"
#include "minitester/array.hpp"
#include "minitester/minitester.hpp"
#include "signal/render.hpp"
#include "telemetry/channel.hpp"
#include "telemetry/decoder.hpp"
#include "telemetry/encoder.hpp"
#include "util/digest.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace mgt;

constexpr GbitsPerSec kRate{5.0};
constexpr unsigned kPrbsOrder = 7;
constexpr std::uint64_t kPrbsSeed = 0xACE1;
/// Bits a MiniTester capture skips at its head (MiniTester::Config default).
constexpr std::size_t kWarmupBits = 16;

void check(OpResult& r, bool ok, const char* what) {
  if (!ok) {
    r.violations.emplace_back(what);
  }
}

/// Sink that takes the samples and does nothing with them: rendering into
/// it times the renderer alone.
class NullSink final : public sig::WaveformSink {
public:
  void on_sample(Picoseconds, Millivolts) override {}
  void on_block(const sig::SampleBlock&) override {}
};

/// Builds a fresh system in `sys`: its construction boots the DLC from
/// FLASH programmed over JTAG; programming and starting it goes over USB.
core::TestSystem& probe_system(Tracer& tracer,
                               std::optional<core::TestSystem>& sys,
                               const core::ChannelConfig& config,
                               std::uint64_t seed) {
  {
    const SpanScope span(&tracer, "digital.boot");
    sys.emplace(config, seed);
  }
  const SpanScope span(&tracer, "digital.program");
  sys->program_prbs(kPrbsOrder, kPrbsSeed);
  sys->start();
  return *sys;
}

/// Serial render of `stimulus` into `sinks` over the window an eye
/// acquisition of `n_bits` folds (TestSystem::acquire_eye's window).
/// Returns the samples rendered.
std::size_t render_window(const core::Stimulus& stimulus, std::size_t n_bits,
                          const std::vector<sig::WaveformSink*>& sinks) {
  const core::EyeOptions options;
  const sig::RenderConfig render{.levels = stimulus.levels,
                                 .sample_step = options.sample_step};
  const Picoseconds begin =
      stimulus.t0 + stimulus.ui * static_cast<double>(options.warmup_bits);
  const Picoseconds end =
      stimulus.t0 + stimulus.ui * static_cast<double>(n_bits);
  sig::render(stimulus.edges, stimulus.chain, render, begin, end, sinks);
  return sig::render_sample_count(render, begin, end);
}

/// Generates `n_bits` on `sys`, then renders them into a null sink (the
/// renderer alone).
core::Stimulus probe_render(Tracer& tracer, core::TestSystem& sys,
                            std::size_t n_bits) {
  core::Stimulus stimulus;
  {
    const SpanScope span(&tracer, "core.generate");
    stimulus = sys.generate(n_bits);
  }
  NullSink sink;
  SpanScope span(&tracer, "signal.render");
  span.set_units(render_window(stimulus, n_bits, {&sink}));
  return stimulus;
}

// ---------------------------------------------------------------- eye_5g0

/// Scope eye at the paper's 5 Gbps operating point (Fig 19).
class EyeWorkload final : public Workload {
public:
  EyeWorkload(std::uint64_t seed, Size size)
      : seed_(seed),
        n_bits_(size == Size::kFull ? 20000 : 2000),
        sys_(core::presets::minitester(kRate), util::mix_seed(seed, 1)) {
    sys_.program_prbs(kPrbsOrder, kPrbsSeed);
    sys_.start();
  }

  OpResult run_op(std::uint64_t, Tracer* tracer) override {
    const core::EyeOptions options;
    std::optional<ana::EyeDiagram> eye;
    {
      const SpanScope span(tracer, "core.acquire_eye");
      eye.emplace(sys_.acquire_eye(n_bits_, options));
    }
    config_ = eye->config();
    samples_ = eye->total_samples();
    ana::EyeMetrics m;
    ana::JitterDecomposition d;
    {
      const SpanScope span(tracer, "analysis.metrics");
      m = eye->metrics();
      d = ana::decompose_jitter(eye->crossings(), eye->config().ui,
                                eye->config().t_ref);
    }

    OpResult r;
    util::Fnv64 h;
    h.mix_u64(eye->total_samples());
    h.mix_u64(m.jitter.count);
    for (const double x :
         {m.jitter.peak_to_peak.ps(), m.jitter.rms.ps(),
          m.jitter.mean_phase.ps(), m.eye_opening.ui(), m.eye_width.ps(),
          m.eye_height.mv(), m.level_high.mv(), m.level_low.mv(),
          d.rj_sigma.ps(), d.dj_pp.ps()}) {
      h.mix_double(x);
    }
    h.mix_u64(d.samples);
    h.mix_bool(d.valid);
    r.digest = h.digest();
    r.sim_bits = static_cast<double>(n_bits_ - options.warmup_bits);
    r.opening_ui = m.eye_opening.ui();

    const Picoseconds t0 = eye->config().t_ref;
    const Picoseconds ui = eye->config().ui;
    const std::size_t expected_samples = sig::render_sample_count(
        sig::RenderConfig{.sample_step = options.sample_step},
        t0 + ui * static_cast<double>(options.warmup_bits),
        t0 + ui * static_cast<double>(n_bits_));
    check(r, eye->total_samples() == expected_samples,
          "eye folded an unexpected number of samples");
    check(r, m.jitter.count > 0, "eye has no crossings");
    check(r, m.eye_opening.ui() > 0.0 && m.eye_height.mv() > 0.0,
          "eye is closed");
    check(r, d.valid, "jitter decomposition invalid");
    return r;
  }

  void probe(Tracer& tracer) override {
    // A separate system of the same configuration: its generate, and
    // serial renders of the same window into a null sink (renderer alone)
    // and into an eye of the op's configuration (renderer + fold).
    std::optional<core::TestSystem> probe_sys;
    core::TestSystem& sys =
        probe_system(tracer, probe_sys, core::presets::minitester(kRate),
                     util::mix_seed(seed_, 2 + probes_++));
    const core::Stimulus stimulus = probe_render(tracer, sys, n_bits_);
    ana::EyeDiagram eye(config_);
    {
      SpanScope span(&tracer, "signal.render_eye");
      render_window(stimulus, n_bits_, {&eye});
      span.set_units(eye.total_samples());
    }
    // The probe's window is a copy of acquire_eye's; it must fold as many
    // samples as the op's eye did.
    if (eye.total_samples() != samples_) {
      throw std::runtime_error("eye probe folded another window than the op");
    }
  }

private:
  std::uint64_t seed_;
  std::size_t n_bits_;
  core::TestSystem sys_;
  ana::EyeDiagram::Config config_;
  std::size_t samples_ = 0;
  std::uint64_t probes_ = 0;
};

// ------------------------------------------------------ minitester probes

/// One mini-tester site as the wafer prober sets it up (construction with
/// boot, USB programming, start), then `run` on it, a bare stimulus
/// generation and a null-sink render, and a bare system boot.
template <typename Run>
void probe_site(Tracer& tracer, const minitester::MiniTester::Config& config,
                std::uint64_t seed, std::size_t n_bits, const Run& run) {
  std::optional<minitester::MiniTester> tester;
  {
    const SpanScope span(&tracer, "minitester.site_setup");
    tester.emplace(config, seed);
    tester->program_prbs(kPrbsOrder, kPrbsSeed);
    tester->start();
  }
  run(*tester);
  (void)probe_render(tracer, tester->system(), n_bits);
  std::optional<core::TestSystem> sys;
  (void)probe_system(tracer, sys, config.channel, seed);
}

/// One loopback at the strobe code nearest mid-UI, as each code of a
/// bathtub scan runs it.
void probe_loopback(Tracer& tracer, minitester::MiniTester& tester,
                    std::size_t n_bits) {
  tester.set_strobe_code(static_cast<std::size_t>(
      0.5 * kRate.unit_interval().ps() / tester.strobe_delay().step().ps()));
  const SpanScope span(&tracer, "minitester.run_loopback");
  (void)tester.run_loopback(n_bits);
}

// ------------------------------------------------------------ bathtub_5g0

/// Strobe-code sweep across one UI: a sparse consumer (one value per bit).
class BathtubWorkload final : public Workload {
public:
  BathtubWorkload(std::uint64_t seed, Size size)
      : seed_(seed),
        n_bits_(size == Size::kFull ? 2048 : 160),
        tester_(minitester::MiniTester::Config{}, util::mix_seed(seed, 1)) {
    tester_.program_prbs(kPrbsOrder, kPrbsSeed);
    tester_.start();
  }

  OpResult run_op(std::uint64_t, Tracer* tracer) override {
    std::vector<ana::BathtubPoint> scan;
    {
      const SpanScope span(tracer, "minitester.bathtub");
      scan = tester_.bathtub(n_bits_, 1);
    }

    OpResult r;
    util::Fnv64 h;
    const std::size_t n_capture = n_bits_ - kWarmupBits - 1;
    bool bits_ok = true;
    std::size_t floor_errors = ~std::size_t{0};
    for (const ana::BathtubPoint& p : scan) {
      h.mix_double(p.strobe_offset.ps());
      h.mix_double(p.ber);
      h.mix_u64(p.errors);
      h.mix_u64(p.bits);
      r.sim_bits += static_cast<double>(p.bits);
      r.strobes += n_capture;
      // compare_bits_aligned searches shifts 0..4 of the capture.
      bits_ok = bits_ok && p.bits <= n_capture && p.bits + 4 >= n_capture;
      floor_errors = std::min(floor_errors, p.errors);
    }
    r.digest = h.digest();
    const double ui = kRate.unit_interval().ps();
    r.opening_ui = ana::bathtub_opening(scan, 1e-6).ps() / ui;

    const double step = tester_.strobe_delay().step().ps();
    check(r, scan.size() == static_cast<std::size_t>(std::ceil(ui / step)) + 1,
          "bathtub scanned an unexpected number of codes");
    check(r, bits_ok, "bathtub compared an unexpected number of bits");
    check(r, floor_errors == 0, "bathtub floor is not error-free");
    return r;
  }

  void probe(Tracer& tracer) override {
    probe_site(tracer, minitester::MiniTester::Config{},
               util::mix_seed(seed_, 2 + probes_++), n_bits_,
               [&](minitester::MiniTester& t) {
                 probe_loopback(tracer, t, n_bits_);
               });
  }

private:
  std::uint64_t seed_;
  std::size_t n_bits_;
  minitester::MiniTester tester_;
  std::uint64_t probes_ = 0;
};

// ------------------------------------------------------------ wafer_probe

/// The full-fidelity wafer of the Fig 13 bench (bench_fig13_parallel_probe):
/// 64 dies in four touchdowns of a 16-site array, a 256-bit BIST per die,
/// 8% defective dies. Each op probes a fresh wafer, then runs the same BIST
/// on one stuck-low reference die, which must fail: a BIST that compared
/// nothing would pass it.
class WaferWorkload final : public Workload {
public:
  WaferWorkload(std::uint64_t seed, Size size)
      : seed_(seed), dies_(size == Size::kFull ? 64 : 16) {
    config_.testers = 16;
    config_.defect_rate = 0.08;
    config_.bist_bits = size == Size::kFull ? 256 : 64;
    reference_ = config_.site;
    reference_.dut.defect = minitester::Defect::StuckLow;
  }

  OpResult run_op(std::uint64_t op, Tracer* tracer) override {
    minitester::TesterArray array(config_, util::mix_seed(seed_, 100 + op));
    minitester::TesterArray::WaferResult w;
    {
      const SpanScope span(tracer, "minitester.probe_wafer");
      w = array.probe_wafer(dies_);
    }
    minitester::MiniTester reference(reference_, util::mix_seed(seed_, op));
    reference.program_prbs(kPrbsOrder, kPrbsSeed + op);
    reference.start();
    const minitester::MiniTester::BistResult bist =
        reference.run_bist(config_.bist_bits);

    OpResult r;
    util::Fnv64 h;
    for (const std::size_t x : {w.dies, w.touchdowns, w.fails, w.escapes,
                                w.overkills, w.masked}) {
      h.mix_u64(x);
    }
    h.mix_double(w.total_time_s);
    h.mix_u64(bist.expected);
    h.mix_u64(bist.actual);
    r.digest = h.digest();
    // run_bist strobes every bit after the warm-up bits but the last.
    const std::size_t per_die = config_.bist_bits - kWarmupBits - 1;
    r.sim_bits = static_cast<double>(w.dies * per_die);
    r.strobes = (w.dies + 1) * per_die;

    check(r, w.dies == dies_ && w.touchdowns == dies_ / config_.testers,
          "wafer probed an unexpected number of dies");
    check(r, w.masked == 0, "dies masked without a fault plan");
    check(r, w.overkills == 0, "good dies failed (overkill)");
    check(r, w.fails <= w.dies && w.escapes + w.fails <= w.dies,
          "wafer totals inconsistent");
    check(r, !bist.pass(), "BIST passed a stuck-low reference die");
    return r;
  }

  void probe(Tracer& tracer) override {
    probe_site(tracer, config_.site, util::mix_seed(seed_, probes_++),
               config_.bist_bits, [&](minitester::MiniTester& t) {
                 {
                   const SpanScope span(&tracer, "minitester.run_bist");
                   (void)t.run_bist(config_.bist_bits);
                 }
                 probe_loopback(tracer, t, config_.bist_bits);
               });
  }

private:
  std::uint64_t seed_;
  std::size_t dies_;
  minitester::TesterArray::Config config_;
  minitester::MiniTester::Config reference_;
  std::uint64_t probes_ = 0;
};

// ----------------------------------------------------------- frames_lossy

/// A telemetry record of one of the three wire types.
telemetry::Record make_record(Rng& rng, std::uint64_t tick) {
  telemetry::Record record;
  record.tick = tick;
  switch (rng.below(3)) {
    case 0: {
      telemetry::WaveformChunk wf;
      wf.channel = static_cast<std::uint16_t>(rng.below(8));
      wf.decimation = 64;
      wf.t0_ps = static_cast<double>(tick);
      wf.dt_ps = 0.5;
      wf.samples.resize(128);
      for (double& s : wf.samples) {
        s = rng.gaussian(2000.0, 400.0);
      }
      record.body = std::move(wf);
      break;
    }
    case 1: {
      telemetry::MetricSnapshot ms;
      for (int i = 0; i < 6; ++i) {
        ms.entries.push_back(telemetry::MetricEntry::counter(
            "perfbench.metric." + std::to_string(i), rng.next()));
      }
      record.body = std::move(ms);
      break;
    }
    default: {
      telemetry::PlanSummary ps;
      ps.plan_id = tick;
      ps.tenant = "perfbench";
      ps.shards = 4;
      ps.shards_completed = 4;
      ps.chunks_completed = 16;
      ps.finished_tick = tick;
      ps.digest = rng.next();
      record.body = std::move(ps);
      break;
    }
  }
  return record;
}

/// ARQ link transfer over a corrupting forward channel beside a telemetry
/// stream through a damaging channel: the CRC/byte layer, no rendering.
/// The two run concurrently, as a tester's data link and its telemetry
/// stream do.
class FramesWorkload final : public Workload {
public:
  FramesWorkload(std::uint64_t seed, Size size)
      : seed_(seed),
        payloads_(size == Size::kFull ? 384 : 12),
        records_(size == Size::kFull ? 4096 : 128) {}

  OpResult run_op(std::uint64_t op, Tracer* tracer) override {
    fault::FaultPlan plan(util::mix_seed(seed_, op));
    // Per-bit flips on about a third of forward frames; the reverse
    // channel stays clean.
    plan.schedule({.kind = fault::FaultKind::kFrameCorruption,
                   .component = "link.fwd",
                   .severity = 0.003});
    plan.schedule({.kind = fault::FaultKind::kTelemetryCorruption,
                   .component = "telemetry",
                   .severity = 0.5,
                   .start = 2,
                   .duration = 6});
    plan.schedule({.kind = fault::FaultKind::kTelemetryTruncation,
                   .component = "telemetry",
                   .severity = 0.4,
                   .start = 6,
                   .duration = 6});
    plan.schedule({.kind = fault::FaultKind::kTelemetryReorder,
                   .component = "telemetry",
                   .start = 12,
                   .duration = 2});

    link::LinkChannel::Config link_config;
    link_config.arq.max_retries = 6;
    link::LinkChannel channel(link_config,
                              link::make_fault_transport(plan, "link.fwd"),
                              link::make_fault_transport(plan, "link.rev"));
    Rng rng = util::task_rng(seed_, op);
    std::vector<BitVector> payloads;
    payloads.reserve(payloads_);
    for (std::size_t i = 0; i < payloads_; ++i) {
      payloads.push_back(BitVector::random(channel.codec().user_bits(), rng));
    }
    std::vector<telemetry::Record> records;
    records.reserve(records_);
    for (std::size_t i = 0; i < records_; ++i) {
      records.push_back(make_record(rng, i));
    }

    // The link transfer and the telemetry stream run side by side, as two
    // tasks of util::parallel_for. Their spans are timed on the pool's
    // threads and recorded once both are done (the tracer is not
    // thread-safe).
    std::vector<link::SendResult> sent;
    telemetry::StreamEncoder encoder({.stream_id = 1,
                                      .name = "perfbench",
                                      .capacity_records = 48});
    telemetry::FaultyChannel wire(plan.component("telemetry"));
    telemetry::Decoder decoder;
    std::int64_t t[6] = {};  // begin/end of transfer, encode, decode
    util::parallel_for(2, [&](std::size_t task) {
      if (task == 0) {
        t[0] = now_ns();
        sent = channel.transfer(payloads);
        t[1] = now_ns();
        return;
      }
      // Writes: records into the bounded ring, drained into packets. The
      // ring holds fewer records than a drain interval, so overload sheds.
      t[2] = now_ns();
      std::vector<std::vector<std::uint8_t>> packets;
      const auto keep = [&](std::vector<std::uint8_t>&& p) {
        packets.push_back(std::move(p));
      };
      for (std::size_t i = 0; i < records.size(); ++i) {
        encoder.offer(std::move(records[i]));
        if ((i + 1) % 64 == 0) {
          encoder.drain(keep);
        }
      }
      encoder.drain(keep);
      // Reads: packets through the damaging channel into the decoder.
      t[3] = t[4] = now_ns();
      const auto feed = [&](std::vector<std::uint8_t>&& p) {
        decoder.feed(p);
      };
      for (auto& p : packets) {
        wire.send(std::move(p), feed);
      }
      wire.flush(feed);
      decoder.flush();
      t[5] = now_ns();
    });
    if (tracer != nullptr) {
      tracer->record("link.transfer", t[0], t[1]);
      tracer->record("telemetry.encode", t[2], t[3]);
      tracer->record("telemetry.decode", t[4], t[5]);
    }

    OpResult r;
    const link::LinkStats ls = channel.stats();
    const telemetry::StreamStats& es = encoder.stats();
    const telemetry::DecoderStats& ds = decoder.stats();
    const telemetry::FaultyChannel::Stats& ws = wire.stats();
    util::Fnv64 h;
    for (const std::uint64_t x :
         {ls.offered, ls.delivered, ls.abandoned, ls.retransmissions,
          ls.data_frames_sent, ls.control_frames_sent, ls.timeouts, ls.naks,
          ls.reconciled, ls.rejected_acks, ls.integrity_failures,
          ls.frames_lost_hunting, ls.duplicates, ls.sync_losses,
          ls.resync_slots, ls.relocks, ls.slots,
          static_cast<std::uint64_t>(ls.rate_steps), es.offered, es.encoded,
          es.shed, static_cast<std::uint64_t>(es.pending), ws.packets,
          ws.corrupted, ws.truncated, ws.reordered, ds.bytes_fed,
          ds.bytes_skipped, ds.resyncs, ds.decoded, ds.rejected,
          ds.received}) {
      h.mix_u64(x);
    }
    for (const std::uint64_t e : ds.errors) {
      h.mix_u64(e);
    }
    std::size_t delivered = 0;
    bool payloads_intact = true;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      h.mix_bool(sent[i].delivered);
      h.mix_u64(sent[i].attempts);
      if (sent[i].delivered) {
        const auto& got = channel.delivered_payloads();
        payloads_intact = payloads_intact && delivered < got.size() &&
                          got[delivered] == payloads[i];
        ++delivered;
      }
    }
    r.digest = h.digest();
    r.sim_bits = static_cast<double>(delivered * channel.codec().user_bits());

    check(r, sent.size() == payloads.size() && ls.offered == payloads.size(),
          "link offered an unexpected number of payloads");
    check(r, ls.offered == ls.delivered + ls.abandoned && ls.accounting_closed(),
          "link accounting broken: offered != delivered + abandoned");
    check(r, delivered == ls.delivered && payloads_intact,
          "link delivered payloads differ from those offered");
    check(r, es.offered == es.encoded + es.shed + es.pending &&
                 es.pending == 0 && es.offered == records_,
          "telemetry accounting broken: offered != encoded + shed + pending");
    check(r, ds.received == ds.decoded + ds.rejected && ds.accounting_exact(),
          "decoder accounting broken: received != decoded + rejected");
    check(r, ws.packets == es.encoded && ds.decoded <= es.encoded,
          "telemetry channel packet count inconsistent");
    return r;
  }

  void probe(Tracer&) override {}

private:
  std::uint64_t seed_;
  std::size_t payloads_;
  std::size_t records_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size) {
  if (name == "eye_5g0") {
    return std::make_unique<EyeWorkload>(seed, size);
  }
  if (name == "bathtub_5g0") {
    return std::make_unique<BathtubWorkload>(seed, size);
  }
  if (name == "wafer_probe") {
    return std::make_unique<WaferWorkload>(seed, size);
  }
  if (name == "frames_lossy") {
    return std::make_unique<FramesWorkload>(seed, size);
  }
  return nullptr;
}

}  // namespace perfbench
