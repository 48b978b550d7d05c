// Benchmark driver: runs one named workload closed-loop with one client
// (the next op is issued only after the previous one completes), checks
// every op, and prints the metrics of BENCHMARK.json as the last line of
// standard output.
//
//   mgt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--size full|tiny] [--golden FILE] [--spans DIR]
//   mgt_perfbench --workload NAME --seed N --setup-only [--size ...]
//   mgt_perfbench --workload NAME --seed N --emit-golden OPS [--size ...]
//
// run.py builds this binary, cleans the environment and aggregates the
// set-up samples; see README.md.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

/// Golden digests are committed for this seed only; every other seed is
/// checked by the invariants alone.
constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string golden;
  std::string spans_dir;
  bool setup_only = false;
  std::uint64_t emit_golden = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mgt_perfbench: " << why << "\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-') {
    usage(flag + " needs a whole number, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      a.trace = parse_u64(flag, value) != 0;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        usage("--size is full or tiny");
      }
      a.size = value == "full" ? Size::kFull : Size::kTiny;
    } else if (flag == "--golden") {
      a.golden = value;
    } else if (flag == "--spans") {
      a.spans_dir = value;
    } else if (flag == "--emit-golden") {
      a.emit_golden = parse_u64(flag, value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) {
    usage("--workload is required");
  }
  return a;
}

const char* size_name(Size s) { return s == Size::kFull ? "full" : "tiny"; }

/// Golden digest of each op index for (workload, size) at kDefaultSeed.
/// File lines: "<workload> <size> <op> <digest hex>".
std::map<std::uint64_t, std::uint64_t> load_golden(const Args& a) {
  std::map<std::uint64_t, std::uint64_t> out;
  std::ifstream in(a.golden);
  if (!in) {
    usage("cannot read golden digests from '" + a.golden + "'");
  }
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload;
    std::string size;
    std::uint64_t op = 0;
    std::string hex;
    if (!(fields >> workload >> size >> op >> hex)) {
      continue;
    }
    if (workload == a.workload && size == size_name(a.size)) {
      out[op] = std::stoull(hex, nullptr, 16);
    }
  }
  if (out.empty()) {
    usage("no golden digests for " + a.workload + "/" + size_name(a.size));
  }
  return out;
}

/// Obs counters read around every op (deltas are the op's work counts).
const std::vector<std::string>& tracked_counters() {
  static const std::vector<std::string> names{
      "render.samples",          "render.chunk_samples",
      "render.calls",            "render.chunks",
      "pecl.mux.bits",           "eye.samples",
      "eye.crossings",           "render_cache.hits",
      "render_cache.misses",     "link.offered",
      "link.delivered",          "link.retransmissions",
      "telemetry.perfbench.encoded", "telemetry.decoder.decoded",
      "minitester.dies"};
  return names;
}

std::vector<std::uint64_t> read_counters() {
  std::vector<std::uint64_t> v;
  for (const std::string& name : tracked_counters()) {
    v.push_back(mgt::obs::registry().counter(name).value());
  }
  return v;
}

struct OpRecord {
  bool traced = false;
  bool ok = true;
  double ms = 0.0;
  OpResult result;
  std::vector<std::uint64_t> counters;  // deltas, tracked_counters() order
};

std::uint64_t counter_delta(const OpRecord& rec, std::string_view name) {
  const auto& names = tracked_counters();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      return rec.counters[i];
    }
  }
  return 0;
}

class Runner {
public:
  Runner(const Args& args, Workload& workload) : workload_(workload) {
    if (args.seed == kDefaultSeed && !args.golden.empty()) {
      golden_ = load_golden(args);
    }
  }

  /// Runs op `op` and checks it; never throws.
  OpRecord run(std::uint64_t op, Tracer* tracer) {
    OpRecord rec;
    rec.traced = tracer != nullptr;
    const std::vector<std::uint64_t> before = read_counters();
    const std::int64_t t0 = now_ns();
    try {
      if (tracer != nullptr) {
        tracer->set_op(op);
        const SpanScope span(tracer, "op");
        rec.result = workload_.run_op(op, tracer);
      } else {
        rec.result = workload_.run_op(op, nullptr);
      }
    } catch (const std::exception& e) {
      rec.result.violations.emplace_back(std::string("threw: ") + e.what());
    }
    rec.ms = static_cast<double>(now_ns() - t0) / 1e6;
    const std::vector<std::uint64_t> after = read_counters();
    for (std::size_t i = 0; i < after.size(); ++i) {
      rec.counters.push_back(after[i] - before[i]);
    }
    const auto golden = golden_.find(op);
    if (golden != golden_.end() && golden->second != rec.result.digest) {
      rec.result.violations.emplace_back("digest differs from golden");
    }
    rec.ok = rec.result.violations.empty();
    for (const std::string& v : rec.result.violations) {
      std::cerr << "op " << op << " FAILED: " << v << "\n";
    }
    return rec;
  }

private:
  Workload& workload_;
  std::map<std::uint64_t, std::uint64_t> golden_;
};

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Highest of a fixed percentile ladder with at least 10 ops beyond it
/// (nearest rank). Returns {percentile, value, ops beyond}.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Tail best;
  const auto n = static_cast<double>(v.size());
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0 || v.size() - rank < 10) {
      break;
    }
    best = Tail{p, v[rank - 1], v.size() - rank};
  }
  if (best.percentile == 0.0 && !v.empty()) {
    best = Tail{100.0, v.back(), 0};  // too few ops: the maximum
  }
  return best;
}

/// Peak resident set of this process image. VmHWM rather than getrusage's
/// ru_maxrss, which on Linux carries the parent's peak across fork + exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Durations in ms of every span called `name`, with their work units.
std::vector<std::pair<double, std::uint64_t>> spans_named(
    const std::vector<Span>& spans, std::string_view name) {
  std::vector<std::pair<double, std::uint64_t>> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.emplace_back(static_cast<double>(s.end_ns - s.begin_ns) / 1e6,
                       s.units);
    }
  }
  return out;
}

double median_ms(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> ms;
  for (const auto& [d, units] : spans_named(spans, name)) {
    ms.push_back(d);
  }
  return median(ms);
}

/// Per-op mean self time (ms) of each layer over the op span trees: a
/// span's duration minus the part of it that its child spans cover (their
/// union: children may run concurrently), summed by the layer prefix of
/// its name ("core.acquire_eye" -> "core", "op" -> "op").
std::map<std::string, double> self_ms_by_layer(const std::vector<Span>& spans,
                                               std::size_t traced_ops) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  std::vector<bool> in_op(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0) {
      const auto p = static_cast<std::size_t>(s.parent);
      children[p].emplace_back(s.begin_ns, s.end_ns);
      in_op[i] = in_op[p];
    } else {
      in_op[i] = std::string_view(s.name) == "op";
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!in_op[i]) {
      continue;
    }
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].begin_ns;
    for (const auto& [begin, end] : kids) {
      covered += std::max<std::int64_t>(0, end - std::max(begin, reach));
      reach = std::max(reach, end);
    }
    const std::string_view name = spans[i].name;
    const std::string layer(name.substr(0, name.find('.')));
    out[layer] +=
        static_cast<double>(spans[i].end_ns - spans[i].begin_ns - covered) /
        1e6;
  }
  for (auto& [layer, ms] : out) {
    ms /= static_cast<double>(std::max<std::size_t>(traced_ops, 1));
  }
  return out;
}

void write_spans(const Args& a, const std::vector<Span>& spans) {
  if (a.spans_dir.empty()) {
    return;
  }
  const std::string path = a.spans_dir + "/spans-" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".jsonl";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "mgt_perfbench: cannot write spans to " << path << "\n";
    return;
  }
  for (const Span& s : spans) {
    out << "{\"op\":" << s.op << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"begin_ns\":" << s.begin_ns
        << ",\"end_ns\":" << s.end_ns << ",\"units\":" << s.units << "}\n";
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "# " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The per-layer metrics of a traced run (see README.md for the map).
std::vector<Metric> layer_metrics(const std::vector<OpRecord>& ops,
                                  const std::vector<Span>& spans,
                                  const OpRecord& warmup) {
  // Exact counts come from the warm-up op, which every run executes, so
  // they repeat bit for bit across runs and thread counts.
  const auto c = [&](std::string_view name) {
    return static_cast<double>(counter_delta(warmup, name));
  };
  double hits = 0.0;
  double misses = 0.0;
  double traced_bits = 0.0;
  double traced_ms = 0.0;
  double plain_bits = 0.0;
  double plain_ms = 0.0;
  std::size_t traced_ops = 0;
  for (const OpRecord& r : ops) {
    hits += static_cast<double>(counter_delta(r, "render_cache.hits"));
    misses += static_cast<double>(counter_delta(r, "render_cache.misses"));
    (r.traced ? traced_bits : plain_bits) += r.result.sim_bits;
    (r.traced ? traced_ms : plain_ms) += r.ms;
    traced_ops += r.traced ? 1 : 0;
  }

  const auto renders = spans_named(spans, "signal.render");
  std::vector<double> render_ns;
  for (const auto& [ms, units] : renders) {
    render_ns.push_back(ratio(ms * 1e6, static_cast<double>(units)));
  }
  // Fold: serial render into an EyeDiagram minus the null-sink render of
  // the same window, probe by probe.
  const auto eye_renders = spans_named(spans, "signal.render_eye");
  std::vector<double> fold_ms;
  std::vector<double> fold_ns;
  for (std::size_t i = 0; i < eye_renders.size() && i < renders.size(); ++i) {
    const double fold = eye_renders[i].first - renders[i].first;
    fold_ms.push_back(fold);
    fold_ns.push_back(
        ratio(fold * 1e6, static_cast<double>(eye_renders[i].second)));
  }
  // acquire_eye is generate then accumulate_eye; generate is timed by the
  // probe on a system of the same configuration.
  const double acquire_ms = median_ms(spans, "core.acquire_eye");
  const double accumulate_ms =
      acquire_ms > 0.0 ? acquire_ms - median_ms(spans, "core.generate") : 0.0;
  const double threads = static_cast<double>(
      std::max<std::size_t>(mgt::util::thread_count(), 1));
  // Serial cost of the op's parallel section, from the serial probes,
  // over threads x its parallel time: the eye's chunks, or the wafer's dies.
  const double per_die_ms = median_ms(spans, "minitester.site_setup") +
                            median_ms(spans, "minitester.run_bist");
  const double parallel_efficiency =
      accumulate_ms > 0.0
          ? ratio(median_ms(spans, "signal.render_eye"),
                  threads * accumulate_ms)
          : ratio(c("minitester.dies") * per_die_ms,
                  threads * median_ms(spans, "minitester.probe_wafer"));
  const double offered = c("link.offered");
  const auto self = self_ms_by_layer(spans, traced_ops);
  const auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };

  return {
      {"digital.boot_ms", median_ms(spans, "digital.boot"), "ms"},
      {"digital.program_ms", median_ms(spans, "digital.program"), "ms"},
      {"minitester.site_setup_ms", median_ms(spans, "minitester.site_setup"),
       "ms"},
      {"core.generate_ms", median_ms(spans, "core.generate"), "ms"},
      {"pecl.mux_bits", c("pecl.mux.bits"), "count"},
      {"signal.render_ms", median_ms(spans, "signal.render"), "ms"},
      {"signal.render_ns_per_sample", median(render_ns), "ns"},
      {"signal.render_samples",
       c("render.samples") + c("render.chunk_samples"), "count"},
      {"signal.render_calls", c("render.calls"), "count"},
      {"signal.render_chunks", c("render.chunks"), "count"},
      {"signal.fold_ms", median(fold_ms), "ms"},
      {"signal.fold_ns_per_sample", median(fold_ns), "ns"},
      {"signal.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"analysis.accumulate_eye_ms", accumulate_ms, "ms"},
      {"analysis.metrics_ms", median_ms(spans, "analysis.metrics"), "ms"},
      {"analysis.eye_samples", c("eye.samples"), "count"},
      {"analysis.eye_crossings", c("eye.crossings"), "count"},
      {"parallel.efficiency", parallel_efficiency, "ratio"},
      {"minitester.loopback_ms", median_ms(spans, "minitester.run_loopback"),
       "ms"},
      {"minitester.bist_ms", median_ms(spans, "minitester.run_bist"), "ms"},
      {"minitester.probe_wafer_ms",
       median_ms(spans, "minitester.probe_wafer"), "ms"},
      {"pecl.capture_samples_per_strobe",
       ratio(c("render.samples"), static_cast<double>(warmup.result.strobes)),
       "ratio"},
      {"link.transfer_ms", median_ms(spans, "link.transfer"), "ms"},
      {"link.retransmissions", c("link.retransmissions"), "count"},
      {"link.goodput_ratio",
       ratio(c("link.delivered"), offered + c("link.retransmissions")),
       "ratio"},
      {"telemetry.encode_ms", median_ms(spans, "telemetry.encode"), "ms"},
      {"telemetry.decode_ms", median_ms(spans, "telemetry.decode"), "ms"},
      {"telemetry.decoded_ratio",
       ratio(c("telemetry.decoder.decoded"), c("telemetry.perfbench.encoded")),
       "ratio"},
      {"core.self_ms", self_of("core"), "ms"},
      {"analysis.self_ms", self_of("analysis"), "ms"},
      {"minitester.self_ms", self_of("minitester"), "ms"},
      {"link.self_ms", self_of("link"), "ms"},
      {"telemetry.self_ms", self_of("telemetry"), "ms"},
      {"op.self_ms", self_of("op"), "ms"},
      {"trace.overhead_frac",
       1.0 - ratio(ratio(traced_bits, traced_ms), ratio(plain_bits, plain_ms)),
       "ratio"},
  };
}

int run(const Args& args) {
  const std::int64_t start_ns = now_ns();
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.size);
  if (!workload) {
    usage("unknown workload '" + args.workload + "'");
  }
  Runner runner(args, *workload);

  if (args.emit_golden > 0) {
    bool ok = true;
    for (std::uint64_t op = 0; op < args.emit_golden; ++op) {
      const OpRecord rec = runner.run(op, nullptr);
      ok = ok && rec.ok;
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(rec.result.digest));
      std::cout << args.workload << " " << size_name(args.size) << " " << op
                << " " << hex << "\n";
    }
    return ok ? 0 : 1;
  }

  // Set-up ends with the warm-up op (op 0): it pays for thread-pool
  // spin-up, memo fills and cache allocation, and is never timed as an op.
  const OpRecord warmup = runner.run(0, nullptr);
  const double setup_s = static_cast<double>(now_ns() - start_ns) / 1e9;
  if (args.setup_only) {
    std::cout << "{\"setup_s\": " << json_number(setup_s)
              << ", \"correct\": " << (warmup.ok ? "true" : "false") << "}"
              << std::endl;
    return warmup.ok ? 0 : 1;
  }

  // Timed ops. A traced run alternates untraced and traced ops so the
  // tracing overhead is measured against interleaved plain ops.
  Tracer tracer;
  std::vector<OpRecord> ops;
  const std::int64_t loop_start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::uint64_t op = 1; ops.empty() || now_ns() - loop_start < budget_ns;
       ++op) {
    const bool traced = args.trace && op % 2 == 0;
    ops.push_back(runner.run(op, traced ? &tracer : nullptr));
    if (traced) {
      try {
        workload->probe(tracer);
      } catch (const std::exception& e) {
        std::cerr << "probe after op " << op << " threw: " << e.what() << "\n";
        ops.back().ok = false;
      }
    }
  }

  std::size_t failed = warmup.ok ? 0 : 1;
  std::vector<double> op_ms;
  double bits = 0.0;
  double opening_sum = 0.0;
  std::size_t openings = 0;
  for (const OpRecord& r : ops) {
    failed += r.ok ? 0 : 1;
    op_ms.push_back(r.ms);
    bits += r.result.sim_bits;
    if (r.result.opening_ui >= 0.0) {
      opening_sum += r.result.opening_ui;
      ++openings;
    }
  }
  const std::size_t attempted = ops.size() + 1;
  const bool correct = failed == 0;
  const Tail tail = tail_of(op_ms);

  std::cout << "# workload " << args.workload << ", seed " << args.seed
            << ", size " << size_name(args.size) << ", build "
            << MGT_PERFBENCH_BUILD_TYPE << ", threads "
            << mgt::util::thread_count() << ", timed ops " << ops.size()
            << "\n";
  std::cout << "# op_tail_ms is p" << tail.percentile << " with "
            << tail.beyond << " of " << op_ms.size() << " ops beyond it\n";
  std::cout << "# failed_frac = "
            << json_number(static_cast<double>(failed) /
                           static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << " ops)\n";
  if (openings > 0) {
    const double opening = opening_sum / static_cast<double>(openings);
    std::cout << "# paper_err_ui = " << json_number(std::abs(opening - 0.75))
              << " UI (simulated mean opening " << json_number(opening)
              << " UI vs the paper's 0.75 UI at 5 Gbps, Fig 19)\n";
  } else {
    std::cout << "# paper_err_ui = n/a (no eye opening on this workload)\n";
  }

  if (args.trace) {
    write_spans(args, tracer.spans());
    print_result(correct, attempted, failed,
                 layer_metrics(ops, tracer.spans(), warmup));
  } else {
    print_result(correct, attempted, failed,
                 {{"setup_s", setup_s, "s"},
                  {"sim_bits_per_s",
                   bits / (std::accumulate(op_ms.begin(), op_ms.end(), 0.0) /
                           1e3),
                   "bit/s"},
                  {"op_p50_ms", median(op_ms), "ms"},
                  {"op_tail_ms", tail.value, "ms"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"}});
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "mgt_perfbench: " << e.what() << "\n";
    return 2;
  }
}
