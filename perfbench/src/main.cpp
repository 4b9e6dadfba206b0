// perfbench — one workload per run, end-to-end metrics untraced
// (--trace 0) or per-layer metrics from spans (--trace 1).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--git-sha SHA] [--src-digest HEX]
//   perfbench --list-metrics
//
// Prints the workload's inputs, the run's provenance and every metric with
// its unit and how it was formed, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. The same
// record, stamped with provenance, is appended to DIR/results.jsonl, and a
// traced run writes its spans to DIR/trace-<workload>-seed<N>.json.
// Exit status: 0 when every checked answer was right, 1 when any was wrong
// or a library call threw, 2 on a usage or set-up error (no JSON line).
#include <malloc.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/simd.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares; run.py --self-test checks the
// two agree. Untraced runs print every end-to-end metric; traced runs print
// every per-layer metric, and one the workload's solve path never enters
// reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"solve_ms_p50", "ms"}, {"solve_ms_tail", "ms"}, {"speedup_vs_seq", "x"},
    {"ops_per_s", "1/s"},   {"op_ms_tail", "ms"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"lis.build_ms", "ms"},
    {"lis.rounds_ms", "ms"},
    {"lis.round_us_p50", "us"},
    {"lis.rounds", "count"},
    {"lis.nodes_visited", "count"},
    {"lis.frontier_p50", "count"},
    {"lis.frontier_max", "count"},
    {"parallel.spawns_per_solve", "count"},
    {"parallel.steals_per_solve", "count"},
    {"rank_space.ms", "ms"},
    {"wlis.tree_build_ms", "ms"},
    {"wlis.query_ms", "ms"},
    {"wlis.update_ms", "ms"},
    {"wlis.rounds", "count"},
    {"wlis.tree_bytes_per_elem", "B/elem"},
    {"api.resident_bytes_per_elem", "B/elem"},
    {"serve.small_ms_p50", "ms"},
    {"serve.small_ms_tail", "ms"},
    {"serve.append_ms_p50", "ms"},
    {"serve.append_ms_tail", "ms"},
    {"serve.warm_ms_p50", "ms"},
    {"serve.warm_ms_tail", "ms"},
    {"serve.small_direct_ms_p50", "ms"},
    {"stream.append_direct_us_p50", "us"},
    {"stream.append_direct_us_tail", "us"},
    {"serve.warm_direct_ms_p50", "ms"},
    {"serve.queries_per_batch", "count"},
    {"serve.value_cache_hit_ratio", "ratio"},
    {"serve.value_cache_lookups", "count"},
    {"serve.queue_depth_hwm", "count"},
    {"serve.resident_bytes", "B"},
    {"ref.seq_baseline_ms", "ms"},
    {"trace.coverage", "ratio"},
};

struct Args {
  Config cfg;
  std::string out_dir = ".bench_build";
  std::string git_sha = "unavailable";
  std::string src_digest = "unavailable";
  bool list = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA] "
               "[--src-digest HEX] | --list-metrics\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; i++) {
    const std::string k = argv[i];
    if (k == "--list-metrics") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.cfg.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.cfg.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("bad --seed " + v);
    } else if (k == "--seconds") {
      a.cfg.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.cfg.seconds > 0)) usage("bad --seconds " + v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      a.cfg.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--src-digest") {
      a.src_digest = v;
    } else {
      usage("unknown flag " + k);
    }
  }
  if (!a.list && !have_workload) usage("--workload is required");
  return a;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      if (c != std::string::npos) return line.substr(line.find_first_not_of(' ', c + 1));
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      o += '\\';
      o += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      o += format("\\u%04x", ch);
    } else {
      o += ch;
    }
  }
  return o + "\"";
}

std::string json_number(double v) { return format("%.17g", v); }

std::string provenance_json(const Args& a) {
  return format(
      "{\"git_sha\": %s, \"src_digest\": %s, \"compiler\": %s, \"flags\": %s, "
      "\"simd_backend\": %s, \"cpu\": %s, \"nproc\": %u, \"num_workers\": %d, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d}",
      json_string(a.git_sha).c_str(), json_string(a.src_digest).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_FLAGS).c_str(),
      json_string(parlis::simd::active_backend_name()).c_str(),
      json_string(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      parlis::num_workers(), json_string(a.cfg.workload).c_str(),
      static_cast<unsigned long long>(a.cfg.seed),
      json_number(a.cfg.seconds).c_str(), a.cfg.trace ? 1 : 0);
}

// Aggregate CPU time counters of the host as this VM sees them (/proc/stat
// "cpu" line, in clock ticks): the steal column is time the hypervisor ran
// someone else while this VM had work, the usual cause of a noisy run.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  uint64_t v = 0;
  for (int i = 0; i < 8 && (f >> v); i++) {  // user .. steal
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

const Metric* find_metric(const Report& r, const char* name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

uint64_t derive_seed(uint64_t seed, uint64_t i) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + (i + 1) * 0xd1b54a32d192ed03ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

std::string format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string s(static_cast<size_t>(n), '\0');
  std::vsnprintf(s.data(), s.size() + 1, fmt, ap2);
  va_end(ap2);
  return s;
}

void Report::tail_metric(const std::string& name, const Tail& t) {
  const std::string blocks =
      t.blocks > 1 ? format("median of %zu blocks' ", t.blocks) : "";
  metric(name, t.value, "ms",
         t.defined ? format("%sp%.2f of %zu samples, %zu beyond", blocks.c_str(),
                            t.pct, t.n, t.beyond)
                   : format("max of %zu samples: too few for a tail", t.n));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  if (args.list) {
    for (const MetricDef& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
    for (const MetricDef& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
    return 0;
  }
  const Config& cfg = args.cfg;
  // The pool runs on half the cores. On a shared VM the host steals CPU
  // from whichever vCPUs it needs, and with a worker on every vCPU each
  // fork-join waits on the one it took. In alternating runs on 4 vCPUs, 4
  // workers drew up to three times the steal 2 drew, and serve_mixed's op
  // tail ran to 149 ms where 2 workers held 57-94 ms; wlis_cold's and
  // serve_mixed's medians are no slower on 2.
  const int workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);
  if (!parlis::set_num_workers(workers)) {
    std::fprintf(stderr, "perfbench: cannot size the pool to %d workers\n",
                 workers);
    return 2;
  }
  const std::string prov = provenance_json(args);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\nprovenance: %s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, prov.c_str());
  std::fflush(stdout);

  Report report;
  const CpuTicks cpu0 = read_cpu_ticks();
  try {
    if (is_solve_workload(cfg.workload)) {
      run_solve_workload(cfg, report);
    } else {
      run_serve_workload(cfg, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  const CpuTicks cpu1 = read_cpu_ticks();
  const double steal_pct =
      cpu1.total > cpu0.total
          ? 100.0 * static_cast<double>(cpu1.steal - cpu0.steal) /
                static_cast<double>(cpu1.total - cpu0.total)
          : 0.0;
  report.note(format("host CPU steal during the run: %.2f%% of CPU time", steal_pct));
  for (const std::string& n : report.notes) std::printf("%s\n", n.c_str());
  for (const Metric& m : report.metrics) {
    std::printf("  %-30s = %-14.6g %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const Tally& t = report.tally;
  std::printf("  %-30s = %-14.6g %-7s %lld wrong + %lld thrown of %lld ops\n",
              "failed_frac", t.failed_frac(), "ratio",
              static_cast<long long>(t.wrong), static_cast<long long>(t.thrown),
              static_cast<long long>(t.attempted));

  // The mode's declared metric set, in declaration order.
  std::string metrics;
  auto emit = [&](const MetricDef& d, double v) {
    metrics += format("%s%s: {\"value\": %s, \"unit\": %s}",
                      metrics.empty() ? "" : ", ", json_string(d.name).c_str(),
                      json_number(v).c_str(), json_string(d.unit).c_str());
  };
  for (const MetricDef& d : cfg.trace ? std::span<const MetricDef>(kPerLayer)
                                     : std::span<const MetricDef>(kEndToEnd)) {
    const Metric* m = find_metric(report, d.name);
    if (m != nullptr && m->unit != d.unit) {
      std::fprintf(stderr, "perfbench: %s reported in %s, declared in %s\n",
                   d.name, m->unit.c_str(), d.unit);
      return 2;
    }
    if (m == nullptr && !cfg.trace) {
      std::fprintf(stderr, "perfbench: workload did not report %s\n", d.name);
      return 2;
    }
    emit(d, m ? m->value : 0.0);
  }
  const bool correct = t.failed() == 0 && t.attempted > 0;
  const std::string result = format(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "{%s}}",
      correct ? "true" : "false", static_cast<long long>(t.attempted),
      static_cast<long long>(t.failed()), metrics.c_str());

  const std::string results_path = args.out_dir + "/results.jsonl";
  if (std::FILE* f = std::fopen(results_path.c_str(), "a")) {
    std::fprintf(f, "{\"provenance\": %s, \"steal_pct\": %s, \"result\": %s}\n",
                 prov.c_str(), json_number(steal_pct).c_str(), result.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "perfbench: cannot append to %s\n", results_path.c_str());
  }
  if (cfg.trace) {
    const std::string path = format("%s/trace-%s-seed%llu.json", args.out_dir.c_str(),
                                    cfg.workload.c_str(),
                                    static_cast<unsigned long long>(cfg.seed));
    uint64_t dropped = 0;
    for (const Tracer& tr : report.tracers) dropped += tr.dropped();
    if (write_chrome_trace(path, report.tracers, prov)) {
      std::printf("spans written to %s (%llu dropped past the retention cap)\n",
                  path.c_str(), static_cast<unsigned long long>(dropped));
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
