// Shared declarations of the benchmark program: run configuration, the
// report a workload fills, and small helpers used by every workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // how it was formed: sample count, percentile, base
};

/// What one run produced: the op tally, the metrics of the run's mode
/// (end-to-end untraced, per-layer traced), human-readable notes, and the
/// tracers whose spans are written out at exit.
struct Report {
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<Tracer> tracers;

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    metrics.push_back(Metric{name, value, unit, note});
  }
  void tail_metric(const std::string& name, const Tail& t);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Timed operations in a run never fall below this, whatever --seconds
/// says, so the tail rule (ten samples beyond) always has a percentile.
inline constexpr size_t kMinSamples = 21;

/// Independent 64-bit stream for input `i` of a workload seed.
uint64_t derive_seed(uint64_t seed, uint64_t i);

/// Peak resident set size of this process, in MB (VmHWM).
double peak_rss_mb();

/// Returns freed heap memory to the kernel, then restarts the VmHWM peak at
/// the current resident size, so peak_rss_mb() covers only what follows (the
/// measured phase). Without the trim, memory freed by set-up stays resident
/// in whichever allocator arena freed it, and the measured phase's peak
/// depends on which arena its threads draw: two values ~20 MB apart on
/// serve_mixed. Returns false where the kernel does not allow the reset.
bool reset_peak_rss();

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Workload entry points; both throw std::invalid_argument for an unknown
/// workload name.
bool is_solve_workload(const std::string& name);
void run_solve_workload(const Config& cfg, Report& report);
void run_serve_workload(const Config& cfg, Report& report);

}  // namespace perfbench
