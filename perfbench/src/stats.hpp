// The benchmark's own statistics: medians, the tail-percentile rule,
// failure accounting and ratios that carry their base. Header-only so the
// statistics tests (tests/test_stats.cpp) compile it without the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (q in [0, 1]) of an ascending sample.
/// 0 for an empty sample: a layer the workload never entered reads 0.
inline double percentile_sorted(const std::vector<double>& s, double q) {
  if (s.empty()) return 0.0;
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 0.5);
}

/// Samples that must lie beyond a reported tail percentile.
inline constexpr size_t kTailBeyond = 10;

/// A tail latency: the highest percentile (capped at kTailCapPct) that still
/// has at least kTailBeyond samples above it, taken as an order statistic.
struct Tail {
  double value = 0;   // the sample at that percentile
  double pct = 0;     // its percentile, 0..100
  size_t n = 0;       // sample count
  size_t beyond = 0;  // samples ranked above it
  bool defined = false;  // false when n <= kTailBeyond: no such percentile
  size_t blocks = 1;  // > 1: the median of that many block tails, each of
                      // n samples (block_tail)
};

/// The cap, reached on serve_mixed's thousands of ops: past p95, its
/// latencies are set by how often two clients' warm solves collide in the
/// queue, which swings ~20% run to run.
inline constexpr size_t kTailCapPct = 95;

inline Tail tail_of(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.size() <= kTailBeyond) {
    if (!v.empty()) t.value = *std::max_element(v.begin(), v.end());
    t.pct = 100;
    return t;
  }
  std::sort(v.begin(), v.end());
  const size_t last = v.size() - 1;
  const size_t by_rule = last - kTailBeyond;
  const size_t by_cap = last * kTailCapPct / 100;
  const size_t i = std::min(by_rule, by_cap);
  t.value = v[i];
  t.pct = 100.0 * static_cast<double>(i) / static_cast<double>(last);
  t.beyond = last - i;
  t.defined = true;
  return t;
}

/// block_tail's block count, and the fewest samples a block may hold: at
/// 80 the ten-beyond rule puts each block's tail at p87 or above.
inline constexpr size_t kTailBlocks = 3;
inline constexpr size_t kTailBlockMin = 80;

/// The tail of a time-ordered sample that holds through most of a run: the
/// samples are cut into kTailBlocks consecutive blocks, tail_of is taken in
/// each, and the median block's tail is reported. A slowdown of more than
/// one call in eight raises every block's tail and so the reported one; a
/// few seconds of contention on a shared host, which land in one block,
/// raise only that block's. Below kTailBlocks * kTailBlockMin samples it
/// is tail_of over all of them.
inline Tail block_tail(const std::vector<double>& v) {
  if (v.size() < kTailBlocks * kTailBlockMin) return tail_of(v);
  std::vector<Tail> tails;
  for (size_t b = 0; b < kTailBlocks; b++) {
    tails.push_back(tail_of(std::vector<double>(
        v.begin() + static_cast<std::ptrdiff_t>(v.size() * b / kTailBlocks),
        v.begin() + static_cast<std::ptrdiff_t>(v.size() * (b + 1) / kTailBlocks))));
  }
  std::sort(tails.begin(), tails.end(),
            [](const Tail& x, const Tail& y) { return x.value < y.value; });
  Tail t = tails[kTailBlocks / 2];
  t.blocks = kTailBlocks;
  return t;
}

/// Operation accounting: every attempted operation ends exactly one way.
/// A wrong answer and a thrown library error both count as failed.
struct Tally {
  int64_t attempted = 0;
  int64_t wrong = 0;
  int64_t thrown = 0;

  void ok() { attempted++; }
  void mismatch() {
    attempted++;
    wrong++;
  }
  void record(bool correct) {
    if (correct) {
      ok();
    } else {
      mismatch();
    }
  }
  void threw() {
    attempted++;
    thrown++;
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    wrong += o.wrong;
    thrown += o.thrown;
  }
  int64_t failed() const { return wrong + thrown; }
  double failed_frac() const {
    return attempted > 0 ? static_cast<double>(failed()) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

/// A ratio reported together with its base (the denominator and the
/// numerator it was formed from). An empty base reads 0, never inf/NaN.
struct Ratio {
  double num = 0;
  double den = 0;
  double value() const { return den > 0 ? num / den : 0.0; }
};

/// speedup_vs_seq: the sequential baseline's median over the solver's
/// median, both timed interleaved on the same inputs. A ratio of medians,
/// not a median of per-input ratios.
inline Ratio speedup_vs_seq(const std::vector<double>& baseline_ms,
                            const std::vector<double>& solve_ms) {
  return Ratio{median_of(baseline_ms), median_of(solve_ms)};
}

/// The same comparison over a mixed op population (serve_mixed: small and
/// warm solves), where the median sits between the mix's modes: total
/// baseline time over total solver time for the same ops.
inline Ratio speedup_of_totals(const std::vector<double>& baseline_ms,
                               const std::vector<double>& solve_ms) {
  Ratio r;
  for (double v : baseline_ms) r.num += v;
  for (double v : solve_ms) r.den += v;
  return r;
}

/// Value-cache hit ratio over every lookup (hits + misses).
inline Ratio hit_ratio(int64_t hits, int64_t misses) {
  return Ratio{static_cast<double>(hits), static_cast<double>(hits + misses)};
}

}  // namespace perfbench
