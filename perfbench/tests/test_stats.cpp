// Tests of the benchmark's own statistics (src/stats.hpp): the tail rules,
// failure accounting and the bases of the reported ratios. Run with
// `python3 perfbench/run.py --self-test`; exits nonzero on any failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool cond, const char* what, int line) {
  if (!cond) {
    std::printf("FAIL line %d: %s\n", line, what);
    failures++;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota_samples(int n) {
  std::vector<double> v;
  // Shuffled insertion order: tail_of must sort.
  for (int i = 0; i < n; i++) v.push_back(static_cast<double>((i * 7) % n + 1));
  return v;
}

void tail_rule() {
  using perfbench::tail_of;
  // Too few samples for any percentile with ten beyond.
  for (int n : {0, 1, 10}) {
    const perfbench::Tail t = tail_of(iota_samples(n));
    CHECK(!t.defined);
    CHECK(t.n == static_cast<size_t>(n));
  }
  // 11 samples: only the minimum has ten beyond it.
  {
    const perfbench::Tail t = tail_of(iota_samples(11));
    CHECK(t.defined);
    CHECK(t.value == 1.0);
    CHECK(t.beyond == 10);
    CHECK(near(t.pct, 0.0));
  }
  // 40 samples: the 30th smallest, with exactly ten beyond.
  {
    const perfbench::Tail t = tail_of(iota_samples(40));
    CHECK(t.value == 30.0);
    CHECK(t.beyond == 10);
    CHECK(near(t.pct, 100.0 * 29 / 39));
  }
  // Large samples stop at the p95 cap, which has more than ten beyond.
  {
    const perfbench::Tail t = tail_of(iota_samples(5000));
    CHECK(t.pct <= 95.0 && t.pct > 94.99);
    CHECK(t.value == 4750.0);  // 4999 * 95 / 100 = 4749 -> value 4750
    CHECK(t.beyond == 250);
  }
  // The rule and the cap meet at 201 samples (10 beyond p95).
  {
    const perfbench::Tail t = tail_of(iota_samples(201));
    CHECK(t.beyond == 10);
    CHECK(near(t.pct, 95.0));
  }
  // Ties count by position: ten samples beyond, whatever their values.
  {
    std::vector<double> v(30, 5.0);
    const perfbench::Tail t = tail_of(v);
    CHECK(t.value == 5.0);
    CHECK(t.beyond == 10);
  }
}

void block_rule() {
  using perfbench::block_tail;
  using perfbench::tail_of;
  // Too few samples for three blocks: the plain tail over all of them.
  {
    const std::vector<double> v = iota_samples(239);
    const perfbench::Tail b = block_tail(v);
    const perfbench::Tail t = tail_of(v);
    CHECK(b.blocks == 1);
    CHECK(b.value == t.value && b.n == t.n && b.beyond == t.beyond);
  }
  // Three blocks of 100: each block's tail has ten beyond (p90).
  {
    const perfbench::Tail b = block_tail(iota_samples(300));
    CHECK(b.blocks == 3);
    CHECK(b.n == 100);
    CHECK(b.beyond == 10);
    CHECK(near(b.pct, 100.0 * 89 / 99));
  }
  // A burst inside one block moves that block's tail only.
  {
    std::vector<double> v(300, 1.0);
    for (int i = 0; i < 30; i++) v[i] = 100.0;
    CHECK(tail_of(v).value == 100.0);
    CHECK(block_tail(v).value == 1.0);
  }
  // One call in eight slow all through the run moves every block's tail.
  {
    std::vector<double> v(300, 1.0);
    for (size_t i = 0; i < v.size(); i += 8) v[i] = 10.0;
    CHECK(block_tail(v).value == 10.0);
  }
}

void medians() {
  using perfbench::median_of;
  CHECK(median_of({}) == 0.0);
  CHECK(median_of({3.0}) == 3.0);
  CHECK(median_of({4.0, 1.0, 3.0}) == 3.0);
  CHECK(median_of({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void failure_accounting() {
  perfbench::Tally t;
  CHECK(t.failed_frac() == 0.0);  // nothing attempted: 0, not NaN
  for (int i = 0; i < 7; i++) t.ok();
  t.mismatch();
  t.threw();
  t.record(true);
  t.record(false);
  CHECK(t.attempted == 11);
  CHECK(t.wrong == 2);
  CHECK(t.thrown == 1);
  CHECK(t.failed() == 3);
  CHECK(near(t.failed_frac(), 3.0 / 11.0));
  perfbench::Tally u;
  u.threw();
  t.merge(u);
  CHECK(t.attempted == 12);
  CHECK(t.failed() == 4);
  CHECK(near(t.failed_frac(), 4.0 / 12.0));
}

void ratio_bases() {
  // speedup_vs_seq is the ratio of the medians, baseline over solver, not
  // the median of per-pair ratios.
  const std::vector<double> base = {10, 10, 40};
  const std::vector<double> solve = {5, 20, 20};
  const perfbench::Ratio s = perfbench::speedup_vs_seq(base, solve);
  CHECK(s.num == 10.0);
  CHECK(s.den == 20.0);
  CHECK(near(s.value(), 0.5));  // median of pair ratios would be 2.0
  // Faster solver than baseline reads > 1.
  CHECK(perfbench::speedup_vs_seq({8}, {2}).value() == 4.0);

  // Over a mixed population the ratio is of totals: one slow op weighs by
  // its time, not by its rank.
  const perfbench::Ratio t = perfbench::speedup_of_totals({1, 1, 30}, {4, 4, 40});
  CHECK(t.num == 32.0);
  CHECK(t.den == 48.0);
  CHECK(near(t.value(), 32.0 / 48.0));

  // The hit ratio's base is every lookup, hits and misses together.
  const perfbench::Ratio h = perfbench::hit_ratio(57, 3);
  CHECK(h.den == 60.0);
  CHECK(near(h.value(), 0.95));
  // An empty base reads 0.
  CHECK(perfbench::hit_ratio(0, 0).value() == 0.0);
  CHECK((perfbench::Ratio{5, 0}.value() == 0.0));
}

void percentiles() {
  const std::vector<double> s = {1, 2, 3, 4, 5};
  CHECK(perfbench::percentile_sorted(s, 0.0) == 1.0);
  CHECK(perfbench::percentile_sorted(s, 1.0) == 5.0);
  CHECK(near(perfbench::percentile_sorted(s, 0.25), 2.0));
  CHECK(near(perfbench::percentile_sorted(s, 0.9), 4.6));
  CHECK(perfbench::percentile_sorted({}, 0.5) == 0.0);
}

}  // namespace

int main() {
  tail_rule();
  block_rule();
  medians();
  failure_accounting();
  ratio_bases();
  percentiles();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench statistics tests: all passed\n");
  return 0;
}
