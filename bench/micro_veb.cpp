// vEB tree vs std::set microbenchmark.
//
// The bit-packed word layout (veb_words.hpp) collapses every universe <=
// 4096 subtree into a flat summary-word + cluster-words block. This harness
// measures the resulting tree against std::set, the ordered-set baseline,
// in one binary: each row runs the same workload through both, paired rep
// by rep (paired_median_of in bench_common.hpp) so machine drift cancels,
// medians reported.
//
// Rows: {insert, succ, batch_insert} x {dense, sparse} x universes
// (default 2^12, 2^16, 2^20). Dense fills half the universe, sparse 1/64th.
// std::set's batch_insert is its range constructor over the sorted keys. A
// memory section reports arena payload bytes per stored key next to
// std::set's (via TrackingAllocator), and the zero-leaf-allocation property
// at universe 4096 is checked directly. Every workload cross-checks the
// tree's contents and successor answers against the std::set.
//
// Flags: --universes 4096,65536,1048576, --reps N (default 5), --out FILE
// (BENCH_micro_veb.json records), --strict (exit 2 unless the zero-alloc
// check holds). A cross-check mismatch always exits 1.
//
// Per-op medians are the signal here — every measured op is a sequential
// point op or a one-batch call, so the numbers are meaningful on any host,
// but they say nothing about multi-thread scaling.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/util/arena.hpp"
#include "parlis/util/tracking_allocator.hpp"
#include "parlis/veb/veb_tree.hpp"

using parlis::AllocStats;
using parlis::Arena;
using parlis::TrackingAllocator;
using parlis::VebTree;
using parlis::bench::PairedMedian;
using parlis::bench::paired_median_of;

namespace {

uint64_t g_sink = 0;  // defeats dead-code elimination of query loops

struct Workload {
  uint64_t universe;
  const char* density;
  std::vector<uint64_t> sorted;    // distinct keys, ascending
  std::vector<uint64_t> shuffled;  // same keys, hash order (insert stream)
  std::vector<uint64_t> probes;    // stored keys, hash order (succ stream)
};

Workload make_workload(uint64_t universe, bool dense, uint64_t seed) {
  Workload w;
  w.universe = universe;
  w.density = dense ? "dense" : "sparse";
  uint64_t target = dense ? universe / 2 : std::max<uint64_t>(universe / 64, 32);
  std::vector<uint64_t> draws(target * 2);
  for (uint64_t i = 0; i < draws.size(); i++) {
    draws[i] = parlis::uniform(seed, i, universe);
  }
  std::sort(draws.begin(), draws.end());
  draws.erase(std::unique(draws.begin(), draws.end()), draws.end());
  if (draws.size() > target) draws.resize(target);
  w.sorted = draws;
  w.shuffled = draws;
  std::sort(w.shuffled.begin(), w.shuffled.end(), [](uint64_t a, uint64_t b) {
    return parlis::hash64(a) < parlis::hash64(b);
  });
  // Successor probes are the stored keys themselves (hash order): the
  // canonical "walk the set via succ" workload. Uniform-random probes mostly
  // resolve at the root via the min/max shortcuts and so measure little;
  // probing at members forces a full-depth descent.
  w.probes = w.shuffled;
  return w;
}

struct Row {
  const char* op;
  uint64_t universe;
  const char* density;
  int64_t n;
  int64_t ops;  // n * rounds: total ops timed per rep
  PairedMedian t;  // base = std::set, test = VebTree
  double per_op_ns(double ms) const { return ops > 0 ? ms * 1e6 / ops : 0.0; }
};

// True iff the tree holds exactly the set's keys and answers succ_gt /
// pred_lt like std::set at every probe.
bool agrees(const VebTree& t, const std::set<uint64_t>& ref,
            const std::vector<uint64_t>& probes) {
  if (t.size() != static_cast<int64_t>(ref.size())) return false;
  if (t.range(0, t.universe() - 1) !=
      std::vector<uint64_t>(ref.begin(), ref.end())) {
    return false;
  }
  for (uint64_t p : probes) {
    auto su = ref.upper_bound(p);
    auto s = t.succ_gt(p);
    if (s.has_value() != (su != ref.end()) || (s && *s != *su)) return false;
    auto pl = ref.lower_bound(p);
    auto q = t.pred_lt(p);
    if (q.has_value() != (pl != ref.begin()) || (q && *q != *std::prev(pl))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  parlis::bench::Flags flags(argc, argv);
  int reps = static_cast<int>(flags.get("reps", 5));
  bool strict = flags.has("strict");
  std::string universes_arg = flags.get_str("universes", "4096,65536,1048576");
  parlis::bench::BenchJson json(flags.get_str("out", ""));

  std::vector<Row> rows;
  bool agree = true;
  std::printf("%-13s %10s %-7s %9s | %11s %11s | %8s\n", "op", "universe",
              "density", "n", "std::set ms", "veb ms", "gain %");

  uint64_t wseed = 90001;
  for (int u_int : parlis::bench::parse_int_list(universes_arg)) {
    uint64_t universe = static_cast<uint64_t>(u_int);
    for (bool dense : {true, false}) {
      Workload w = make_workload(universe, dense, wseed++);
      int64_t n = static_cast<int64_t>(w.sorted.size());
      // Loop the workload until each timed rep covers >= 2^17 ops, so
      // small-n rows measure kernels rather than timer + scheduler noise
      // (sub-ms reps swing +-20% run to run).
      int64_t rounds = std::max<int64_t>(1, (int64_t{1} << 17) / n);
      int64_t ops = n * rounds;
      Arena pool;  // reused (reset) across rounds: no chunk churn in-timer

      // Point inserts, hash order (set and tree rebuilt every round).
      PairedMedian ins = paired_median_of(
          reps,
          [&] {
            for (int64_t rd = 0; rd < rounds; rd++) {
              std::set<uint64_t> s;
              for (uint64_t k : w.shuffled) s.insert(k);
              g_sink += *s.rbegin();
            }
          },
          [&] {
            for (int64_t rd = 0; rd < rounds; rd++) {
              pool.reset();
              VebTree t(w.universe, &pool);
              for (uint64_t k : w.shuffled) t.insert(k);
              g_sink += *t.max();
            }
          });
      rows.push_back({"insert", universe, w.density, n, ops, ins});

      // Successor queries over a pre-filled set and tree.
      std::set<uint64_t> ref(w.sorted.begin(), w.sorted.end());
      VebTree tree(w.universe);
      tree.batch_insert(w.sorted);
      PairedMedian succ = paired_median_of(
          reps,
          [&] {
            uint64_t sink = 0;
            for (int64_t rd = 0; rd < rounds; rd++) {
              for (uint64_t p : w.probes) {
                auto it = ref.upper_bound(p);
                sink += it != ref.end() ? *it : 0;
              }
            }
            g_sink += sink;
          },
          [&] {
            uint64_t sink = 0;
            for (int64_t rd = 0; rd < rounds; rd++) {
              for (uint64_t p : w.probes) {
                auto s = tree.succ_gt(p);
                sink += s ? *s : 0;
              }
            }
            g_sink += sink;
          });
      rows.push_back({"succ", universe, w.density, n, ops, succ});

      // One sorted batch into an empty structure per round (Alg. 4 for the
      // tree, the range constructor for std::set).
      PairedMedian bi = paired_median_of(
          reps,
          [&] {
            for (int64_t rd = 0; rd < rounds; rd++) {
              std::set<uint64_t> s(w.sorted.begin(), w.sorted.end());
              g_sink += *s.rbegin();
            }
          },
          [&] {
            for (int64_t rd = 0; rd < rounds; rd++) {
              pool.reset();
              VebTree t(w.universe, &pool);
              t.batch_insert(w.sorted);
              g_sink += *t.max();
            }
          });
      rows.push_back({"batch_insert", universe, w.density, n, ops, bi});

      // Cross-check both build paths (batch and point inserts).
      VebTree pointwise(w.universe);
      for (uint64_t k : w.shuffled) pointwise.insert(k);
      agree = agree && agrees(tree, ref, w.probes) &&
              agrees(pointwise, ref, w.probes);

      for (size_t i = rows.size() - 3; i < rows.size(); i++) {
        const Row& r = rows[i];
        std::printf("%-13s %10" PRIu64 " %-7s %9" PRId64
                    " | %11.3f %11.3f | %7.1f%%\n",
                    r.op, r.universe, r.density, r.n, r.t.base_ms(),
                    r.t.test_ms(), r.t.speedup_pct());
      }

      // Memory: arena payload bytes per stored key after a batch fill.
      size_t veb_bytes;
      {
        Arena fill_pool;
        VebTree t(w.universe, &fill_pool);
        t.batch_insert(w.sorted);
        veb_bytes = fill_pool.bytes_allocated();
      }
      AllocStats set_stats;
      size_t set_bytes = 0;
      {
        std::set<uint64_t, std::less<uint64_t>, TrackingAllocator<uint64_t>>
            tracked{TrackingAllocator<uint64_t>(&set_stats)};
        for (uint64_t k : w.sorted) tracked.insert(k);
        set_bytes = static_cast<size_t>(set_stats.live_bytes.load());
      }
      std::printf("%-13s %10" PRIu64 " %-7s %9" PRId64
                  " | veb %.1f B/key, std::set %.1f B/key\n",
                  "memory", universe, w.density, n,
                  static_cast<double>(veb_bytes) / n,
                  static_cast<double>(set_bytes) / n);

      if (json.enabled()) {
        for (size_t i = rows.size() - 3; i < rows.size(); i++) {
          const Row& r = rows[i];
          for (bool veb : {false, true}) {
            double ms = veb ? r.t.test_ms() : r.t.base_ms();
            parlis::bench::JsonRecord rec;
            rec.field("bench", "micro_veb")
                .field("op", r.op)
                .field("universe", r.universe)
                .field("density", r.density)
                .field("n", r.n)
                .field("variant", veb ? "veb" : "std_set")
                .field("median_ms", ms)
                .field("per_op_ns", r.per_op_ns(ms));
            if (veb) rec.field("improvement_pct", r.t.speedup_pct());
            json.add(rec);
          }
        }
        const size_t bytes[] = {veb_bytes, set_bytes};
        const char* variants[] = {"veb", "std_set"};
        for (int i = 0; i < 2; i++) {
          parlis::bench::JsonRecord rec;
          rec.field("bench", "micro_veb")
              .field("op", "memory")
              .field("universe", universe)
              .field("density", w.density)
              .field("n", n)
              .field("variant", variants[i])
              .field("bytes", static_cast<uint64_t>(bytes[i]))
              .field("bytes_per_key", static_cast<double>(bytes[i]) / n);
          json.add(rec);
        }
      }
    }
  }

  // Zero-leaf-allocation property: at universe 4096 the single words array
  // faulted in by the first insert is the only allocator traffic the whole
  // key churn ever causes.
  bool zero_alloc_ok;
  {
    Arena pool;
    VebTree t(4096, &pool);
    t.insert(1234);
    size_t after_first = pool.bytes_allocated();
    for (int i = 0; i < 4096; i++) t.insert(parlis::uniform(777, i, 4096));
    zero_alloc_ok = pool.bytes_allocated() == after_first;
  }
  std::printf("zero_leaf_allocations(universe=4096): %s%s\n",
              zero_alloc_ok ? "PASS" : "FAIL",
              strict ? "" : " (advisory; --strict gates exit)");
  std::printf("cross-check (veb contents, succ/pred vs std::set): %s\n",
              agree ? "OK" : "MISMATCH");
  if (json.enabled()) {
    parlis::bench::JsonRecord rec;
    rec.field("bench", "micro_veb")
        .field("op", "acceptance")
        .field("zero_leaf_allocations", zero_alloc_ok ? 1 : 0)
        .field("agrees_with_std_set", agree ? 1 : 0);
    json.add(rec);
  }
  json.write();
  if (g_sink == 42) std::printf("sink\n");  // keep g_sink observable
  if (!agree) return 1;
  return strict && !zero_alloc_ok ? 2 : 0;
}
