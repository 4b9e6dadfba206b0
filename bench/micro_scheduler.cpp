// Scheduler microbenchmark: the runtime layer's fork/join and loop costs,
// and end-to-end solves across a thread sweep.
//
//   spawn          — scheduling overhead per unit of distributed work: a
//                    parallel_for over `spawniters` trivial iterations at
//                    grain 1, fully scheduling-bound (the lazy range
//                    descriptor: one uncontended CAS block claim per
//                    iteration, no task unless a thief splits the range).
//   par_do         — round-trip cost of a single fork+join pair (push,
//                    run left, pop-or-help) on an otherwise idle pool.
//   forkjoin_tree  — a balanced binary par_do tree (fork-join latency with
//                    real steal traffic).
//   parallel_for_tasks — tasks spawned by one parallel_for over 2^20
//                    indices: one range advertisement plus one
//                    re-advertisement per successful half-steal.
//   lis_ranks/wlis — end-to-end solves across the thread sweep (the pool
//                    size is fixed per process, so the parent re-executes
//                    itself per thread count via PARLIS_NUM_THREADS + an
//                    argv vector — no shell), each cross-checked against
//                    the paper's sequential baselines (Seq-BS LIS length,
//                    Seq-AVL best weight).
//
// The runtime rows have no paper baseline; they report the current code,
// medians over --reps.
//
// Flags: --n (lis_ranks size), --nw (wlis size), --spawniters,
// --treeleaves, --threadlist, --reps, --out FILE (BENCH_*.json records).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/wlis/seq_avl.hpp"
#include "parlis/wlis/wlis.hpp"

namespace {

using namespace parlis;
using namespace parlis::bench;

int64_t tree_sum(int64_t lo, int64_t hi) {
  if (hi - lo == 1) return lo;
  int64_t mid = lo + (hi - lo) / 2;
  int64_t a = 0, b = 0;
  par_do([&] { a = tree_sum(lo, mid); }, [&] { b = tree_sum(mid, hi); });
  return a + b;
}

// Child mode: run every measurement at the pool size inherited from
// PARLIS_NUM_THREADS and print RESULT lines in a fixed order.
int run_child(int64_t n, int64_t nw, int64_t spawn_iters, int64_t tree_leaves,
              int reps) {
  // Scheduling-bound loop: grain 1 makes every iteration one unit of
  // distributed work. The body is one plain store per distinct index, so
  // elapsed time is almost pure scheduling overhead.
  std::vector<int64_t> units(spawn_iters);
  double spawn_ns = time_median_of(reps, [&] {
                      parallel_for(0, spawn_iters,
                                   [&](int64_t i) { units[i] = i; },
                                   /*grain=*/1);
                    }) * 1e9 / spawn_iters;

  // Per-branch sinks: the right branch may run on a thief, so the two
  // bodies must not touch the same (non-atomic) cell.
  volatile int64_t sink_l = 0, sink_r = 0;
  double pardo_ns = time_median_of(reps, [&] {
                      for (int64_t i = 0; i < spawn_iters; i++) {
                        par_do([&] { sink_l = sink_l + 1; },
                               [&] { sink_r = sink_r + 1; });
                      }
                    }) * 1e9 / spawn_iters;

  volatile int64_t sink = 0;
  double tree_ms =
      time_median_of(reps, [&] { sink = sink + tree_sum(0, tree_leaves); }) *
      1e3;

  constexpr int64_t kPforN = 1 << 20;
  std::vector<int64_t> acc(kPforN);
  uint64_t before = scheduler_stats().spawns;
  parallel_for(0, kPforN, [&](int64_t i) { acc[i] = i; });
  double pfor_tasks = static_cast<double>(scheduler_stats().spawns - before);

  std::vector<int64_t> a(n), w(n);
  parallel_for(0, n, [&](int64_t i) {
    a[i] = static_cast<int64_t>(hash64(42, i) >> 1);
    w[i] = 1 + static_cast<int64_t>(uniform(43, i, 1000));
  });
  int32_t lis_k = 0;
  double lis_ms = time_median_of(reps, [&] { lis_k = lis_ranks(a).k; }) * 1e3;
  std::vector<int64_t> aw(a.begin(), a.begin() + std::min(n, nw));
  std::vector<int64_t> ww(w.begin(), w.begin() + std::min(n, nw));
  int64_t wlis_best = 0;
  double wlis_ms = time_median_of(reps, [&] {
                     wlis_best = wlis(aw, ww, WlisStructure::kRangeTree).best;
                   }) * 1e3;
  // Cross-check against the sequential baselines (untimed).
  int64_t avl_best = 0;
  for (int64_t v : seq_avl_wlis(aw, ww)) avl_best = std::max(avl_best, v);
  bool ok = lis_k == seq_bs_length(a) && wlis_best == avl_best;

  std::printf("RESULT %.4f\n", spawn_ns);
  std::printf("RESULT %.4f\n", pardo_ns);
  std::printf("RESULT %.6f\n", tree_ms);
  std::printf("RESULT %.0f\n", pfor_tasks);
  std::printf("RESULT %.6f\n", lis_ms);
  std::printf("RESULT %.6f\n", wlis_ms);
  std::printf("RESULT %d\n", ok ? 1 : 0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int64_t n = flags.get("n", 10000000);
  int64_t nw = flags.get("nw", 1000000);
  int64_t spawn_iters = flags.get("spawniters", 100000);
  int64_t tree_leaves = flags.get("treeleaves", 4096);
  int reps = static_cast<int>(flags.get("reps", 3));
  if (flags.has("child")) {
    return run_child(n, nw, spawn_iters, tree_leaves, reps);
  }

  std::string tl = flags.get_str("threadlist", "1,2,4");
  std::vector<int> threads = parse_int_list(tl);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  BenchJson json(flags.get_str("out", ""));
  std::printf(
      "micro_scheduler: n=%lld, nw=%lld, spawniters=%lld, treeleaves=%lld, "
      "reps=%d, threads={%s}, host_hw_threads=%d\n",
      static_cast<long long>(n), static_cast<long long>(nw),
      static_cast<long long>(spawn_iters), static_cast<long long>(tree_leaves),
      reps, tl.c_str(), hw);

  std::vector<std::string> child_args = {
      "--child",      "1",
      "--n",          std::to_string(n),
      "--nw",         std::to_string(nw),
      "--spawniters", std::to_string(spawn_iters),
      "--treeleaves", std::to_string(tree_leaves),
      "--reps",       std::to_string(reps)};

  constexpr size_t kResults = 7;
  struct Row {
    int threads = 0;
    std::vector<double> v;  // the RESULT values, in run_child's order
  };
  std::vector<Row> rows;
  for (int t : threads) {
    std::vector<double> v = run_self_with_threads(argv[0], t, child_args);
    if (v.size() != kResults) {
      std::fprintf(stderr, "micro_scheduler: child at %d threads failed\n", t);
      continue;
    }
    rows.push_back({t, std::move(v)});
  }
  if (rows.empty()) {
    std::fprintf(stderr, "micro_scheduler: no measurements\n");
    return 1;
  }

  std::printf("\n%-8s  %10s  %10s  %10s  %10s  %12s  %12s\n", "threads",
              "spawn ns", "pardo ns", "tree ms", "pfor tasks", "lis_ranks ms",
              "wlis ms");
  for (const Row& r : rows) {
    std::printf("%-8d  %10.1f  %10.1f  %10.3f  %10.0f  %12.1f  %12.1f\n",
                r.threads, r.v[0], r.v[1], r.v[2], r.v[3], r.v[4], r.v[5]);
  }

  double lis_t1 = -1, wlis_t1 = -1;
  for (const Row& r : rows) {
    if (r.threads == 1) {
      lis_t1 = r.v[4];
      wlis_t1 = r.v[5];
    }
  }
  bool ok = true;
  for (const Row& r : rows) {
    ok = ok && r.v[6] == 1.0;
    auto rec = [&](const char* op) {
      return JsonRecord()
          .field("bench", "micro_scheduler")
          .field("op", op)
          .field("variant", "current")
          .field("threads", r.threads);
    };
    json.add(rec("spawn").field("per_spawn_ns", r.v[0]));
    json.add(rec("par_do").field("per_fork_ns", r.v[1]));
    json.add(rec("forkjoin_tree")
                 .field("leaves", tree_leaves)
                 .field("median_ms", r.v[2]));
    json.add(rec("parallel_for_tasks").field("tasks", r.v[3]));
    json.add(rec("lis_ranks")
                 .field("n", n)
                 .field("median_ms", r.v[4])
                 .field("speedup_vs_t1",
                        lis_t1 > 0 && r.v[4] > 0 ? lis_t1 / r.v[4] : -1));
    json.add(rec("wlis")
                 .field("n", nw)
                 .field("median_ms", r.v[5])
                 .field("speedup_vs_t1",
                        wlis_t1 > 0 && r.v[5] > 0 ? wlis_t1 / r.v[5] : -1));
  }

  const Row& top = rows.back();
  if (lis_t1 > 0 && top.v[4] > 0) {
    std::printf("\nlis_ranks scaling: %.2fx at %d threads vs 1 thread%s\n",
                lis_t1 / top.v[4], top.threads,
                hw < 4 ? " (host has < 4 hardware threads; see EXPERIMENTS.md)"
                       : "");
  }
  std::printf("cross-check (lis_ranks k = Seq-BS, wlis best = Seq-AVL, every "
              "thread count): %s\n",
              ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
