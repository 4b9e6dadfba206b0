// The three solve workloads: lis_large_k, lis_small_k_f64, wlis_cold.
//
// Each run generates four distinct inputs from the workload seed and
// computes their oracles (untimed), then cycles the inputs through one
// Solver until --seconds have passed, timing the sequential baseline on the
// same input right after every solve. The order is fixed: every solve then
// starts from the same pool state (workers idled by a sequential baseline),
// where alternating the order mixes two states into one distribution. Every
// result is compared against its oracle outside the timed region.
//
// The traced run adds, per iteration, a replay of the solve through the
// same public layer functions the Solver calls, with a span around each
// call; the per-layer metrics come from those spans. The untraced solve in
// the same iteration gives the denominator of trace.coverage and the
// scheduler counter deltas.
#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/lis/tournament_tree.hpp"
#include "parlis/parallel/primitives.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/content_hash.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/range_tree.hpp"
#include "parlis/wlis/seq_avl.hpp"

namespace perfbench {

namespace {

using parlis::LisResult;
using parlis::Solver;
using parlis::WlisResult;

enum class Kind { kLisI64, kLisF64, kWlis };

struct Spec {
  const char* name;
  Kind kind;
  int64_t n;
  int64_t target_k;
  const char* baseline;
};

// Sizes: large enough that each regime shows (fork/join-bound rounds at
// large k, the rank-space pass at small k, the cache-missing range tree for
// WLIS), small enough that a run holds the >= 100 interleaved solve/baseline
// pairs that put the tail rule near p90 on the half-core pool, and wlis_cold
// the >= 240 that block_tail needs even when the host runs it a third
// slower. wlis_cold also keeps its ~15 MB solver state inside the shared L3:
// at n=2.5e5 (~90 MB, the L3's size) its solve time swung 290-610 ms between
// runs with the neighbours' cache pressure.
constexpr int kInputs = 4;

constexpr Spec kSpecs[] = {
    {"lis_large_k", Kind::kLisI64, 300'000, 30'000, "seq_bs_length"},
    {"lis_small_k_f64", Kind::kLisF64, 500'000, 1'000, "seq_bs_length"},
    {"wlis_cold", Kind::kWlis, 40'000, 300, "seq_avl_wlis"},
};
constexpr int kSetupReps = 5;

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

struct Input {
  std::vector<int64_t> a;
  std::vector<double> d;  // kLisF64: the keys, order-preserving image of a
  std::vector<int64_t> w;  // kWlis
  // Oracles.
  std::vector<int32_t> rank;  // LIS: seq_bs_ranks
  std::vector<int64_t> dp;    // WLIS: seq_avl_wlis
  int32_t k = 0;
  int64_t best = 0;
};

Input make_input(const Spec& spec, uint64_t seed, int i) {
  Input in;
  in.a = parlis::line_pattern(spec.n, spec.target_k, derive_seed(seed, i));
  switch (spec.kind) {
    case Kind::kLisI64:
      in.rank = parlis::seq_bs_ranks(in.a);
      break;
    case Kind::kLisF64:
      // ldexp by a power of two is exact for |a| < 2^53: distinct keys stay
      // distinct and ordered, so the ranks are those of the int64 image.
      in.d.resize(in.a.size());
      for (size_t j = 0; j < in.a.size(); j++) {
        in.d[j] = std::ldexp(static_cast<double>(in.a[j]), -10);
      }
      in.rank = parlis::seq_bs_ranks(in.d);
      break;
    case Kind::kWlis:
      in.w = parlis::uniform_weights(spec.n, derive_seed(seed, 100 + i));
      in.dp = parlis::seq_avl_wlis(in.a, in.w);
      in.k = static_cast<int32_t>(parlis::seq_bs_length(in.a));
      for (int64_t v : in.dp) in.best = std::max(in.best, v);
      break;
  }
  if (spec.kind != Kind::kWlis) {
    for (int32_t r : in.rank) in.k = std::max(in.k, r);
    in.best = in.k;
  }
  return in;
}

// FNV-1a over the result's per-element array: the fidelity check between
// the traced replay and the untraced solve.
template <typename T>
uint64_t array_hash(const std::vector<T>& v) {
  uint64_t h = 0xcbf29ce484222325ull;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(v.data());
  for (size_t i = 0; i < v.size() * sizeof(T); i++) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

// One solve's outcome in the form every path (Solver, replay) reports.
struct Outcome {
  int32_t k = 0;
  int64_t best = 0;
  uint64_t hash = 0;
  bool correct = false;
};

Outcome check_lis(const LisResult& r, const Input& in) {
  return Outcome{r.k, r.k, array_hash(r.rank), r.k == in.k && r.rank == in.rank};
}

Outcome check_wlis(const WlisResult& r, const Input& in) {
  return Outcome{r.k, r.best, array_hash(r.dp),
                 r.k == in.k && r.best == in.best && r.dp == in.dp};
}

// The Solver path under test, one call per kind.
class Subject {
 public:
  explicit Subject(const Spec& spec) : spec_(spec) {}

  void solve(Solver& s, const Input& in) {
    switch (spec_.kind) {
      case Kind::kLisI64:
        s.solve_lis(std::span<const int64_t>(in.a), lis_);
        break;
      case Kind::kLisF64:
        s.solve_lis<double>(std::span<const double>(in.d), lis_);
        break;
      case Kind::kWlis:
        s.solve_wlis(std::span<const int64_t>(in.a),
                     std::span<const int64_t>(in.w), wlis_);
        break;
    }
  }

  Outcome check(const Input& in) const {
    return spec_.kind == Kind::kWlis ? check_wlis(wlis_, in)
                                     : check_lis(lis_, in);
  }

  // The paper's sequential baseline on the same input; true when its answer
  // agrees with the oracle.
  static bool baseline(const Spec& spec, const Input& in) {
    switch (spec.kind) {
      case Kind::kLisI64:
        return parlis::seq_bs_length(in.a) == in.k;
      case Kind::kLisF64:
        return parlis::seq_bs_length(in.d) == in.k;
      case Kind::kWlis: {
        const std::vector<int64_t> dp = parlis::seq_avl_wlis(in.a, in.w);
        return *std::max_element(dp.begin(), dp.end()) == in.best;
      }
    }
    return false;
  }

 private:
  const Spec& spec_;
  LisResult lis_;
  WlisResult wlis_;
};

// ------------------------------------------------------------ replays ---

// Layer readouts of one replayed solve that do not come from span times.
struct ReplayCounts {
  int32_t lis_rounds = 0;
  uint64_t nodes_visited = 0;
  int32_t wlis_rounds = 0;
};

// Buffers the replays keep warm across solves, as the Solver's workspaces do.
struct ReplayState {
  parlis::TournamentStorage<int64_t> tour;
  parlis::RankSpace rs;
  parlis::RankSpaceScratch rs_scratch;
  LisResult lis;
  parlis::LisFrontiers fr;
  std::vector<int64_t> cached_a;
  parlis::RangeTreeMax tree;
  std::vector<parlis::ScoreUpdate> batch;
  std::vector<int64_t> qpos, qres;
  WlisResult wlis;
};

// lis_ranks_into, call by call: TournamentTree + extract_frontier(visit).
ReplayCounts replay_lis_ranks(Tracer& t, uint64_t op, std::span<const int64_t> a,
                              int64_t inf, ReplayState& st) {
  ReplayCounts c;
  LisResult& res = st.lis;
  {
    SpanScope s(&t, "lis.init", op);
    res.rank.assign(a.size(), 0);
  }
  t.begin("lis.build", op);
  parlis::TournamentTree<int64_t> tree(a, inf, st.tour);
  t.end();
  int32_t r = 0;
  {
    SpanScope s(&t, "lis.rounds", op);
    while (!tree.empty()) {
      ++r;
      SpanScope round(&t, "lis.round", op, /*detail=*/true);
      tree.extract_frontier([&](int64_t i) { res.rank[i] = r; });
    }
  }
  res.k = r;
  c.lis_rounds = r;
  c.nodes_visited = tree.nodes_visited();
  return c;
}

// Solver::solve_lis<double>: rank_space_into, then the int64 kernel over
// the rank image with n as the sentinel.
ReplayCounts replay_lis_f64(Tracer& t, uint64_t op, std::span<const double> d,
                            ReplayState& st) {
  {
    SpanScope s(&t, "rank_space", op);
    parlis::rank_space_into<double>(d, parlis::TiesPolicy::kStrict, st.rs,
                                    st.rs_scratch);
  }
  return replay_lis_ranks(t, op, std::span<const int64_t>(st.rs.rank),
                          static_cast<int64_t>(d.size()), st);
}

// Solver::solve_wlis on a value-cache miss (wlis_into -> run_wlis with the
// range tree): hash guard, rank space, the lis_frontiers_into rounds, cache
// copy, RangeTreeMax::rebuild, then per round the batched dominant-max
// queries and the batched update.
ReplayCounts replay_wlis(Tracer& t, uint64_t op, std::span<const int64_t> a,
                         std::span<const int64_t> w, ReplayState& st) {
  ReplayCounts c;
  const int64_t n = static_cast<int64_t>(a.size());
  {
    SpanScope s(&t, "wlis.hash", op);
    volatile uint64_t h = parlis::content_hash64(a);
    (void)h;
  }
  {
    SpanScope s(&t, "rank_space", op);
    parlis::rank_space_into<int64_t>(a, parlis::TiesPolicy::kStrict, st.rs,
                                     st.rs_scratch);
  }
  parlis::LisFrontiers& fr = st.fr;
  {
    SpanScope s(&t, "lis.init", op);
    fr.rank.assign(a.size(), 0);
    fr.frontier_offset.clear();
    fr.frontier_offset.push_back(0);
    fr.frontier_flat.resize(n);
  }
  t.begin("lis.build", op);
  parlis::TournamentTree<int64_t> tree(a, std::numeric_limits<int64_t>::max(),
                                       st.tour);
  t.end();
  {
    SpanScope s(&t, "lis.rounds", op);
    int32_t r = 0;
    int64_t off = 0;
    while (!tree.empty()) {
      ++r;
      SpanScope round(&t, "lis.round", op, /*detail=*/true);
      const int64_t m =
          tree.extract_frontier_collect_into(fr.frontier_flat.data() + off);
      const int64_t* f = fr.frontier_flat.data() + off;
      parlis::parallel_for(0, m, [&](int64_t j) { fr.rank[f[j]] = r; });
      off += m;
      fr.frontier_offset.push_back(off);
    }
    fr.k = r;
  }
  c.lis_rounds = fr.k;
  c.nodes_visited = tree.nodes_visited();
  {
    SpanScope s(&t, "wlis.cache_copy", op);
    st.cached_a.assign(a.begin(), a.end());
  }
  {
    SpanScope s(&t, "wlis.tree_build", op);
    st.tree.rebuild(st.rs.order);
  }
  WlisResult& res = st.wlis;
  {
    SpanScope s(&t, "wlis.init", op);
    res.dp.assign(n, 0);
    res.k = fr.k;
    st.batch.resize(n);
    st.qpos.resize(n);
    st.qres.resize(n);
  }
  {
    SpanScope s(&t, "wlis.rounds", op);
    const parlis::RankSpace& rsp = st.rs;
    for (int32_t r = 1; r <= fr.k; r++) {
      const int64_t* f = fr.frontier_flat.data() + fr.frontier_offset[r - 1];
      const int64_t fn = fr.frontier_offset[r] - fr.frontier_offset[r - 1];
      {
        SpanScope q(&t, "wlis.query", op, /*detail=*/true);
        parlis::parallel_for(0, fn,
                             [&](int64_t i) { st.qpos[i] = rsp.qpos[f[i]]; });
        st.tree.dominant_max_batch(st.qpos.data(), f, fn, st.qres.data());
        parlis::parallel_for(0, fn, [&](int64_t i) {
          const int64_t j = f[i];
          res.dp[j] = w[j] + std::max<int64_t>(0, st.qres[i]);
        });
      }
      {
        SpanScope u(&t, "wlis.update", op, /*detail=*/true);
        parlis::parallel_for(0, fn, [&](int64_t i) {
          st.batch[i] = {rsp.pos[f[i]], res.dp[f[i]]};
        });
        st.tree.update_batch(st.batch.data(), fn);
      }
    }
  }
  c.wlis_rounds = fr.k;
  {
    SpanScope s(&t, "wlis.reduce", op);
    res.best = parlis::reduce_index<int64_t>(
        0, n, 0, [&](int64_t i) { return res.dp[i]; },
        [](int64_t x, int64_t y) { return std::max(x, y); });
  }
  return c;
}

double ms_between(int64_t t0, int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

// Frontier sizes of one solve, read off its rank array (untimed).
void frontier_sizes(const std::vector<int32_t>& rank, int32_t k,
                    std::vector<double>& out) {
  std::vector<int64_t> cnt(static_cast<size_t>(k) + 1, 0);
  for (int32_t r : rank) cnt[r]++;
  out.clear();
  for (int32_t r = 1; r <= k; r++) out.push_back(static_cast<double>(cnt[r]));
}

// Per-layer samples gathered over a traced run, one entry per solve unless
// noted.
struct LayerSamples {
  std::vector<double> lis_build, lis_rounds_ms, round_us /* every round */,
      lis_rounds, nodes, frontier_p50, frontier_max, spawns, steals,
      rank_space, tree_build, query, update, wlis_rounds, replay_ms,
      untraced_ms, baseline_ms;
};

}  // namespace

bool is_solve_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

void run_solve_workload(const Config& cfg, Report& report) {
  const Spec* spec = find_spec(cfg.workload);
  if (spec == nullptr) {
    throw std::invalid_argument("unknown workload: " + cfg.workload);
  }

  // ---- inputs and oracles (untimed)
  std::vector<Input> inputs;
  std::string ks;
  for (int i = 0; i < kInputs; i++) {
    inputs.push_back(make_input(*spec, cfg.seed, i));
    ks += format("%s%d", i ? "," : "", inputs.back().k);
  }
  report.note(format("inputs: %d x line_pattern(n=%lld, target_k=%lld)%s, "
                     "realized k = %s",
                     kInputs, static_cast<long long>(spec->n),
                     static_cast<long long>(spec->target_k),
                     spec->kind == Kind::kWlis   ? " + uniform_weights"
                     : spec->kind == Kind::kLisF64 ? " as doubles"
                                                   : "",
                     ks.c_str()));

  Subject subject(*spec);
  // Runs one Solver call with failure accounting; returns its wall time.
  auto timed_solve = [&](Solver& s, const Input& in) {
    const int64_t t0 = now_ns();
    bool threw = false;
    try {
      subject.solve(s, in);
    } catch (const parlis::Error& e) {
      threw = true;
      report.note(format("solve threw: %s", e.what()));
    }
    const int64_t t1 = now_ns();
    if (threw) {
      report.tally.threw();
    } else {
      report.tally.record(subject.check(in).correct);
    }
    return ms_between(t0, t1);
  };
  auto timed_baseline = [&](const Input& in) {
    const int64_t t0 = now_ns();
    const bool ok = Subject::baseline(*spec, in);
    const int64_t t1 = now_ns();
    if (!ok) throw std::runtime_error("baseline disagrees with the oracle");
    return ms_between(t0, t1);
  };

  // ---- set-up: Solver construction + first (cold) solve, kSetupReps times.
  // It solves the last input so that the measured phase, which starts at
  // inputs[0], misses wlis_cold's value cache from its first solve on.
  std::optional<Solver> solver;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; r++) {
    solver.reset();
    const int64_t t0 = now_ns();
    solver.emplace(parlis::Options{});
    timed_solve(*solver, inputs[kInputs - 1]);
    setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  }
  const bool peak_reset = reset_peak_rss();

  Tracer tracer;
  ReplayState replay;
  LayerSamples L;
  std::vector<double> solve_ms, base_ms, fsizes;
  const int64_t deadline =
      now_ns() + static_cast<int64_t>(cfg.seconds * 1e9);
  for (uint64_t it = 0; now_ns() < deadline || solve_ms.size() < kMinSamples;
       it++) {
    const Input& in = inputs[it % kInputs];
    const parlis::SchedulerStats s0 = parlis::scheduler_stats();
    solve_ms.push_back(timed_solve(*solver, in));
    const parlis::SchedulerStats s1 = parlis::scheduler_stats();
    base_ms.push_back(timed_baseline(in));
    if (!cfg.trace) continue;

    // ---- traced replay of the same solve
    L.spawns.push_back(static_cast<double>(s1.spawns - s0.spawns));
    L.steals.push_back(static_cast<double>(s1.steals - s0.steals));
    const Outcome untraced = subject.check(in);
    const size_t from = tracer.mark();
    ReplayCounts c;
    Outcome traced;
    switch (spec->kind) {
      case Kind::kLisI64:
        c = replay_lis_ranks(tracer, it, in.a,
                             std::numeric_limits<int64_t>::max(), replay);
        traced = check_lis(replay.lis, in);
        break;
      case Kind::kLisF64:
        c = replay_lis_f64(tracer, it, in.d, replay);
        traced = check_lis(replay.lis, in);
        break;
      case Kind::kWlis:
        c = replay_wlis(tracer, it, in.a, in.w, replay);
        traced = check_wlis(replay.wlis, in);
        break;
    }
    // The replay is an op of its own: it must match the oracle and be
    // bit-identical to the untraced solve.
    const bool identical = traced.k == untraced.k &&
                           traced.best == untraced.best &&
                           traced.hash == untraced.hash;
    if (traced.correct && identical) {
      report.tally.ok();
    } else {
      report.tally.mismatch();
      report.note(format("traced replay differs: k %d/%d best %lld/%lld "
                         "hash %016llx/%016llx",
                         traced.k, untraced.k,
                         static_cast<long long>(traced.best),
                         static_cast<long long>(untraced.best),
                         static_cast<unsigned long long>(traced.hash),
                         static_cast<unsigned long long>(untraced.hash)));
    }
    if (it == 0) {
      report.note(format("trace fidelity: k=%d best=%lld %s-hash=%016llx "
                         "(traced == untraced)",
                         traced.k, static_cast<long long>(traced.best),
                         spec->kind == Kind::kWlis ? "dp" : "rank",
                         static_cast<unsigned long long>(traced.hash)));
    }
    L.untraced_ms.push_back(solve_ms.back());
    L.baseline_ms.push_back(base_ms.back());
    L.replay_ms.push_back(tracer.top_level_ms(from));
    L.lis_build.push_back(tracer.total_ms("lis.build", from));
    L.lis_rounds_ms.push_back(tracer.total_ms("lis.rounds", from));
    tracer.durations("lis.round", from, 1e3, L.round_us);
    L.lis_rounds.push_back(c.lis_rounds);
    L.nodes.push_back(static_cast<double>(c.nodes_visited));
    frontier_sizes(spec->kind == Kind::kWlis ? replay.fr.rank : replay.lis.rank,
                   c.lis_rounds, fsizes);
    L.frontier_p50.push_back(median_of(fsizes));
    L.frontier_max.push_back(*std::max_element(fsizes.begin(), fsizes.end()));
    L.rank_space.push_back(tracer.total_ms("rank_space", from));
    L.tree_build.push_back(tracer.total_ms("wlis.tree_build", from));
    L.query.push_back(tracer.total_ms("wlis.query", from));
    L.update.push_back(tracer.total_ms("wlis.update", from));
    L.wlis_rounds.push_back(c.wlis_rounds);
    tracer.fold(from, it);
  }

  const double n = static_cast<double>(spec->n);
  if (!cfg.trace) {
    const Tail tail = block_tail(solve_ms);
    const Ratio speedup = speedup_vs_seq(base_ms, solve_ms);
    double total_s = 0;
    for (double v : solve_ms) total_s += v * 1e-3;
    report.metric("solve_ms_p50", median_of(solve_ms), "ms",
                  format("%zu solves", solve_ms.size()));
    report.tail_metric("solve_ms_tail", tail);
    report.metric("speedup_vs_seq", speedup.value(), "x",
                  format("%s p50 %.3f ms / solve p50 %.3f ms, %zu pairs",
                         spec->baseline, speedup.num, speedup.den,
                         base_ms.size()));
    report.metric("ops_per_s", static_cast<double>(solve_ms.size()) / total_s,
                  "1/s",
                  format("%zu solves / time inside the solver", solve_ms.size()));
    report.tail_metric("op_ms_tail", tail);
  } else {
    const double untraced = median_of(L.untraced_ms);
    report.metric("lis.build_ms", median_of(L.lis_build), "ms");
    report.metric("lis.rounds_ms", median_of(L.lis_rounds_ms), "ms");
    report.metric("lis.round_us_p50", median_of(L.round_us), "us",
                  format("%zu rounds", L.round_us.size()));
    report.metric("lis.rounds", median_of(L.lis_rounds), "count");
    report.metric("lis.nodes_visited", median_of(L.nodes), "count");
    report.metric("lis.frontier_p50", median_of(L.frontier_p50), "count");
    report.metric("lis.frontier_max", median_of(L.frontier_max), "count");
    report.metric("parallel.spawns_per_solve", median_of(L.spawns), "count");
    report.metric("parallel.steals_per_solve", median_of(L.steals), "count");
    report.metric("rank_space.ms", median_of(L.rank_space), "ms");
    report.metric("wlis.tree_build_ms", median_of(L.tree_build), "ms");
    report.metric("wlis.query_ms", median_of(L.query), "ms");
    report.metric("wlis.update_ms", median_of(L.update), "ms");
    report.metric("wlis.rounds", median_of(L.wlis_rounds), "count");
    report.metric("wlis.tree_bytes_per_elem",
                  static_cast<double>(replay.tree.pool_reserved_bytes()) / n,
                  "B/elem", "RangeTreeMax::pool_reserved_bytes() / n");
    report.metric("api.resident_bytes_per_elem",
                  static_cast<double>(solver->resident_bytes()) / n, "B/elem",
                  "Solver::resident_bytes() / n");
    report.metric("ref.seq_baseline_ms", median_of(L.baseline_ms), "ms",
                  spec->baseline);
    report.metric("trace.coverage", median_of(L.replay_ms) / untraced, "ratio",
                  format("traced layer sum p50 %.3f ms / untraced solve p50 "
                         "%.3f ms, %zu solves",
                         median_of(L.replay_ms), untraced, L.replay_ms.size()));
  }
  report.metric("setup_s", median_of(setup_s), "s",
                format("median of %d x (Solver construction + first cold "
                       "solve)",
                       kSetupReps));
  report.metric("peak_rss_mb", peak_rss_mb(), "MB",
                peak_reset ? "VmHWM of the measured phase" : "VmHWM of the process");
  if (cfg.trace) report.tracers.push_back(std::move(tracer));
}

}  // namespace perfbench
