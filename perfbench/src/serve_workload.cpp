// serve_mixed: a default serve::Engine driven closed-loop by kClients client
// threads; each client sends its next op only after the previous one
// returned. Per client, the op mix is 60% solve_one on a small query
// (n=2048, half weighted), 35% append to the client's own streamed series
// and 5% solve_warm WLIS on the client's hot n=65536 series with rotating
// weights (value-cache hits after the first).
//
// Inputs, oracles and the sequential-baseline time of every solve input are
// computed before the Engine starts. The baselines are not timed by the
// clients during the loop: a client running a 35 ms sequential baseline
// takes a core from the pool's fork/join and cut throughput by up to 40%.
// The traced run spends the
// first kEngineShare of --seconds in the same closed loop with a span around
// every Engine call, then times the same verbs outside the Engine: small
// queries through Solver::solve_many, appends through LisSession::append,
// and warm solves through Solver::solve_wlis, each on a private Solver. The
// gap between the two is the queue and head-of-line cost.
#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "parlis/api/solver.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/serve/engine.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/generators.hpp"
#include "parlis/wlis/seq_avl.hpp"

namespace perfbench {

namespace {

using parlis::Query;
using parlis::QueryResult;

constexpr int kClients = 3;
constexpr int64_t kSmallN = 2048;
constexpr int kSmallPool = 256;
constexpr int64_t kSmallTargetK[] = {16, 64, 256};
constexpr int64_t kHotN = 65536;
constexpr int64_t kHotTargetK = 256;
constexpr int kWeightSets = 8;
constexpr int64_t kStreamLen = 65536;
constexpr int64_t kStreamTargetK = 4096;
// Each client deals its ops from a deck of kDeck cards, reshuffled per
// cycle, so every run holds the mix exactly: 12 small, 7 append, 1 warm.
constexpr int kDeck = 20, kDeckSmall = 12, kDeckAppend = 7;
constexpr int kSetupReps = 5;
constexpr int kBaselineReps = 3;
constexpr double kEngineShare = 0.7;

uint64_t warm_series(int c) { return 1 + static_cast<uint64_t>(c); }
uint64_t append_series(int c) { return 101 + static_cast<uint64_t>(c); }

struct SmallQuery {
  std::vector<int64_t> a, w;  // w empty: unweighted
  int64_t k = 0, best = 0;    // oracle
  double baseline_ms = 0;
};

struct HotSeries {
  std::vector<int64_t> a;
  std::vector<std::vector<int64_t>> w, dp;  // per weight set; dp = oracle
  std::vector<int64_t> best;
  std::vector<double> baseline_ms;
  int64_t k = 0;
};

struct Stream {
  std::vector<int64_t> v;
  std::vector<int64_t> len;  // LIS length after appending v[0..i]
};

struct Inputs {
  std::vector<SmallQuery> small;
  std::vector<HotSeries> hot;    // one per client
  std::vector<Stream> streams;   // one per client
};

double ms_between(int64_t t0, int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

// The paper's sequential baseline for one solve input (seq_bs_length, or
// seq_avl_wlis when weighted), timed kBaselineReps times; returns the median
// ms. Its answer must be the oracle's.
double time_baseline(const std::vector<int64_t>& a,
                     const std::vector<int64_t>& w, int64_t best) {
  std::vector<double> t;
  for (int r = 0; r < kBaselineReps; r++) {
    const int64_t t0 = now_ns();
    int64_t got;
    if (w.empty()) {
      got = parlis::seq_bs_length(a);
    } else {
      const std::vector<int64_t> dp = parlis::seq_avl_wlis(a, w);
      got = *std::max_element(dp.begin(), dp.end());
    }
    t.push_back(ms_between(t0, now_ns()));
    if (got != best) throw std::runtime_error("baseline disagrees with the oracle");
  }
  return median_of(t);
}

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  for (int i = 0; i < kSmallPool; i++) {
    SmallQuery q;
    q.a = parlis::line_pattern(kSmallN, kSmallTargetK[i % 3],
                               derive_seed(seed, 200 + i));
    q.k = parlis::seq_bs_length(q.a);
    if (i % 2 == 1) {
      q.w = parlis::uniform_weights(kSmallN, derive_seed(seed, 600 + i));
      const std::vector<int64_t> dp = parlis::seq_avl_wlis(q.a, q.w);
      q.best = *std::max_element(dp.begin(), dp.end());
    } else {
      q.best = q.k;
    }
    q.baseline_ms = time_baseline(q.a, q.w, q.best);
    in.small.push_back(std::move(q));
  }
  for (int c = 0; c < kClients; c++) {
    HotSeries h;
    h.a = parlis::line_pattern(kHotN, kHotTargetK, derive_seed(seed, 1000 + c));
    h.k = parlis::seq_bs_length(h.a);
    for (int j = 0; j < kWeightSets; j++) {
      h.w.push_back(parlis::uniform_weights(
          kHotN, derive_seed(seed, 1100 + c * kWeightSets + j)));
      h.dp.push_back(parlis::seq_avl_wlis(h.a, h.w.back()));
      h.best.push_back(*std::max_element(h.dp.back().begin(), h.dp.back().end()));
      h.baseline_ms.push_back(time_baseline(h.a, h.w.back(), h.best.back()));
    }
    in.hot.push_back(std::move(h));

    // Bench-side patience length after every append of the stream.
    Stream s;
    s.v = parlis::line_pattern(kStreamLen, kStreamTargetK,
                               derive_seed(seed, 1200 + c));
    std::vector<int64_t> tails;
    for (int64_t x : s.v) {
      auto it = std::lower_bound(tails.begin(), tails.end(), x);
      if (it == tails.end()) {
        tails.push_back(x);
      } else {
        *it = x;
      }
      s.len.push_back(static_cast<int64_t>(tails.size()));
    }
    in.streams.push_back(std::move(s));
  }
  return in;
}

// SplitMix64 step: the clients' op-choice generator.
uint64_t next_rand(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum class Verb { kSmall, kAppend, kWarm };

// One client's closed loop and everything it measured.
struct Client {
  int id = 0;
  uint64_t rng = 0;
  int64_t next_append = 0;
  int64_t warm_done = 0;
  Tally tally;
  std::vector<double> op_ms, solve_ms, baseline_ms;  // baseline: per solve op
  std::vector<double> verb_ms[3];                     // indexed by Verb
  std::vector<std::string> errors;
  std::vector<int64_t> dp_buf;
  Tracer tracer;

  Verb deck[kDeck];
  int dealt = kDeck;

  Client(int c, uint64_t seed)
      : id(c), rng(derive_seed(seed, 3000 + c)), dp_buf(kHotN), tracer(c + 1) {
    for (int i = 0; i < kDeck; i++) {
      deck[i] = i < kDeckSmall                 ? Verb::kSmall
                : i < kDeckSmall + kDeckAppend ? Verb::kAppend
                                               : Verb::kWarm;
    }
  }

  // One op against the Engine, checked against its oracle.
  void step(parlis::serve::Engine& eng, const Inputs& in, bool trace,
            uint64_t op) {
    if (dealt == kDeck) {
      for (int i = kDeck - 1; i > 0; i--) {
        std::swap(deck[i], deck[next_rand(rng) % static_cast<uint64_t>(i + 1)]);
      }
      dealt = 0;
    }
    const Verb verb = deck[dealt++];
    // The span covers exactly the Engine call that `ms` times.
    double ms = 0;
    auto timed = [&](const char* span, auto&& call) {
      SpanScope s(trace ? &tracer : nullptr, span, op);
      const int64_t t0 = now_ns();
      auto r = call();
      ms = ms_between(t0, now_ns());
      return r;
    };
    bool ok = false;
    double base_ms = -1;  // solve ops: the input's sequential baseline
    try {
      switch (verb) {
        case Verb::kSmall: {
          const SmallQuery& q = in.small[next_rand(rng) % kSmallPool];
          Query query;
          query.a = q.a;
          query.w = q.w;
          const QueryResult r =
              timed("serve.small", [&] { return eng.solve_one(query); });
          ok = r.k == q.k && r.best == q.best;
          base_ms = q.baseline_ms;
          break;
        }
        case Verb::kAppend: {
          const Stream& s = in.streams[id];
          if (next_append >= kStreamLen) {
            throw std::runtime_error("append stream exhausted");
          }
          const int64_t len = timed("serve.append", [&] {
            return eng.append(append_series(id), s.v[next_append]);
          });
          ok = len == s.len[next_append];
          next_append++;
          break;
        }
        case Verb::kWarm: {
          const HotSeries& h = in.hot[id];
          const int j = static_cast<int>(warm_done++ % kWeightSets);
          Query query;
          query.a = h.a;
          query.w = h.w[j];
          query.dp_out = dp_buf;
          const QueryResult r = timed("serve.warm", [&] {
            return eng.solve_warm(warm_series(id), query);
          });
          ok = r.k == h.k && r.best == h.best[j] && dp_buf == h.dp[j];
          base_ms = h.baseline_ms[j];
          break;
        }
      }
    } catch (const std::exception& e) {
      tally.threw();
      errors.push_back(e.what());
      return;
    }
    tally.record(ok);
    if (base_ms >= 0) {
      solve_ms.push_back(ms);
      baseline_ms.push_back(base_ms);
    }
    op_ms.push_back(ms);
    verb_ms[static_cast<int>(verb)].push_back(ms);
    if (trace) tracer.fold(tracer.mark(), op);  // enforces the retention cap
  }
};

template <typename T>
void append_all(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// Engine construction plus its first ops (a cold warm solve on a hot
// series, an append, a small solve), all checked. Returns seconds.
double timed_setup(const Inputs& in, Tally& tally) {
  const int64_t t0 = now_ns();
  parlis::serve::Engine eng{parlis::serve::EngineConfig{}};
  const HotSeries& h = in.hot[0];
  Query warm;
  warm.a = h.a;
  warm.w = h.w[0];
  const QueryResult rw = eng.solve_warm(warm_series(0), warm);
  const int64_t len = eng.append(append_series(0), in.streams[0].v[0]);
  const SmallQuery& q = in.small[0];
  Query small;
  small.a = q.a;
  const QueryResult rs = eng.solve_one(small);
  const int64_t t1 = now_ns();
  tally.record(rw.k == h.k && rw.best == h.best[0]);
  tally.record(len == in.streams[0].len[0]);
  tally.record(rs.k == q.k && rs.best == q.best);
  return ms_between(t0, t1) * 1e-3;
}

}  // namespace

void run_serve_workload(const Config& cfg, Report& report) {
  if (cfg.workload != "serve_mixed") {
    throw std::invalid_argument("unknown workload: " + cfg.workload);
  }
  const Inputs in = make_inputs(cfg.seed);
  report.note(format(
      "inputs: %d small queries n=%lld (half weighted), %d clients x (hot "
      "series n=%lld with %d weight sets, stream of %lld appends); closed "
      "loop, %d clients, per %d ops %d small / %d append / %d warm",
      kSmallPool, static_cast<long long>(kSmallN), kClients,
      static_cast<long long>(kHotN), kWeightSets,
      static_cast<long long>(kStreamLen), kClients, kDeck, kDeckSmall,
      kDeckAppend, kDeck - kDeckSmall - kDeckAppend));

  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; r++) setup_s.push_back(timed_setup(in, report.tally));
  const bool peak_reset = reset_peak_rss();

  // ---- the closed loop
  const double loop_s = cfg.trace ? cfg.seconds * kEngineShare : cfg.seconds;
  parlis::serve::Engine eng{parlis::serve::EngineConfig{}};
  std::vector<Client> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; c++) clients.emplace_back(c, cfg.seed);
  const parlis::SchedulerStats s0 = parlis::scheduler_stats();
  const int64_t start = now_ns();
  const int64_t deadline = start + static_cast<int64_t>(loop_s * 1e9);
  std::atomic<int64_t> next_op{0};
  {
    std::vector<std::thread> threads;
    for (Client& cl : clients) {
      threads.emplace_back([&, &cl = cl] {
        while (now_ns() < deadline) {
          cl.step(eng, in, cfg.trace, static_cast<uint64_t>(next_op++));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_s = ms_between(start, now_ns()) * 1e-3;
  const parlis::SchedulerStats s1 = parlis::scheduler_stats();
  const parlis::serve::Stats st = eng.stats();

  std::vector<double> op_ms, solve_ms, base_ms, small_ms, append_ms, warm_ms;
  for (Client& cl : clients) {
    report.tally.merge(cl.tally);
    for (const std::string& e : cl.errors) report.note("op threw: " + e);
    append_all(op_ms, cl.op_ms);
    append_all(solve_ms, cl.solve_ms);
    append_all(base_ms, cl.baseline_ms);
    append_all(small_ms, cl.verb_ms[static_cast<int>(Verb::kSmall)]);
    append_all(append_ms, cl.verb_ms[static_cast<int>(Verb::kAppend)]);
    append_all(warm_ms, cl.verb_ms[static_cast<int>(Verb::kWarm)]);
  }
  report.note(format("ops: %zu (%zu small, %zu append, %zu warm) in %.3f s",
                     op_ms.size(), small_ms.size(), append_ms.size(),
                     warm_ms.size(), wall_s));

  if (!cfg.trace) {
    const Ratio speedup = speedup_of_totals(base_ms, solve_ms);
    report.metric("solve_ms_p50", median_of(solve_ms), "ms",
                  format("%zu solve ops (small + warm) through the Engine",
                         solve_ms.size()));
    report.tail_metric("solve_ms_tail", tail_of(solve_ms));
    report.metric("speedup_vs_seq", speedup.value(), "x",
                  format("sequential baselines %.1f ms in total over the "
                         "same solve ops' inputs / %.1f ms through the Engine",
                         speedup.num, speedup.den));
    report.metric("ops_per_s", static_cast<double>(op_ms.size()) / wall_s,
                  "1/s", format("%zu ops / %.3f s, %d closed-loop clients",
                                op_ms.size(), wall_s, kClients));
    report.tail_metric("op_ms_tail", tail_of(op_ms));
  } else {
    // ---- direct-call references, outside the Engine
    const double ref_s = cfg.seconds * (1 - kEngineShare) / 3;
    Tracer ref(0);
    std::vector<double> small_direct, append_direct_us, warm_direct;
    {
      parlis::Solver solver;
      QueryResult r;
      const int64_t until = now_ns() + static_cast<int64_t>(ref_s * 1e9);
      for (uint64_t i = 0; now_ns() < until || i < kMinSamples; i++) {
        const SmallQuery& q = in.small[i % kSmallPool];
        Query query;
        query.a = q.a;
        query.w = q.w;
        {
          SpanScope s(&ref, "serve.small_direct", i);
          solver.solve_many(std::span<const Query>(&query, 1),
                            std::span<QueryResult>(&r, 1));
        }
        report.tally.record(r.k == q.k && r.best == q.best);
      }
      ref.durations("serve.small_direct", 0, 1e6, small_direct);
    }
    {
      parlis::Solver solver;
      parlis::LisSession session = solver.make_session();
      const Stream& s = in.streams[0];
      const size_t from = ref.mark();
      const int64_t until = now_ns() + static_cast<int64_t>(ref_s * 1e9);
      for (int64_t i = 0; i < kStreamLen && (now_ns() < until || i < 1000); i++) {
        int64_t len;
        {
          SpanScope sp(&ref, "stream.append_direct", static_cast<uint64_t>(i));
          len = session.append(s.v[i]);
        }
        report.tally.record(len == s.len[i]);
      }
      ref.durations("stream.append_direct", from, 1e3, append_direct_us);
    }
    {
      parlis::Solver solver;
      parlis::WlisResult out;
      const HotSeries& h = in.hot[0];
      const size_t from = ref.mark();
      const int64_t until = now_ns() + static_cast<int64_t>(ref_s * 1e9);
      for (uint64_t i = 0; now_ns() < until || i < kMinSamples; i++) {
        const int j = static_cast<int>(i % kWeightSets);
        {
          SpanScope s(&ref, "serve.warm_direct", i);
          solver.solve_wlis(std::span<const int64_t>(h.a),
                            std::span<const int64_t>(h.w[j]), out);
        }
        report.tally.record(out.k == h.k && out.best == h.best[j] &&
                            out.dp == h.dp[j]);
      }
      ref.durations("serve.warm_direct", from, 1e6, warm_direct);
    }

    const double solve_ops = static_cast<double>(solve_ms.size());
    const Ratio hits = hit_ratio(st.value_cache_hits, st.value_cache_misses);
    report.metric("parallel.spawns_per_solve",
                  static_cast<double>(s1.spawns - s0.spawns) / solve_ops,
                  "count", "scheduler spawns over the loop / solve ops");
    report.metric("parallel.steals_per_solve",
                  static_cast<double>(s1.steals - s0.steals) / solve_ops,
                  "count", "scheduler steals over the loop / solve ops");
    report.metric("serve.small_ms_p50", median_of(small_ms), "ms",
                  format("%zu ops", small_ms.size()));
    report.tail_metric("serve.small_ms_tail", tail_of(small_ms));
    report.metric("serve.append_ms_p50", median_of(append_ms), "ms",
                  format("%zu ops", append_ms.size()));
    report.tail_metric("serve.append_ms_tail", tail_of(append_ms));
    report.metric("serve.warm_ms_p50", median_of(warm_ms), "ms",
                  format("%zu ops", warm_ms.size()));
    report.tail_metric("serve.warm_ms_tail", tail_of(warm_ms));
    report.metric("serve.small_direct_ms_p50", median_of(small_direct), "ms",
                  format("Solver::solve_many, %zu queries", small_direct.size()));
    report.metric("stream.append_direct_us_p50", median_of(append_direct_us),
                  "us", format("LisSession::append, %zu appends",
                               append_direct_us.size()));
    Tail at = tail_of(append_direct_us);
    report.metric("stream.append_direct_us_tail", at.value, "us",
                  format("p%.2f of %zu, %zu beyond", at.pct, at.n, at.beyond));
    report.metric("serve.warm_direct_ms_p50", median_of(warm_direct), "ms",
                  format("Solver::solve_wlis, %zu warm solves",
                         warm_direct.size()));
    report.metric("serve.queries_per_batch",
                  Ratio{static_cast<double>(st.coalesced_queries),
                        static_cast<double>(st.coalesced_batches)}
                      .value(),
                  "count",
                  format("%lld queries / %lld coalesced batches",
                         static_cast<long long>(st.coalesced_queries),
                         static_cast<long long>(st.coalesced_batches)));
    report.metric("serve.value_cache_hit_ratio", hits.value(), "ratio",
                  format("%lld hits / %.0f lookups",
                         static_cast<long long>(st.value_cache_hits), hits.den));
    report.metric("serve.value_cache_lookups", hits.den, "count",
                  "base of serve.value_cache_hit_ratio");
    report.metric("serve.queue_depth_hwm", static_cast<double>(st.queue_depth_hwm),
                  "count");
    report.metric("serve.resident_bytes", static_cast<double>(st.resident_bytes),
                  "B");
    report.metric("ref.seq_baseline_ms", median_of(base_ms), "ms",
                  "sequential baseline p50 over the solve ops' inputs");
    for (Client& cl : clients) report.tracers.push_back(std::move(cl.tracer));
    report.tracers.push_back(std::move(ref));
  }
  report.metric("setup_s", median_of(setup_s), "s",
                format("median of %d x (Engine construction + cold warm solve "
                       "+ append + small solve)",
                       kSetupReps));
  report.metric("peak_rss_mb", peak_rss_mb(), "MB",
                peak_reset ? "VmHWM of the measured phase" : "VmHWM of the process");
}

}  // namespace perfbench
