// Failure-semantics suite (ctest -L fault; the ASan failpoints CI leg runs
// exactly this label):
//
//  * FaultInjection  — the failpoint x site matrix: every registered site is
//    armed and proven to fire, every failure surfaces as a structured
//    parlis::Error / std::bad_alloc (never terminate/UB), and a post-failure
//    warm re-solve is bit-identical to a cold solver's. Skips when the
//    library was built without -DPARLIS_FAILPOINTS=ON.
//  * FaultTriggers   — the deterministic trigger semantics (nth / every-K /
//    seeded-probabilistic) on a scratch site; runs in every build mode.
//  * ErrorHandling   — always-on API-boundary validation: the paths that
//    used to be Release-mode UB (asserts) now throw kInvalidArgument.
//  * Cancellation    — CancelToken and deadline_ms through every entry
//    point, deterministic mid-solve trips via comparator hooks, and the
//    post-cancellation warm-state coherence contract.
//  * MemoryBudget    — memory_budget_bytes admission: budget sweeps where
//    every admitted solve must match the unlimited reference exactly,
//    kBudgetExceeded on the rest, the SWGS no-fallback rule, and the
//    estimate >= real-accounting pin for the range tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <new>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/serve/engine.hpp"
#include "parlis/serve/session_table.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/util/arena.hpp"
#include "parlis/util/cancel.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/failpoint.hpp"
#include "parlis/util/tracking_allocator.hpp"
#include "parlis/wlis/range_tree.hpp"
#include "parlis/wlis/wlis.hpp"

namespace parlis {
namespace {

std::vector<int64_t> make_vals(int64_t n, uint64_t seed) {
  std::vector<int64_t> a(n);
  for (int64_t i = 0; i < n; i++) {
    a[i] = static_cast<int64_t>(hash64(seed, i) >> 1);
  }
  return a;
}

std::vector<int64_t> make_weights(int64_t n, uint64_t seed) {
  std::vector<int64_t> w(n);
  for (int64_t i = 0; i < n; i++) {
    w[i] = 1 + static_cast<int64_t>(uniform(seed, i, 1000));
  }
  return w;
}

template <typename Fn>
void expect_error(ErrorCode want, Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "expected Error{" << error_code_name(want)
                  << "}, call succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), want) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected parlis::Error, got " << e.what();
  }
}

// ------------------------------------------------------------ FaultTriggers
// Trigger semantics on a scratch site, independent of whether the library's
// macro sites are compiled in (should_fire is always linked).

TEST(FaultTriggers, NthFiresExactlyOnce) {
  failpoints::arm_nth("test.nth", 3);
  failpoints::Site& s = failpoints::site("test.nth");
  int fired_at = -1, fires = 0;
  for (int i = 1; i <= 32; i++) {
    if (failpoints::detail::should_fire(s)) {
      fires++;
      fired_at = i;
    }
  }
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fired_at, 3);
  EXPECT_EQ(failpoints::hit_count("test.nth"), 32u);
  EXPECT_EQ(failpoints::fire_count("test.nth"), 1u);
  failpoints::disarm("test.nth");
  EXPECT_FALSE(failpoints::detail::should_fire(s));
}

TEST(FaultTriggers, EveryKIsPeriodic) {
  failpoints::arm_every("test.every", 4);
  failpoints::Site& s = failpoints::site("test.every");
  std::vector<int> fired;
  for (int i = 1; i <= 16; i++) {
    if (failpoints::detail::should_fire(s)) fired.push_back(i);
  }
  EXPECT_EQ(fired, (std::vector<int>{4, 8, 12, 16}));
  failpoints::disarm("test.every");
}

TEST(FaultTriggers, ProbabilisticIsSeededAndHitIndexed) {
  failpoints::arm_probability("test.prob", 0.5, 12345);
  failpoints::Site& s = failpoints::site("test.prob");
  std::vector<bool> first;
  for (int i = 0; i < 256; i++) {
    first.push_back(failpoints::detail::should_fire(s));
  }
  int fires = static_cast<int>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 64);   // p = 0.5 over 256 hits: far from all-or-nothing
  EXPECT_LT(fires, 192);
  // Re-arming with the same seed resets the hit counter: the exact same
  // fire pattern replays (the determinism contract for test reruns).
  failpoints::arm_probability("test.prob", 0.5, 12345);
  for (int i = 0; i < 256; i++) {
    EXPECT_EQ(failpoints::detail::should_fire(s), first[i]) << "hit " << i;
  }
  failpoints::disarm("test.prob");
}

TEST(FaultTriggers, RegistryIsStableAndCountsPerArm) {
  failpoints::Site* s1 = &failpoints::site("test.stable");
  failpoints::Site* s2 = &failpoints::site("test.stable");
  EXPECT_EQ(s1, s2);
  failpoints::arm_nth("test.stable", 1);
  (void)failpoints::detail::should_fire(*s1);
  EXPECT_EQ(failpoints::fire_count("test.stable"), 1u);
  failpoints::arm_nth("test.stable", 1);  // re-arm resets the counters
  EXPECT_EQ(failpoints::hit_count("test.stable"), 0u);
  EXPECT_EQ(failpoints::fire_count("test.stable"), 0u);
  failpoints::disarm("test.stable");
}

// ----------------------------------------------------------- FaultInjection

class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoints::enabled()) {
      GTEST_SKIP() << "failpoint sites compiled out (PARLIS_FAILPOINTS=OFF)";
    }
    failpoints::disarm_all();
  }
  void TearDown() override { failpoints::disarm_all(); }
};

enum class FireKind { kFault, kOom, kYield };

struct SiteDriver {
  std::string name;
  FireKind kind;
  std::function<void()> run;
};

// One workload per registered site, each guaranteed to reach its macro.
std::vector<SiteDriver> site_drivers() {
  const int64_t n = 8192;
  auto a = std::make_shared<std::vector<int64_t>>(make_vals(n, 21));
  auto w = std::make_shared<std::vector<int64_t>>(make_weights(n, 22));
  std::vector<SiteDriver> d;
  d.push_back({"arena.chunk_alloc", FireKind::kOom, [] {
                 Arena ar;
                 (void)ar.alloc(64, 8);
               }});
  d.push_back({"tracking_alloc", FireKind::kOom, [] {
                 AllocStats st;
                 std::vector<int64_t, TrackingAllocator<int64_t>> v{
                     TrackingAllocator<int64_t>(&st)};
                 v.resize(1024);
               }});
  d.push_back({"scheduler.spawn", FireKind::kYield, [] {
                 std::atomic<int64_t> sink{0};
                 parallel_for(0, 65536, [&](int64_t i) {
                   if ((i & 8191) == 0) sink.fetch_add(1);
                 });
               }});
  d.push_back({"scheduler.steal", FireKind::kYield, [] {
                 std::atomic<int64_t> sink{0};
                 parallel_for(0, 65536, [&](int64_t i) {
                   if ((i & 8191) == 0) sink.fetch_add(1);
                 });
               }});
  d.push_back({"scheduler.park", FireKind::kYield, [] {
                 // Workers park on their own schedule once the work drains;
                 // nudge them awake and give them up to ~2s to go back down.
                 auto deadline = std::chrono::steady_clock::now() +
                                 std::chrono::seconds(2);
                 while (failpoints::fire_count("scheduler.park") == 0 &&
                        std::chrono::steady_clock::now() < deadline) {
                   std::atomic<int64_t> sink{0};
                   parallel_for(0, 4096, [&](int64_t i) {
                     if ((i & 1023) == 0) sink.fetch_add(1);
                   });
                   std::this_thread::sleep_for(std::chrono::milliseconds(5));
                 }
               }});
  d.push_back({"lis.round", FireKind::kFault, [a] {
                 Solver s;
                 LisResult out;
                 s.solve_lis(std::span<const int64_t>(*a), out);
               }});
  d.push_back({"wlis.round", FireKind::kFault, [a, w] {
                 Solver s;
                 WlisResult out;
                 s.solve_wlis(*a, *w, out);
               }});
  d.push_back({"swgs.round", FireKind::kFault, [a] {
                 Solver s;
                 LisResult out;
                 s.solve_swgs(std::span<const int64_t>(*a), out);
               }});
  d.push_back({"rangetree.rebuild", FireKind::kOom, [a, w] {
                 Solver s;  // default backend is kRangeTree
                 WlisResult out;
                 s.solve_wlis(*a, *w, out);
               }});
  d.push_back({"stream.append", FireKind::kFault, [] {
                 Solver s;
                 LisSession sess = s.make_session();
                 sess.append(42);
               }});
  d.push_back({"serve.admit", FireKind::kFault, [] {
                 serve::SessionTable table(serve::SessionTable::Config{});
                 (void)table.acquire(1);
               }});
  d.push_back({"serve.evict", FireKind::kFault, [a] {
                 // Probe pass (budget 0 → the eviction walk, and with it the
                 // site, is never reached): measure one streamed tenant,
                 // then rebuild with a budget for ~1.5 of them. Session
                 // appends grow un-gated by the solver's budget estimates,
                 // so the pressure is deterministic.
                 uint64_t one = 0;
                 {
                   serve::SessionTable::Config probe;
                   probe.shards = 1;
                   serve::SessionTable t(probe);
                   {
                     auto lease = t.acquire(1);
                     for (int64_t v : *a) lease.session().append(v);
                   }
                   one = t.resident_bytes();
                 }
                 serve::SessionTable::Config cfg;
                 cfg.shards = 1;
                 cfg.memory_budget_bytes = one + one / 2;
                 serve::SessionTable t(cfg);
                 // Grow two tenants past the budget (idle residue is legal
                 // until the next admission), then admit a third: its
                 // eviction pass reaches the site.
                 for (uint64_t series = 1; series <= 2; series++) {
                   auto lease = t.acquire(series);
                   for (int64_t v : *a) lease.session().append(v);
                 }
                 (void)t.acquire(3);
               }});
  d.push_back({"serve.coalesce", FireKind::kFault, [a] {
                 serve::Engine engine(serve::EngineConfig{});
                 Query q{std::span<const int64_t>(*a).subspan(0, 256)};
                 (void)engine.solve_one(q);
               }});
  d.push_back({"solver.packed_query", FireKind::kFault, [a, w] {
                 Solver s;
                 std::vector<Query> qs;
                 for (int i = 0; i < 4; i++) {
                   qs.push_back(Query{std::span<const int64_t>(*a).subspan(
                       static_cast<size_t>(i) * 64, 64)});
                 }
                 std::vector<QueryResult> rs(qs.size());
                 s.solve_many(qs, rs);
               }});
  return d;
}

TEST_F(FaultInjection, EveryRegisteredSiteFires) {
  const std::vector<SiteDriver> drivers = site_drivers();
  // The driver table and the registry must stay in sync in both directions:
  // a site added without a driver (or a driver whose site was deleted)
  // fails here, which is what keeps the matrix honest.
  std::set<std::string> reg_names;
  for (const std::string& s : failpoints::registered()) reg_names.insert(s);
  std::set<std::string> drv_names;
  for (const SiteDriver& d : drivers) drv_names.insert(d.name);
  EXPECT_EQ(reg_names, drv_names);

  for (const SiteDriver& d : drivers) {
    SCOPED_TRACE(d.name);
    failpoints::disarm_all();
    if (d.kind == FireKind::kYield) {
      if (num_workers() < 2) {
        // A 1-worker pool never schedules: parallel_for short-circuits to a
        // plain loop (parallel.hpp, `p == 1`), so the spawn/steal/park sites
        // are unreachable by design. The name-set sync check above still
        // covers them; the firing proof comes from every >= 2-worker run.
        continue;
      }
      failpoints::arm_every(d.name, 1);
      EXPECT_NO_THROW(d.run());
      // Delay sites fire on a background worker's schedule — a steal sweep
      // or park can land just after the driver's own work drains, and on a
      // busy single-core host one parallel_for may finish before any idle
      // worker sweeps at all. Keep feeding work until the counter moves.
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(3);
      while (failpoints::fire_count(d.name) == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        d.run();
      }
    } else if (d.kind == FireKind::kOom) {
      failpoints::arm_nth(d.name, 1);
      EXPECT_THROW(d.run(), std::bad_alloc);
    } else {
      failpoints::arm_nth(d.name, 1);
      expect_error(ErrorCode::kFaultInjected, d.run);
    }
    EXPECT_GE(failpoints::fire_count(d.name), 1u);
  }
}

TEST_F(FaultInjection, ArenaSurvivesChunkAllocFailure) {
  Arena ar;
  failpoints::arm_nth("arena.chunk_alloc", 1);
  EXPECT_THROW((void)ar.alloc(64, 8), std::bad_alloc);
  failpoints::disarm_all();
  // Strong guarantee: the failed take_chunk mutated no bookkeeping, so the
  // arena works (and accounts correctly) afterwards.
  void* p = ar.alloc(64, 8);
  EXPECT_NE(p, nullptr);
  EXPECT_GT(ar.reserved_bytes(), 0u);
}

// A serve.evict fault unwinds a half-admitted newcomer: the table must stay
// coherent (victim still resident, newcomer absent) and the same acquire
// must succeed once disarmed.
TEST_F(FaultInjection, TableSurvivesEvictFault) {
  const int64_t n = 4096;
  const std::vector<int64_t> a = make_vals(n, 81);
  uint64_t one = 0;
  {
    serve::SessionTable::Config probe;
    probe.shards = 1;
    serve::SessionTable t(probe);
    {
      auto lease = t.acquire(1);
      for (int64_t v : a) lease.session().append(v);
    }
    one = t.resident_bytes();
  }
  serve::SessionTable::Config cfg;
  cfg.shards = 1;
  cfg.memory_budget_bytes = one + one / 2;
  serve::SessionTable t(cfg);
  // Two grown tenants put the shard over its slice (legal idle residue);
  // the next admission must evict and therefore hits the armed site.
  for (uint64_t series = 1; series <= 2; series++) {
    auto lease = t.acquire(series);
    for (int64_t v : a) lease.session().append(v);
  }
  failpoints::arm_nth("serve.evict", 1);
  expect_error(ErrorCode::kFaultInjected, [&] { (void)t.acquire(3); });
  failpoints::disarm_all();
  EXPECT_TRUE(t.contains(1));   // the victim was never mutated
  EXPECT_TRUE(t.contains(2));
  EXPECT_FALSE(t.contains(3));  // the newcomer was unwound
  EXPECT_EQ(t.tenant_count(), 2);
  // Disarmed, the identical acquire evicts the LRU tail (tenant 1).
  { auto lease = t.acquire(3); }
  EXPECT_TRUE(t.contains(3));
  EXPECT_FALSE(t.contains(1));
}

// After a mid-solve failure unwinds, the Solver's warm caches must have been
// funnelled through the invalidation chokepoints: the next solve on the same
// (warm) solver is required to be bit-identical to a cold solver's.
TEST_F(FaultInjection, WarmResolveAfterFaultMatchesCold) {
  const int64_t n = 8192;
  const std::vector<int64_t> a = make_vals(n, 31);
  const std::vector<int64_t> a2 = make_vals(n, 32);
  // The alloc site needs a bigger input so the warm arena must grow (a
  // same-size re-solve reuses chunks and never reaches the failpoint).
  const std::vector<int64_t> a_big = make_vals(4 * n, 33);
  const std::vector<int64_t> w = make_weights(n, 34);
  const std::vector<int64_t> w_big = make_weights(4 * n, 35);

  struct Case {
    const char* site;
    const std::vector<int64_t>* fault_a;
    const std::vector<int64_t>* fault_w;
  };
  const Case cases[] = {
      {"wlis.round", &a2, &w},
      {"lis.round", &a2, &w},
      {"rangetree.rebuild", &a_big, &w_big},
      {"arena.chunk_alloc", &a_big, &w_big},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.site);
    failpoints::disarm_all();
    Solver warm;
    WlisResult out;
    warm.solve_wlis(a, w, out);  // prime every cache
    failpoints::arm_nth(c.site, 1);
    EXPECT_ANY_THROW(warm.solve_wlis(*c.fault_a, *c.fault_w, out));
    failpoints::disarm_all();

    WlisResult warm_out, cold_out;
    warm.solve_wlis(a, w, warm_out);
    Solver cold;
    cold.solve_wlis(a, w, cold_out);
    EXPECT_EQ(warm_out.dp, cold_out.dp);
    EXPECT_EQ(warm_out.best, cold_out.best);
    EXPECT_EQ(warm_out.k, cold_out.k);
    // And the faulting input itself now solves identically too.
    warm.solve_wlis(*c.fault_a, *c.fault_w, warm_out);
    cold.solve_wlis(*c.fault_a, *c.fault_w, cold_out);
    EXPECT_EQ(warm_out.dp, cold_out.dp);
    EXPECT_EQ(warm_out.best, cold_out.best);
  }
}

TEST_F(FaultInjection, SessionAppendFaultIsUnadmitted) {
  Solver s;
  LisSession sess = s.make_session();
  std::vector<int64_t> fed;
  for (int64_t i = 0; i < 200; i++) {
    int64_t v = static_cast<int64_t>(hash64(51, i) >> 40);
    fed.push_back(v);
    sess.append(v);
  }
  const int64_t len_before = sess.length();
  failpoints::arm_nth("stream.append", 1);
  expect_error(ErrorCode::kFaultInjected, [&] { sess.append(7); });
  failpoints::disarm_all();
  // The failed append left no trace: same size, same length, and the next
  // appends continue exactly where the stream left off.
  EXPECT_EQ(sess.size(), static_cast<int64_t>(fed.size()));
  EXPECT_EQ(sess.length(), len_before);
  Solver ref_solver;
  LisResult ref;
  sess.append(7);
  fed.push_back(7);
  ref_solver.solve_lis(fed, ref);
  EXPECT_EQ(sess.length(), ref.k);
}

TEST_F(FaultInjection, ProbabilisticFaultStormKeepsSolverCoherent) {
  // A 2% per-round fault probability over many re-solves: every failure
  // must surface as Error{kFaultInjected} and never corrupt later results.
  const int64_t n = 4096;
  const std::vector<int64_t> a = make_vals(n, 61);
  const std::vector<int64_t> a2 = make_vals(n, 62);
  const std::vector<int64_t> w = make_weights(n, 63);
  Solver ref_solver;
  WlisResult ref1, ref2;
  ref_solver.solve_wlis(a, w, ref1);
  ref_solver.solve_wlis(a2, w, ref2);

  failpoints::arm_probability("wlis.round", 0.02, 777);
  Solver s;
  WlisResult out;
  int faults = 0, ok = 0;
  for (int it = 0; it < 60; it++) {
    const auto& in = (it % 2 != 0) ? a2 : a;
    const auto& ref = (it % 2 != 0) ? ref2 : ref1;
    try {
      s.solve_wlis(in, w, out);
      EXPECT_EQ(out.dp, ref.dp) << "iteration " << it;
      EXPECT_EQ(out.best, ref.best) << "iteration " << it;
      ok++;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kFaultInjected);
      faults++;
    }
  }
  failpoints::disarm_all();
  EXPECT_GT(ok, 0);  // the storm must not drown every solve
  // Final check on a clean solver state after the storm.
  s.solve_wlis(a, w, out);
  EXPECT_EQ(out.dp, ref1.dp);
}

// ------------------------------------------------------------ ErrorHandling

TEST(ErrorHandling, WlisSizeMismatchThrows) {
  Solver s;
  const std::vector<int64_t> a{3, 1, 2, 4};
  const std::vector<int64_t> w{1, 1, 1};
  WlisResult out;
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_wlis(a, w, out); });
  expect_error(ErrorCode::kInvalidArgument,
               [&] { s.solve_swgs_wlis(a, w, out); });
  const std::vector<double> da{3.0, 1.0, 2.0, 4.0};
  expect_error(ErrorCode::kInvalidArgument, [&] {
    s.solve_wlis(std::span<const double>(da), w, out);
  });
}

TEST(ErrorHandling, SolveManyValidatesBatchShape) {
  Solver s;
  const std::vector<int64_t> a{5, 1, 4, 2, 3};
  const std::vector<int64_t> w_bad{1, 1};
  std::vector<Query> qs{Query{a}, Query{a}};
  std::vector<QueryResult> too_few(1);
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_many(qs, too_few); });

  std::vector<QueryResult> rs(2);
  qs[1].w = w_bad;  // |w| != |a|
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_many(qs, rs); });

  qs[1].w = {};
  std::vector<int32_t> small_rank(2);
  qs[1].rank_out = small_rank;  // < |a|
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_many(qs, rs); });

  qs[1].rank_out = {};
  std::vector<int64_t> small_dp(2), w_ok(a.size(), 1);
  qs[1].w = w_ok;
  qs[1].dp_out = small_dp;  // < |a|
  expect_error(ErrorCode::kInvalidArgument, [&] { s.solve_many(qs, rs); });
}

TEST(ErrorHandling, SlidingSessionRequiresCapacity) {
  Options o;
  o.window = WindowMode::kSlidingExact;
  o.window_capacity = 0;
  Solver s(o);
  expect_error(ErrorCode::kInvalidArgument, [&] { (void)s.make_session(); });
  Options o2;
  o2.window = WindowMode::kSlidingAmortized;
  o2.window_capacity = -3;
  Solver s2(o2);
  expect_error(ErrorCode::kInvalidArgument, [&] { (void)s2.make_session(); });
}

TEST(ErrorHandling, SessionPopFrontOnEmptyThrows) {
  Solver s;
  LisSession sess = s.make_session();
  expect_error(ErrorCode::kInvalidArgument, [&] { sess.pop_front(); });
  sess.append(1);
  sess.pop_front();  // fine: one live element
  expect_error(ErrorCode::kInvalidArgument, [&] { sess.pop_front(); });
  // The failed pops left the session usable.
  sess.append(2);
  sess.append(5);
  EXPECT_EQ(sess.length(), 2);
}

TEST(ErrorHandling, DeltaResolveValidatesKeepRanges) {
  Solver s;
  LisSession sess = s.make_session();
  for (int64_t v : {3, 1, 4, 1, 5}) sess.append(v);
  const std::vector<int64_t> nv{3, 1, 9, 1, 5};
  expect_error(ErrorCode::kInvalidArgument,
               [&] { sess.delta_resolve(nv, -1, 0); });
  expect_error(ErrorCode::kInvalidArgument,
               [&] { sess.delta_resolve(nv, 0, -2); });
  expect_error(ErrorCode::kInvalidArgument,
               [&] { sess.delta_resolve(nv, 4, 4); });
  // Valid keeps succeed: LIS of {3, 1, 9, 1, 5} is 2 (e.g. {3, 9}).
  EXPECT_EQ(sess.delta_resolve(nv, 2, 2), 2);
}

TEST(ErrorHandling, SolverUsableAfterInvalidArgument) {
  Solver s;
  const std::vector<int64_t> a = make_vals(4096, 71);
  const std::vector<int64_t> w = make_weights(4096, 72);
  WlisResult out;
  s.solve_wlis(a, w, out);  // warm
  expect_error(ErrorCode::kInvalidArgument, [&] {
    s.solve_wlis(a, std::span<const int64_t>(w).first(10), out);
  });
  WlisResult warm_out, cold_out;
  s.solve_wlis(a, w, warm_out);
  Solver cold;
  cold.solve_wlis(a, w, cold_out);
  EXPECT_EQ(warm_out.dp, cold_out.dp);
  EXPECT_EQ(warm_out.best, cold_out.best);
}

TEST(ErrorHandling, WhatCarriesCodeNameAndMessage) {
  Error e(ErrorCode::kBudgetExceeded, "tiny budget");
  EXPECT_NE(std::string(e.what()).find("kBudgetExceeded"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("tiny budget"), std::string::npos);
  EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded);
}

// ------------------------------------------------------------- Cancellation

TEST(Cancellation, PreTrippedTokenFailsFastEverywhere) {
  Options o;
  o.cancel = CancelToken::make();
  o.cancel.request_cancel();
  Solver s(o);
  const std::vector<int64_t> a = make_vals(4096, 81);
  const std::vector<int64_t> w = make_weights(4096, 82);
  LisResult lr;
  LisFrontiers fr;
  WlisResult wr;
  expect_error(ErrorCode::kCancelled, [&] { s.solve_lis(a, lr); });
  expect_error(ErrorCode::kCancelled, [&] { s.solve_lis_frontiers(a, fr); });
  expect_error(ErrorCode::kCancelled, [&] { s.solve_wlis(a, w, wr); });
  expect_error(ErrorCode::kCancelled, [&] { s.solve_swgs(a, lr); });
  expect_error(ErrorCode::kCancelled, [&] { s.solve_swgs_wlis(a, w, wr); });
  std::vector<Query> qs{Query{a}};
  std::vector<QueryResult> rs(1);
  expect_error(ErrorCode::kCancelled, [&] { s.solve_many(qs, rs); });
  LisSession sess = s.make_session();
  expect_error(ErrorCode::kCancelled, [&] { sess.append(1); });
  expect_error(ErrorCode::kCancelled, [&] { sess.delta_resolve(a, 0, 0); });
  EXPECT_EQ(sess.size(), 0);  // the cancelled append admitted nothing
}

TEST(Cancellation, MidSolveCancellationViaComparator) {
  Options o;
  o.cancel = CancelToken::make();
  Solver s(o);
  const std::vector<int64_t> a = make_vals(20000, 83);
  LisResult out;
  // The comparator trips the token during the rank-space pass; the kernel's
  // round-boundary poll observes it deterministically on round 1.
  CancelToken tok = o.cancel;
  expect_error(ErrorCode::kCancelled, [&] {
    s.solve_lis<int64_t>(a, out, [tok](int64_t x, int64_t y) {
      tok.request_cancel();
      return x < y;
    });
  });
  // A fresh solver (untripped token) produces the reference result.
  Solver fresh;
  fresh.solve_lis(a, out);
  LisResult ref;
  Solver cold;
  cold.solve_lis(a, ref);
  EXPECT_EQ(out.rank, ref.rank);
}

TEST(Cancellation, DeadlineExceededMidSolveLeavesWarmStateCoherent) {
  Options o;
  o.deadline_ms = 1000;
  Solver s(o);
  const int64_t n = 5000;
  const std::vector<int64_t> a = make_vals(n, 84);
  const std::vector<int64_t> w = make_weights(n, 85);
  WlisResult out;
  s.solve_wlis(a, w, out);  // warm, comfortably within the deadline

  // One comparator call sleeps past the whole deadline, so the first
  // round-boundary poll after the rank-space pass must throw — while the
  // workspace rank space has already been clobbered by the faulting pass.
  auto slept = std::make_shared<std::atomic<bool>>(false);
  expect_error(ErrorCode::kDeadlineExceeded, [&] {
    s.solve_wlis<int64_t>(a, w, out, [slept](int64_t x, int64_t y) {
      if (!slept->exchange(true)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1200));
      }
      return x < y;
    });
  });

  // Post-failure warm solve == cold solve, bit for bit.
  WlisResult warm_out, cold_out;
  s.solve_wlis(a, w, warm_out);
  Solver cold;
  cold.solve_wlis(a, w, cold_out);
  EXPECT_EQ(warm_out.dp, cold_out.dp);
  EXPECT_EQ(warm_out.best, cold_out.best);
  EXPECT_EQ(warm_out.k, cold_out.k);
}

TEST(Cancellation, GenerousDeadlinePassesAndMatches) {
  Options o;
  o.deadline_ms = 600000;
  Solver s(o);
  const std::vector<int64_t> a = make_vals(20000, 86);
  const std::vector<int64_t> w = make_weights(20000, 87);
  WlisResult out, ref;
  s.solve_wlis(a, w, out);
  Solver plain;
  plain.solve_wlis(a, w, ref);
  EXPECT_EQ(out.dp, ref.dp);
  EXPECT_EQ(out.best, ref.best);
}

TEST(Cancellation, SetCancelReArmsWithoutRebuildingSolver) {
  // The per-request shape: one long-lived solver, a fresh token swapped in
  // between calls via set_cancel/set_deadline_ms. A tripped token must stop
  // the next solve; disarming must restore plain behavior on the same warm
  // workspaces, bit-identical to a cold solver.
  Solver s;
  const std::vector<int64_t> a = make_vals(20000, 89);
  LisResult out, ref;
  s.solve_lis(a, out);  // warm, unguarded
  CancelToken tok = CancelToken::make();
  tok.request_cancel();
  s.set_cancel(tok);
  EXPECT_TRUE(s.options().cancel.valid());
  expect_error(ErrorCode::kCancelled, [&] { s.solve_lis(a, out); });
  s.set_cancel(CancelToken::make());  // fresh, untripped
  s.set_deadline_ms(600000);
  s.solve_lis(a, out);
  s.set_cancel(CancelToken{});  // disarm both guards
  s.set_deadline_ms(0);
  EXPECT_FALSE(s.options().cancel.valid());
  s.solve_lis(a, out);
  Solver cold;
  cold.solve_lis(a, ref);
  EXPECT_EQ(out.rank, ref.rank);
  EXPECT_EQ(out.k, ref.k);
}

TEST(Cancellation, UntrippedTokenIsFree) {
  Options o;
  o.cancel = CancelToken::make();
  Solver s(o);
  const std::vector<int64_t> a = make_vals(20000, 88);
  LisResult out, ref;
  s.solve_lis(a, out);
  Solver plain;
  plain.solve_lis(a, ref);
  EXPECT_EQ(out.rank, ref.rank);
  EXPECT_EQ(out.k, ref.k);
}

// ------------------------------------------------------------- MemoryBudget

// Budget sweeps: for every budget, an admitted solve must match the
// unlimited reference exactly; a rejected one must say kBudgetExceeded. The
// sweep spans "nothing fits" through "everything fits", so both the
// degradation path and the full path are exercised without hard-coding the
// size models' constants. Each sweep runs under both ties policies and,
// for the direct solves, both key forms (the int64 overload and the typed
// solve_*<double>), and a rejection must leave resident_bytes() unchanged:
// admission runs before anything is allocated, rank space included.
constexpr TiesPolicy kBothTies[] = {TiesPolicy::kStrict,
                                    TiesPolicy::kNonDecreasing};

std::string sweep_case(TiesPolicy ties, bool typed) {
  return std::string(ties == TiesPolicy::kStrict ? "strict" : "nondec") +
         (typed ? " solve_*<double>" : " int64");
}

std::vector<double> as_doubles(const std::vector<int64_t>& a) {
  return std::vector<double>(a.begin(), a.end());
}

TEST(MemoryBudget, LisSweepDegradesExactly) {
  const int64_t n = 60000;
  const std::vector<int64_t> a = make_vals(n, 91);
  const std::vector<double> da = as_doubles(a);
  for (TiesPolicy ties : kBothTies) {
    for (bool typed : {false, true}) {
      SCOPED_TRACE(sweep_case(ties, typed));
      auto solve = [&](Solver& s, LisResult& out) {
        if (typed) {
          s.solve_lis(std::span<const double>(da), out);
        } else {
          s.solve_lis(a, out);
        }
      };
      Options uo;
      uo.ties = ties;
      LisResult ref;
      Solver unlimited(uo);
      solve(unlimited, ref);

      int rejected = 0, admitted = 0;
      for (uint64_t budget :
           {uint64_t{1}, uint64_t{64} << 10, uint64_t{1} << 20,
            uint64_t{4} << 20, uint64_t{64} << 20, uint64_t{0}}) {
        SCOPED_TRACE("budget=" + std::to_string(budget));
        Options o = uo;
        o.memory_budget_bytes = budget;
        Solver s(o);
        LisResult out;
        const size_t resident = s.resident_bytes();
        try {
          solve(s, out);
          admitted++;
          EXPECT_EQ(out.rank, ref.rank);
          EXPECT_EQ(out.k, ref.k);
          // Frontier form under the same budget agrees too.
          LisFrontiers fr;
          if (typed) {
            s.solve_lis_frontiers(std::span<const double>(da), fr);
          } else {
            s.solve_lis_frontiers(a, fr);
          }
          EXPECT_EQ(fr.rank, ref.rank);
          EXPECT_EQ(fr.k, ref.k);
          EXPECT_EQ(fr.frontier_offset.back(), n);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
          EXPECT_EQ(s.resident_bytes(), resident);
          rejected++;
        }
      }
      EXPECT_GE(rejected, 1);  // the 1-byte budget can never fit
      EXPECT_GE(admitted, 2);  // unlimited + at least one generous budget
    }
  }
}

TEST(MemoryBudget, WlisSweepDegradesExactly) {
  const int64_t n = 60000;
  const std::vector<int64_t> a = make_vals(n, 92);
  const std::vector<double> da = as_doubles(a);
  const std::vector<int64_t> w = make_weights(n, 93);
  for (TiesPolicy ties : kBothTies) {
    for (bool typed : {false, true}) {
      SCOPED_TRACE(sweep_case(ties, typed));
      auto solve = [&](Solver& s, WlisResult& out) {
        if (typed) {
          s.solve_wlis(std::span<const double>(da), w, out);
        } else {
          s.solve_wlis(a, w, out);
        }
      };
      Options uo;
      uo.ties = ties;
      WlisResult ref;
      Solver unlimited(uo);
      solve(unlimited, ref);

      int rejected = 0, admitted = 0, degraded = 0;
      for (uint64_t budget :
           {uint64_t{1}, uint64_t{256} << 10, uint64_t{8} << 20,
            uint64_t{64} << 20, uint64_t{256} << 20, uint64_t{0}}) {
        SCOPED_TRACE("budget=" + std::to_string(budget));
        Options o = uo;
        o.memory_budget_bytes = budget;
        Solver s(o);
        WlisResult out;
        const size_t resident = s.resident_bytes();
        try {
          solve(s, out);
          admitted++;
          EXPECT_EQ(out.dp, ref.dp);
          EXPECT_EQ(out.best, ref.best);
          EXPECT_EQ(out.k, ref.k);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
          EXPECT_EQ(s.resident_bytes(), resident);
          rejected++;
        }
      }
      EXPECT_GE(rejected, 1);
      EXPECT_GE(admitted, 2);
      // The 8 MiB point sits between the documented fallback (~64 B/elem,
      // ~122 with a rank space) and full (~150+ B/elem) footprints at
      // n = 60000, so the sweep provably crossed the degradation regime,
      // not just reject/full.
      Options mid = uo;
      mid.memory_budget_bytes = uint64_t{8} << 20;
      Solver s_mid(mid);
      WlisResult out_mid;
      solve(s_mid, out_mid);
      degraded++;
      EXPECT_EQ(out_mid.dp, ref.dp);
      EXPECT_EQ(out_mid.best, ref.best);
      EXPECT_EQ(out_mid.k, ref.k);
      EXPECT_EQ(degraded, 1);
    }
  }
}

// solve_many's queries are int64 spans, so this sweep runs the ties axis
// only. A batch either fits or is rejected before any query runs.
TEST(MemoryBudget, SolveManySweepMatchesUnlimited) {
  const int64_t n = 10000;
  const std::vector<int64_t> a1 = make_vals(n, 94);
  const std::vector<int64_t> a2 = make_vals(n, 95);
  const std::vector<int64_t> w = make_weights(n, 96);
  const std::vector<int64_t> small = make_vals(256, 97);
  std::vector<Query> qs{Query{a1}, Query{a2, w}, Query{small}};
  for (TiesPolicy ties : kBothTies) {
    SCOPED_TRACE(sweep_case(ties, false));
    Options uo;
    uo.ties = ties;
    std::vector<QueryResult> ref(qs.size());
    Solver unlimited(uo);
    unlimited.solve_many(qs, ref);

    for (uint64_t budget : {uint64_t{256} << 10, uint64_t{2} << 20,
                            uint64_t{8} << 20, uint64_t{0}}) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      Options o = uo;
      o.memory_budget_bytes = budget;
      Solver s(o);
      std::vector<QueryResult> rs(qs.size());
      const size_t resident = s.resident_bytes();
      try {
        s.solve_many(qs, rs);
        for (size_t i = 0; i < qs.size(); i++) {
          EXPECT_EQ(rs[i].k, ref[i].k) << "query " << i;
          EXPECT_EQ(rs[i].best, ref[i].best) << "query " << i;
        }
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
        EXPECT_EQ(s.resident_bytes(), resident);
      }
    }
  }
}

TEST(MemoryBudget, SwgsHasNoFallbackAndThrows) {
  const int64_t n = 60000;
  const std::vector<int64_t> a = make_vals(n, 98);
  const std::vector<int64_t> w = make_weights(n, 99);
  Options o;
  // Far below SWGS's ~100 B/elem at n = 60000, but roomy enough for the
  // unweighted patience fallback (~12 B/elem) that the coda exercises.
  o.memory_budget_bytes = uint64_t{1} << 20;
  Solver s(o);
  LisResult lr;
  WlisResult wr;
  expect_error(ErrorCode::kBudgetExceeded, [&] { s.solve_swgs(a, lr); });
  expect_error(ErrorCode::kBudgetExceeded, [&] { s.solve_swgs_wlis(a, w, wr); });
  // The same solver still runs the paths that do have a fallback.
  s.solve_lis(a, lr);
  Solver plain;
  LisResult ref;
  plain.solve_lis(a, ref);
  EXPECT_EQ(lr.rank, ref.rank);
}

TEST(MemoryBudget, RangeTreeEstimateCoversRealAccounting) {
  for (int64_t n : {int64_t{1}, int64_t{17}, int64_t{1000}, int64_t{4096},
                    int64_t{65536}, int64_t{200000}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<int64_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    // Deterministic shuffle via the library's own hash.
    for (int64_t i = n - 1; i > 0; i--) {
      std::swap(perm[i], perm[uniform(123, i, static_cast<uint64_t>(i + 1))]);
    }
    RangeTreeMax tree{std::span<const int64_t>(perm)};
    EXPECT_LE(tree.pool_reserved_bytes(), RangeTreeMax::estimate_build_bytes(n));
  }
}

TEST(MemoryBudget, ZeroMeansUnlimited) {
  Options o;
  o.memory_budget_bytes = 0;
  Solver s(o);
  const std::vector<int64_t> a = make_vals(100000, 101);
  LisResult out;
  s.solve_lis(a, out);
  EXPECT_GT(out.k, 0);
}

}  // namespace
}  // namespace parlis
