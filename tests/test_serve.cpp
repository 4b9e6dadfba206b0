// Serving-engine suite (ctest -L serve; also rides the ASan fault leg and
// the TSan leg):
//
//  * ServeTable  — SessionTable semantics: hit/miss accounting, LRU
//    eviction under a measured byte budget, the pin contract, budget
//    rejection, and the churn pin: a tenant evicted and re-admitted
//    answers bit-identically to its pre-eviction warm self (both the
//    weighted dp vector and a streaming replay).
//  * ServeEngine — admission-queue behavior end to end: coalesced batches
//    match direct solves, a request cancelled (or expired) while queued
//    never reaches a worker, kReject overload fail-fast vs kBlock
//    backpressure, tenant ops (append / solve_warm) against direct
//    references, and a multi-client stress leg for the TSan build.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/serve/engine.hpp"
#include "parlis/serve/session_table.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/util/cancel.hpp"
#include "parlis/util/error.hpp"

namespace parlis {
namespace {

using serve::BackpressureMode;
using serve::Engine;
using serve::EngineConfig;
using serve::RequestGuard;
using serve::SessionTable;

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

// Measured footprint of one tenant warmed by `warm` — run against an
// unbudgeted scratch table, so budget tests can size their budgets off the
// real figure instead of a guess.
template <typename WarmFn>
uint64_t warm_tenant_bytes(WarmFn&& warm) {
  SessionTable::Config cfg;
  cfg.shards = 1;
  SessionTable table(cfg);
  {
    auto lease = table.acquire(1);
    warm(lease);
  }
  return table.resident_bytes();
}

// -------------------------------------------------------------- ServeTable

TEST(ServeTable, HitMissAndLruAccounting) {
  SessionTable::Config cfg;
  cfg.shards = 4;
  SessionTable table(cfg);
  EXPECT_FALSE(table.contains(7));
  { auto lease = table.acquire(7); EXPECT_EQ(lease.series(), 7u); }
  EXPECT_TRUE(table.contains(7));
  { auto lease = table.acquire(7); }
  { auto lease = table.acquire(8); }
  auto st = table.stats();
  EXPECT_EQ(st.table_misses, 2);
  EXPECT_EQ(st.table_hits, 1);
  EXPECT_EQ(st.admissions, 2);
  EXPECT_EQ(st.tenants, 2);
  EXPECT_EQ(st.evictions, 0);
  EXPECT_GT(st.resident_bytes, 0);
}

TEST(ServeTable, FreshTenantTooBigForBudgetIsRejected) {
  SessionTable::Config cfg;
  cfg.shards = 1;
  cfg.memory_budget_bytes = 16;  // smaller than any entry
  SessionTable table(cfg);
  expect_error(ErrorCode::kBudgetExceeded, [&] { table.acquire(1); });
  auto st = table.stats();
  EXPECT_EQ(st.budget_rejections, 1);
  EXPECT_EQ(st.tenants, 0);
  EXPECT_EQ(st.resident_bytes, 0);
}

TEST(ServeTable, PinnedEntryIsNeverEvicted) {
  // Streaming growth: session appends are not gated by the solver's
  // budget estimates, so the footprint per tenant is deterministic and the
  // eviction pressure is guaranteed.
  const auto vals = make_vals(2048, 11);
  const uint64_t one = warm_tenant_bytes([&](SessionTable::Lease& lease) {
    for (int64_t v : vals) lease.session().append(v);
  });

  SessionTable::Config cfg;
  cfg.shards = 1;
  cfg.memory_budget_bytes = one + one / 2;  // room for ~1.5 warm tenants
  SessionTable table(cfg);
  auto pinned = table.acquire(1);
  for (int64_t v : vals) pinned.session().append(v);
  // Admissions under pressure may evict anything idle — but never series 1,
  // whose lease is live.
  for (uint64_t s = 2; s < 8; s++) {
    auto lease = table.acquire(s);
    for (int64_t v : vals) lease.session().append(v);
  }
  EXPECT_TRUE(table.contains(1));
  EXPECT_GT(table.stats().evictions, 0);
}

TEST(ServeTable, ChurnEvictReAdmitIsBitIdentical) {
  const int64_t n = 2048;
  const auto vals = make_vals(n, 21);
  const auto wts = make_weights(n, 22);
  const uint64_t one = warm_tenant_bytes([&](SessionTable::Lease& lease) {
    WlisResult out;
    lease.solver().solve_wlis(vals, wts, out);
  });

  SessionTable::Config cfg;
  cfg.shards = 1;
  // ~2.5 warm tenants: enough headroom that the solver's conservative
  // admission ESTIMATE (which runs ahead of the measured footprint) still
  // picks the full plan for the hot tenant, while two grown tenants put
  // the shard over budget.
  cfg.memory_budget_bytes = 5 * one / 2;
  SessionTable table(cfg);

  // Warm solve on tenant 1, recording the full dp vector.
  std::vector<int64_t> warm_dp;
  int64_t warm_best = 0;
  {
    auto lease = table.acquire(1);
    WlisResult& out = lease.wlis_out();
    lease.solver().solve_wlis(vals, wts, out);
    warm_dp = out.dp;
    warm_best = out.best;
    // Second warm solve over the same values: the tenant's value cache
    // must not change the answer.
    lease.solver().solve_wlis(vals, wts, out);
    ASSERT_EQ(out.dp, warm_dp);
  }

  // Churn other tenants through the same shard until tenant 1 is evicted.
  // Each churn tenant grows by solve AND by session appends (the latter is
  // never estimate-gated), so the pressure builds regardless of which plan
  // the budgeted solves pick.
  for (uint64_t s = 2; s < 10 && table.contains(1); s++) {
    auto lease = table.acquire(s);
    WlisResult out;
    lease.solver().solve_wlis(vals, make_weights(n, s), out);
    for (int64_t v : vals) lease.session().append(v);
  }
  ASSERT_FALSE(table.contains(1)) << "budget never forced the eviction";
  ASSERT_GT(table.stats().evictions, 0);

  // Re-admit: the cold solve must reproduce the warm answer bit for bit.
  {
    auto lease = table.acquire(1);
    WlisResult& out = lease.wlis_out();
    lease.solver().solve_wlis(vals, wts, out);
    EXPECT_EQ(out.best, warm_best);
    EXPECT_EQ(out.dp, warm_dp);
  }
}

TEST(ServeTable, StreamingChurnReplayIsBitIdentical) {
  const int64_t n = 1500;
  const auto vals = make_vals(n, 31);
  const uint64_t one = warm_tenant_bytes([&](SessionTable::Lease& lease) {
    for (int64_t v : vals) lease.session().append(v);
  });

  SessionTable::Config cfg;
  cfg.shards = 1;
  cfg.memory_budget_bytes = one + one / 2;
  SessionTable table(cfg);

  std::vector<int64_t> warm_lengths;
  uint64_t warm_hash = 0;
  {
    auto lease = table.acquire(1);
    for (int64_t v : vals) warm_lengths.push_back(lease.session().append(v));
    warm_hash = lease.session().content_hash();
  }
  for (uint64_t s = 2; s < 10 && table.contains(1); s++) {
    auto lease = table.acquire(s);
    for (int64_t v : make_vals(n, s)) lease.session().append(v);
  }
  ASSERT_FALSE(table.contains(1)) << "budget never forced the eviction";

  // Replay the same stream into the re-admitted (cold) tenant.
  {
    auto lease = table.acquire(1);
    std::vector<int64_t> cold_lengths;
    for (int64_t v : vals) cold_lengths.push_back(lease.session().append(v));
    EXPECT_EQ(cold_lengths, warm_lengths);
    EXPECT_EQ(lease.session().content_hash(), warm_hash);
  }
}

TEST(ServeTable, ResidentStaysWithinBudgetAcrossChurn) {
  const int64_t n = 1024;
  const auto vals = make_vals(n, 41);
  const uint64_t one = warm_tenant_bytes([&](SessionTable::Lease& lease) {
    for (int64_t v : vals) lease.session().append(v);
  });

  SessionTable::Config cfg;
  cfg.shards = 2;
  cfg.memory_budget_bytes = 3 * one;
  SessionTable table(cfg);
  for (uint64_t s = 1; s <= 24; s++) {
    try {
      auto lease = table.acquire(s);
      for (int64_t v : vals) lease.session().append(v);
    } catch (const Error& e) {
      // A shard slice can be tighter than one warm tenant; rejection is a
      // legal answer, silently blowing the budget is not.
      ASSERT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
    }
    // Idle-state invariant: with no lease live, measured residency never
    // exceeds the configured budget once the table has settled the shard.
    table.enforce_budget();
    EXPECT_LE(table.resident_bytes(), table.budget_bytes());
  }
  auto st = table.stats();
  EXPECT_GT(st.evictions, 0);
  EXPECT_GT(st.admissions, 3);
}

// ------------------------------------------------------------- ServeEngine

TEST(ServeEngine, CoalescedSolvesMatchDirect) {
  const int kClients = 4, kQueriesEach = 8;
  const int64_t n = 1024;
  std::vector<std::vector<int64_t>> inputs;
  std::vector<QueryResult> want;
  Solver direct;
  for (int c = 0; c < kClients; c++) {
    for (int q = 0; q < kQueriesEach; q++) {
      inputs.push_back(make_vals(n, 100 + static_cast<uint64_t>(c * 17 + q)));
      LisResult r;
      direct.solve_lis(inputs.back(), r);
      want.push_back({r.k, r.k});
    }
  }

  EngineConfig cfg;
  cfg.start_paused = true;  // everything queues, so one drain coalesces all
  Engine engine(cfg);
  std::vector<std::thread> clients;
  std::vector<std::vector<QueryResult>> got(kClients);
  for (int c = 0; c < kClients; c++) {
    clients.emplace_back([&, c] {
      std::vector<Query> qs(kQueriesEach);
      got[c].resize(kQueriesEach);
      for (int q = 0; q < kQueriesEach; q++) {
        qs[q].a = inputs[static_cast<size_t>(c * kQueriesEach + q)];
      }
      engine.solve(qs, got[c]);
    });
  }
  while (engine.queue_depth() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.resume();
  for (auto& t : clients) t.join();

  for (int c = 0; c < kClients; c++) {
    for (int q = 0; q < kQueriesEach; q++) {
      const auto& w = want[static_cast<size_t>(c * kQueriesEach + q)];
      EXPECT_EQ(got[c][static_cast<size_t>(q)].k, w.k);
      EXPECT_EQ(got[c][static_cast<size_t>(q)].best, w.best);
    }
  }
  auto st = engine.stats();
  EXPECT_EQ(st.requests, kClients);
  EXPECT_EQ(st.coalesced_queries, kClients * kQueriesEach);
  // All clients were queued before resume(), so one batch carried them all.
  EXPECT_EQ(st.coalesced_batches, 1);
  EXPECT_EQ(st.coalesced_batch_max, kClients * kQueriesEach);
}

TEST(ServeEngine, CancelledWhileQueuedNeverReachesAWorker) {
  const auto vals = make_vals(512, 7);
  EngineConfig cfg;
  cfg.start_paused = true;
  Engine engine(cfg);
  auto token = CancelToken::make();
  std::vector<int32_t> rank(vals.size(), -7);  // sentinel: must stay put
  Query q;
  q.a = vals;
  q.rank_out = rank;
  std::thread client([&] {
    expect_error(ErrorCode::kCancelled,
                 [&] { engine.solve_one(q, {token, 0}); });
  });
  while (engine.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  token.request_cancel();
  engine.resume();
  client.join();
  EXPECT_TRUE(std::all_of(rank.begin(), rank.end(),
                          [](int32_t r) { return r == -7; }))
      << "a cancelled-while-queued request touched its output";
  EXPECT_EQ(engine.stats().cancelled_queued, 1);
}

TEST(ServeEngine, DeadlineExpiredWhileQueuedNeverReachesAWorker) {
  const auto vals = make_vals(512, 8);
  EngineConfig cfg;
  cfg.start_paused = true;
  Engine engine(cfg);
  Query q;
  q.a = vals;
  std::thread client([&] {
    expect_error(ErrorCode::kDeadlineExceeded,
                 [&] { engine.solve_one(q, {CancelToken{}, 40}); });
  });
  while (engine.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  engine.resume();
  client.join();
  EXPECT_EQ(engine.stats().expired_queued, 1);
}

TEST(ServeEngine, RejectModeThrowsOverloadedWhenFull) {
  const auto vals = make_vals(512, 9);
  EngineConfig cfg;
  cfg.queue_capacity = 2;
  cfg.backpressure = BackpressureMode::kReject;
  cfg.start_paused = true;
  Engine engine(cfg);
  Query q;
  q.a = vals;
  std::vector<std::thread> fillers;
  for (int i = 0; i < 2; i++) {
    fillers.emplace_back([&] { engine.solve_one(q); });
  }
  while (engine.queue_depth() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  expect_error(ErrorCode::kOverloaded, [&] { engine.solve_one(q); });
  engine.resume();
  for (auto& t : fillers) t.join();
  auto st = engine.stats();
  EXPECT_EQ(st.overload_rejections, 1);
  EXPECT_EQ(st.queue_depth_hwm, 2);
}

TEST(ServeEngine, BlockModeWaitsForASlot) {
  const auto vals = make_vals(512, 10);
  EngineConfig cfg;
  cfg.queue_capacity = 1;
  cfg.backpressure = BackpressureMode::kBlock;
  cfg.start_paused = true;
  Engine engine(cfg);
  Query q;
  q.a = vals;
  std::atomic<int> done{0};
  std::thread a([&] { engine.solve_one(q); done++; });
  while (engine.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread b([&] { engine.solve_one(q); done++; });  // blocks on admission
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(done.load(), 0);
  engine.resume();
  a.join();
  b.join();
  EXPECT_EQ(done.load(), 2);
  EXPECT_EQ(engine.stats().overload_rejections, 0);
}

TEST(ServeEngine, CancelWhileBlockedOnAdmission) {
  const auto vals = make_vals(512, 12);
  EngineConfig cfg;
  cfg.queue_capacity = 1;
  cfg.backpressure = BackpressureMode::kBlock;
  cfg.start_paused = true;
  Engine engine(cfg);
  Query q;
  q.a = vals;
  std::thread filler([&] { engine.solve_one(q); });
  while (engine.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto token = CancelToken::make();
  std::thread blocked([&] {
    expect_error(ErrorCode::kCancelled,
                 [&] { engine.solve_one(q, {token, 0}); });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  token.request_cancel();
  blocked.join();  // must unblock without ever being queued
  engine.resume();
  filler.join();
}

TEST(ServeEngine, DestructorFailsQueuedRequests) {
  const auto vals = make_vals(512, 13);
  EngineConfig cfg;
  cfg.start_paused = true;
  auto engine = std::make_unique<Engine>(cfg);
  Query q;
  q.a = vals;
  std::thread client([&] {
    expect_error(ErrorCode::kCancelled, [&] { engine->solve_one(q); });
  });
  while (engine->queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.reset();  // stop: queued request completes with kCancelled
  client.join();
}

TEST(ServeEngine, AppendAndWarmSolveMatchDirect) {
  const int64_t n = 1200;
  const auto vals = make_vals(n, 51);
  const auto wts = make_weights(n, 52);

  // Direct references: a plain session for the lengths, a plain solver for
  // the weighted dp.
  std::vector<int64_t> want_lengths;
  {
    Solver s;
    auto session = s.make_session();
    for (int64_t v : vals) want_lengths.push_back(session.append(v));
  }
  WlisResult want_w;
  {
    Solver s;
    s.solve_wlis(vals, wts, want_w);
  }

  Engine engine(EngineConfig{});
  const uint64_t kSeries = 42;
  for (int64_t i = 0; i < n; i++) {
    EXPECT_EQ(engine.append(kSeries, vals[static_cast<size_t>(i)]),
              want_lengths[static_cast<size_t>(i)]);
  }

  std::vector<int64_t> dp(static_cast<size_t>(n));
  Query q;
  q.a = vals;
  q.w = wts;
  q.dp_out = dp;
  auto r1 = engine.solve_warm(kSeries, q);
  EXPECT_EQ(r1.k, want_w.k);
  EXPECT_EQ(r1.best, want_w.best);
  EXPECT_EQ(dp, want_w.dp);
  // Same values again: the tenant's value cache must hit and agree.
  auto r2 = engine.solve_warm(kSeries, q);
  EXPECT_EQ(r2.best, want_w.best);
  auto st = engine.stats();
  EXPECT_EQ(st.value_cache_hits, 1);
  EXPECT_EQ(st.value_cache_misses, 1);
  EXPECT_EQ(st.tenants, 1);
}

// solve_warm copies its results into the caller's spans on the dispatcher,
// so a malformed query must fail on the caller's thread, before it pins a
// tenant: an undersized rank_out / dp_out used to be written past its end.
TEST(ServeEngine, WarmSolveValidatesQueryBeforePinning) {
  const int64_t n = 600;
  const auto vals = make_vals(n, 61);
  const auto wts = make_weights(n, 62);
  const uint64_t kSeries = 9;
  Engine engine(EngineConfig{});

  std::vector<int32_t> short_rank(static_cast<size_t>(n / 2));
  std::vector<int64_t> short_dp(static_cast<size_t>(n / 2));
  Query bad_rank;
  bad_rank.a = vals;
  bad_rank.rank_out = short_rank;
  Query bad_dp;
  bad_dp.a = vals;
  bad_dp.w = wts;
  bad_dp.dp_out = short_dp;
  Query bad_w;
  bad_w.a = vals;
  bad_w.w = std::span<const int64_t>(wts).first(static_cast<size_t>(n - 1));
  for (const Query* q : {&bad_rank, &bad_dp, &bad_w}) {
    expect_error(ErrorCode::kInvalidArgument,
                 [&] { (void)engine.solve_warm(kSeries, *q); });
  }
  EXPECT_EQ(engine.stats().tenants, 0);

  // The engine keeps serving, warm and coalesced verbs alike.
  WlisResult want_w;
  LisResult want_l;
  {
    Solver s;
    s.solve_wlis(vals, wts, want_w);
    s.solve_lis(vals, want_l);
  }
  std::vector<int64_t> dp(static_cast<size_t>(n));
  Query good_w;
  good_w.a = vals;
  good_w.w = wts;
  good_w.dp_out = dp;
  const QueryResult rw = engine.solve_warm(kSeries, good_w);
  EXPECT_EQ(rw.best, want_w.best);
  EXPECT_EQ(dp, want_w.dp);
  std::vector<int32_t> rank(static_cast<size_t>(n));
  Query good_l;
  good_l.a = vals;
  good_l.rank_out = rank;
  EXPECT_EQ(engine.solve_warm(kSeries, good_l).k, want_l.k);
  EXPECT_EQ(rank, want_l.rank);
  EXPECT_EQ(engine.solve_one(good_l).k, want_l.k);
  EXPECT_EQ(engine.stats().tenants, 1);
}

TEST(ServeEngine, MultiClientStress) {
  // TSan target: concurrent clients mixing coalescable solves with tenant
  // ops on a budget small enough to force eviction churn underneath them.
  const int64_t n = 700;
  const auto vals = make_vals(n, 61);
  const uint64_t one = warm_tenant_bytes([&](SessionTable::Lease& lease) {
    WlisResult out;
    lease.solver().solve_wlis(vals, make_weights(n, 62), out);
  });

  EngineConfig cfg;
  cfg.table.shards = 2;
  cfg.table.memory_budget_bytes = 4 * one;
  cfg.queue_capacity = 16;
  Engine engine(cfg);

  LisResult want_lis;
  {
    Solver s;
    s.solve_lis(vals, want_lis);
  }
  std::vector<int64_t> want_lengths;
  {
    Solver s;
    auto session = s.make_session();
    for (int64_t v : vals) want_lengths.push_back(session.append(v));
  }

  const int kThreads = 4, kRounds = 6;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds; round++) {
        const uint64_t series = static_cast<uint64_t>(t * kRounds + round);
        try {
          if (round % 2 == 0) {
            // Streaming tenant: replay the shared stream, check lengths.
            for (int64_t i = 0; i < n; i += 7) {
              const auto idx = static_cast<size_t>(i);
              if (engine.append(series, vals[idx]) <= 0) failures++;
            }
          } else {
            // Warm weighted tenant + a coalescable stateless solve.
            std::vector<int64_t> w = make_weights(n, series);
            Query wq;
            wq.a = vals;
            wq.w = w;
            if (engine.solve_warm(series, wq).best <= 0) failures++;
            Query lq;
            lq.a = vals;
            if (engine.solve_one(lq).k != want_lis.k) failures++;
          }
        } catch (const Error& e) {
          // Budget rejection is legal under churn; anything else is a bug.
          if (e.code() != ErrorCode::kBudgetExceeded) {
            ADD_FAILURE() << e.what();
            failures++;
          }
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto st = engine.stats();
  EXPECT_GT(st.requests, 0);
  EXPECT_GT(st.admissions, 0);
  // Settled, unpinned: measured residency obeys the budget.
  engine.table().enforce_budget();
  EXPECT_LE(engine.table().resident_bytes(), engine.table().budget_bytes());
}

}  // namespace
}  // namespace parlis
