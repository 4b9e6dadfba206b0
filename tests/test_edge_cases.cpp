// Degenerate-input audit: n = 0, n = 1, and all-equal values through every
// entry point — the free functions, the rank-space pass under both ties
// policies, the Solver overloads (int64 and typed), and solve_many with
// empty batches and empty query spans. These are the shapes a serving
// deployment sees constantly (empty feeds, singleton series, constant
// series) and exactly the ones an off-by-one in a frontier loop or a rank
// scan silently corrupts.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/swgs/swgs.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/failpoint.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/wlis.hpp"

namespace parlis {
namespace {

// ------------------------------------------------------------ rank space ---

TEST(EdgeCases, RankSpaceEmpty) {
  for (TiesPolicy ties : {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
    RankSpace rs = rank_space<int64_t>(std::span<const int64_t>{}, ties);
    EXPECT_TRUE(rs.order.empty());
    EXPECT_TRUE(rs.pos.empty());
    EXPECT_TRUE(rs.rank.empty());
    EXPECT_TRUE(rs.qpos.empty());
    EXPECT_EQ(rs.n_distinct, 0);
  }
}

TEST(EdgeCases, RankSpaceSingleton) {
  std::vector<int64_t> a = {42};
  for (TiesPolicy ties : {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
    RankSpace rs = rank_space<int64_t>(std::span<const int64_t>(a), ties);
    EXPECT_EQ(rs.order, (std::vector<int64_t>{0}));
    EXPECT_EQ(rs.pos, (std::vector<int64_t>{0}));
    EXPECT_EQ(rs.rank, (std::vector<int64_t>{0}));
    EXPECT_EQ(rs.qpos, (std::vector<int64_t>{0}));
    EXPECT_EQ(rs.n_distinct, 1);
  }
}

TEST(EdgeCases, RankSpaceAllEqual) {
  std::vector<int64_t> a(257, 7);
  RankSpace strict =
      rank_space<int64_t>(std::span<const int64_t>(a), TiesPolicy::kStrict);
  EXPECT_EQ(strict.n_distinct, 1);
  for (int64_t i = 0; i < 257; i++) {
    EXPECT_EQ(strict.rank[i], 0);
    EXPECT_EQ(strict.qpos[i], 0);
    EXPECT_EQ(strict.order[i], i);  // ties break by index: identity order
    EXPECT_EQ(strict.pos[i], i);
  }
  RankSpace nondec = rank_space<int64_t>(std::span<const int64_t>(a),
                                         TiesPolicy::kNonDecreasing);
  EXPECT_EQ(nondec.n_distinct, 257);
  for (int64_t i = 0; i < 257; i++) {
    EXPECT_EQ(nondec.rank[i], i);  // stable: input order is rank order
    EXPECT_EQ(nondec.qpos[i], i);
  }
}

// Crosses the 4096-element block boundary of the run scan with a run that
// spans blocks: the carried run start and dense rank must survive the
// block handoff.
TEST(EdgeCases, RankSpaceRunAcrossBlocks) {
  const int64_t n = 10000;
  std::vector<int64_t> a(n);
  for (int64_t i = 0; i < n; i++) a[i] = i < 5 ? 0 : 1;  // 9995-long run of 1
  RankSpace rs =
      rank_space<int64_t>(std::span<const int64_t>(a), TiesPolicy::kStrict);
  EXPECT_EQ(rs.n_distinct, 2);
  for (int64_t i = 0; i < n; i++) {
    EXPECT_EQ(rs.rank[i], a[i]);
    EXPECT_EQ(rs.qpos[i], a[i] == 0 ? 0 : 5);
  }
}

// ---------------------------------------------------------- free functions ---

TEST(EdgeCases, LisFreeFunctionsEmpty) {
  std::vector<int64_t> a;
  LisResult r = lis_ranks(a);
  EXPECT_EQ(r.k, 0);
  EXPECT_TRUE(r.rank.empty());
  LisFrontiers fr = lis_frontiers(a);
  EXPECT_EQ(fr.k, 0);
  EXPECT_EQ(fr.frontier_offset, (std::vector<int64_t>{0}));
  EXPECT_TRUE(lis_sequence(a).empty());
  EXPECT_EQ(longest_nondecreasing_length(a), 0);
}

TEST(EdgeCases, LisFreeFunctionsSingleton) {
  std::vector<int64_t> a = {-5};
  EXPECT_EQ(lis_ranks(a).k, 1);
  EXPECT_EQ(lis_sequence(a), (std::vector<int64_t>{0}));
  EXPECT_EQ(longest_nondecreasing_length(a), 1);
}

TEST(EdgeCases, LisFreeFunctionsAllEqual) {
  std::vector<int64_t> a(100, 3);
  LisResult r = lis_ranks(a);
  EXPECT_EQ(r.k, 1);
  for (int32_t t : r.rank) EXPECT_EQ(t, 1);
  EXPECT_EQ(static_cast<int64_t>(lis_sequence(a).size()), 1);
  EXPECT_EQ(longest_nondecreasing_length(a), 100);
}

TEST(EdgeCases, WlisEmptyAndSingleton) {
  std::vector<int64_t> empty_a, empty_w;
  for (WlisStructure st :
       {WlisStructure::kRangeTree, WlisStructure::kRangeVeb,
        WlisStructure::kRangeVebTabulated}) {
    WlisResult r = wlis(empty_a, empty_w, st);
    EXPECT_EQ(r.k, 0);
    EXPECT_EQ(r.best, 0);
    EXPECT_TRUE(r.dp.empty());
    EXPECT_TRUE(wlis_sequence(empty_a, empty_w, r).empty());

    std::vector<int64_t> a = {9}, w = {-4};
    WlisResult s = wlis(a, w, st);
    EXPECT_EQ(s.k, 1);
    EXPECT_EQ(s.dp, (std::vector<int64_t>{-4}));
    EXPECT_EQ(s.best, 0);  // the empty subsequence beats a negative chain
    EXPECT_EQ(wlis_sequence(a, w, s), (std::vector<int64_t>{0}));
  }
}

TEST(EdgeCases, WlisAllEqual) {
  std::vector<int64_t> a(60, 5), w(60);
  for (int64_t i = 0; i < 60; i++) w[i] = (i % 7) - 3;
  WlisResult r = wlis(a, w);
  EXPECT_EQ(r.k, 1);
  EXPECT_EQ(r.dp, w);  // nothing chains: dp[i] = w[i]
  EXPECT_EQ(r.best, 3);
}

TEST(EdgeCases, SwgsEmptySingletonAllEqual) {
  std::vector<int64_t> empty;
  SwgsStats stats;
  LisResult r = swgs_lis_ranks(empty, 1, &stats);
  EXPECT_EQ(r.k, 0);
  EXPECT_EQ(stats.total_checks, 0);
  WlisResult wr = swgs_wlis(empty, empty, 1, &stats);
  EXPECT_EQ(wr.k, 0);
  EXPECT_EQ(wr.best, 0);

  std::vector<int64_t> one = {11}, onew = {6};
  EXPECT_EQ(swgs_lis_ranks(one, 1).k, 1);
  EXPECT_EQ(swgs_wlis(one, onew, 1).best, 6);

  std::vector<int64_t> eq(40, 2), eqw(40, 1);
  LisResult re = swgs_lis_ranks(eq, 1);
  EXPECT_EQ(re.k, 1);
  EXPECT_EQ(swgs_wlis(eq, eqw, 1).best, 1);
}

// ------------------------------------------------------------------ Solver ---

TEST(EdgeCases, SolverDegenerateInputsBothPolicies) {
  for (TiesPolicy ties : {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
    Options opts;
    opts.ties = ties;
    Solver solver(opts);
    LisResult lr;
    WlisResult wr;
    LisFrontiers fr;

    std::vector<int64_t> empty;
    solver.solve_lis(std::span<const int64_t>(empty), lr);
    EXPECT_EQ(lr.k, 0);
    solver.solve_lis_frontiers(std::span<const int64_t>(empty), fr);
    EXPECT_EQ(fr.k, 0);
    solver.solve_wlis(std::span<const int64_t>(empty),
                      std::span<const int64_t>(empty), wr);
    EXPECT_EQ(wr.best, 0);
    solver.solve_swgs(std::span<const int64_t>(empty), lr);
    EXPECT_EQ(lr.k, 0);
    solver.solve_swgs_wlis(std::span<const int64_t>(empty),
                           std::span<const int64_t>(empty), wr);
    EXPECT_EQ(wr.k, 0);
    EXPECT_EQ(solver.lis_length(std::span<const int64_t>(empty)), 0);

    // Typed overloads on empty spans.
    solver.solve_lis(std::span<const double>{}, lr);
    EXPECT_EQ(lr.k, 0);
    solver.solve_wlis(std::span<const double>{}, std::span<const int64_t>{},
                      wr);
    EXPECT_EQ(wr.k, 0);

    std::vector<int64_t> one = {0}, onew = {5};
    solver.solve_lis(std::span<const int64_t>(one), lr);
    EXPECT_EQ(lr.k, 1);
    solver.solve_wlis(std::span<const int64_t>(one),
                      std::span<const int64_t>(onew), wr);
    EXPECT_EQ(wr.best, 5);

    std::vector<int64_t> eq(50, 9), eqw(50, 2);
    solver.solve_lis(std::span<const int64_t>(eq), lr);
    EXPECT_EQ(lr.k, ties == TiesPolicy::kStrict ? 1 : 50);
    solver.solve_wlis(std::span<const int64_t>(eq),
                      std::span<const int64_t>(eqw), wr);
    EXPECT_EQ(wr.best, ties == TiesPolicy::kStrict ? 2 : 100);
    solver.solve_swgs(std::span<const int64_t>(eq), lr);
    EXPECT_EQ(lr.k, ties == TiesPolicy::kStrict ? 1 : 50);
    solver.solve_swgs_wlis(std::span<const int64_t>(eq),
                           std::span<const int64_t>(eqw), wr);
    EXPECT_EQ(wr.best, ties == TiesPolicy::kStrict ? 2 : 100);
  }
}

TEST(EdgeCases, SolveManyEmptyBatchAndEmptyQuerySpans) {
  Solver solver;
  // Empty batch: a no-op, not a crash.
  solver.solve_many({}, {});

  // A batch mixing empty query spans with real ones, in both query shapes.
  std::vector<int64_t> a = {3, 1, 2, 5, 4};
  std::vector<int64_t> w = {1, 1, 1, 1, 1};
  std::vector<int32_t> rank_out(a.size(), -1);
  std::vector<Query> queries(4);
  queries[0].a = {};  // empty unweighted
  queries[1].a = std::span<const int64_t>(a);
  queries[1].rank_out = std::span<int32_t>(rank_out);
  queries[2].a = {};  // empty weighted (w empty too: |w| == |a|)
  queries[3].a = std::span<const int64_t>(a);
  queries[3].w = std::span<const int64_t>(w);
  std::vector<QueryResult> results(queries.size());
  solver.solve_many(queries, results);
  EXPECT_EQ(results[0].k, 0);
  EXPECT_EQ(results[0].best, 0);
  EXPECT_EQ(results[1].k, 3);  // 1 2 5 / 1 2 4
  EXPECT_EQ(rank_out, (std::vector<int32_t>{1, 1, 2, 3, 3}));
  EXPECT_EQ(results[2].k, 0);
  EXPECT_EQ(results[3].k, 3);
  EXPECT_EQ(results[3].best, 3);
}

TEST(EdgeCases, SolveManyNonDecreasingTies) {
  Options opts;
  opts.ties = TiesPolicy::kNonDecreasing;
  Solver solver(opts);
  std::vector<int64_t> eq(6, 4), w(6, 3);
  std::vector<Query> queries(2);
  queries[0].a = std::span<const int64_t>(eq);
  queries[1].a = std::span<const int64_t>(eq);
  queries[1].w = std::span<const int64_t>(w);
  std::vector<QueryResult> results(2);
  solver.solve_many(queries, results);
  EXPECT_EQ(results[0].k, 6);
  EXPECT_EQ(results[1].best, 18);
}

// NaN compares neither below nor above anything, so it breaks the strict
// weak ordering every kernel relies on ({1, NaN, 2, 0.5, 3} used to come
// back as k = 2). Every typed entry point rejects it with kInvalidArgument
// before a workspace is touched, so a warm WLIS value cache survives.
TEST(EdgeCases, NanKeysAreRejectedBeforeAnyWorkspaceIsTouched) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> bad = {1, nan, 2, 0.5, 3};
  const std::span<const double> b(bad);
  const std::vector<int64_t> bw(bad.size(), 1);
  auto expect_invalid = [](auto&& fn) {
    try {
      fn();
      ADD_FAILURE() << "expected Error{kInvalidArgument}, call succeeded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
    }
  };

  Solver solver;
  const int64_t n = 3000;
  std::vector<double> good(n);
  std::vector<int64_t> gw(n);
  for (int64_t i = 0; i < n; i++) {
    good[i] = static_cast<double>((i * 7919) % 1013) / 7.0;
    gw[i] = 1 + (i * 31) % 17;
  }
  const std::span<const double> g(good);
  WlisResult warm, out;
  solver.solve_wlis(g, gw, warm);  // primes the value cache

  LisResult lr;
  LisFrontiers fr;
  expect_invalid([&] { solver.solve_lis(b, lr); });
  expect_invalid([&] { solver.solve_lis(b, lr, std::greater<double>{}); });
  expect_invalid([&] { solver.solve_lis_frontiers(b, fr); });
  expect_invalid([&] { (void)solver.lis_length(b); });
  expect_invalid([&] { solver.solve_wlis(b, bw, out); });
  expect_invalid([&] { solver.solve_swgs(b, lr); });

  // The rejected weighted call left the cache warm: the next solve over the
  // same keys re-runs no LIS round (observable where failpoints are
  // compiled in) and matches the warm result bit for bit.
  if (failpoints::enabled()) {
    failpoints::arm_nth("lis.round", std::numeric_limits<uint64_t>::max());
  }
  solver.solve_wlis(g, gw, out);
  if (failpoints::enabled()) {
    EXPECT_EQ(failpoints::hit_count("lis.round"), 0u);
    failpoints::disarm("lis.round");
  }
  EXPECT_EQ(out.dp, warm.dp);
  EXPECT_EQ(out.best, warm.best);
  EXPECT_EQ(out.k, warm.k);
}

}  // namespace
}  // namespace parlis
