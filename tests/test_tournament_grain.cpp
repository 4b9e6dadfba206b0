// Fork granularity of the tournament tree's top-tree traversal: a round
// forks only where both children hold reports and the round is large
// (tournament_tree.hpp, "Fork rule"). These tests pin the three
// consequences of that rule:
//  * large-k solves (thousands of tiny rounds) run without per-round
//    fork/joins,
//  * a round mispredicted small (the frontier jumps from 1 to n-1) still
//    turns parallel and still reports the right frontier,
//  * results and the Thm. 3.2 visit accounting do not depend on the fork
//    decisions: sequential mode and the pool agree bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "parlis/lis/lis.hpp"
#include "parlis/lis/seq_lis.hpp"
#include "parlis/lis/tournament_tree.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/generators.hpp"

namespace parlis {
namespace {

constexpr int64_t kInf = INT64_MAX;

// Restores the global sequential mode on scope exit.
class SequentialMode {
 public:
  explicit SequentialMode(bool on) : prev_(set_sequential_mode(on)) {}
  ~SequentialMode() { set_sequential_mode(prev_); }
  SequentialMode(const SequentialMode&) = delete;
  SequentialMode& operator=(const SequentialMode&) = delete;

 private:
  bool prev_;
};

// One solve's observable outcome: ranks, k, the visit count, and (for the
// two-pass flavour) the flat frontiers in round order.
struct Outcome {
  std::vector<int32_t> rank;
  int32_t k = 0;
  uint64_t visits = 0;
  std::vector<int64_t> frontiers;
};

Outcome solve_extract(const std::vector<int64_t>& a) {
  Outcome o;
  o.rank.assign(a.size(), 0);
  TournamentTree<int64_t> t(a, kInf);
  while (!t.empty()) {
    const int32_t r = ++o.k;
    t.extract_frontier([&](int64_t i) { o.rank[i] = r; });
  }
  o.visits = t.nodes_visited();
  return o;
}

Outcome solve_collect(const std::vector<int64_t>& a) {
  Outcome o;
  o.rank.assign(a.size(), 0);
  o.frontiers.assign(a.size(), -1);
  TournamentTree<int64_t> t(a, kInf);
  int64_t off = 0;
  while (!t.empty()) {
    const int32_t r = ++o.k;
    const int64_t m = t.extract_frontier_collect_into(o.frontiers.data() + off);
    for (int64_t j = 0; j < m; j++) o.rank[o.frontiers[off + j]] = r;
    off += m;
  }
  EXPECT_EQ(off, static_cast<int64_t>(a.size()));
  o.visits = t.nodes_visited();
  return o;
}

void expect_same(const Outcome& seq, const Outcome& par, const char* what) {
  EXPECT_EQ(seq.k, par.k) << what;
  EXPECT_EQ(seq.rank, par.rank) << what;
  EXPECT_EQ(seq.visits, par.visits) << what;
  EXPECT_EQ(seq.frontiers, par.frontiers) << what;
}

// ~29k rounds of ~10 reports each. Forking at every entered top node would
// cost ~10 spawns per round, and labelling each frontier with a
// default-grain parallel_for one more; under the fork rule a whole solve
// spawns only for the construction and the first (large-predicted) round.
// Covers both the one-pass (lis_ranks) and two-pass (lis_frontiers) loops.
TEST(TournamentGrain, LargeKSolveSpawnsUnderOnePercentOfRounds) {
  if (num_workers() < 2) GTEST_SKIP() << "needs a pool of at least 2 workers";
  const std::vector<int64_t> a = line_pattern(300000, 30000, 11);
  const std::vector<int32_t> oracle = seq_bs_ranks(a);

  SchedulerStats before = scheduler_stats();
  const LisResult res = lis_ranks(a);
  uint64_t spawns = scheduler_stats().spawns - before.spawns;
  ASSERT_GT(res.k, 20000);
  EXPECT_EQ(res.rank, oracle);
  EXPECT_LE(spawns * 100, static_cast<uint64_t>(res.k))
      << "lis_ranks: " << spawns << " spawns over " << res.k << " rounds";

  before = scheduler_stats();
  const LisFrontiers fr = lis_frontiers(a);
  spawns = scheduler_stats().spawns - before.spawns;
  EXPECT_EQ(fr.rank, oracle);
  EXPECT_LE(spawns * 100, static_cast<uint64_t>(fr.k))
      << "lis_frontiers: " << spawns << " spawns over " << fr.k << " rounds";
}

// {0, n-1, n-2, ..., 1}: round 1 reports one leaf, so round 2 is predicted
// small although it reports the other n-1. Its inline prefix must flip the
// round to forking after one grain, not run all n-1 reports inline.
TEST(TournamentGrain, FrontierJumpTurnsParallelMidRound) {
  const int64_t n = int64_t{1} << 20;
  std::vector<int64_t> a(n);
  a[0] = 0;
  for (int64_t i = 1; i < n; i++) a[i] = n - i;

  std::vector<int32_t> rank(n, 0);
  TournamentTree<int64_t> t(a, kInf);  // construction forks are not counted
  const SchedulerStats before = scheduler_stats();
  int32_t k = 0;
  while (!t.empty()) {
    const int32_t r = ++k;
    t.extract_frontier([&](int64_t i) { rank[i] = r; });
  }
  const SchedulerStats after = scheduler_stats();
  EXPECT_EQ(k, 2);
  EXPECT_EQ(rank, seq_bs_ranks(a));
  if (num_workers() >= 2) {
    EXPECT_GT(after.spawns - before.spawns, 0u);
  }
}

// A small fig7a-style k grid (line pattern, seeds as in fig7a) mixes rounds
// far above the grain (k~10: frontiers of ~10^4) with rounds far below it
// (k~10^4: frontiers of ~10): sequential mode and the pool must agree on
// every rank, on k and on nodes_visited(), for both extraction flavours.
// The visit counts are pinned: where the prune test runs and where the
// traversal forks must not move the Thm. 3.2 accounting.
TEST(TournamentGrain, SequentialAndPoolAgreeBitForBit) {
  const int64_t n = int64_t{1} << 17;
  struct Point {
    int64_t target_k;
    int32_t k;
    uint64_t visits;
  };
  const Point grid[] = {{1, 1, 149759},
                        {10, 8, 678256},
                        {100, 56, 1694188},
                        {1000, 1233, 2393108},
                        {10000, 9714, 1634956}};
  for (const Point& p : grid) {
    const std::vector<int64_t> a = line_pattern(n, p.target_k, 7 + p.target_k);
    Outcome seq_x, seq_c;
    {
      SequentialMode on(true);
      seq_x = solve_extract(a);
      seq_c = solve_collect(a);
    }
    const Outcome par_x = solve_extract(a);
    const Outcome par_c = solve_collect(a);
    SCOPED_TRACE(testing::Message() << "target_k=" << p.target_k);
    expect_same(seq_x, par_x, "extract_frontier");
    expect_same(seq_c, par_c, "extract_frontier_collect_into");
    EXPECT_EQ(par_x.k, p.k);
    EXPECT_EQ(par_x.visits, p.visits);
    // The two flavours visit the same nodes: pass 2 repeats pass 1's walk.
    EXPECT_EQ(par_c.visits, 2 * par_x.visits);
    EXPECT_EQ(par_x.rank, seq_bs_ranks(a));
    EXPECT_EQ(par_c.rank, par_x.rank);
  }
}

}  // namespace
}  // namespace parlis
