// Tests for the parallel van Emde Boas tree (point ops, Alg. 4 BatchInsert,
// Alg. 5 BatchDelete, Alg. 6 Range) and the Mono-vEB staircase (Alg. 7).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "parlis/parallel/random.hpp"
#include "parlis/util/arena.hpp"
#include "parlis/util/error.hpp"
#include "parlis/veb/mono_veb.hpp"
#include "parlis/veb/veb_tree.hpp"

namespace parlis {
namespace {

std::vector<uint64_t> sorted_unique(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// ---------------------------------------------------------------- basics ---

TEST(Veb, EmptyTree) {
  VebTree t(1000);
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.min());
  EXPECT_FALSE(t.max());
  EXPECT_FALSE(t.contains(0));
  EXPECT_FALSE(t.pred_lt(999));
  EXPECT_FALSE(t.succ_gt(0));
  EXPECT_TRUE(t.range(0, 999).empty());
  t.check_invariants();
}

TEST(Veb, SingleKeyLifecycle) {
  VebTree t(256);
  t.insert(13);
  EXPECT_EQ(t.size(), 1);
  EXPECT_EQ(*t.min(), 13u);
  EXPECT_EQ(*t.max(), 13u);
  EXPECT_TRUE(t.contains(13));
  EXPECT_EQ(*t.pred_lt(14), 13u);
  EXPECT_EQ(*t.succ_gt(12), 13u);
  EXPECT_FALSE(t.pred_lt(13));
  EXPECT_FALSE(t.succ_gt(13));
  t.check_invariants();
  t.erase(13);
  EXPECT_TRUE(t.empty());
  t.check_invariants();
}

TEST(Veb, PaperFigureSixContents) {
  // Fig. 6: U = 256, keys {2,4,8,10,13,15,23,28,61}.
  VebTree t(256);
  std::vector<uint64_t> keys = {2, 4, 8, 10, 13, 15, 23, 28, 61};
  for (uint64_t k : keys) t.insert(k);
  t.check_invariants();
  EXPECT_EQ(*t.min(), 2u);
  EXPECT_EQ(*t.max(), 61u);
  EXPECT_EQ(t.range(0, 255), keys);
  EXPECT_EQ(*t.pred_lt(13), 10u);
  EXPECT_EQ(*t.succ_gt(13), 15u);
  EXPECT_EQ(*t.succ_gt(28), 61u);
}

TEST(Veb, InsertIdempotentEraseAbsent) {
  VebTree t(1 << 12);
  t.insert(100);
  t.insert(100);
  EXPECT_EQ(t.size(), 1);
  t.erase(7);  // absent: no-op
  EXPECT_EQ(t.size(), 1);
  t.check_invariants();
}

TEST(Veb, UniverseBoundaries) {
  VebTree t(1 << 10);
  t.insert(0);
  t.insert((1 << 10) - 1);
  EXPECT_EQ(*t.min(), 0u);
  EXPECT_EQ(*t.max(), 1023u);
  EXPECT_EQ(*t.succ_gt(0), 1023u);
  EXPECT_EQ(*t.pred_lt(1023), 0u);
  t.check_invariants();
  t.erase(0);
  t.erase(1023);
  EXPECT_TRUE(t.empty());
}

TEST(Veb, TinyUniverses) {
  for (uint64_t u : {1ull, 2ull, 3ull, 7ull, 64ull, 65ull}) {
    VebTree t(u);
    for (uint64_t x = 0; x < u; x++) t.insert(x);
    EXPECT_EQ(t.size(), static_cast<int64_t>(u));
    t.check_invariants();
    for (uint64_t x = 0; x < u; x++) EXPECT_TRUE(t.contains(x));
    for (uint64_t x = 0; x + 1 < u; x++) EXPECT_EQ(*t.succ_gt(x), x + 1);
    for (uint64_t x = 0; x < u; x++) t.erase(x);
    EXPECT_TRUE(t.empty());
  }
}

// ------------------------------------------------------ boundary contract ---
// Updates that would store a key outside [0, U), and a universe of 0, throw
// Error{kInvalidArgument} before touching the tree; queries and removals of
// such keys stay total. Each case runs on a packed-root tree (U <= 4096)
// and on an internal-root one, since the two take different code paths.

template <typename Fn>
void expect_invalid_argument(Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "expected Error{kInvalidArgument}, call succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
  }
}

TEST(VebContract, ZeroUniverseIsRejected) {
  expect_invalid_argument([] { VebTree t(0); });
  Arena pool;
  expect_invalid_argument([&] { VebTree t(0, &pool); });
  EXPECT_EQ(pool.bytes_allocated(), 0u);
  VebTree one(1);  // the smallest valid universe
  one.insert(0);
  EXPECT_EQ(one.size(), 1);
  expect_invalid_argument([&] { one.insert(1); });
}

// Universes are capped at VebTree::kMaxUniverse (2^48). Above it the root
// cluster table would outgrow memory on the first insert, and keys past
// 2^63 used to be truncated silently. Both constructors reject cap + 1 and
// ~0; a tree at the cap itself constructs without inserting anything.
TEST(VebContract, UniverseAboveTheCapIsRejected) {
  Arena pool;
  for (uint64_t u : {VebTree::kMaxUniverse + 1, ~uint64_t{0}}) {
    expect_invalid_argument([&] { VebTree t(u); });
    expect_invalid_argument([&] { VebTree t(u, &pool); });
  }
  EXPECT_EQ(pool.bytes_allocated(), 0u);
  VebTree at_cap(VebTree::kMaxUniverse);
  EXPECT_EQ(at_cap.universe(), VebTree::kMaxUniverse);
  EXPECT_TRUE(at_cap.empty());
  EXPECT_FALSE(at_cap.contains(VebTree::kMaxUniverse - 1));
  EXPECT_FALSE(at_cap.succ_gt(0).has_value());
  VebTree shared_at_cap(VebTree::kMaxUniverse, &pool);
  EXPECT_TRUE(shared_at_cap.empty());
}

TEST(VebContract, InsertOutsideUniverseThrows) {
  for (uint64_t u : {uint64_t{1000}, uint64_t{1024}, uint64_t{1} << 20}) {
    VebTree t(u);
    expect_invalid_argument([&] { t.insert(5000000); });
    expect_invalid_argument([&] { t.insert(u); });  // first key past the end
    EXPECT_EQ(t.size(), 0);
    t.insert(u - 1);  // last key inside
    expect_invalid_argument([&] { t.insert(~uint64_t{0}); });
    EXPECT_EQ(t.size(), 1);
    EXPECT_EQ(*t.max(), u - 1);
    t.check_invariants();
  }
}

TEST(VebContract, ReplaceTopOutsideUniverseKeepsOutKey) {
  for (uint64_t u : {uint64_t{1024}, uint64_t{1} << 20}) {
    VebTree t(u);
    t.insert(7);
    expect_invalid_argument([&] { t.replace_top(7, u * 4); });
    EXPECT_TRUE(t.contains(7));  // not erased: the call had no effect
    EXPECT_EQ(t.size(), 1);
    expect_invalid_argument([&] { t.replace_top(u, u); });
    // An out_key outside the universe is simply absent: a plain insert.
    t.replace_top(u + 5, 9);
    EXPECT_TRUE(t.contains(9));
    EXPECT_EQ(t.size(), 2);
    t.check_invariants();
  }
}

TEST(VebContract, BatchInsertOutsideUniverseThrowsBeforeInserting) {
  for (uint64_t u : {uint64_t{1024}, uint64_t{1} << 20}) {
    VebTree t(u);
    expect_invalid_argument([&] { t.batch_insert({3, u + 3976}); });
    EXPECT_EQ(t.size(), 0);
    EXPECT_FALSE(t.contains(3));
    t.batch_insert({1, 2});
    expect_invalid_argument([&] { t.batch_insert({3, u}); });
    EXPECT_EQ(t.size(), 2);
    EXPECT_FALSE(t.contains(3));
    EXPECT_EQ(t.batch_insert({3, u - 1}), 2);
    EXPECT_EQ(t.check_invariants(), 4);
  }
}

TEST(VebContract, QueriesAndRemovalsStayTotal) {
  for (uint64_t u : {uint64_t{1024}, uint64_t{1} << 20}) {
    VebTree t(u);
    t.batch_insert({0, 10, u - 1});
    EXPECT_FALSE(t.contains(u));
    EXPECT_FALSE(t.contains(~uint64_t{0}));
    EXPECT_FALSE(t.succ_gt(u));
    EXPECT_FALSE(t.succ_gt(u - 1));
    EXPECT_FALSE(t.succ_geq(u));
    EXPECT_EQ(*t.pred_lt(u), u - 1);  // pred of anything above clamps
    EXPECT_EQ(*t.pred_lt(~uint64_t{0}), u - 1);
    EXPECT_EQ(*t.pred_leq(u * 2), u - 1);
    t.erase(u);  // absent: no-op
    t.erase(~uint64_t{0});
    EXPECT_EQ(t.batch_delete({u, u + 1}), 0);
    EXPECT_EQ(t.size(), 3);
    EXPECT_EQ(t.range(5, ~uint64_t{0}), (std::vector<uint64_t>{10, u - 1}));
    t.check_invariants();
  }
}

// ------------------------------------------------- randomized vs std::set ---

struct VebCase {
  uint64_t universe;
  uint64_t seed;
};

class VebRandomized : public ::testing::TestWithParam<VebCase> {};

TEST_P(VebRandomized, MixedOpsMatchStdSet) {
  auto [universe, seed] = GetParam();
  VebTree t(universe);
  std::set<uint64_t> ref;
  for (int round = 0; round < 120; round++) {
    for (int i = 0; i < 25; i++) {
      uint64_t x = uniform(seed, round * 1000 + i, universe);
      switch (hash64(seed + 1, round * 1000 + i) % 3) {
        case 0:
          t.insert(x);
          ref.insert(x);
          break;
        case 1:
          t.erase(x);
          ref.erase(x);
          break;
        default: {
          ASSERT_EQ(t.contains(x), ref.count(x) > 0);
          auto it = ref.lower_bound(x);
          uint64_t want_p =
              it == ref.begin() ? VebTree::kNone : *std::prev(it);
          auto p = t.pred_lt(x);
          ASSERT_EQ(p ? *p : VebTree::kNone, want_p);
          auto it2 = ref.upper_bound(x);
          uint64_t want_s = it2 == ref.end() ? VebTree::kNone : *it2;
          auto s = t.succ_gt(x);
          ASSERT_EQ(s ? *s : VebTree::kNone, want_s);
        }
      }
    }
    if (round % 3 == 0) {
      std::vector<uint64_t> batch;
      int bs = 1 + static_cast<int>(hash64(seed + 2, round) % 60);
      for (int i = 0; i < bs; i++) {
        batch.push_back(uniform(seed + 3, round * 100 + i, universe));
      }
      batch = sorted_unique(batch);
      if (round % 6 == 0) {
        t.batch_insert(batch);
        ref.insert(batch.begin(), batch.end());
      } else {
        t.batch_delete(batch);
        for (uint64_t x : batch) ref.erase(x);
      }
    }
    ASSERT_EQ(t.size(), static_cast<int64_t>(ref.size()));
    t.check_invariants();
    ASSERT_EQ(t.range(0, universe - 1),
              std::vector<uint64_t>(ref.begin(), ref.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VebRandomized,
    ::testing::Values(VebCase{16, 1}, VebCase{128, 2}, VebCase{1 << 10, 3},
                      VebCase{1 << 16, 4}, VebCase{100000, 5},
                      VebCase{1 << 20, 6}));

// ----------------------------------------------------------- batch shapes ---

class VebBatchShapes : public ::testing::TestWithParam<int> {};

TEST_P(VebBatchShapes, InsertDeleteReinsert) {
  int scenario = GetParam();
  for (uint64_t universe : {64ull, 1000ull, 1ull << 14, 1000000ull}) {
    VebTree t(universe);
    int64_t count = std::min<uint64_t>(universe, 4096);
    std::vector<uint64_t> all(count);
    for (int64_t i = 0; i < count; i++) {
      all[i] = static_cast<uint64_t>(i) * (universe / count);
    }
    t.batch_insert(all);
    t.check_invariants();
    std::vector<uint64_t> del;
    for (int64_t i = 0; i < count; i++) {
      bool d = scenario == 0   ? true
               : scenario == 1 ? (i % 2 == 0)
               : scenario == 2 ? (i < count / 2)
               : scenario == 3 ? (i >= count / 2)
                               : (i % 7 != 3);
      if (d) del.push_back(all[i]);
    }
    t.batch_delete(del);
    t.check_invariants();
    std::vector<uint64_t> want;
    std::set<uint64_t> ds(del.begin(), del.end());
    for (uint64_t x : all) {
      if (!ds.count(x)) want.push_back(x);
    }
    ASSERT_EQ(t.range(0, universe - 1), want);
    t.batch_insert(del);
    t.check_invariants();
    ASSERT_EQ(t.range(0, universe - 1), all);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEvensPrefixSuffixMost, VebBatchShapes,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(VebBatch, InsertIntoEmptySmallBatches) {
  for (int bs = 1; bs <= 5; bs++) {
    VebTree t(1 << 16);
    std::vector<uint64_t> b;
    for (int i = 0; i < bs; i++) b.push_back(static_cast<uint64_t>(i) * 997);
    t.batch_insert(b);
    EXPECT_EQ(t.range(0, (1 << 16) - 1), b) << bs;
    t.check_invariants();
  }
}

TEST(VebBatch, InsertFiltersExistingKeys) {
  VebTree t(1024);
  t.insert(5);
  t.insert(10);
  EXPECT_EQ(t.batch_insert({3, 5, 7, 10, 12}), 3);
  EXPECT_EQ(t.size(), 5);
  t.check_invariants();
}

TEST(VebBatch, DeleteFiltersMissingKeys) {
  VebTree t(1024);
  t.batch_insert({3, 5, 7});
  EXPECT_EQ(t.batch_delete({1, 5, 9}), 1);
  EXPECT_EQ(t.range(0, 1023), (std::vector<uint64_t>{3, 7}));
  t.check_invariants();
}

TEST(VebBatch, DeleteBatchBiggerThanTree) {
  VebTree t(1 << 12);
  t.batch_insert({10, 20, 30});
  std::vector<uint64_t> del;
  for (uint64_t x = 0; x < 100; x++) del.push_back(x);
  t.batch_delete(del);  // removes 10,20,30 and ignores the rest
  EXPECT_TRUE(t.empty());
  t.check_invariants();
}

// ------------------------------------------------------------------ range ---

TEST(VebRange, SubrangesMatchReference) {
  VebTree t(10000);
  std::set<uint64_t> ref;
  for (int i = 0; i < 500; i++) {
    uint64_t x = uniform(77, i, 10000);
    t.insert(x);
    ref.insert(x);
  }
  for (int q = 0; q < 200; q++) {
    uint64_t lo = uniform(78, q, 10000);
    uint64_t hi = uniform(79, q, 10000);
    if (lo > hi) std::swap(lo, hi);
    std::vector<uint64_t> want;
    for (auto it = ref.lower_bound(lo); it != ref.end() && *it <= hi; ++it) {
      want.push_back(*it);
    }
    ASSERT_EQ(t.range(lo, hi), want) << lo << " " << hi;
  }
}

TEST(VebRange, EmptyAndPointRanges) {
  VebTree t(1 << 10);
  t.batch_insert({100, 200, 300});
  EXPECT_TRUE(t.range(101, 199).empty());
  EXPECT_EQ(t.range(200, 200), (std::vector<uint64_t>{200}));
  EXPECT_EQ(t.range(0, 1023), (std::vector<uint64_t>{100, 200, 300}));
  EXPECT_TRUE(t.range(301, 1023).empty());
}

TEST(VebBatch, LargeDensePrefixDelete) {
  // Regression: the survivor-mapping scans must carry the "last defined"
  // value across 4096-element scan blocks (kNone is a valid value, so the
  // scan identity must be the transparent kCopy marker, not kNone).
  const uint64_t universe = uint64_t{1} << 20;
  VebTree t(universe);
  std::vector<uint64_t> keys;
  for (uint64_t x = 0; x < universe; x++) {
    if (hash64(101, x) % 4 != 0) keys.push_back(x);  // ~75% dense
  }
  t.batch_insert(keys);
  size_t p = keys.size() / 8;
  std::vector<uint64_t> prefix(keys.begin(), keys.begin() + p);
  t.batch_delete(prefix);
  t.check_invariants();
  ASSERT_TRUE(t.min().has_value());
  EXPECT_EQ(*t.min(), keys[p]);
  EXPECT_EQ(t.size(), static_cast<int64_t>(keys.size() - p));
  std::vector<uint64_t> want(keys.begin() + p, keys.end());
  EXPECT_EQ(t.range(0, universe - 1), want);
}

TEST(VebBatch, DeleteAllButMaximum) {
  // Regression companion: all survivor successors collapse to the root max.
  const uint64_t universe = uint64_t{1} << 14;
  VebTree t(universe);
  std::vector<uint64_t> all(universe);
  for (uint64_t x = 0; x < universe; x++) all[x] = x;
  t.batch_insert(all);
  std::vector<uint64_t> del(all.begin(), all.end() - 1);
  t.batch_delete(del);
  t.check_invariants();
  EXPECT_EQ(t.size(), 1);
  EXPECT_EQ(*t.min(), universe - 1);
  EXPECT_EQ(*t.max(), universe - 1);
}

// --------------------------------------------------------------- Mono-vEB ---

// Brute-force staircase maintenance for cross-checking.
struct BruteStaircase {
  std::vector<std::pair<uint64_t, int64_t>> pts;  // sorted by key
  void insert_all(const std::vector<MonoVeb::Point>& batch) {
    for (const auto& p : batch) pts.push_back({p.key, p.score});
    std::sort(pts.begin(), pts.end());
    // keep only the staircase: strictly increasing score along keys
    std::vector<std::pair<uint64_t, int64_t>> out;
    int64_t best = INT64_MIN;
    for (auto& [k, s] : pts) {
      if (s > best) {
        out.push_back({k, s});
        best = s;
      }
    }
    pts = std::move(out);
  }
  int64_t max_below(uint64_t q) const {
    int64_t best = INT64_MIN;
    for (auto& [k, s] : pts) {
      if (k < q) best = std::max(best, s);
    }
    return best;
  }
};

TEST(MonoVeb, StaircaseMatchesBruteForce) {
  for (uint64_t seed = 0; seed < 6; seed++) {
    uint64_t universe = 512 + seed * 700;
    MonoVeb mv(universe);
    BruteStaircase ref;
    for (int round = 0; round < 30; round++) {
      std::vector<uint64_t> keys;
      int bs = 1 + static_cast<int>(hash64(seed, round) % 20);
      for (int i = 0; i < bs; i++) {
        keys.push_back(uniform(seed + 1, round * 100 + i, universe));
      }
      keys = sorted_unique(keys);
      // MonoVeb requires batch keys disjoint from current keys.
      std::vector<MonoVeb::Point> batch;
      for (uint64_t k : keys) {
        if (!mv.keys().contains(k)) {
          batch.push_back(
              {k, static_cast<int64_t>(hash64(seed + 2, round * 100 + k) %
                                       1000)});
        }
      }
      mv.insert_staircase(batch);
      mv.check_staircase();
      ref.insert_all(batch);
      for (int q = 0; q < 50; q++) {
        uint64_t qk = uniform(seed + 3, round * 50 + q, universe + 1);
        auto got = mv.max_below(qk);
        int64_t want = ref.max_below(qk);
        if (want == INT64_MIN) {
          ASSERT_FALSE(got.found) << "q=" << qk;
        } else {
          ASSERT_TRUE(got.found) << "q=" << qk;
          ASSERT_EQ(got.score, want) << "q=" << qk;
        }
      }
    }
  }
}

TEST(MonoVeb, CoveredByReportsDominatedRun) {
  MonoVeb mv(100);
  mv.insert_staircase({{10, 1}, {20, 2}, {30, 3}, {40, 4}});
  // A point before key 10 with score 3 covers keys 10,20,30 but not 40.
  auto covered = mv.covered_by({{5, 3}});
  EXPECT_EQ(covered, (std::vector<uint64_t>{10, 20, 30}));
}

TEST(MonoVeb, CoveredByRespectsNextBatchBoundary) {
  MonoVeb mv(100);
  mv.insert_staircase({{10, 1}, {20, 2}, {30, 3}});
  // First batch point covers only up to the second batch point's key.
  auto covered = mv.covered_by({{5, 5}, {25, 9}});
  EXPECT_EQ(covered, (std::vector<uint64_t>{10, 20, 30}));
}

TEST(MonoVeb, InsertCoveredBatchIsDropped) {
  MonoVeb mv(100);
  mv.insert_staircase({{10, 100}});
  mv.insert_staircase({{50, 40}});  // covered by (10,100): dropped
  EXPECT_EQ(mv.size(), 1);
  EXPECT_TRUE(mv.keys().contains(10));
  EXPECT_FALSE(mv.keys().contains(50));
}

}  // namespace
}  // namespace parlis
