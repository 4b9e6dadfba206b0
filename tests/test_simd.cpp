// The SIMD comparison-kernel layer (util/simd.hpp), two angles:
//
//  * SimdKernels — every AVX-512 kernel against its scalar twin on the
//    shapes vector code gets wrong: tail/remainder lanes, all-equal inputs,
//    inf sentinels at block edges, INT64_MIN/MAX and mask-word straddles.
//    On scalar builds the dispatch resolves to the twin and these become
//    (cheap) self-consistency checks. SimdWordKernels pins the vEB word
//    blocks' widened succ/pred probes against their narrow references,
//    including the x == universe boundary.
//  * SimdDifferential — whole solves (LIS ranks/frontiers + visit counts,
//    rank space under both ties policies, WLIS across all backends) with
//    the runtime toggle flipped, diffed bit-for-bit in one process. The
//    `Differential` infix enrolls these in the pinned-thread ctest legs
//    (PARLIS_NUM_THREADS = 1, 4, hw); every scalar CI build runs the same
//    suites with only the twins compiled.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "parlis/lis/lis.hpp"
#include "parlis/lis/tournament_tree.hpp"
#include "parlis/parallel/random.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/util/simd.hpp"
#include "parlis/veb/veb_words.hpp"
#include "parlis/wlis/wlis.hpp"

namespace parlis {
namespace {

constexpr int64_t kInf = std::numeric_limits<int64_t>::max();

// Restores the runtime toggle no matter how the test exits.
struct ScopedSimd {
  bool prev;
  explicit ScopedSimd(bool on) : prev(simd::set_enabled(on)) {}
  ~ScopedSimd() { simd::set_enabled(prev); }
};

// Runs `f()` under both toggle states and checks the results agree with
// each other and with `scalar_ref`.
template <typename F, typename R>
void expect_toggle_agreement(const F& f, const R& scalar_ref) {
  R on, off;
  {
    ScopedSimd guard(true);
    on = f();
  }
  {
    ScopedSimd guard(false);
    off = f();
  }
  EXPECT_EQ(on, scalar_ref);
  EXPECT_EQ(off, scalar_ref);
}

// --------------------------------------------------------- lane kernels ---

TEST(SimdKernels, CandMask8MatchesScalarAcrossBoundsAndSentinels) {
  for (uint64_t seed = 0; seed < 100; seed++) {
    int64_t p[8];
    for (int j = 0; j < 8; j++) {
      p[j] = static_cast<int64_t>(uniform(seed, j, 16));
    }
    if (seed % 2 == 0) p[7] = kInf;  // inf sentinel at the block edge
    if (seed % 4 == 0) p[0] = kInf;
    for (int64_t bound : {-1, 0, 5, 15, 16}) {
      expect_toggle_agreement(
          [&] { return simd::cand_mask8_i64(p, bound, kInf); },
          simd::cand_mask8_i64_scalar(p, bound, kInf));
    }
    // bound == inf: entries equal to inf must still be excluded.
    expect_toggle_agreement(
        [&] { return simd::cand_mask8_i64(p, kInf, kInf); },
        simd::cand_mask8_i64_scalar(p, kInf, kInf));
  }
}

TEST(SimdKernels, Sweep8ExtractMatchesScalarOnRandomAndEdges) {
  for (uint64_t seed = 0; seed < 300; seed++) {
    int64_t base[8];
    for (int j = 0; j < 8; j++) {
      base[j] = static_cast<int64_t>(uniform(seed, j, 12)) - 4;
    }
    // Edge injections: inf sentinels at block edges and rotating interior
    // lanes (partial blocks), extremes, all-equal.
    if (seed % 2 == 0) base[7] = kInf;
    if (seed % 3 == 0) base[0] = kInf;
    if (seed % 5 == 0) base[seed % 8] = kInf;
    if (seed % 7 == 0) base[(seed + 1) % 8] = std::numeric_limits<int64_t>::min();
    if (seed % 11 == 0) {
      for (int j = 0; j < 8; j++) base[j] = 3;  // all equal: cascade extract
    }
    for (int64_t bound : {std::numeric_limits<int64_t>::min(), int64_t{-4},
                          int64_t{0}, int64_t{3}, int64_t{7}, kInf}) {
      int64_t ref_p[8], ref_min = 0;
      std::copy(base, base + 8, ref_p);
      const uint32_t ref_ext =
          simd::sweep8_extract_i64_scalar(ref_p, bound, kInf, &ref_min);
      auto run = [&] {
        int64_t p[8], nm = 0;
        std::copy(base, base + 8, p);
        const uint32_t ext = simd::sweep8_extract_i64(p, bound, kInf, &nm);
        // Fold mask, mutated lanes, and refreshed min into one comparand.
        std::vector<int64_t> img(p, p + 8);
        img.push_back(static_cast<int64_t>(ext));
        img.push_back(nm);
        return img;
      };
      std::vector<int64_t> ref(ref_p, ref_p + 8);
      ref.push_back(static_cast<int64_t>(ref_ext));
      ref.push_back(ref_min);
      expect_toggle_agreement(run, ref);
      // The counting twin sees the same lanes as the extracting sweep.
      expect_toggle_agreement(
          [&] { return simd::sweep8_count_i64(base, bound, kInf); },
          static_cast<int64_t>(std::popcount(ref_ext)));
    }
  }
}

TEST(SimdKernels, Sweep8ExtractChainsThroughRunningMin) {
  // The running bound is the exclusive prefix-min: a descending block
  // extracts every lane, an ascending block only the first <= bound.
  int64_t desc[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  int64_t nm = 0;
  EXPECT_EQ(simd::sweep8_extract_i64(desc, 100, kInf, &nm), 0xFFu);
  EXPECT_EQ(nm, kInf);
  int64_t asc[8] = {2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(simd::sweep8_extract_i64(asc, 100, kInf, &nm), 0x01u);
  EXPECT_EQ(nm, 3);
  // Lane equal to the running min is extracted (<=), a larger one is not.
  int64_t mix[8] = {5, 5, 6, 4, 4, 9, 1, 2};
  EXPECT_EQ(simd::sweep8_extract_i64(mix, 5, kInf, &nm),
            uint32_t{0b01011011});
  EXPECT_EQ(nm, 2);  // survivors: 6, 9, 2
}

TEST(SimdKernels, RunMasksMatchScalarOnTailsAndStraddles) {
  // Sorted key images with heavy duplicates; every length near the lane
  // and mask-word boundaries, lo offsets that make vector chunks straddle
  // mask words.
  for (int64_t n : {1, 2, 3, 4, 5, 63, 64, 65, 66, 127, 128, 130, 200}) {
    std::vector<int64_t> s(static_cast<size_t>(n) + 7);
    for (int64_t i = 0; i < static_cast<int64_t>(s.size()); i++) {
      s[i] = static_cast<int64_t>(
          uniform(static_cast<uint64_t>(n), i, 4));  // runs of ~4 equal
    }
    std::sort(s.begin(), s.end());
    for (int64_t lo : {int64_t{0}, int64_t{1}, int64_t{7}}) {
      const int64_t hi = lo + n;
      if (hi > static_cast<int64_t>(s.size())) continue;
      const bool force_first = lo == 0;
      const size_t nw = static_cast<size_t>((n + 63) / 64);
      std::vector<uint64_t> ref(nw, ~uint64_t{0});
      simd::run_masks_i64_scalar(s.data(), lo, hi, force_first, ref.data());
      auto run = [&] {
        std::vector<uint64_t> out(nw, ~uint64_t{0});  // poison: must be zeroed
        simd::run_masks_i64(s.data(), lo, hi, force_first, out.data());
        return out;
      };
      expect_toggle_agreement(run, ref);
    }
  }
  // All-equal: only the forced first bit survives.
  std::vector<int64_t> eq(100, 9);
  std::vector<uint64_t> out(2);
  simd::run_masks_i64(eq.data(), 0, 100, true, out.data());
  EXPECT_EQ(out[0], uint64_t{1});
  EXPECT_EQ(out[1], uint64_t{0});
}

TEST(SimdKernels, MaskedMaxMatchesScalarOnShortScans) {
  for (uint64_t seed = 0; seed < 60; seed++) {
    const int64_t n = static_cast<int64_t>(seed % 21);  // 0..20: tail-heavy
    std::vector<int32_t> y(std::max<int64_t>(n, 1));
    std::vector<int64_t> sc(std::max<int64_t>(n, 1));
    for (int64_t i = 0; i < n; i++) {
      y[i] = static_cast<int32_t>(uniform(seed, i, 40));
      sc[i] = static_cast<int64_t>(uniform(seed + 99, i, 1000));
      if (seed % 4 == 0) sc[i] -= 500;  // kernel contract allows negatives
    }
    for (int32_t qy : {-5, 0, 1, 20, 40, 100}) {
      for (int64_t best : {int64_t{0}, int64_t{-3}, int64_t{999999}}) {
        expect_toggle_agreement(
            [&] {
              return simd::masked_max_i64(y.data(), sc.data(), 0, n, qy, best);
            },
            simd::masked_max_i64_scalar(y.data(), sc.data(), 0, n, qy, best));
      }
    }
  }
}

// --------------------------------------------------------- word kernels ---

TEST(SimdWordKernels, WidenedBlockProbesMatchNarrowReference) {
  using namespace veb_words;
  for (uint64_t seed = 0; seed < 12; seed++) {
    for (uint64_t nwords : {uint64_t{1}, uint64_t{4}, uint64_t{64}}) {
      std::vector<uint64_t> words(nwords, 0);
      uint64_t summary = 0;
      const uint64_t universe = nwords * 64;
      // Sparse to dense as seed grows; seed 0 leaves the block empty.
      for (uint64_t k = 0; k < seed * seed * nwords; k++) {
        block_insert(summary, words.data(), hash64(seed * 7919 + k) % universe);
      }
      for (uint64_t x = 0; x < universe; x++) {
        ASSERT_EQ(block_succ_gt(summary, words.data(), x),
                  block_succ_gt_ref(summary, words.data(), x))
            << "succ x=" << x << " seed=" << seed;
      }
      for (uint64_t x = 0; x <= universe; x++) {  // pred accepts x == universe
        ASSERT_EQ(block_pred_lt(summary, words.data(), nwords, x),
                  block_pred_lt_ref(summary, words.data(), nwords, x))
            << "pred x=" << x << " seed=" << seed;
      }
      expect_toggle_agreement(
          [&] { return block_summary_of(words.data(), nwords); }, summary);
    }
  }
}

TEST(SimdWordKernels, WidenedProbesOnFullAndBoundaryBlocks) {
  using namespace veb_words;
  WordBlock4096 full;
  for (uint64_t x = 0; x < 4096; x++) full.insert(x);
  EXPECT_EQ(full.succ_gt(0), uint64_t{1});
  EXPECT_EQ(full.succ_gt(4094), uint64_t{4095});
  EXPECT_EQ(full.succ_gt(4095), kWordNone);
  EXPECT_EQ(full.pred_lt(4096), uint64_t{4095});
  EXPECT_EQ(full.pred_lt(1), uint64_t{0});
  EXPECT_EQ(full.pred_lt(0), kWordNone);
  WordBlock4096 corners;
  corners.insert(0);
  corners.insert(4095);
  EXPECT_EQ(corners.succ_gt(0), uint64_t{4095});
  EXPECT_EQ(corners.pred_lt(4095), uint64_t{0});
  EXPECT_EQ(corners.pred_lt(4096), uint64_t{4095});
}

// ----------------------------------------------- whole-solve differentials ---

struct SimdCase {
  const char* name;
  int64_t n;
  int64_t value_range;  // 0: long equal runs
  uint64_t seed;
};

std::vector<int64_t> build_input(const SimdCase& c) {
  std::vector<int64_t> a(c.n);
  for (int64_t i = 0; i < c.n; i++) {
    a[i] = c.value_range > 0
               ? static_cast<int64_t>(
                     uniform(c.seed, i, static_cast<uint64_t>(c.value_range)))
               : (i / 29) * 3;
  }
  return a;
}

const SimdCase kSimdCases[] = {
    {"tiny", 5, 3, 11},
    {"one_block", 512, 50, 12},        // exactly one tournament block
    {"block_tail", 700, 1000000, 13},  // partial second block (inf tail)
    {"dup_heavy", 3000, 12, 14},
    {"equal_runs", 2500, 0, 15},
    {"larger", 20000, 500, 16},
};

class SimdDifferential : public ::testing::TestWithParam<SimdCase> {};

TEST_P(SimdDifferential, TournamentExtractionAndVisitsMatchScalar) {
  auto a = build_input(GetParam());
  auto run = [&] {
    TournamentStorage<int64_t> ws;
    TournamentTree<int64_t> tree(std::span<const int64_t>(a), kInf, ws);
    std::vector<int32_t> rank(a.size(), 0);
    int32_t r = 0;
    while (!tree.empty()) {
      ++r;
      tree.extract_frontier([&](int64_t i) { rank[i] = r; });
    }
    return std::pair<std::vector<int32_t>, uint64_t>(std::move(rank),
                                                     tree.nodes_visited());
  };
  std::pair<std::vector<int32_t>, uint64_t> on, off;
  {
    ScopedSimd guard(true);
    on = run();
  }
  {
    ScopedSimd guard(false);
    off = run();
  }
  ASSERT_EQ(on.first, off.first);
  // The vector sweeps charge all 8 considered entries per level, exactly
  // like the scalar loops — the Thm. 3.2 work-bound accounting must not
  // drift between backends.
  ASSERT_EQ(on.second, off.second);
}

TEST_P(SimdDifferential, FrontierSizeMatchesCollectedFrontierUnderToggle) {
  auto a = build_input(GetParam());
  auto run = [&] {
    TournamentStorage<int64_t> ws;
    TournamentTree<int64_t> tree(std::span<const int64_t>(a), kInf, ws);
    std::vector<int64_t> sizes;
    while (!tree.empty()) {
      const int64_t pre_visits = static_cast<int64_t>(tree.nodes_visited());
      const int64_t sz = tree.frontier_size();
      // The standalone count must not mutate the tree: asking twice gives
      // the same answer, and the collected frontier has exactly that size.
      EXPECT_EQ(tree.frontier_size(), sz);
      std::vector<int64_t> f = tree.extract_frontier_collect();
      EXPECT_EQ(static_cast<int64_t>(f.size()), sz);
      sizes.push_back(sz);
      // Counting passes charge visits like extraction passes (Thm. 3.2).
      EXPECT_GT(static_cast<int64_t>(tree.nodes_visited()), pre_visits);
    }
    return sizes;
  };
  std::vector<int64_t> on, off;
  {
    ScopedSimd guard(true);
    on = run();
  }
  {
    ScopedSimd guard(false);
    off = run();
  }
  ASSERT_EQ(on, off);
}

TEST_P(SimdDifferential, LisRanksAndFrontiersMatchScalar) {
  auto a = build_input(GetParam());
  auto run = [&] {
    LisFrontiers fr = lis_frontiers(a);
    return std::tuple<std::vector<int32_t>, int32_t, std::vector<int64_t>,
                      std::vector<int64_t>>(fr.rank, fr.k, fr.frontier_flat,
                                            fr.frontier_offset);
  };
  decltype(run()) on, off;
  {
    ScopedSimd guard(true);
    on = run();
  }
  {
    ScopedSimd guard(false);
    off = run();
  }
  ASSERT_EQ(on, off);
}

TEST_P(SimdDifferential, RankSpaceMatchesScalarUnderBothTiesPolicies) {
  auto a = build_input(GetParam());
  for (TiesPolicy ties : {TiesPolicy::kStrict, TiesPolicy::kNonDecreasing}) {
    auto run = [&] {
      RankSpace rs;
      RankSpaceScratch scratch;
      rank_space_into<int64_t>(std::span<const int64_t>(a), ties, rs, scratch);
      return std::tuple<std::vector<int64_t>, std::vector<int64_t>,
                        std::vector<int64_t>, std::vector<int64_t>, int64_t>(
          rs.order, rs.pos, rs.rank, rs.qpos, rs.n_distinct);
    };
    decltype(run()) on, off;
    {
      ScopedSimd guard(true);
      on = run();
    }
    {
      ScopedSimd guard(false);
      off = run();
    }
    ASSERT_EQ(on, off);
  }
}

TEST_P(SimdDifferential, WlisMatchesScalarAcrossBackends) {
  auto a = build_input(GetParam());
  std::vector<int64_t> w(a.size());
  for (size_t i = 0; i < w.size(); i++) {
    w[i] = 1 + static_cast<int64_t>(uniform(GetParam().seed + 50, i, 300));
    if (i % 5 == 0) w[i] = -w[i];  // negative weights reach the leaf scans
  }
  for (WlisStructure st : {WlisStructure::kRangeTree, WlisStructure::kRangeVeb,
                           WlisStructure::kRangeVebTabulated}) {
    auto run = [&] {
      WlisResult r = wlis(a, w, st);
      return std::pair<std::vector<int64_t>, int64_t>(std::move(r.dp), r.best);
    };
    std::pair<std::vector<int64_t>, int64_t> on, off;
    {
      ScopedSimd guard(true);
      on = run();
    }
    {
      ScopedSimd guard(false);
      off = run();
    }
    ASSERT_EQ(on, off);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimdDifferential,
                         ::testing::ValuesIn(kSimdCases),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace parlis
