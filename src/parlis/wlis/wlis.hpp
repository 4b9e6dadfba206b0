// Parallel weighted LIS (Alg. 2, Thm. 1.2 / Thm. 4.1).
//
// Computes dp[i] = w_i + max(0, max_{j<i, A_j<A_i} dp[j]) for every object:
// Alg. 1 first assigns ranks, then frontiers are processed in rank order;
// within a frontier all dp values are independent and computed in parallel
// via dominant-max queries on a RangeStruct, which is then batch-updated.
//
// Two RangeStructs are provided, matching the paper:
//  * kRangeTree  — Sec. 4.1, O(n log^2 n) work (the practical choice),
//  * kRangeVeb   — Sec. 4.2, Mono-vEB inner trees (the theoretical one).
//
// Weight contract:
//  * Weights are any int64. Negative weights are legal: dp[i] always
//    counts object i itself, so it can be negative, while `best` is the
//    maximum over dp *and* the empty subsequence, so it is never below 0
//    ({1, 2, 3} with weights {-3, -1, -2} gives dp = {-3, -1, -2} and
//    best = 0).
//  * A dp value must fit in int64. A chain whose weight sum leaves the
//    int64 range throws Error{kOverflow} (util/error.hpp) from the round
//    that computes it, on every structure and on the SWGS and Seq-AVL
//    paths; nothing wraps. The throw unwinds through the workspace's
//    cache chokepoint like any other failure.
//
// Entry points: `wlis` is the one-shot form (fresh workspace per call);
// `wlis_into` injects a caller-owned WlisWorkspace and result buffers so a
// warm same-size solve allocates nothing (the path parlis::Solver drives).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parlis/util/error.hpp"
#include "parlis/util/resident.hpp"

namespace parlis {

/// Dominant-max structure for Alg. 2:
///  kRangeTree          Sec. 4.1 (prefix-max Fenwick inner trees)
///  kRangeVeb           Sec. 4.2 (Mono-vEB inner trees; query labels found
///                      by binary search)
///  kRangeVebTabulated  Sec. 4.2 + Appendix E per-point label tables
///                      (O(log n log log n) queries, extra O(n log n) space)
enum class WlisStructure { kRangeTree, kRangeVeb, kRangeVebTabulated };

struct WlisResult {
  std::vector<int64_t> dp;  // dp[i] per Eq. (2)
  int64_t best = 0;         // max weighted increasing subsequence sum
  int32_t k = 0;            // LIS length (number of rounds)

  /// Measured heap bytes held — the serving layer's eviction accounting.
  size_t resident_bytes() const { return vec_bytes(dp); }
};

struct WlisWorkspace;  // wlis_workspace.hpp

namespace internal {

/// One step of Eq. (2), dp = w + max(0, q), with the addition checked:
/// a sum outside int64 throws Error{kOverflow} instead of wrapping. Every
/// dp site (the parallel rounds, SWGS, Seq-AVL) goes through this step.
inline int64_t wlis_dp_step(int64_t w, int64_t q) {
  int64_t dp;
  if (__builtin_add_overflow(w, q > 0 ? q : 0, &dp)) [[unlikely]] {
    throw Error(ErrorCode::kOverflow,
                "weighted LIS: a chain's weight sum exceeds the int64 range");
  }
  return dp;
}

}  // namespace internal

/// Weighted LIS of `a` with weights `w` (|w| == |a|).
WlisResult wlis(std::span<const int64_t> a, std::span<const int64_t> w,
                WlisStructure structure = WlisStructure::kRangeTree);

/// Workspace-injected form: scratch comes from `ws`, the result is written
/// into `out` (buffers reused). Zero steady-state allocations on repeated
/// same-size solves with the kRangeTree backend.
void wlis_into(std::span<const int64_t> a, std::span<const int64_t> w,
               WlisWorkspace& ws, WlisResult& out,
               WlisStructure structure = WlisStructure::kRangeTree);

/// Like wlis_into, but the caller supplies content_hash64(a) — for callers
/// that maintain the hash incrementally (LisSession keeps its window's hash
/// rolling at O(1) per append), so the warm-path guard needs no O(n) pass
/// of its own. The hash must describe `a` exactly (debug-asserted).
void wlis_into(std::span<const int64_t> a, std::span<const int64_t> w,
               uint64_t content_hash, WlisWorkspace& ws, WlisResult& out,
               WlisStructure structure = WlisStructure::kRangeTree);

/// Rank-space entry point (what the Solver's generic-key overloads drive):
/// the caller ran rank_space_into over the original keys into
/// ws.rank_space and passes ws.rank_space.rank itself here (asserted —
/// a rank span from any other RankSpace would pair the rounds with stale
/// pos/qpos). Skips re-deriving the value order from the rank array;
/// otherwise identical to wlis_into (same cache, same zero-allocation
/// steady state).
void wlis_compressed_into(std::span<const int64_t> ranks,
                          std::span<const int64_t> w, WlisWorkspace& ws,
                          WlisResult& out,
                          WlisStructure structure = WlisStructure::kRangeTree);

/// Recovers the indices of one maximum-weight increasing subsequence from
/// the dp table (ascending indices, strictly increasing values, weight sum
/// == max dp). A single backward scan: from the argmax, repeatedly find the
/// rightmost j < i with a[j] < a[i] and dp[j] = dp[i] - w[i]; O(n) total.
std::vector<int64_t> wlis_sequence(std::span<const int64_t> a,
                                   std::span<const int64_t> w,
                                   const WlisResult& result);

}  // namespace parlis
