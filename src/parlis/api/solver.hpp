// parlis::Solver — the session-style public API.
//
// The free functions (lis_ranks, wlis, swgs_*) are one-shot: every call
// rebuilds the tournament tree, reallocates frontier buffers and result
// vectors, and re-carves the range-structure arenas. A Solver instead owns
// all of that scratch — tournament storage, flat frontier spans, rank-space
// arrays, the range tree's arena, per-worker slots for batched serving —
// and writes results into caller-reusable output structs, so in the
// amortized-serving steady state (many queries through one session)
// repeated same-size solves allocate nothing.
//
// One pipeline. Every solve_* overload (int64 or typed) and every query of
// solve_many runs the same two stages:
//  * The entry stage (Entry): installs options().cancel / deadline_ms for
//    the call, fails fast on a guard that has already tripped, and runs
//    inputs of at most options().sequential_cutoff elements
//    thread-sequentially. solve_many installs one scope for the whole
//    batch instead and solves its packed queries sequentially on claimed
//    per-runner contexts.
//  * One core per query shape (LIS ranks/frontiers, WLIS, SWGS, SWGS-WLIS),
//    which runs, in order:
//     1. Admission against options().memory_budget_bytes, before anything
//        is allocated: the full parallel build, the sequential fallback
//        (patience sorting / Seq-AVL), or Error{kBudgetExceeded}. The rank
//        space's bytes are counted exactly when the path compresses.
//     2. The key image: the raw values for int64 keys under std::less and
//        TiesPolicy::kStrict; otherwise the dense rank image of the keys
//        under `less` and options().ties (util/rank_space.hpp), so no
//        backend is instantiated per key type. Floating-point keys under
//        std::less / std::greater are first checked for NaN, which breaks
//        the strict weak ordering: Error{kInvalidArgument}, before any
//        workspace is touched.
//     3. The full path or the fallback.
//     4. For the weighted shapes, the cache chokepoint: any throw marks the
//        WLIS workspace's value cache cold before it propagates.
//  The int64 overloads are one-line forwards into the same cores.
//
// Thread-safety: one Solver per thread. The solve_* methods parallelize
// *internally* (they drive the shared worker pool), but two threads must
// not call into the same Solver concurrently. solve_many is the batched
// entry point: it fans independent queries out across the pool itself —
// small queries are packed one-per-task and solved sequentially in place
// (per-worker workspaces, no nested fork-join), large queries run with
// intra-query parallelism — which is the serving shape for high query
// traffic.
//
// Buffer-reuse semantics: output structs (LisResult, WlisResult, ...) are
// plain vectors-of-results; pass the same instance back in and its capacity
// is reused. Results are valid until the output struct is reused; the
// Solver keeps no pointers into them.
//
// Failure semantics: invalid arguments (|w| != |a|, undersized output
// spans, NaN keys) throw parlis::Error{kInvalidArgument} in every build
// mode — never UB; validate_query is the Query contract, which
// serve::Engine::solve_warm also runs on its caller's thread.
// Options.cancel / Options.deadline_ms are polled at frontier-round
// boundaries and unwind as Error{kCancelled} / Error{kDeadlineExceeded}.
// A budget rejection leaves resident_bytes() unchanged. Any failure unwinds
// through the cache chokepoint, so a post-failure solve on the same Solver
// is bit-identical to a cold one.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "parlis/api/options.hpp"
#include "parlis/lis/lis.hpp"
#include "parlis/lis/tournament_tree.hpp"
#include "parlis/swgs/swgs.hpp"
#include "parlis/util/error.hpp"
#include "parlis/util/exec_context.hpp"
#include "parlis/util/rank_space.hpp"
#include "parlis/wlis/wlis.hpp"
#include "parlis/wlis/wlis_workspace.hpp"

namespace parlis {

/// One independent query for Solver::solve_many. `w` empty means unweighted
/// LIS; otherwise |w| == |a| and the query is weighted LIS. The optional
/// output spans receive per-element results when non-empty (sized >= |a|);
/// summary results always land in the QueryResult.
struct Query {
  std::span<const int64_t> a;
  std::span<const int64_t> w{};
  std::span<int32_t> rank_out{};  // unweighted: rank[i] = LIS ending at i
  std::span<int64_t> dp_out{};    // weighted: dp[i] per Eq. (2)
};

struct QueryResult {
  int32_t k = 0;     // LIS length (rounds)
  int64_t best = 0;  // weighted: max dp; unweighted: k
};

/// The Query contract: throws Error{kInvalidArgument} when a weighted query
/// has |w| != |a| or a non-empty rank_out / dp_out is shorter than |a|.
/// solve_many runs it over the whole batch before any query does work.
void validate_query(const Query& q);

class LisSession;  // stream/lis_session.hpp

class Solver {
 public:
  explicit Solver(const Options& opts = {});
  ~Solver();
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  const Options& options() const { return opts_; }

  /// Re-arm cancellation between solves without rebuilding the solver:
  /// workspaces are keyed to the structural options, so swapping only the
  /// token / deadline keeps them warm (the natural shape for a per-request
  /// token over a long-lived solver). A default-constructed token disables
  /// cancellation; deadline 0 disables the deadline. Not safe concurrently
  /// with a running solve or a bound session's append.
  void set_cancel(CancelToken token) { opts_.cancel = std::move(token); }
  void set_deadline_ms(int64_t deadline_ms) { opts_.deadline_ms = deadline_ms; }

  /// Re-arm the memory budget between solves (same contract as set_cancel:
  /// workspaces stay warm, not safe concurrently with a running solve).
  /// The serving layer points this at its remaining budget headroom before
  /// each tenant operation, so admission — degrade to the sequential
  /// fallback or throw Error{kBudgetExceeded} before allocating — governs
  /// tenant growth too. 0 means unlimited.
  void set_memory_budget_bytes(uint64_t bytes) {
    opts_.memory_budget_bytes = bytes;
  }

  /// Measured heap bytes this solver currently holds across every
  /// workspace it owns (the caller-thread context, the solve_many
  /// per-runner slots, and the batch scratch): vector capacities plus the
  /// range structures' reserved arena chunks. The serving layer's
  /// per-tenant eviction accounting; never an estimate.
  size_t resident_bytes() const;

  /// Unweighted LIS ranks (Alg. 1) of `a` into `out`, under options().ties.
  void solve_lis(std::span<const int64_t> a, LisResult& out);

  /// Typed overload: any `Key` under `less` (a strict weak ordering) —
  /// doubles, pairs, tuples, custom comparators — solved on its rank image
  /// under options().ties, with zero steady-state allocations when warm.
  template <typename Key, typename Less = std::less<Key>>
  void solve_lis(std::span<const Key> a, LisResult& out, Less less = Less{}) {
    Entry entry(opts_, a.size());
    lis_core(a, less, out, *main_ctx_);
  }

  /// Custom-order form over int64 values: "increasing" means increasing
  /// under `less` (e.g. std::greater for longest decreasing runs), under
  /// options().ties. It runs on the rank image like every typed key, which
  /// needs no sentinel, so `inf` is not consulted.
  template <typename Less>
  void solve_lis(std::span<const int64_t> a, LisResult& out, int64_t /*inf*/,
                 Less less) {
    solve_lis<int64_t, Less>(a, out, less);
  }

  /// Ranks plus the per-round frontiers (what WLIS and the reconstruction
  /// consume), under options().ties.
  void solve_lis_frontiers(std::span<const int64_t> a, LisFrontiers& out);

  /// Typed overload of solve_lis_frontiers: the frontier indices refer to
  /// positions of `a`, so reconstruction downstream is key-type agnostic.
  template <typename Key, typename Less = std::less<Key>>
  void solve_lis_frontiers(std::span<const Key> a, LisFrontiers& out,
                           Less less = Less{}) {
    Entry entry(opts_, a.size());
    lis_core(a, less, out, *main_ctx_);
  }

  /// LIS length only.
  int64_t lis_length(std::span<const int64_t> a);

  /// Typed overload of lis_length.
  template <typename Key, typename Less = std::less<Key>>
  int64_t lis_length(std::span<const Key> a, Less less = Less{}) {
    solve_lis<Key, Less>(a, main_ctx_->lis_res, less);
    return main_ctx_->lis_res.k;
  }

  /// Weighted LIS (Alg. 2) with the Options-selected range structure,
  /// under options().ties.
  void solve_wlis(std::span<const int64_t> a, std::span<const int64_t> w,
                  WlisResult& out);

  /// Typed overload: the keys' rank image feeds the LIS phase, the range
  /// structure and the query positions alike; weights stay int64. dp[i] is
  /// over subsequences "increasing" per options().ties under `less`.
  template <typename Key, typename Less = std::less<Key>>
  void solve_wlis(std::span<const Key> a, std::span<const int64_t> w,
                  WlisResult& out, Less less = Less{}) {
    Entry entry(opts_, a.size());
    wlis_core(a, w, less, out, *main_ctx_);
  }

  /// SWGS baseline, unweighted (seed from Options), under options().ties.
  void solve_swgs(std::span<const int64_t> a, LisResult& out,
                  SwgsStats* stats = nullptr);

  /// Typed overload of the SWGS baseline: the dominance oracle is
  /// comparison-based, so it consumes the rank image directly.
  template <typename Key, typename Less = std::less<Key>>
  void solve_swgs(std::span<const Key> a, LisResult& out,
                  SwgsStats* stats = nullptr, Less less = Less{}) {
    Entry entry(opts_, a.size());
    swgs_core(a, less, out, stats, *main_ctx_);
  }

  /// SWGS baseline, weighted, under options().ties.
  void solve_swgs_wlis(std::span<const int64_t> a,
                       std::span<const int64_t> w, WlisResult& out,
                       SwgsStats* stats = nullptr);

  /// Typed overload of the weighted SWGS baseline: one compression into
  /// the WLIS workspace's rank space, consumed by the oracle rounds and
  /// the dominant-max tree alike.
  template <typename Key, typename Less = std::less<Key>>
  void solve_swgs_wlis(std::span<const Key> a, std::span<const int64_t> w,
                       WlisResult& out, SwgsStats* stats = nullptr,
                       Less less = Less{}) {
    Entry entry(opts_, a.size());
    swgs_wlis_core(a, w, less, out, stats, *main_ctx_);
  }

  /// Batched serving: solves queries[i] into results[i] for every i.
  /// Queries are independent; |results| >= |queries|. Every query is
  /// validated and admitted against the memory budget before any of them
  /// runs. Queries with |a| <= options().sequential_cutoff are packed
  /// across the worker pool (one task each, solved sequentially on
  /// per-worker workspaces); larger ones run one at a time with
  /// intra-query parallelism. Honors options().ties like every other
  /// entry point.
  void solve_many(std::span<const Query> queries,
                  std::span<QueryResult> results);

  /// Streaming session over this solver (stream/lis_session.hpp): per-tick
  /// append / sliding-window / delta re-solve, honoring options().ties and
  /// the options() window policy. The solver must outlive the session; the
  /// usual one-thread-at-a-time contract covers the pair.
  LisSession make_session();

 private:
  // Everything one thread needs to solve any query shape end to end. The
  // LIS-side rank space (lis_rs) is separate from wlis.rank_space on
  // purpose: the latter's contents back the WLIS value-sequence cache, so
  // an unweighted typed solve between two weighted solves must not
  // clobber it.
  struct ThreadCtx {
    TournamentStorage<int64_t> tour;
    WlisWorkspace wlis;
    RankSpace lis_rs;
    RankSpaceScratch lis_scratch;
    LisResult lis_res;
    WlisResult wlis_res;
    std::vector<int64_t> tails;  // patience-fallback scratch

    size_t resident_bytes() const;
  };
  struct CtxSlot;

  // RAII: while `active`, par_do/parallel_for on this thread run inline
  // (restores the previous flag even if the body throws). Used both to run
  // small inputs without fork-join overhead and to keep solve_many's
  // packed queries sequential inside their task.
  class ThreadSequentialGuard {
   public:
    explicit ThreadSequentialGuard(bool active) : active_(active) {
      if (active_) prev_ = set_thread_sequential(true);
    }
    ~ThreadSequentialGuard() {
      if (active_) set_thread_sequential(prev_);
    }
    ThreadSequentialGuard(const ThreadSequentialGuard&) = delete;
    ThreadSequentialGuard& operator=(const ThreadSequentialGuard&) = delete;

   private:
    bool active_;
    bool prev_ = false;
  };

  // The entry stage of every direct solve_* call (see the header comment).
  class Entry {
   public:
    Entry(const Options& o, size_t n)
        : scope_(o.cancel, o.deadline_ms),
          seq_(static_cast<int64_t>(n) <= o.sequential_cutoff) {
      internal::poll_cancellation();
    }

   private:
    internal::CancelScope scope_;
    ThreadSequentialGuard seq_;
  };

  // Admission (step 1 of every core). Returns true when only the
  // sequential fallback fits the budget, false for the full build; throws
  // Error{kBudgetExceeded} when neither fits (SWGS has no fallback).
  // `compresses`: the path builds a rank image. The byte models live in
  // solver.cpp.
  enum class Shape { kLis, kWlis, kSwgs, kSwgsWlis };
  bool admit_fallback(Shape shape, size_t n, bool compresses) const;

  // Step 2's choice: raw keys for int64 under std::less with kStrict ties.
  template <typename Key, typename Less>
  bool raw_image() const {
    return std::is_same_v<Key, int64_t> &&
           std::is_same_v<Less, std::less<int64_t>> &&
           opts_.ties == TiesPolicy::kStrict;
  }

  // Step 2's NaN check; the int64 paths pay no pass.
  template <typename Key, typename Less>
  static void reject_nan(std::span<const Key> a) {
    if constexpr (std::is_floating_point_v<Key> &&
                  (std::is_same_v<Less, std::less<Key>> ||
                   std::is_same_v<Less, std::greater<Key>>)) {
      for (const Key& x : a) {
        if (std::isnan(x)) {
          throw Error(ErrorCode::kInvalidArgument,
                      "NaN key: NaN has no place in a strict weak ordering");
        }
      }
    }
  }
  static void require_weights(size_t n, size_t nw);

  // Step 2: the keys themselves when `raw`, else their rank image in `rs`.
  template <typename Key, typename Less>
  std::span<const int64_t> key_image(std::span<const Key> a, Less less,
                                     [[maybe_unused]] bool raw, RankSpace& rs,
                                     RankSpaceScratch& scratch) const {
    if constexpr (std::is_same_v<Key, int64_t>) {
      if (raw) return a;
    }
    rank_space_into<Key, Less>(a, opts_.ties, rs, scratch, less);
    return rs.rank;
  }

  // Step 4: a throw out of `body` leaves the value cache cold, so the next
  // solve on `ws` rebuilds everything (a torn rank-space pass included).
  template <typename F>
  static void cache_chokepoint(WlisWorkspace& ws, F&& body) {
    try {
      body();
    } catch (...) {
      ws.invalidate_cache();
      throw;
    }
  }

  // LIS core: ranks (LisResult) or ranks plus frontiers (LisFrontiers).
  template <typename Key, typename Less, typename Out>
  void lis_core(std::span<const Key> a, Less less, Out& out, ThreadCtx& ctx) {
    constexpr bool kFrontiers = std::is_same_v<Out, LisFrontiers>;
    const bool raw = raw_image<Key, Less>();
    const bool fallback = admit_fallback(Shape::kLis, a.size(), !raw);
    reject_nan<Key, Less>(a);
    const auto img = key_image(a, less, raw, ctx.lis_rs, ctx.lis_scratch);
    if (!fallback) {
      if constexpr (kFrontiers) {
        lis_frontiers_into<int64_t>(img, out, ctx.tour);
      } else {
        lis_ranks_into<int64_t>(img, out, ctx.tour);
      }
    } else if constexpr (kFrontiers) {
      seq_patience_frontiers_into<int64_t>(img, out, ctx.tails);
    } else {
      seq_patience_ranks_into<int64_t>(img, out, ctx.tails);
    }
  }

  // WLIS core. Raw keys go through wlis_into, which checks the value cache
  // against the keys themselves; the fallback compares the image directly.
  template <typename Key, typename Less>
  void wlis_core(std::span<const Key> a, std::span<const int64_t> w,
                 Less less, WlisResult& out, ThreadCtx& ctx) {
    require_weights(a.size(), w.size());
    const bool raw = raw_image<Key, Less>();
    const bool fallback = admit_fallback(Shape::kWlis, a.size(), !raw);
    reject_nan<Key, Less>(a);
    WlisWorkspace& ws = ctx.wlis;
    cache_chokepoint(ws, [&] {
      const auto img = key_image(a, less, raw, ws.rank_space, ws.rank_scratch);
      if (fallback) {
        // A rank image has overwritten the cached rank space; raw keys
        // leave the workspace, and its warm cache, untouched.
        if (!raw) ws.invalidate_cache();
        wlis_fallback(img, w, out, ctx);
      } else if (raw) {
        wlis_into(img, w, ws, out, opts_.structure);
      } else {
        wlis_compressed_into(img, w, ws, out, opts_.structure);
      }
    });
  }

  // SWGS core (no sequential fallback: admission fits or throws).
  template <typename Key, typename Less>
  void swgs_core(std::span<const Key> a, Less less, LisResult& out,
                 SwgsStats* stats, ThreadCtx& ctx) {
    const bool raw = raw_image<Key, Less>();
    admit_fallback(Shape::kSwgs, a.size(), !raw);
    reject_nan<Key, Less>(a);
    swgs_lis_ranks_into(key_image(a, less, raw, ctx.lis_rs, ctx.lis_scratch),
                        opts_.seed, out, stats);
  }

  // SWGS-WLIS core: shares the WLIS workspace (and so its chokepoint).
  template <typename Key, typename Less>
  void swgs_wlis_core(std::span<const Key> a, std::span<const int64_t> w,
                      Less less, WlisResult& out, SwgsStats* stats,
                      ThreadCtx& ctx) {
    require_weights(a.size(), w.size());
    const bool raw = raw_image<Key, Less>();
    admit_fallback(Shape::kSwgsWlis, a.size(), !raw);
    reject_nan<Key, Less>(a);
    WlisWorkspace& ws = ctx.wlis;
    cache_chokepoint(ws, [&] {
      const auto img = key_image(a, less, raw, ws.rank_space, ws.rank_scratch);
      if (raw) {
        swgs_wlis_into(img, w, opts_.seed, ws, out, stats);
      } else {
        swgs_wlis_compressed_into(img, w, opts_.seed, ws, out, stats);
      }
    });
  }

  // Sequential WLIS degradation: Seq-AVL dp sweep + patience length over a
  // strictly comparing image, on `ctx`'s scratch.
  static void wlis_fallback(std::span<const int64_t> a,
                            std::span<const int64_t> w, WlisResult& out,
                            ThreadCtx& ctx);

  // solve_many's per-query step: validate, core, copy-out.
  void solve_query(const Query& q, QueryResult& r, ThreadCtx& ctx);

  Options opts_;
  std::unique_ptr<ThreadCtx> main_ctx_;  // caller-thread workspaces
  // solve_many per-runner contexts, claimed through a busy flag: a runner
  // probes from slot pool_thread_id() + 1 (so the external calling thread
  // prefers slot 0 and pool workers their own slot) to the first free one.
  // The flag matters because any externally-joining thread can help run
  // packed tasks and every such thread reports pool_thread_id() == -1.
  std::unique_ptr<CtxSlot[]> ctx_;
  size_t ctx_n_ = 0;
  std::vector<int64_t> small_idx_;  // batch partition scratch
};

}  // namespace parlis
