#include "parlis/api/solver.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/stream/lis_session.hpp"
#include "parlis/util/failpoint.hpp"
#include "parlis/wlis/range_tree.hpp"
#include "parlis/wlis/seq_avl.hpp"

namespace parlis {

// A claimable context: `busy` is taken for the duration of one packed
// query (acquire on claim, release on return, so workspace state synchronizes
// between successive holders).
struct Solver::CtxSlot {
  std::atomic<bool> busy{false};
  std::unique_ptr<ThreadCtx> ctx;
};

Solver::Solver(const Options& opts)
    : opts_(opts), main_ctx_(std::make_unique<ThreadCtx>()) {
  if (opts_.num_workers > 0) {
    set_num_workers(opts_.num_workers);  // best effort: no-op once pool is up
  }
}

Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

// Measured footprint of one ThreadCtx: every vector's real capacity plus
// the workspace accounting (which reaches the arenas' reserved chunks).
size_t Solver::ThreadCtx::resident_bytes() const {
  return sizeof(ThreadCtx) + tour.resident_bytes() + wlis.resident_bytes() +
         lis_rs.resident_bytes() + lis_scratch.resident_bytes() +
         lis_res.resident_bytes() + wlis_res.resident_bytes() +
         vec_bytes(tails);
}

size_t Solver::resident_bytes() const {
  // Heap bytes only — the object header itself is whoever embeds us (the
  // table counts it once via sizeof(TenantEntry)).
  size_t b = vec_bytes(small_idx_);
  if (main_ctx_) b += main_ctx_->resident_bytes();
  for (size_t i = 0; i < ctx_n_; i++) {
    b += sizeof(CtxSlot);
    if (ctx_[i].ctx) b += ctx_[i].ctx->resident_bytes();
  }
  return b;
}

template <typename T>
static void copy_out(const std::vector<T>& src, std::span<T> dst) {
  if (dst.empty()) return;
  parallel_for(0, static_cast<int64_t>(src.size()),
               [&](int64_t i) { dst[i] = src[i]; });
}

// Memory-budget admission. The byte figures are documented scratch-size
// models, per element, deliberately generous (the fault tests pin each
// against the structures' real accounting — e.g. the range tree's arena
// reserved_bytes). They exist so the decision can be made *before* the
// structures allocate; exactness is not the goal, never-under-estimating is.
bool Solver::admit_fallback(Shape shape, size_t n, bool compresses) const {
  const uint64_t budget = opts_.memory_budget_bytes;
  if (budget == 0) return false;
  constexpr size_t kSlack = size_t{1} << 16;
  // Rank space: order/pos/rank/qpos (4 x int64) + sort scratch, per-block
  // carries, and the vector run scan's sorted-key image (8B) + run-start
  // masks (~0.13B).
  const size_t rank_space = n * 58 + kSlack;
  const size_t rs = compresses ? rank_space : 0;
  // LIS: tournament blocks + top + count arrays (~20B/elem) + rank output.
  const size_t lis = n * 40 + kSlack;
  const size_t tree =
      RangeTreeMax::estimate_build_bytes(static_cast<int64_t>(n));
  size_t full = 0, fallback = 0;  // fallback 0: the shape has none
  switch (shape) {
    case Shape::kLis:
      // Fallback: patience tails (<= k int64) + the rank output.
      full = rs + lis;
      fallback = rs + n * 12 + kSlack;
      break;
    case Shape::kWlis:
      // Full: the LIS phase + frontiers + cached values + update batch +
      // query buffers + dp output + the range tree's own estimate, always
      // over a rank space (wlis_into compresses raw keys itself).
      // Fallback: Seq-AVL node pool (~48B/node) + dp output + patience
      // tails.
      full = rank_space + lis + n * 56 + tree;
      fallback = rs + n * 64 + kSlack;
      break;
    case Shape::kSwgs:
    case Shape::kSwgsWlis:
      // Wake-up rounds: subscriber lists (vector header + entry per
      // object), awake/certificate/frontier buffers, the dominance oracle,
      // and (the weighted worst case this models) the dominant-max tree.
      // swgs_wlis_into compresses raw keys itself.
      full = (shape == Shape::kSwgs ? rs : rank_space) + n * 96 + tree +
             kSlack;
      break;
  }
  if (full <= budget) return false;
  if (fallback != 0 && fallback <= budget) return true;
  static constexpr const char* kName[] = {"solve_lis", "solve_wlis",
                                          "solve_swgs", "solve_swgs_wlis"};
  throw Error(ErrorCode::kBudgetExceeded,
              std::string(kName[static_cast<int>(shape)]) + ": estimated " +
                  std::to_string(fallback != 0 ? fallback : full) +
                  (fallback != 0 ? " bytes for the sequential fallback"
                                 : " bytes (no sequential fallback)") +
                  " exceed Options::memory_budget_bytes = " +
                  std::to_string(budget));
}

void Solver::require_weights(size_t n, size_t nw) {
  if (n != nw) {
    throw Error(ErrorCode::kInvalidArgument,
                "weighted solve: |w| must equal |a|");
  }
}

void Solver::wlis_fallback(std::span<const int64_t> a,
                           std::span<const int64_t> w, WlisResult& out,
                           ThreadCtx& ctx) {
  seq_avl_wlis_into(a, w, out.dp);
  out.best = 0;
  for (int64_t v : out.dp) out.best = std::max(out.best, v);
  seq_patience_ranks_into<int64_t>(a, ctx.lis_res, ctx.tails);
  out.k = ctx.lis_res.k;
}

void Solver::solve_lis(std::span<const int64_t> a, LisResult& out) {
  solve_lis<int64_t>(a, out);
}

void Solver::solve_lis_frontiers(std::span<const int64_t> a,
                                 LisFrontiers& out) {
  solve_lis_frontiers<int64_t>(a, out);
}

int64_t Solver::lis_length(std::span<const int64_t> a) {
  return lis_length<int64_t>(a);
}

void Solver::solve_wlis(std::span<const int64_t> a,
                        std::span<const int64_t> w, WlisResult& out) {
  solve_wlis<int64_t>(a, w, out);
}

void Solver::solve_swgs(std::span<const int64_t> a, LisResult& out,
                        SwgsStats* stats) {
  solve_swgs<int64_t>(a, out, stats);
}

void Solver::solve_swgs_wlis(std::span<const int64_t> a,
                             std::span<const int64_t> w, WlisResult& out,
                             SwgsStats* stats) {
  solve_swgs_wlis<int64_t>(a, w, out, stats);
}

void validate_query(const Query& q) {
  const size_t n = q.a.size();
  if (!q.w.empty() && q.w.size() != n) {
    throw Error(ErrorCode::kInvalidArgument,
                "query: weighted query needs |w| == |a|");
  }
  if (!q.rank_out.empty() && q.rank_out.size() < n) {
    throw Error(ErrorCode::kInvalidArgument,
                "query: rank_out smaller than |a|");
  }
  if (!q.dp_out.empty() && q.dp_out.size() < n) {
    throw Error(ErrorCode::kInvalidArgument,
                "query: dp_out smaller than |a|");
  }
}

void Solver::solve_query(const Query& q, QueryResult& r, ThreadCtx& ctx) {
  validate_query(q);
  const std::less<int64_t> less;
  if (q.w.empty()) {
    lis_core(q.a, less, ctx.lis_res, ctx);
    r.k = ctx.lis_res.k;
    r.best = ctx.lis_res.k;
    copy_out(ctx.lis_res.rank, q.rank_out);
  } else {
    wlis_core(q.a, q.w, less, ctx.wlis_res, ctx);
    r.k = ctx.wlis_res.k;
    r.best = ctx.wlis_res.best;
    copy_out(ctx.wlis_res.dp, q.dp_out);
  }
}

LisSession Solver::make_session() { return LisSession(*this); }

void Solver::solve_many(std::span<const Query> queries,
                        std::span<QueryResult> results) {
  if (results.size() < queries.size()) {
    throw Error(ErrorCode::kInvalidArgument,
                "solve_many: |results| must be >= |queries|");
  }
  const int64_t nq = static_cast<int64_t>(queries.size());
  // Fail fast: a malformed query, or one that fits the budget neither in
  // full nor as a fallback, surfaces before the batch does any work.
  for (int64_t i = 0; i < nq; i++) {
    validate_query(queries[i]);
    admit_fallback(queries[i].w.empty() ? Shape::kLis : Shape::kWlis,
                   queries[i].a.size(),
                   !raw_image<int64_t, std::less<int64_t>>());
  }
  // One context for the whole batch — the deadline is anchored here and
  // shared by the packed tasks (each re-installs it on its own thread).
  const internal::ExecContext batch_ctx =
      internal::make_exec_context(opts_.cancel, opts_.deadline_ms);
  internal::CancelScope scope(batch_ctx);
  internal::poll_cancellation();
  // Large queries first, one at a time with intra-query parallelism: they
  // saturate the pool on their own, and finishing them before the packed
  // phase keeps the tail of the batch load-balanced.
  small_idx_.clear();
  for (int64_t i = 0; i < nq; i++) {
    if (static_cast<int64_t>(queries[i].a.size()) > opts_.sequential_cutoff) {
      solve_query(queries[i], results[i], *main_ctx_);
    } else {
      small_idx_.push_back(i);
    }
  }
  if (small_idx_.empty()) return;
  // Small queries: one task per query across the pool, each solved
  // sequentially (thread-sequential mode) on a claimed per-runner context.
  // A runner probes from its preferred slot (pool_thread_id() + 1: the
  // external caller prefers slot 0, pool workers their own slot — warm in
  // the steady state) to the first free one. The busy flag is load-bearing:
  // besides the caller and the pool workers, any OTHER external thread
  // joining its own parallel work can steal packed tasks from the shared
  // submission queue, and all external threads report pool_thread_id() ==
  // -1 — without the claim they would race on one context. If every slot
  // is somehow held (more simultaneous runners than the pool has workers),
  // the query solves on a throwaway context rather than blocking.
  if (ctx_n_ == 0) {
    ctx_n_ = static_cast<size_t>(num_workers()) + 1;
    ctx_ = std::make_unique<CtxSlot[]>(ctx_n_);
  }
  parallel_for(
      0, static_cast<int64_t>(small_idx_.size()),
      [&](int64_t t) {
        // Packed tasks run on pool threads, outside the caller's
        // thread-local scope: re-install the batch context (same token,
        // same entry-anchored deadline) so the query's round loops poll it.
        internal::CancelScope task_scope(batch_ctx);
        internal::poll_cancellation();
        PARLIS_FAILPOINT("solver.packed_query");
        CtxSlot* held = nullptr;
        const size_t start = static_cast<size_t>(pool_thread_id() + 1);
        for (size_t k = 0; k < ctx_n_; k++) {
          CtxSlot& s = ctx_[(start + k) % ctx_n_];
          if (!s.busy.exchange(true, std::memory_order_acquire)) {
            held = &s;
            break;
          }
        }
        std::unique_ptr<ThreadCtx> overflow;
        ThreadCtx* ctx;
        if (held != nullptr) {
          if (!held->ctx) held->ctx = std::make_unique<ThreadCtx>();
          ctx = held->ctx.get();
        } else {
          overflow = std::make_unique<ThreadCtx>();
          ctx = overflow.get();
        }
        // The claimed slot must come back even when the query throws
        // (cancellation, injected fault): a stuck busy flag would leak the
        // slot for every later batch.
        try {
          ThreadSequentialGuard seq(true);
          solve_query(queries[small_idx_[t]], results[small_idx_[t]], *ctx);
        } catch (...) {
          if (held != nullptr) {
            held->busy.store(false, std::memory_order_release);
          }
          throw;
        }
        if (held != nullptr) {
          held->busy.store(false, std::memory_order_release);
        }
      },
      /*grain=*/1);
}

}  // namespace parlis
