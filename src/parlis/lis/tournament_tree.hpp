// Parallel tournament tree (Sec. 3, Fig. 4 of the paper).
//
// Conceptually a complete min-tree over the input. Supports:
//
//  * parallel construction: O(n) work, O(log n) span (Thm. 3.1),
//  * extract_frontier: the PrefixMin traversal of Alg. 1 — finds every
//    *prefix-min* leaf (<= all live leaves before it), reports it, and
//    removes it (sets it to +inf), in O(m log(n/m)) work for m reported
//    leaves,
//  * extract_frontier_collect / extract_frontier_collect_into: the two-pass
//    variant of Appendix A that also writes the frontier's leaf indices, in
//    input order, into an array (pass 1 counts per-subtree "effective sizes"
//    without modifying the tree; pass 2 places indices and removes the
//    leaves). The _into form writes into a caller-owned buffer so repeated
//    rounds allocate nothing.
//
// Layout: the textbook implicit layout (children of node i at 2i, 2i+1 over
// one big array) scatters a root-to-leaf path across O(log n) distant
// regions, so every step below the cached top levels is a DRAM miss. The
// tree here is stored *blocked and flat* (the cache-friendly implicit-vEB
// style): the bottom 512-leaf subtrees each live in one contiguous chunk
// laid out as three 8-ary levels —
//
//      [ 8 supergroup minima | 64 group minima | 512 leaves ]
//
// — and a small implicit binary "top" tree over the per-block minima stays
// cache-hot (n/512 entries). A prefix-min descent into a block reads the
// one supergroup line, one group line per entered supergroup and one leaf
// line per entered group, instead of ~2 lines per binary level; the whole
// structure is ~1.14 entries per leaf instead of 2. Each 8-entry scan is a
// left-to-right prefix-min sweep (enter child iff its pre-round minimum is
// <= the running bound; the bound then absorbs that minimum), which visits
// exactly the leaves the binary traversal visits, so the reported frontiers
// — and the Thm. 3.2 O(n log k) bound on the visit counter — are unchanged.
// Entering a node still guarantees a report beneath it, which is what the
// work bound charges against.
//
// Fork rule. Traversals fork only in the top tree, and there only where
// parallel work exists: at a node whose two children both qualify (each
// subtree holds a report) during a pass predicted *large*. A pass is large
// when the previous pass charged more than a grain G = 8192 entries; the
// first pass of a tree counts as large. A pass predicted small runs inline
// on the calling thread, and once its inline prefix has charged G entries
// it turns forking for the rest of the pass, so a misprediction (a frontier
// jumping from 1 to n-1) costs at most G sequential entries. The flag flips
// only while one thread runs the pass, before any fork. Pass 2 of the
// Appendix A extraction is predicted from pass 1, which visits exactly the
// same nodes. On large-k inputs (thousands of rounds of ~10 reports each)
// every round stays inline and pays no fork/join at all.
//
// Span: a forking pass has the old traversal's span, O(log n) top levels
// plus one block walk. A mispredicted pass adds at most G entries plus, for
// the inline ancestors still on the stack at the flip, their right subtrees
// run after their left ones — O(log n) internally-forking subtrees, each of
// span O(log n + block). Either way a round keeps polylog span plus the
// constant G, so k rounds keep the Õ(k) span of Thm. 1.1. Work does not
// depend on the fork decisions: the parent decides which children qualify
// and charges each pruned child exactly one visit, so nodes_visited() and
// the Thm. 3.2 accounting are the same at every worker count.
//
// Inside a block traversals run sequentially and batch their visit count
// into a single WorkerCounter update, so instrumentation costs one
// cache-local store per block visit instead of a shared atomic RMW per node
// (the counter counts considered child entries, the 8-ary analogue of
// per-node visits).
//
// Storage lives in a TournamentStorage<T>, either owned by the tree (the
// one-shot free functions) or injected by the caller (the Solver warm path:
// the vectors' capacity survives the tree object, so rebuilding a tree of
// the same size performs zero heap allocations).
//
// The element type T needs operator< and a user-supplied +inf sentinel.
#pragma once

#include <algorithm>
#include <bit>
#include <functional>
#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/worker_counter.hpp"
#include "parlis/util/resident.hpp"
#include "parlis/util/simd.hpp"

namespace parlis {

/// Reusable backing storage for a TournamentTree. Inject one into repeated
/// constructions and the buffers are recycled (assign within capacity); the
/// visit counter lives here too, because its lazily-created per-worker slot
/// array must not be reallocated per solve.
template <typename T>
struct TournamentStorage {
  std::vector<T> blocks;        // flat 8-ary block chunks
  std::vector<T> top;           // implicit binary tree over block minima
  std::vector<int64_t> count;   // two-pass extraction pass-1 scratch
  WorkerCounter visits;

  /// Measured heap bytes held (vector capacities + the visit counter's
  /// per-worker slot array); the serving layer's eviction accounting.
  size_t resident_bytes() const {
    return vec_bytes(blocks) + vec_bytes(top) + vec_bytes(count) +
           visits.resident_bytes();
  }
};

template <typename T, typename Less = std::less<T>>
class TournamentTree {
 public:
  /// Builds the tree over `xs`; `inf` must compare greater than every input
  /// under `less`.
  TournamentTree(std::span<const T> xs, T inf, Less less = Less{})
      : TournamentTree(xs, inf, nullptr, less) {}

  TournamentTree(const std::vector<T>& xs, T inf, Less less = Less{})
      : TournamentTree(std::span<const T>(xs.data(), xs.size()), inf, nullptr,
                       less) {}

  /// Workspace-injected form: builds into `storage` (recycling its buffers)
  /// instead of allocating. The tree references `storage` for its lifetime.
  TournamentTree(std::span<const T> xs, T inf, TournamentStorage<T>& storage,
                 Less less = Less{})
      : TournamentTree(xs, inf, &storage, less) {}

  // The tree caches raw pointers into its storage; nothing in the codebase
  // moves one, so simply forbid it.
  TournamentTree(const TournamentTree&) = delete;
  TournamentTree& operator=(const TournamentTree&) = delete;

  /// True when every leaf has been removed.
  bool empty() const { return !less_(top_[1], inf_); }

  /// Minimum live leaf value (inf_ when empty).
  const T& min_value() const { return top_[1]; }

  int64_t size() const { return n_; }

  /// Total tree entries considered by this tree's extractions so far
  /// (Thm. 3.2 charges O(m_r log(n/m_r)) per round, O(n log k) in total —
  /// the property tests assert this bound empirically). Per-worker slots
  /// summed on read; counts from earlier trees sharing the storage are
  /// subtracted out.
  uint64_t nodes_visited() const { return st_->visits.read() - base_visits_; }

  /// Alg. 1 ProcessFrontier: visits every prefix-min leaf, calls
  /// visit(leaf_index) for each, and removes them. Blocks may be visited
  /// in parallel (see the fork rule above); `visit` must be safe to call
  /// concurrently for distinct indices.
  template <typename Visit>
  void extract_frontier(const Visit& visit) {
    if (empty()) return;
    run_pass<Pass::kExtract>(visit, nullptr);
  }

  /// Appendix A two-pass variant: returns the frontier's leaf indices sorted
  /// by index (ascending), and removes those leaves.
  std::vector<int64_t> extract_frontier_collect() {
    if (empty()) return {};
    std::vector<int64_t> out(count_frontier());
    run_pass<Pass::kPlace>(NoVisit{}, out.data());
    return out;
  }

  /// Allocation-free form: writes the frontier (ascending leaf indices) into
  /// `out`, removes those leaves, and returns the frontier size m. `out`
  /// must have room for the whole frontier; across all rounds exactly
  /// size() indices are written in total.
  int64_t extract_frontier_collect_into(int64_t* out) {
    if (empty()) return 0;
    int64_t m = count_frontier();
    run_pass<Pass::kPlace>(NoVisit{}, out);
    return m;
  }

  /// Pass 1 of the Appendix A two-pass extraction, standalone: the size of
  /// the current frontier without extracting it (callers size their buffer,
  /// then run extract_frontier_collect_into). Charges the visit counter
  /// exactly like the counting pass it is.
  int64_t frontier_size() {
    if (empty()) return 0;
    return count_frontier();
  }

 private:
  // Flat 8-ary block geometry: 8 supergroups x 8 groups x 8 leaves.
  static constexpr int64_t kBlockLeaves = 512;
  static constexpr int64_t kL2Off = 8;        // 64 group minima
  static constexpr int64_t kLeafOff = 8 + 64;  // 512 leaves
  static constexpr int64_t kBlockStride = kLeafOff + kBlockLeaves;

  // The vector kernels (util/simd.hpp) speak the int64 total order, which
  // is exactly the rank image every public entry point feeds this tree
  // after rank-space reduction. Generic keys / custom comparators keep the
  // scalar sweeps — the discarded if-constexpr branches below never
  // instantiate the int64 kernels for them.
  static constexpr bool kSimdKernels =
      std::is_same_v<T, int64_t> && std::is_same_v<Less, std::less<int64_t>>;

  TournamentTree(std::span<const T> xs, T inf, TournamentStorage<T>* storage,
                 Less less)
      : less_(less),
        n_(static_cast<int64_t>(xs.size())),
        nblocks_((n_ > 0 ? n_ - 1 : 0) / kBlockLeaves + 1),
        top_leaves_(static_cast<int64_t>(
            std::bit_ceil(static_cast<uint64_t>(nblocks_)))),
        inf_(inf),
        st_(storage != nullptr ? storage : &own_) {
    st_->blocks.assign(kBlockStride * nblocks_, inf);
    st_->top.assign(2 * top_leaves_, inf);
    blocks_ = st_->blocks.data();
    top_ = st_->top.data();
    base_visits_ = st_->visits.read();
    parallel_for(0, nblocks_, [&](int64_t b) {
      T* blk = blocks_ + kBlockStride * b;
      const int64_t base = b * kBlockLeaves;
      T* leaf = blk + kLeafOff;
      const int64_t fill = std::min(kBlockLeaves, n_ - base);
      for (int64_t j = 0; j < fill; j++) leaf[j] = xs[base + j];
      for (int64_t g = 0; g < 64; g++) {
        blk[kL2Off + g] = min8(leaf + 8 * g);
      }
      for (int64_t s = 0; s < 8; s++) {
        blk[s] = min8(blk + kL2Off + 8 * s);
      }
      top_[top_leaves_ + b] = min8(blk);
    });
    // Phantom top leaves (past the last physical block) keep their inf
    // sentinel, so traversals prune them without touching block storage.
    // Internal top nodes are built with the same parallel recursion as the
    // blocks, preserving the O(log n) construction span of Thm. 3.1.
    build_top(1, top_leaves_);
  }

  T* block(int64_t b) { return blocks_ + kBlockStride * b; }

  // Minimum of the 8 contiguous entries at p. Plain scalar for every key
  // type: a vector reduction measured no gain at construction, and after
  // an extraction sweep's narrow stores a vector reload of the same 8
  // entries cannot store-to-load forward, while 8-byte loads forward fine.
  T min8(const T* p) const {
    T m = p[0];
    for (int j = 1; j < 8; j++) {
      if (less_(p[j], m)) m = p[j];
    }
    return m;
  }

  // Recomputes internal top-tree nodes below node i (`sub` = leaf slots
  // under it), forking while subtrees are large.
  void build_top(int64_t i, int64_t sub) {
    if (i >= top_leaves_) return;
    if (sub <= 2048) {
      build_top_seq(i);
      return;
    }
    par_do([&] { build_top(2 * i, sub / 2); },
           [&] { build_top(2 * i + 1, sub / 2); });
    top_[i] = less_(top_[2 * i + 1], top_[2 * i]) ? top_[2 * i + 1] : top_[2 * i];
  }

  void build_top_seq(int64_t i) {
    if (i >= top_leaves_) return;
    build_top_seq(2 * i);
    build_top_seq(2 * i + 1);
    top_[i] = less_(top_[2 * i + 1], top_[2 * i]) ? top_[2 * i + 1] : top_[2 * i];
  }

  // (Re)sizes the (persistent, top-tree-sized) pass-1 scratch in the
  // storage and runs the counting pass; returns the frontier size.
  int64_t count_frontier() {
    if (static_cast<int64_t>(st_->count.size()) != 2 * top_leaves_) {
      st_->count.assign(2 * top_leaves_, 0);
    }
    count_ = st_->count.data();
    return run_pass<Pass::kCount>(NoVisit{}, nullptr);
  }

  // ---------------------------------------------------------- top tree ---
  // One binary prefix-min descent over the per-block minima serves all three
  // passes. Reaching top leaf i (block b = i - top_leaves_) hands off to the
  // sequential in-block scans; the extracting passes refresh the cached
  // block minimum on unwind. A node is only ever called once its parent has
  // found it qualifying (pre-round minimum <= the bound, and live); the
  // parent charges one visit per pruned child instead of calling it, and a
  // top leaf's entered block is counted entirely by the in-block walk.
  //
  // kCount (Appendix A pass 1) leaves the tree untouched, returns the
  // frontier size below i and stores each entered node's left-child count;
  // kPlace (pass 2) reads those counts to hand the right child its output
  // offset; kExtract reports through `visit`.
  enum class Pass { kExtract, kCount, kPlace };
  struct NoVisit {
    void operator()(int64_t) const {}
  };

  // A round predicted small runs inline until it has charged this many
  // entries; the fork rule in the header comment explains the choice.
  static constexpr uint64_t kForkGrain = 8192;

  bool qualifies(const T& v, const T& bound) const {
    return !less_(bound, v) && less_(v, inf_);
  }

  // Charges `d` considered entries. While the pass runs inline it is the
  // only thread touching the tree, so it may flip fork_ once its prefix has
  // charged the grain; after the flip (or in a pass that started forking)
  // fork_ is only read.
  void charge(uint64_t d) {
    st_->visits.add(d);
    if (!fork_ && (inline_vis_ += d) > kForkGrain) fork_ = true;
  }

  // Runs one pass from the (non-empty) root under the fork rule and
  // predicts the next pass from this one's visit delta.
  template <Pass P, typename Visit>
  int64_t run_pass(const Visit& visit, int64_t* out) {
    const bool predicted_large = large_;
    const uint64_t before = predicted_large ? st_->visits.read() : 0;
    fork_ = predicted_large;
    inline_vis_ = 0;
    const int64_t c = top_walk<P>(1, inf_, visit, out);
    // An inline pass that never flipped charged at most the grain; one that
    // flipped charged more. Only a pass that forked from its root needs the
    // (per-worker-summed) counter to learn its size.
    large_ = predicted_large ? st_->visits.read() - before > kForkGrain
                             : fork_;
    return c;
  }

  template <Pass P, typename Visit>
  int64_t top_walk(int64_t i, const T& lmin, const Visit& visit,
                   int64_t* out) {
    if (i >= top_leaves_) {
      T* blk = block(i - top_leaves_);
      const int64_t base = (i - top_leaves_) * kBlockLeaves;
      uint64_t vis = 0;
      int64_t c = 0;
      if constexpr (P == Pass::kCount) {
        c = block_count(blk, lmin, vis);
      } else if constexpr (P == Pass::kPlace) {
        // In-block reporting is in leaf order, so pass 2 needs no per-node
        // counts below the top tree — a moving cursor replaces them.
        block_extract(blk, base, lmin, [&](int64_t idx) { *out++ = idx; },
                      vis);
      } else {
        block_extract(blk, base, lmin, visit, vis);
      }
      charge(vis);
      if constexpr (P != Pass::kCount) top_[i] = min8(blk);
      return c;
    }
    const T left_min = top_[2 * i];  // read before the left descent mutates it
    const T& rmin = less_(left_min, lmin) ? left_min : lmin;
    const bool lq = qualifies(left_min, lmin);
    const bool rq = qualifies(top_[2 * i + 1], rmin);
    charge(1 + !lq + !rq);
    // count_[2i] is 0 when pass 1 pruned the left child.
    int64_t* rout = nullptr;
    if constexpr (P == Pass::kPlace) rout = out + count_[2 * i];
    int64_t cl = 0, cr = 0;
    auto left = [&] { cl = top_walk<P>(2 * i, lmin, visit, out); };
    auto right = [&] { cr = top_walk<P>(2 * i + 1, rmin, visit, rout); };
    if (lq && rq && fork_) {
      par_do(left, right);
    } else {
      if (lq) left();
      if (rq) right();
    }
    if constexpr (P == Pass::kCount) {
      count_[2 * i] = cl;
      return cl + cr;
    }
    top_[i] = less_(top_[2 * i + 1], top_[2 * i]) ? top_[2 * i + 1] : top_[2 * i];
    return 0;
  }

  // ------------------------------------------------------------ blocks ---
  // Sequential prefix-min sweeps over the three 8-ary levels. Each level
  // walks its 8 children left to right: a child is entered iff its pre-round
  // minimum qualifies against the running bound, and the bound then absorbs
  // that minimum. `vis` counts considered entries, batched into one counter
  // update per block visit.
  //
  // Vector form (int64 keys): one compare against the level's *initial*
  // bound replaces the 8 scalar compares. Any entry with value > bound can
  // neither be entered (the running bound starts at `bound` and only
  // decreases) nor lower the running bound itself, so the candidate mask
  // `value <= bound && value < inf` contains every entry the scalar sweep
  // interacts with; walking its set bits in ascending order with the exact
  // scalar enter/absorb checks reproduces the sweep bit-for-bit. `vis`
  // still charges all 8 considered entries per level, so the Thm. 3.2
  // visit accounting the property tests assert is unchanged. Entries are
  // read before their own descent mutates them, and a descent only mutates
  // the entry it descends through, never a later sibling, so the pre-sweep
  // mask stays valid across the walk.

  template <typename Visit>
  void block_extract(T* blk, int64_t base, const T& lmin, const Visit& visit,
                     uint64_t& vis) {
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        T cur = lmin;
        uint32_t m = simd::cand_mask8_i64(blk, cur, inf_);
        vis += 8;
        while (m) {
          const int64_t s = std::countr_zero(m);
          m &= m - 1;
          T v = blk[s];  // pre value: the descent below mutates blk[s]
          if (!(cur < v)) super_extract(blk, s, base, cur, visit, vis);
          if (v < cur) cur = v;
        }
        return;
      }
    }
    T cur = lmin;
    for (int64_t s = 0; s < 8; s++) {
      vis++;
      T v = blk[s];  // pre value: the descent below mutates blk[s]
      if (!less_(cur, v) && less_(v, inf_)) {
        super_extract(blk, s, base, cur, visit, vis);
      }
      if (less_(v, cur)) cur = v;
    }
  }

  template <typename Visit>
  void super_extract(T* blk, int64_t s, int64_t base, const T& bound,
                     const Visit& visit, uint64_t& vis) {
    T* l2 = blk + kL2Off + 8 * s;
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        T cur = bound;
        uint32_t m = simd::cand_mask8_i64(l2, cur, inf_);
        vis += 8;
        while (m) {
          const int64_t j = std::countr_zero(m);
          m &= m - 1;
          T w = l2[j];
          if (!(cur < w)) group_extract(blk, 8 * s + j, base, cur, visit, vis);
          if (w < cur) cur = w;
        }
        blk[s] = min8(l2);
        return;
      }
    }
    T cur = bound;
    for (int64_t j = 0; j < 8; j++) {
      vis++;
      T w = l2[j];
      if (!less_(cur, w) && less_(w, inf_)) {
        group_extract(blk, 8 * s + j, base, cur, visit, vis);
      }
      if (less_(w, cur)) cur = w;
    }
    blk[s] = min8(l2);
  }

  template <typename Visit>
  void group_extract(T* blk, int64_t g, int64_t base, const T& bound,
                     const Visit& visit, uint64_t& vis) {
    T* leaf = blk + kLeafOff + 8 * g;
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        // The leaf sweep is the hot tier (every report ends here), so it
        // uses the fully branchless kernel: the extracted-lane mask, the
        // inf overwrites and the refreshed group minimum all come out of
        // registers — no per-candidate reload chain, no 8-entry re-reduce.
        vis += 8;
        T gmin;
        uint32_t ext = simd::sweep8_extract_i64(leaf, bound, inf_, &gmin);
        while (ext) {
          const int64_t j = std::countr_zero(ext);
          ext &= ext - 1;
          visit(base + 8 * g + j);
        }
        blk[kL2Off + g] = gmin;
        return;
      }
    }
    T cur = bound;
    for (int64_t j = 0; j < 8; j++) {
      vis++;
      T x = leaf[j];
      if (!less_(cur, x) && less_(x, inf_)) {
        visit(base + 8 * g + j);
        leaf[j] = inf_;
      }
      if (less_(x, cur)) cur = x;
    }
    blk[kL2Off + g] = min8(leaf);
  }

  // Pass 1 within a block: identical sweeps, no mutation, returns the count.
  int64_t block_count(const T* blk, const T& lmin, uint64_t& vis) const {
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        T cur = lmin;
        int64_t c = 0;
        uint32_t m = simd::cand_mask8_i64(blk, cur, inf_);
        vis += 8;
        while (m) {
          const int64_t s = std::countr_zero(m);
          m &= m - 1;
          const T v = blk[s];
          if (!(cur < v)) c += super_count(blk, s, cur, vis);
          if (v < cur) cur = v;
        }
        return c;
      }
    }
    T cur = lmin;
    int64_t c = 0;
    for (int64_t s = 0; s < 8; s++) {
      vis++;
      const T& v = blk[s];
      if (!less_(cur, v) && less_(v, inf_)) c += super_count(blk, s, cur, vis);
      if (less_(v, cur)) cur = v;
    }
    return c;
  }

  int64_t super_count(const T* blk, int64_t s, const T& bound,
                      uint64_t& vis) const {
    const T* l2 = blk + kL2Off + 8 * s;
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        T cur = bound;
        int64_t c = 0;
        uint32_t m = simd::cand_mask8_i64(l2, cur, inf_);
        vis += 8;
        while (m) {
          const int64_t j = std::countr_zero(m);
          m &= m - 1;
          const T w = l2[j];
          if (!(cur < w)) c += group_count(blk, 8 * s + j, cur, vis);
          if (w < cur) cur = w;
        }
        return c;
      }
    }
    T cur = bound;
    int64_t c = 0;
    for (int64_t j = 0; j < 8; j++) {
      vis++;
      const T& w = l2[j];
      if (!less_(cur, w) && less_(w, inf_)) {
        c += group_count(blk, 8 * s + j, cur, vis);
      }
      if (less_(w, cur)) cur = w;
    }
    return c;
  }

  int64_t group_count(const T* blk, int64_t g, const T& bound,
                      uint64_t& vis) const {
    const T* leaf = blk + kLeafOff + 8 * g;
    if constexpr (kSimdKernels) {
      if (simd::enabled()) {
        vis += 8;
        return simd::sweep8_count_i64(leaf, bound, inf_);
      }
    }
    T cur = bound;
    int64_t c = 0;
    for (int64_t j = 0; j < 8; j++) {
      vis++;
      const T& x = leaf[j];
      if (!less_(cur, x) && less_(x, inf_)) c++;
      if (less_(x, cur)) cur = x;
    }
    return c;
  }

  Less less_;
  int64_t n_;
  int64_t nblocks_;     // physical blocks, ceil(n / 512)
  int64_t top_leaves_;  // bit_ceil(nblocks_): top-tree leaf slots
  T inf_;
  TournamentStorage<T> own_;   // backing store when none is injected
  TournamentStorage<T>* st_;   // owned or injected storage
  T* blocks_ = nullptr;        // st_->blocks.data()
  T* top_ = nullptr;           // st_->top.data()
  int64_t* count_ = nullptr;   // st_->count.data(), set by count_frontier
  uint64_t base_visits_ = 0;   // visits already in the storage's counter
  bool large_ = true;          // next pass predicted large (first one is)
  bool fork_ = true;           // this pass forks where both children qualify
  uint64_t inline_vis_ = 0;    // entries charged by this pass while inline
};

}  // namespace parlis
