// Parallel van Emde Boas tree (Sec. 5 of the paper, Thm. 1.3).
//
// An ordered set of integer keys in [0, U). The layout follows the paper's
// variant of the vEB tree: a node stores its minimum AND maximum exclusively
// (neither is stored again in the clusters — unlike CLRS, which duplicates
// max); all remaining keys are split into high bits (kept recursively in
// `summary`) and low bits (kept in `clusters[high]`).
//
// The recursion bottoms out in bit-packed words (veb_words.hpp): subtrees
// with universe <= 4096 are a flat two-level word block — a 64-bit summary
// word over up to 64 cluster words — so the bottom two node levels of the
// classic layout collapse into find-first-set kernels with zero per-leaf
// allocations (universe <= 64 remains a single bitmask).
//
// Supported operations and costs (U = universe size, m = batch size):
//   insert / erase / contains / pred / succ      O(log log U)
//   batch_insert (Alg. 4)                        O(m log log U) work,
//                                                O(log U) span
//   batch_delete (Alg. 5, survivor mappings)     O(m log log U) work,
//                                                O(log U log log U) span
//   range (Alg. 6, Appendix C)                   O((1+m) log log U) work,
//                                                O(log U log log U) span
//
// Batch inputs must be sorted and duplicate-free; keys already present
// (insert) or absent (delete) are filtered out internally.
//
// Boundary contract: a universe of 0 or above kMaxUniverse (2^48), and any
// key >= universe handed to an update that would store it (insert, the
// in_key of replace_top, the last key of a batch_insert), throw
// parlis::Error{kInvalidArgument} in every build mode, before the tree is
// touched. Queries and removals stay total:
// contains / succ_* of a key >= universe report "absent" / nullopt, pred_*
// clamp to the universe, and erase / batch_delete ignore such keys.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "parlis/util/arena.hpp"

namespace parlis {

class VebTree {
 public:
  /// Sentinel returned by the internal pred/succ helpers ("none").
  static constexpr uint64_t kNone = ~uint64_t{0};

  /// Opaque recursive node type (public so the implementation's free
  /// helper functions can name it; not part of the API surface). Nodes and
  /// cluster tables are pool-allocated from the tree's arena: creating a
  /// lazily-materialized cluster is a per-worker pointer bump instead of a
  /// make_unique hitting the global allocator, and teardown frees the whole
  /// structure in O(#chunks). Moving the tree moves the arena (and thus
  /// every node) with it; a moved-from tree may only be destroyed or
  /// assigned over.
  struct Node;

  /// Largest supported universe: 2^48 keys, whose root cluster table is
  /// 2^24 pointers (128 MiB, materialized on the first insert that reaches
  /// a cluster). Larger universes would grow that table up to 2^32
  /// pointers (32 GiB) at 2^64.
  static constexpr uint64_t kMaxUniverse = uint64_t{1} << 48;

  /// Creates an empty set over universe [0, universe); 1 <= universe <=
  /// kMaxUniverse (anything else throws Error{kInvalidArgument}).
  explicit VebTree(uint64_t universe);

  /// Same, but draws every node from `pool` instead of a private arena —
  /// for containers holding many small trees (Range-vEB inner trees), where
  /// one chunked pool amortizes what would otherwise be a chunk per tree.
  /// `pool` must outlive the tree; nodes of a destroyed or assigned-over
  /// shared-pool tree stay in the pool until the pool itself dies. A null
  /// `pool` gives the tree a private arena, as the one-argument form does.
  VebTree(uint64_t universe, Arena* pool);
  ~VebTree();
  VebTree(VebTree&&) noexcept;
  VebTree& operator=(VebTree&&) noexcept;
  VebTree(const VebTree&) = delete;
  VebTree& operator=(const VebTree&) = delete;

  uint64_t universe() const { return universe_; }
  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The point ops are defined inline in veb_node.hpp (included below): when
  // the root is a packed base block — every tree with universe <= 4096 —
  // they compile down to find-first-set kernels with no out-of-line call.
  // Larger trees fall through to the *_slow paths.
  bool contains(uint64_t x) const;
  std::optional<uint64_t> min() const;
  std::optional<uint64_t> max() const;
  /// Largest key < x (nullopt if none).
  std::optional<uint64_t> pred_lt(uint64_t x) const;
  /// Smallest key > x (nullopt if none).
  std::optional<uint64_t> succ_gt(uint64_t x) const;
  /// Largest key <= x / smallest key >= x.
  std::optional<uint64_t> pred_leq(uint64_t x) const;
  std::optional<uint64_t> succ_geq(uint64_t x) const;

  /// Single-point update; no-op if already present / absent. insert throws
  /// Error{kInvalidArgument} for x >= universe(); erase ignores it.
  void insert(uint64_t x);
  void erase(uint64_t x);

  /// Fused erase(out_key) + insert(in_key) — the patience-pile "replace the
  /// top of one pile" step of streaming LIS sessions. Semantically identical
  /// to the two point ops in sequence, but the traversals are fused: on a
  /// base root it is two word updates, and on internal roots the descent is
  /// shared while both keys stay interior to the same cluster (the cluster
  /// never empties, so no summary fix-up is needed along the shared path).
  /// Throws Error{kInvalidArgument}, with nothing erased, when
  /// in_key >= universe().
  void replace_top(uint64_t out_key, uint64_t in_key);

  /// Alg. 4: inserts a sorted, duplicate-free batch. Keys already present
  /// are ignored. Returns the number of keys actually inserted. Throws
  /// Error{kInvalidArgument}, with nothing inserted, when the last (largest)
  /// key is >= universe().
  int64_t batch_insert(const std::vector<uint64_t>& batch);

  /// Alg. 5: deletes a sorted, duplicate-free batch using survivor
  /// mappings. Keys not present are ignored. Returns the number deleted.
  int64_t batch_delete(const std::vector<uint64_t>& batch);

  /// Alg. 6: all keys in [lo, hi], sorted, collected in parallel.
  std::vector<uint64_t> range(uint64_t lo, uint64_t hi) const;

  /// Testing hook: walks the structure checking every vEB invariant
  /// (min/max exclusivity, summary/cluster consistency). Aborts via assert
  /// on violation; returns the number of keys found.
  int64_t check_invariants() const;

  /// Bytes the node pool has reserved (testing/introspection hook; counts
  /// the whole pool for shared-pool trees).
  size_t pool_reserved_bytes() const { return arena_->reserved_bytes(); }

 private:
  // Out-of-line continuations of the inline point ops, for internal roots
  // (and the first insert into a word root, which must touch the arena).
  bool contains_slow(uint64_t x) const;
  std::optional<uint64_t> pred_lt_slow(uint64_t x) const;
  std::optional<uint64_t> succ_gt_slow(uint64_t x) const;
  void insert_slow(uint64_t x);
  void erase_slow(uint64_t x);
  void replace_slow(uint64_t out_key, uint64_t in_key);
  // Throws Error{kInvalidArgument} for an update key outside the universe
  // (cold and out of line, so the inline point ops keep one compare).
  [[noreturn]] [[gnu::cold]] void throw_out_of_universe(const char* op,
                                                        uint64_t x) const;

  std::unique_ptr<Arena> own_arena_;  // null for shared-pool trees
  Arena* arena_;                      // never null while the tree is valid
  Node* root_ = nullptr;              // owned by *arena_
  uint64_t universe_;
  int64_t size_ = 0;
};

}  // namespace parlis

#include "parlis/veb/veb_node.hpp"  // Node layout + inline point-op bodies
