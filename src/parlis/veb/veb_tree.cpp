#include "parlis/veb/veb_tree.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "parlis/parallel/parallel.hpp"
#include "parlis/parallel/primitives.hpp"
#include "parlis/util/error.hpp"
#include "parlis/veb/veb_words.hpp"

namespace parlis {

namespace {
constexpr uint64_t kNone = VebTree::kNone;

static_assert(veb_words::kWordNone == VebTree::kNone,
              "word kernels and VebTree must share the none sentinel");

}  // namespace

// ---------------------------------------------------------------- layout ---

// The Node layout (and the inline base-root fast paths of the public point
// ops) lives in veb_node.hpp; this file holds the recursive machinery.
using Node = VebTree::Node;

// ----------------------------------------------------- sequential lookups ---

namespace {

bool node_contains(const Node* v, uint64_t x) {
  while (true) {
    if (!v || v->is_empty()) return false;
    if (v->base()) return v->base_contains(x);
    if (x == v->min || x == v->max) return true;
    const Node* c = v->cluster(v->high(x));
    if (!c) return false;
    uint64_t l = v->low(x);
    v = c;
    x = l;
  }
}

// The cluster descent is iterative with an accumulated high-bit prefix (the
// descent is guaranteed to stay in-subtree once a cluster is entered, so no
// post-recursion index composition is needed); only the summary fallback
// recurses, on the strictly smaller summary tree.
uint64_t node_pred_lt(const Node* v, uint64_t x) {
  uint64_t prefix = 0;
  while (true) {
    if (!v || v->is_empty()) return kNone;
    if (v->base()) {
      uint64_t r = v->base_pred_lt(x);
      return r == kNone ? kNone : prefix | r;
    }
    if (x <= v->min) return kNone;
    if (x > v->max) return prefix | v->max;
    // v->min < x <= v->max: look in the clusters, fall back to min.
    uint64_t h = v->high(x), l = v->low(x);
    const Node* c = v->cluster(h);
    if (c && !c->is_empty() && c->min < l) {
      prefix |= h << v->lo_bits;
      v = c;
      x = l;
      continue;
    }
    // Summary fallback. One-node universes (<= 2^24) have a base summary:
    // dispatch its kernel directly instead of paying a recursive call to
    // discover it.
    const Node* s = v->summary;
    uint64_t hp = !s || s->is_empty()
                      ? kNone
                      : (s->base() ? s->base_pred_lt(h) : node_pred_lt(s, h));
    if (hp != kNone) return prefix | v->index(hp, v->cluster(hp)->max);
    return prefix | v->min;
  }
}

uint64_t node_succ_gt(const Node* v, uint64_t x) {
  uint64_t prefix = 0;
  while (true) {
    if (!v || v->is_empty()) return kNone;
    if (v->base()) {
      uint64_t r = v->base_succ_gt(x);
      return r == kNone ? kNone : prefix | r;
    }
    if (x >= v->max) return kNone;
    if (x < v->min) return prefix | v->min;
    uint64_t h = v->high(x), l = v->low(x);
    const Node* c = v->cluster(h);
    if (c && !c->is_empty() && c->max > l) {
      prefix |= h << v->lo_bits;
      v = c;
      x = l;
      continue;
    }
    const Node* s = v->summary;  // base-summary dispatch, as in pred_lt
    uint64_t hs = !s || s->is_empty()
                      ? kNone
                      : (s->base() ? s->base_succ_gt(h) : node_succ_gt(s, h));
    if (hs != kNone) return prefix | v->index(hs, v->cluster(hs)->min);
    return prefix | v->max;
  }
}

// -------------------------------------------------- sequential insert/erase

// Fused membership test + insert: returns whether x was actually added.
// Duplicates are detected mid-descent (at the node holding x, or at the
// base words), so the public insert() needs no separate contains() pass —
// one traversal instead of two.
bool node_insert(Node* v, uint64_t x, Arena& arena) {
  if (v->base()) {
    if (v->base_contains(x)) return false;
    v->base_insert(x, arena);
    return true;
  }
  if (v->is_empty()) {
    v->min = v->max = x;
    return true;
  }
  if (x == v->min || x == v->max) return false;
  if (v->min == v->max) {  // one key; keep both slots at the node
    if (x < v->min) {
      v->min = x;
    } else {
      v->max = x;
    }
    return true;
  }
  if (x < v->min) std::swap(x, v->min);
  else if (x > v->max) std::swap(x, v->max);
  // A displaced old min/max is never also in the clusters (exclusivity), so
  // once a swap happened the recursion always inserts.
  uint64_t h = v->high(x), l = v->low(x);
  Node* c = v->ensure_cluster(h, arena);
  if (c->is_empty()) {
    c->make_singleton(l, arena);                 // O(1)
    node_insert(v->ensure_summary(arena), h, arena);  // the only deep recursion
    return true;
  }
  return node_insert(c, l, arena);  // summary already contains h
}

bool node_erase(Node* v, uint64_t x);

// Deletes key y from v's clusters (y is neither v->min nor v->max) and fixes
// the summary. Precondition: y present in the clusters.
void erase_from_clusters(Node* v, uint64_t y) {
  uint64_t h = v->high(y);
  Node* c = v->cluster(h);
  node_erase(c, v->low(y));
  if (c->is_empty()) node_erase(v->summary, h);
}

// Fused membership test + erase: returns whether x was actually removed
// (same single-traversal contract as node_insert).
bool node_erase(Node* v, uint64_t x) {
  if (!v || v->is_empty()) return false;
  if (v->base()) {
    if (!v->base_contains(x)) return false;
    v->base_erase(x);
    return true;
  }
  if (v->min == v->max) {
    if (x != v->min) return false;
    v->min = v->max = kNone;
    return true;
  }
  if (x == v->min) {
    if (v->summary_empty()) {  // exactly {min, max}
      v->min = v->max;
      return true;
    }
    uint64_t h0 = v->summary->min;
    Node* c = v->cluster(h0);
    uint64_t l0 = c->min;
    node_erase(c, l0);  // O(1) when c is a singleton
    if (c->is_empty()) node_erase(v->summary, h0);
    v->min = v->index(h0, l0);
    return true;
  }
  if (x == v->max) {
    if (v->summary_empty()) {
      v->max = v->min;
      return true;
    }
    uint64_t h1 = v->summary->max;
    Node* c = v->cluster(h1);
    uint64_t l1 = c->max;
    node_erase(c, l1);
    if (c->is_empty()) node_erase(v->summary, h1);
    v->max = v->index(h1, l1);
    return true;
  }
  // interior key
  Node* c = v->cluster(v->high(x));
  if (!c || v->summary_empty()) return false;  // absent
  if (!node_erase(c, v->low(x))) return false;
  if (c->is_empty()) node_erase(v->summary, v->high(x));
  return true;
}

// ------------------------------------------------------------ batch insert

// Splits the sorted batch [b, b+m) (all with the same parent node) into
// per-high groups [starts[g], starts[g+1]).
std::vector<int64_t> group_starts(const Node* v, const uint64_t* b,
                                  int64_t m) {
  auto starts = pack_index(
      m, [&](int64_t i) { return i == 0 || v->high(b[i]) != v->high(b[i - 1]); });
  starts.push_back(m);
  return starts;
}

std::vector<int64_t> group_starts(const Node* v,
                                  const std::vector<uint64_t>& b) {
  return group_starts(v, b.data(), static_cast<int64_t>(b.size()));
}

// Alg. 4 over a mutable span [b, b+m): sorted, duplicate-free, disjoint from
// v's keys. The recursion works *in place* — per-high groups are rewritten
// to their low bits inside the span and recursed on as sub-spans, so no
// per-node vectors are allocated. The span never needs to grow: a displaced
// old min (max) is re-inserted only when the batch's front (back) key was
// just consumed, so the freed boundary slot is reused for the shifted
// insertion. Batches at or below kSerialBatch run fully sequentially with
// zero heap traffic (summary scratch lives on the stack).
constexpr int64_t kSerialBatch = 1024;

void batch_insert_rec(Node* v, uint64_t* b, int64_t m, Arena& arena) {
  if (m == 0) return;
  if (v->base()) {
    if (v->tiny()) {
      for (int64_t i = 0; i < m; i++) v->mask |= uint64_t{1} << b[i];
    } else {
      uint64_t* w = v->ensure_words(arena);
      for (int64_t i = 0; i < m; i++) {
        veb_words::block_insert(v->mask, w, b[i]);
      }
    }
    v->base_sync_minmax();
    return;
  }
  if (v->is_empty()) {
    v->min = b[0];
    v->max = b[m - 1];  // == min when m == 1
    b++;
    m--;
    if (m > 0) m--;
  } else {
    // Lines 2-5: swap min/max with the batch boundaries, push the displaced
    // keys back into the (sorted) batch.
    uint64_t old_min = v->min, old_max = v->max;
    uint64_t new_min = std::min(old_min, b[0]);
    uint64_t new_max = std::max(old_max, b[m - 1]);
    if (b[0] == new_min) {
      b++;
      m--;
    }
    if (m > 0 && b[m - 1] == new_max) m--;
    if (old_min != new_min && old_min != new_max) {
      // The front slot was just freed (new_min came from the batch).
      int64_t idx = std::lower_bound(b, b + m, old_min) - b;
      b--;
      std::memmove(b, b + 1, idx * sizeof(uint64_t));
      b[idx] = old_min;
      m++;
    }
    if (old_max != new_max && old_max != new_min && old_max != old_min) {
      // The back slot was just freed (new_max came from the batch).
      int64_t idx = std::lower_bound(b, b + m, old_max) - b;
      std::memmove(b + idx + 1, b + idx, (m - idx) * sizeof(uint64_t));
      b[idx] = old_max;
      m++;
    }
    v->min = new_min;
    v->max = new_max;
  }
  if (m == 0) return;

  if (m <= kSerialBatch) {
    // Sequential path: group, initialize empty clusters, rewrite each group
    // to low bits in place, recurse. The summary batch is transient scratch,
    // so it lives on the stack (at most one entry per group, and m <=
    // kSerialBatch bounds the frame; recursion depth is O(log log U)) — the
    // arena only ever holds live structure.
    uint64_t new_high[kSerialBatch];
    int64_t nnew = 0;
    for (int64_t s = 0; s < m;) {
      uint64_t h = v->high(b[s]);
      int64_t e = s + 1;
      while (e < m && v->high(b[e]) == h) e++;
      Node* c = v->ensure_cluster(h, arena);
      if (c->is_empty()) {
        new_high[nnew++] = h;
        c->make_singleton(v->low(b[s]), arena);
        s++;  // consumed
      }
      for (int64_t i = s; i < e; i++) b[i] = v->low(b[i]);
      batch_insert_rec(c, b + s, e - s, arena);
      s = e;
    }
    if (nnew) batch_insert_rec(v->ensure_summary(arena), new_high, nnew, arena);
    return;
  }

  // Parallel path (large batches near the root). Group by high bits;
  // initialize previously-empty clusters with their smallest key (O(1)
  // each), collect the new high bits for the summary.
  auto starts = group_starts(v, b, m);
  int64_t ngroups = static_cast<int64_t>(starts.size()) - 1;
  std::vector<uint64_t> new_high;
  std::vector<int64_t> sub_start(ngroups);
  for (int64_t g = 0; g < ngroups; g++) {
    int64_t s = starts[g];
    uint64_t h = v->high(b[s]);
    Node* c = v->ensure_cluster(h, arena);
    if (c->is_empty()) {
      new_high.push_back(h);
      c->make_singleton(v->low(b[s]), arena);
      s++;  // consumed
    }
    sub_start[g] = s;
  }
  // Lines 13-16: summary and all clusters in parallel; each group's keys are
  // rewritten to their low bits in place and recursed on as a sub-span.
  par_do(
      [&] {
        if (!new_high.empty()) {
          batch_insert_rec(v->ensure_summary(arena), new_high.data(),
                           static_cast<int64_t>(new_high.size()), arena);
        }
      },
      [&] {
        parallel_for(0, ngroups, [&](int64_t g) {
          int64_t s = sub_start[g], e = starts[g + 1];
          if (s >= e) return;
          Node* c = v->cluster(v->high(b[s]));
          for (int64_t i = s; i < e; i++) b[i] = v->low(b[i]);
          batch_insert_rec(c, b + s, e - s, arena);
        });
      });
}

// ------------------------------------------------------------ batch delete

// Survivor mappings (Def. 5.1), aligned with the batch: p_map[i] is the
// largest surviving key < b[i] (kNone = -inf), s_map[i] the smallest
// surviving key > b[i] (kNone = +inf).

// Lines 24-31: after key y was extracted from v's clusters, repoint any
// survivor mapping that referenced y.
void survivor_redirect(const Node* v, const std::vector<uint64_t>& b,
                       uint64_t y, std::vector<uint64_t>& p_map,
                       std::vector<uint64_t>& s_map) {
  uint64_t p = node_pred_lt(v, y);
  uint64_t s = node_succ_gt(v, y);
  if (p != kNone) {
    auto it = std::lower_bound(b.begin(), b.end(), p);
    if (it != b.end() && *it == p) p = p_map[it - b.begin()];
  }
  if (s != kNone) {
    auto it = std::lower_bound(b.begin(), b.end(), s);
    if (it != b.end() && *it == s) s = s_map[it - b.begin()];
  }
  parallel_for(0, static_cast<int64_t>(b.size()), [&](int64_t i) {
    if (p_map[i] == y) p_map[i] = p;
    if (s_map[i] == y) s_map[i] = s;
  });
}

void batch_delete_rec(Node* v, std::vector<uint64_t> b,
                      std::vector<uint64_t> p_map,
                      std::vector<uint64_t> s_map) {
  if (b.empty() || !v || v->is_empty()) return;
  if (v->base()) {
    if (v->tiny()) {
      for (uint64_t x : b) v->mask &= ~(uint64_t{1} << x);
    } else if (v->words) {
      for (uint64_t x : b) veb_words::block_erase(v->mask, v->words, x);
    }
    v->base_sync_minmax();
    return;
  }
  if (v->min == v->max) {  // single key: the batch must be exactly {min}
    v->min = v->max = kNone;
    return;
  }
  uint64_t vmin = v->min, vmax = v->max;
  // Restore v->min (lines 6-11).
  if (vmin == b.front()) {
    uint64_t y = s_map.front();
    if (y != kNone && y != vmax) {
      erase_from_clusters(v, y);
      survivor_redirect(v, b, y, p_map, s_map);
    }
    v->min = y;  // may be vmax or kNone
  }
  // Restore v->max (line 12, symmetric).
  if (vmax == b.back()) {
    uint64_t y = p_map.back();
    if (y != kNone && y != v->min) {
      erase_from_clusters(v, y);
      survivor_redirect(v, b, y, p_map, s_map);
    }
    v->max = y;
  }
  // Line 13: drop the handled boundary keys.
  if (!b.empty() && b.front() == vmin) {
    b.erase(b.begin());
    p_map.erase(p_map.begin());
    s_map.erase(s_map.begin());
  }
  if (!b.empty() && b.back() == vmax) {
    b.pop_back();
    p_map.pop_back();
    s_map.pop_back();
  }
  // Line 14 (plus the all-deleted case).
  if (v->min == kNone) {
    v->max = kNone;
  } else if (v->max == kNone) {
    v->max = v->min;
  }
  if (b.empty()) return;

  // Lines 15-23: recurse into clusters, then into the summary for the
  // clusters that became empty.
  auto starts = group_starts(v, b);
  int64_t ngroups = static_cast<int64_t>(starts.size()) - 1;
  std::vector<uint64_t> highs(ngroups);
  parallel_for(0, ngroups, [&](int64_t g) { highs[g] = v->high(b[starts[g]]); });

  // SurvivorLow (lines 32-40) + cluster recursion, all groups in parallel.
  parallel_for(0, ngroups, [&](int64_t g) {
    int64_t s = starts[g], e = starts[g + 1];
    uint64_t h = highs[g];
    std::vector<uint64_t> lb(e - s), lp(e - s), ls(e - s);
    for (int64_t i = s; i < e; i++) {
      lb[i - s] = v->low(b[i]);
      uint64_t p = p_map[i];
      lp[i - s] = (p != kNone && v->high(p) == h && p != v->min && p != v->max)
                      ? v->low(p)
                      : kNone;
      uint64_t q = s_map[i];
      ls[i - s] = (q != kNone && v->high(q) == h && q != v->min && q != v->max)
                      ? v->low(q)
                      : kNone;
    }
    batch_delete_rec(v->cluster(h), std::move(lb), std::move(lp),
                     std::move(ls));
  });

  // SurvivorHigh (lines 41-47) over the clusters that emptied.
  std::vector<uint64_t> hb, hp, hs;
  for (int64_t g = 0; g < ngroups; g++) {
    uint64_t h = highs[g];
    Node* c = v->cluster(h);
    if (c && !c->is_empty()) continue;
    uint64_t p = p_map[starts[g]];          // survival pred of min deleted key
    uint64_t s = s_map[starts[g + 1] - 1];  // survival succ of max deleted key
    hb.push_back(h);
    hp.push_back((p != kNone && p != v->min && p != v->max) ? v->high(p)
                                                            : kNone);
    hs.push_back((s != kNone && s != v->min && s != v->max) ? v->high(s)
                                                            : kNone);
  }
  if (!hb.empty()) {
    batch_delete_rec(v->summary, std::move(hb), std::move(hp),
                     std::move(hs));
  }
}

}  // namespace

// ---------------------------------------------------------- range (Alg. 6)

namespace {

// Pool-allocated from a per-range() Arena: the split tree is built and torn
// down in bulk, so per-node unique_ptr churn would be pure overhead.
struct RangeNode {
  uint64_t value;
  int64_t size = 1;
  RangeNode* left = nullptr;
  RangeNode* right = nullptr;
};

// Keys a <= b, both present in v. Builds the result tree by repeated
// median-predecessor splitting; numeric range halves each level.
RangeNode* build_range_tree(const Node* v, uint64_t a, uint64_t b,
                            Arena& arena) {
  RangeNode* node = arena.create<RangeNode>();
  if (a == b) {
    node->value = a;
    return node;
  }
  uint64_t c = a + (b - a + 1) / 2;  // midpoint, > a
  uint64_t mid = node_contains(v, c) ? c : node_pred_lt(v, c);
  // mid in [a, b]: >= a because a < c and a is present.
  node->value = mid;
  bool parallel = (b - a) > 4096;
  auto do_left = [&] {
    if (mid > a) {
      uint64_t lb = node_pred_lt(v, mid);
      node->left = build_range_tree(v, a, lb, arena);
    }
  };
  auto do_right = [&] {
    if (mid < b) {
      uint64_t rb = node_succ_gt(v, mid);
      node->right = build_range_tree(v, rb, b, arena);
    }
  };
  if (parallel) {
    par_do(do_left, do_right);
  } else {
    do_left();
    do_right();
  }
  node->size = 1 + (node->left ? node->left->size : 0) +
               (node->right ? node->right->size : 0);
  return node;
}

void flatten_range_tree(const RangeNode* t, uint64_t* out) {
  if (!t) return;
  int64_t lsize = t->left ? t->left->size : 0;
  out[lsize] = t->value;
  if (t->size > 4096) {
    par_do([&] { flatten_range_tree(t->left, out); },
           [&] { flatten_range_tree(t->right, out + lsize + 1); });
  } else {
    flatten_range_tree(t->left, out);
    flatten_range_tree(t->right, out + lsize + 1);
  }
}

int64_t check_node(const Node* v, uint64_t universe);

}  // namespace

// ------------------------------------------------------------- public API

VebTree::VebTree(uint64_t universe) : VebTree(universe, nullptr) {}

VebTree::VebTree(uint64_t universe, Arena* pool)
    : own_arena_(pool ? nullptr : std::make_unique<Arena>()),
      arena_(pool ? pool : own_arena_.get()),
      universe_(universe) {
  if (universe == 0 || universe > kMaxUniverse) {
    throw Error(ErrorCode::kInvalidArgument,
                "VebTree: universe " + std::to_string(universe) +
                    " outside [1, 2^48]");
  }
  int bits = 1;
  while ((uint64_t{1} << bits) < universe) bits++;
  root_ = arena_->create<Node>(bits);
}

void VebTree::throw_out_of_universe(const char* op, uint64_t x) const {
  throw Error(ErrorCode::kInvalidArgument,
              std::string("VebTree::") + op + ": key " + std::to_string(x) +
                  " outside universe " + std::to_string(universe_));
}

VebTree::~VebTree() = default;

VebTree::VebTree(VebTree&& o) noexcept
    : own_arena_(std::move(o.own_arena_)),
      arena_(o.arena_),
      root_(o.root_),
      universe_(o.universe_),
      size_(o.size_) {
  o.root_ = nullptr;  // moved-from: destroy or assign over only
  o.size_ = 0;
}

VebTree& VebTree::operator=(VebTree&& o) noexcept {
  if (this != &o) {
    // Releases this tree's previous nodes when it owned its arena; nodes of
    // a shared-pool tree stay in the (outliving) pool.
    own_arena_ = std::move(o.own_arena_);
    arena_ = o.arena_;
    root_ = o.root_;
    universe_ = o.universe_;
    size_ = o.size_;
    o.root_ = nullptr;
    o.size_ = 0;
  }
  return *this;
}

// Slow-path continuations of the inline point ops (veb_node.hpp): the
// inline bodies have already handled x-out-of-universe and base roots
// (except the very first insert into a word root, which needs the arena).

bool VebTree::contains_slow(uint64_t x) const {
  return node_contains(root_, x);
}

std::optional<uint64_t> VebTree::pred_lt_slow(uint64_t x) const {
  uint64_t r = node_pred_lt(root_, x);
  if (r == kNone) return std::nullopt;
  return r;
}

std::optional<uint64_t> VebTree::succ_gt_slow(uint64_t x) const {
  uint64_t r = node_succ_gt(root_, x);
  if (r == kNone) return std::nullopt;
  return r;
}

std::optional<uint64_t> VebTree::pred_leq(uint64_t x) const {
  if (contains(x)) return x;
  return pred_lt(x);
}

std::optional<uint64_t> VebTree::succ_geq(uint64_t x) const {
  if (contains(x)) return x;
  return succ_gt(x);
}

void VebTree::insert_slow(uint64_t x) {
  if (node_insert(root_, x, *arena_)) size_++;
}

void VebTree::erase_slow(uint64_t x) {
  if (node_erase(root_, x)) size_--;
}

// replace_top continuation for internal roots: walk down while both keys
// stay strictly interior to the same cluster of every node on the path.
// Along that shared prefix, erase(out) + insert(in) each reduce to the same
// child and the child never empties (it holds `in` afterwards), so neither
// min/max nor the summary of any prefix node is touched — the two descents
// collapse into one. The first node where the keys part ways (different
// clusters, or one of them hits min/max) finishes with the generic fused
// helpers rooted at that node.
//
// Safety of the generic tail: within the final subtree v, if erasing `o`
// empties a cluster the summary is fixed by node_erase itself, and v as a
// whole can transiently empty only when `o` was its sole key — but then
// inserting `i` (which is absent: v contained o only, and o != i) refills it
// before control returns, so the parent's untouched summary stays correct.
void VebTree::replace_slow(uint64_t out_key, uint64_t in_key) {
  Node* v = root_;
  uint64_t o = out_key, i = in_key;
  while (!v->base()) {
    if (v->is_empty() || v->min == v->max) break;
    if (o <= v->min || o >= v->max || i <= v->min || i >= v->max) break;
    uint64_t h = v->high(o);
    if (h != v->high(i)) break;
    Node* c = v->cluster(h);
    if (!c || c->is_empty()) break;  // o absent here: tail degrades to insert
    uint64_t lo_o = v->low(o), lo_i = v->low(i);
    v = c;
    o = lo_o;
    i = lo_i;
  }
  if (v->base()) {
    if (v->base_contains(o)) {
      v->base_erase(o);
      size_--;
    }
    if (!v->base_contains(i)) {
      v->base_insert(i, *arena_);
      size_++;
    }
    return;
  }
  if (node_erase(v, o)) size_--;
  if (node_insert(v, i, *arena_)) size_++;
}

int64_t VebTree::batch_insert(const std::vector<uint64_t>& batch) {
  // Sorted by precondition, so the last key bounds the whole batch.
  if (!batch.empty() && batch.back() >= universe_) {
    throw_out_of_universe("batch_insert", batch.back());
  }
  // Empty tree: nothing to filter against, take the batch as-is.
  std::vector<uint64_t> b =
      empty() ? batch
              : filter(batch, [&](uint64_t x) { return !contains(x); });
  int64_t inserted = static_cast<int64_t>(b.size());
  if (inserted == 0) return 0;
  batch_insert_rec(root_, b.data(), inserted, *arena_);
  size_ += inserted;
  return inserted;
}

int64_t VebTree::batch_delete(const std::vector<uint64_t>& batch) {
  std::vector<uint64_t> b =
      filter(batch, [&](uint64_t x) { return contains(x); });
  int64_t deleted = static_cast<int64_t>(b.size());
  if (deleted == 0) return 0;
  int64_t m = deleted;
  // Initialize the survivor mappings (Def. 5.1): predecessor/successor in
  // the tree, skipping over other batch members via a "last defined" scan.
  std::vector<uint64_t> p_map(m), s_map(m);
  constexpr uint64_t kCopy = kNone - 1;  // "inherit from neighbour" marker
  parallel_for(0, m, [&](int64_t i) {
    uint64_t p = node_pred_lt(root_, b[i]);
    bool in_b = p != kNone && i > 0 && p == b[i - 1];
    p_map[i] = in_b ? kCopy : p;
    uint64_t s = node_succ_gt(root_, b[i]);
    bool s_in_b = s != kNone && i + 1 < m && s == b[i + 1];
    s_map[i] = s_in_b ? kCopy : s;
  });
  // "Last defined value" scans. The identity must be kCopy (transparent):
  // kNone is a *valid* mapping value (-inf / +inf), so using it as the
  // identity would let an all-kCopy block erase the carried value.
  scan_exclusive_index<uint64_t>(
      m, kCopy, [&](int64_t i) { return p_map[i]; },
      [&](int64_t i, uint64_t pre) {
        if (p_map[i] == kCopy) p_map[i] = pre == kCopy ? kNone : pre;
      },
      [](uint64_t acc, uint64_t val) { return val == kCopy ? acc : val; });
  scan_exclusive_index<uint64_t>(
      m, kCopy, [&](int64_t i) { return s_map[m - 1 - i]; },
      [&](int64_t i, uint64_t pre) {
        if (s_map[m - 1 - i] == kCopy) {
          s_map[m - 1 - i] = pre == kCopy ? kNone : pre;
        }
      },
      [](uint64_t acc, uint64_t val) { return val == kCopy ? acc : val; });
  batch_delete_rec(root_, std::move(b), std::move(p_map),
                   std::move(s_map));
  size_ -= deleted;
  return deleted;
}

std::vector<uint64_t> VebTree::range(uint64_t lo, uint64_t hi) const {
  if (empty() || lo > hi) return {};
  std::optional<uint64_t> a = succ_geq(lo);
  if (!a || *a > hi) return {};
  std::optional<uint64_t> b = pred_leq(std::min(hi, universe_ - 1));
  if (root_->base()) {
    // Word-packed root (universe <= 4096): scan the packed bits directly —
    // no split tree, no per-call arena.
    std::vector<uint64_t> out;
    if (root_->tiny()) {
      uint64_t w = root_->mask & (~uint64_t{0} << *a);
      if (*b < 63) w &= (uint64_t{2} << *b) - 1;
      for (; w != 0; w &= w - 1) {
        out.push_back(veb_words::word_min(w));
      }
    } else {
      veb_words::block_for_each(root_->mask, root_->words, *a, *b,
                                [&](uint64_t k) { out.push_back(k); });
    }
    return out;
  }
  Arena range_arena;
  RangeNode* tree = build_range_tree(root_, *a, *b, range_arena);
  std::vector<uint64_t> out(tree->size);
  flatten_range_tree(tree, out.data());
  return out;
}

// -------------------------------------------------------------- invariants

namespace {

// Always-on invariant checks (independent of NDEBUG): this is a testing
// hook, so a violation must abort even in release builds.
void check_that(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "VebTree invariant violated: %s\n", what);
    std::abort();
  }
}

int64_t check_node(const Node* v, uint64_t universe) {
  if (!v || v->is_empty()) return 0;
  check_that(v->min < universe && v->max < universe, "min/max in universe");
  check_that(v->min <= v->max, "min <= max");
  if (v->base()) {
    if (v->tiny()) {
      check_that(v->mask != 0, "nonempty base mask");
      check_that(v->min == veb_words::word_min(v->mask),
                 "base min = lowest bit");
      check_that(v->max == veb_words::word_max(v->mask),
                 "base max = highest bit");
      return std::popcount(v->mask);
    }
    // Word block: the mask is the summary word over the cluster words.
    check_that(v->words != nullptr, "nonempty word base has words");
    uint64_t derived = veb_words::block_summary_of(v->words, v->nwords());
    check_that(v->mask == derived, "word summary matches nonzero words");
    check_that(v->min == veb_words::block_min(v->mask, v->words),
               "word base min = first set bit");
    check_that(v->max == veb_words::block_max(v->mask, v->words),
               "word base max = last set bit");
    return veb_words::block_count(v->mask, v->words);
  }
  int64_t count = (v->min == v->max) ? 1 : 2;
  // min/max exclusivity: neither may appear in the clusters.
  check_that(!node_contains(v->cluster(v->high(v->min)), v->low(v->min)),
             "min not stored in clusters");
  if (v->min != v->max) {
    check_that(!node_contains(v->cluster(v->high(v->max)), v->low(v->max)),
               "max not stored in clusters");
  }
  uint64_t nclusters = v->clusters ? (uint64_t{1} << v->hi_bits) : 0;
  int64_t in_clusters = 0;
  for (uint64_t h = 0; h < nclusters; h++) {
    const Node* c = v->cluster(h);
    bool nonempty = c && !c->is_empty();
    bool in_summary = v->summary && node_contains(v->summary, h);
    check_that(nonempty == in_summary, "summary matches nonempty clusters");
    if (nonempty) {
      int64_t sub = check_node(c, uint64_t{1} << v->lo_bits);
      // every cluster key sits strictly between min and max
      check_that(v->index(h, c->min) > v->min && v->index(h, c->max) < v->max,
                 "cluster keys strictly inside (min, max)");
      in_clusters += sub;
    }
  }
  if (v->summary) check_node(v->summary, uint64_t{1} << v->hi_bits);
  return count + in_clusters;
}

}  // namespace

int64_t VebTree::check_invariants() const {
  int64_t found = check_node(root_, uint64_t{1} << root_->bits);
  check_that(found == size_, "key count matches size()");
  return found;
}

}  // namespace parlis
