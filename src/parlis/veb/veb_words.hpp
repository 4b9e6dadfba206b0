// Bit-packed word kernels for the vEB family.
//
// The bottom levels of a van Emde Boas tree have tiny universes, and
// representing them as allocated nodes wastes both memory and time: a
// universe of 2^k keys fits in 2^k bits, and min/max/succ/pred over a bit
// word are single find-first-set instructions. This header provides that
// layer — raw-integer leaf "nodes" for 8/16/32/64-bit universes and a
// two-level 4096-universe block (a 64-bit summary word over 64 cluster
// words, stored flat) — so the recursive trees can bottom out with zero
// per-leaf allocations.
//
// Everything here is a free function over plain integers (or a pair of
// summary word + word array), deliberately stateless: VebTree calls the
// block kernels on arena-owned word arrays, WordLeaf/WordBlock4096 wrap
// them as self-contained values for direct use and testing.
//
// Conventions shared with VebTree:
//   * keys are unsigned, universes are [0, 2^k)
//   * "none" results are kWordNone (~0), never optional — these kernels sit
//     on the innermost hot paths
//   * succ_gt / pred_lt are strict; x may equal the universe size for
//     pred_lt (the "predecessor of +inf" query after clamping)
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace parlis::veb_words {

inline constexpr uint64_t kWordNone = ~uint64_t{0};

namespace detail {

// Strict above/below candidate masks, one table load per probe. The word
// kernels build these with shifts and guard the j == 63 / j == 0 edge with
// a branch each; the widened block probes below fold both probes of a
// succ/pred (home word and summary) over the tables instead, so the whole
// candidate computation is issued branch-free before the first find-first-
// set decides anything. kBelow has a 65th entry: x may equal the universe
// bound for pred queries.
inline constexpr std::array<uint64_t, 64> kAbove = [] {
  std::array<uint64_t, 64> a{};
  for (int j = 0; j < 64; j++) {
    a[j] = j == 63 ? 0 : ~uint64_t{0} << (j + 1);
  }
  return a;
}();

inline constexpr std::array<uint64_t, 65> kBelow = [] {
  std::array<uint64_t, 65> a{};
  for (int j = 0; j < 64; j++) a[j] = (uint64_t{1} << j) - 1;
  a[64] = ~uint64_t{0};
  return a;
}();

}  // namespace detail

// ------------------------------------------------------- single-word kernels
//
// A word W is an ordered set over [0, digits(W)): bit x set <=> x present.
// All kernels are branch-light wrappers around countr_zero/countl_zero; the
// below/above masks are the SWAR part (one shift+mask builds the candidate
// set, one find-first-set extracts the answer).

template <typename W>
concept WordUniverse = std::is_unsigned_v<W> && !std::is_same_v<W, bool>;

template <WordUniverse W>
inline constexpr unsigned word_universe = std::numeric_limits<W>::digits;

/// Smallest set bit; requires b != 0.
template <WordUniverse W>
inline uint64_t word_min(W b) {
  return static_cast<uint64_t>(std::countr_zero(b));
}

/// Largest set bit; requires b != 0.
template <WordUniverse W>
inline uint64_t word_max(W b) {
  return static_cast<uint64_t>(word_universe<W> - 1 - std::countl_zero(b));
}

template <WordUniverse W>
inline bool word_contains(W b, uint64_t x) {
  return (b >> x) & 1;
}

/// Smallest set bit > x, or kWordNone. Requires x < universe.
template <WordUniverse W>
inline uint64_t word_succ_gt(W b, uint64_t x) {
  // Mask away bits <= x. `2 << x` (== 1 << (x+1)) stays defined because
  // x < digits <= 63.
  W above = static_cast<W>(b & ~((W{2} << x) - 1));
  if (x + 1 >= word_universe<W> || above == 0) return kWordNone;
  return word_min(above);
}

/// Largest set bit < x, or kWordNone. Accepts x == universe (or beyond):
/// every key qualifies.
template <WordUniverse W>
inline uint64_t word_pred_lt(W b, uint64_t x) {
  W below = x >= word_universe<W>
                ? b
                : static_cast<W>(b & ((W{1} << x) - 1));
  if (below == 0) return kWordNone;
  return word_max(below);
}

/// Self-contained leaf node over a [0, 8/16/32/64) universe: the whole set
/// is one integer, operations are single-instruction bit tricks. This is
/// what a vEB leaf *is* once the node structure is stripped away.
template <WordUniverse W>
struct WordLeaf {
  W bits = 0;

  static constexpr unsigned universe() { return word_universe<W>; }
  bool empty() const { return bits == 0; }
  int count() const { return std::popcount(bits); }
  bool contains(uint64_t x) const { return word_contains(bits, x); }
  void insert(uint64_t x) { bits = static_cast<W>(bits | (W{1} << x)); }
  void erase(uint64_t x) { bits = static_cast<W>(bits & ~(W{1} << x)); }
  uint64_t min() const { return empty() ? kWordNone : word_min(bits); }
  uint64_t max() const { return empty() ? kWordNone : word_max(bits); }
  uint64_t succ_gt(uint64_t x) const { return word_succ_gt(bits, x); }
  uint64_t pred_lt(uint64_t x) const { return word_pred_lt(bits, x); }
};

using WordLeaf8 = WordLeaf<uint8_t>;
using WordLeaf16 = WordLeaf<uint16_t>;
using WordLeaf32 = WordLeaf<uint32_t>;
using WordLeaf64 = WordLeaf<uint64_t>;

// ------------------------------------------------------------ block kernels
//
// A block is a two-level word structure over [0, nwords * 64) with
// nwords <= 64: `summary` has bit h set iff words[h] != 0. This is the
// 64x64 = 4096-universe case of the vEB recursion flattened into
// 1 + nwords machine words — the shape both tree backends bottom out in.
// The caller owns the storage (arena array, heap array, or WordBlock4096);
// the kernels never allocate.

// The lookup kernels consult the summary word before touching words[h]:
// the summary travels in the same cache line as the owning node's min/max,
// so when the home word is empty (the common case in sparse blocks) the
// cold load of the word array is skipped entirely.

inline bool block_contains(uint64_t summary, const uint64_t* words,
                           uint64_t x) {
  uint64_t h = x >> 6;
  return ((summary >> h) & 1) && ((words[h] >> (x & 63)) & 1);
}

inline void block_insert(uint64_t& summary, uint64_t* words, uint64_t x) {
  uint64_t h = x >> 6;
  words[h] |= uint64_t{1} << (x & 63);
  summary |= uint64_t{1} << h;
}

inline void block_erase(uint64_t& summary, uint64_t* words, uint64_t x) {
  uint64_t h = x >> 6;
  words[h] &= ~(uint64_t{1} << (x & 63));
  if (words[h] == 0) summary &= ~(uint64_t{1} << h);
}

/// kWordNone iff the block is empty (summary == 0).
inline uint64_t block_min(uint64_t summary, const uint64_t* words) {
  if (summary == 0) return kWordNone;
  uint64_t h = word_min(summary);
  return (h << 6) | word_min(words[h]);
}

inline uint64_t block_max(uint64_t summary, const uint64_t* words) {
  if (summary == 0) return kWordNone;
  uint64_t h = word_max(summary);
  return (h << 6) | word_max(words[h]);
}

/// Number of keys in the block: summary-guided word hops, one popcount per
/// non-empty word.
inline int64_t block_count(uint64_t summary, const uint64_t* words) {
  int64_t total = 0;
  for (uint64_t s = summary; s != 0; s &= s - 1) {
    total += std::popcount(words[word_min(s)]);
  }
  return total;
}

/// Recomputes a summary from the words (the tree's invariant check):
/// bit h set iff words[h] != 0.
inline uint64_t block_summary_of(const uint64_t* words, uint64_t nwords) {
  uint64_t s = 0;
  for (uint64_t h = 0; h < nwords; h++) {
    if (words[h] != 0) s |= uint64_t{1} << h;
  }
  return s;
}

/// Reference (narrow) succ probe: the pre-widening two-branch form, kept
/// as the twin the tests diff block_succ_gt against.
inline uint64_t block_succ_gt_ref(uint64_t summary, const uint64_t* words,
                                  uint64_t x) {
  uint64_t h = x >> 6;
  if ((summary >> h) & 1) {
    uint64_t l = word_succ_gt(words[h], x & 63);
    if (l != kWordNone) return (h << 6) | l;
  }
  uint64_t hs = word_succ_gt(summary, h);
  if (hs == kWordNone) return kWordNone;
  return (hs << 6) | word_min(words[hs]);
}

/// Smallest key > x, or kWordNone. Requires x < nwords * 64 (callers clamp
/// at the universe boundary, as VebTree::succ_gt already does).
///
/// Widened probe: one summary read masked by the above-table yields both
/// the home-word test and the successor-cluster candidate set, and the
/// home word's own candidates come from the same table — no shift-guard
/// branches, and the summary-first contract (words[h] is only loaded when
/// its summary bit is set) is preserved for sparse blocks.
inline uint64_t block_succ_gt(uint64_t summary, const uint64_t* words,
                              uint64_t x) {
  uint64_t h = x >> 6;
  uint64_t cand = summary & (detail::kAbove[h] | (uint64_t{1} << h));
  if ((cand >> h) & 1) {
    uint64_t l = words[h] & detail::kAbove[x & 63];
    if (l != 0) return (h << 6) | word_min(l);
  }
  cand &= detail::kAbove[h];
  if (cand == 0) return kWordNone;
  uint64_t hs = word_min(cand);
  return (hs << 6) | word_min(words[hs]);
}

/// Reference (narrow) pred probe, the twin of block_pred_lt.
inline uint64_t block_pred_lt_ref(uint64_t summary, const uint64_t* words,
                                  uint64_t nwords, uint64_t x) {
  uint64_t h = x >> 6;
  if (h < nwords && ((summary >> h) & 1)) {
    uint64_t l = word_pred_lt(words[h], x & 63);
    if (l != kWordNone) return (h << 6) | l;
  }
  uint64_t hp = word_pred_lt(summary, h);
  if (hp == kWordNone) return kWordNone;
  return (hp << 6) | word_max(words[hp]);
}

/// Largest key < x, or kWordNone. Accepts x up to nwords * 64 inclusive
/// (pred of the universe bound). Widened like block_succ_gt; the kBelow
/// table's 65th entry absorbs the x == universe case the narrow form
/// branches on.
inline uint64_t block_pred_lt(uint64_t summary, const uint64_t* words,
                              uint64_t nwords, uint64_t x) {
  uint64_t h = x >> 6;
  if (h < nwords && ((summary >> h) & 1)) {
    uint64_t l = words[h] & detail::kBelow[x & 63];
    if (l != 0) return (h << 6) | word_max(l);
  }
  uint64_t cand = summary & detail::kBelow[h < 64 ? h : 64];
  if (cand == 0) return kWordNone;
  uint64_t hp = word_max(cand);
  return (hp << 6) | word_max(words[hp]);
}

/// Calls fn(key) for every key in [lo, hi], ascending. Requires
/// lo <= hi < nwords * 64. Word-at-a-time: whole words outside the range
/// are skipped via the summary, partial boundary words are masked once.
template <typename F>
inline void block_for_each(uint64_t summary, const uint64_t* words,
                           uint64_t lo, uint64_t hi, F&& fn) {
  uint64_t h_lo = lo >> 6, h_hi = hi >> 6;
  uint64_t hmask = h_hi + 1 >= 64 ? ~uint64_t{0}
                                  : ((uint64_t{1} << (h_hi + 1)) - 1);
  for (uint64_t s = summary & hmask & ~((uint64_t{1} << h_lo) - 1); s != 0;
       s &= s - 1) {
    uint64_t h = word_min(s);
    uint64_t w = words[h];
    if (h == h_lo) w &= ~uint64_t{0} << (lo & 63);
    if (h == h_hi && (hi & 63) != 63) w &= (uint64_t{2} << (hi & 63)) - 1;
    for (; w != 0; w &= w - 1) fn((h << 6) | word_min(w));
  }
}

/// The 4096-universe block as a self-contained value: 520 bytes, no heap.
/// Used directly by callers that want a fixed-size ordered set of 12-bit
/// keys, and by the tests as the reference wrapper over the kernels.
struct WordBlock4096 {
  static constexpr uint64_t kUniverse = 4096;
  uint64_t summary = 0;
  uint64_t words[64] = {};

  bool empty() const { return summary == 0; }
  int64_t count() const { return block_count(summary, words); }
  bool contains(uint64_t x) const {
    return block_contains(summary, words, x);
  }
  void insert(uint64_t x) { block_insert(summary, words, x); }
  void erase(uint64_t x) { block_erase(summary, words, x); }
  uint64_t min() const { return block_min(summary, words); }
  uint64_t max() const { return block_max(summary, words); }
  uint64_t succ_gt(uint64_t x) const {
    return block_succ_gt(summary, words, x);
  }
  uint64_t pred_lt(uint64_t x) const {
    return block_pred_lt(summary, words, 64, x);
  }
  template <typename F>
  void for_each(uint64_t lo, uint64_t hi, F&& fn) const {
    block_for_each(summary, words, lo, hi, static_cast<F&&>(fn));
  }
};

}  // namespace parlis::veb_words
