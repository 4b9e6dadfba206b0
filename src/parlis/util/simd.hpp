// Vectorized comparison kernels: the one place SIMD lives.
//
// The hot loops that pay for hand-written vector code are dense comparison
// sweeps: the 8-ary tournament level sweeps (candidate masks, prefix-min
// leaf extraction and counting), the neighbor-compare run scan over sorted
// keys, and the range tree's masked dominance scan. This header provides
// those sweeps as free functions with three properties the rest of the
// codebase relies on:
//
//  1. **Two backends, picked at compile time.** AVX-512 when the target
//     has the F/DQ/BW/VL quartet (one 512-bit vector is a whole 8-ary
//     tournament level, and compares write `__mmask` registers directly),
//     scalar everywhere else: narrower x86 targets, non-x86 targets and
//     ThreadSanitizer builds. A kernel keeps a vector form only where a
//     paired bench measurement shows it paying; the loops whose vector
//     forms measured no gain (the tournament's min-of-8 reductions, the
//     vEB word blocks' summary and popcount sweeps, the range tree's
//     bridge fills) are plain scalar code at their call sites.
//  2. **The scalar twin is always compiled and reachable.** Every kernel
//     `foo(...)` has a `foo_scalar(...)` twin with the same signature and
//     bit-identical results, and the dispatching `foo` consults a process
//     runtime toggle (`set_enabled`). The differential harness flips the
//     toggle and diffs whole solves vectorized-vs-scalar in one process.
//  3. **No hidden relaxation.** Each kernel's contract is stated in terms
//     of the scalar loop it replaces, and the vector implementations follow
//     the exact same comparison semantics (total order on int64/int32), so
//     results are bit-for-bit equal — not "close enough". Nothing here
//     touches floating point. Every intrinsic takes defined operands (the
//     zero-masking `maskz` forms, never an undefined pass-through), so the
//     native build compiles warning-clean.
//
// ThreadSanitizer: vector loads are invisible to TSan's instrumentation,
// so a racy access inside a vector kernel would silently vanish from the
// race report. Under TSan the backend is therefore forced to scalar at
// compile time — the TSan CI leg races the scalar twins, which are the
// same accesses the vector path performs.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

// ----------------------------------------------------- backend selection ---

#if defined(__SANITIZE_THREAD__)
#define PARLIS_SIMD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PARLIS_SIMD_TSAN 1
#endif
#endif

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__) && !defined(PARLIS_SIMD_TSAN)
#define PARLIS_SIMD_AVX512 1
#include <immintrin.h>
#else
#define PARLIS_SIMD_AVX512 0
#endif

namespace parlis::simd {

/// True when the AVX-512 backend is compiled in (the runtime toggle can
/// still route every kernel to its scalar twin).
inline constexpr bool kVectorized = PARLIS_SIMD_AVX512;

/// Compiled backend, for bench/test introspection: "avx512" or "scalar".
inline const char* backend_name() { return kVectorized ? "avx512" : "scalar"; }

// Runtime toggle: default on. The differential harness and the paired
// scalar-vs-SIMD bench rows flip this to diff both paths in one process.
// One relaxed load per kernel call; the kernels all amortize it over at
// least a cache line of work.
inline std::atomic<bool> g_runtime_enabled{true};

inline bool enabled() {
  return kVectorized && g_runtime_enabled.load(std::memory_order_relaxed);
}

/// Returns the previous value (tests restore it).
inline bool set_enabled(bool on) {
  return g_runtime_enabled.exchange(on, std::memory_order_relaxed);
}

/// What actually runs right now: "scalar" when disabled or not compiled.
inline const char* active_backend_name() {
  return enabled() ? backend_name() : "scalar";
}

// ------------------------------------------------------- scalar twins ------
//
// Exactly the loops the vector kernels replace. These are the reference
// implementations the tests diff against and the only code paths on
// non-AVX-512 and TSan builds.

/// Candidate mask of an 8-ary tournament level: bit j set iff
/// p[j] <= bound && p[j] < inf. The prefix-min sweep only ever enters or
/// absorbs children in this set (any child with p[j] > bound can neither
/// qualify against the running bound, which starts at `bound` and only
/// decreases, nor lower it), so the caller walks just these bits.
inline uint32_t cand_mask8_i64_scalar(const int64_t* p, int64_t bound,
                                      int64_t inf) {
  uint32_t m = 0;
  for (int j = 0; j < 8; j++) {
    if (p[j] <= bound && p[j] < inf) m |= uint32_t{1} << j;
  }
  return m;
}

/// Leaf-level prefix-min extraction sweep: exactly the scalar loop
///
///   cur = bound;
///   for j in 0..8: x = p[j];
///     if (x <= cur && x < inf) { extracted |= 1 << j; p[j] = inf; }
///     if (x < cur) cur = x;
///
/// i.e. lane j is extracted iff p[j] <= min(bound, p[0..j-1]) (the running
/// bound is exactly the exclusive prefix-min) and p[j] < inf. Extracted
/// lanes are overwritten with inf, `*new_min` receives the post-sweep
/// min-of-8, and the extracted-lane mask is returned. The vector form
/// computes the exclusive prefix-min across lanes, so the whole sweep —
/// including the level-min refresh — runs branchless out of registers.
inline uint32_t sweep8_extract_i64_scalar(int64_t* p, int64_t bound,
                                          int64_t inf, int64_t* new_min) {
  int64_t cur = bound;
  uint32_t extracted = 0;
  for (int j = 0; j < 8; j++) {
    const int64_t x = p[j];
    if (x <= cur && x < inf) {
      extracted |= uint32_t{1} << j;
      p[j] = inf;
    }
    if (x < cur) cur = x;
  }
  int64_t m = p[0];
  for (int j = 1; j < 8; j++) {
    if (p[j] < m) m = p[j];
  }
  *new_min = m;
  return extracted;
}

/// Counting twin of sweep8_extract: the same sweep without mutation, i.e.
/// #lanes with p[j] <= min(bound, p[0..j-1]) && p[j] < inf.
inline int64_t sweep8_count_i64_scalar(const int64_t* p, int64_t bound,
                                       int64_t inf) {
  int64_t cur = bound;
  int64_t c = 0;
  for (int j = 0; j < 8; j++) {
    const int64_t x = p[j];
    if (x <= cur && x < inf) c++;
    if (x < cur) cur = x;
  }
  return c;
}

/// Run-start bit masks over a contiguous ascending-sorted key image:
/// bit (p - lo) of out[(p - lo) / 64] is set iff position p starts a run,
/// i.e. s[p] != s[p - 1] (for p == lo, compared against the previous
/// block's last key; `force_first` marks p == 0, which always starts a
/// run). Requires hi > lo, s[lo - 1] readable when !force_first, and out
/// zero-filled for ceil((hi - lo) / 64) words by the kernel itself.
inline void run_masks_i64_scalar(const int64_t* s, int64_t lo, int64_t hi,
                                 bool force_first, uint64_t* out) {
  const int64_t n = hi - lo;
  for (int64_t w = 0; w < (n + 63) / 64; w++) out[w] = 0;
  if (force_first || s[lo] != s[lo - 1]) out[0] |= 1;
  for (int64_t p = lo + 1; p < hi; p++) {
    if (s[p] != s[p - 1]) {
      const int64_t off = p - lo;
      out[off >> 6] |= uint64_t{1} << (off & 63);
    }
  }
}

/// max(best, max{ scores[p] : p in [lo, hi), y[p] < qy }). `scores` may be
/// the storage of std::atomic<int64_t> slots reinterpreted as plain int64
/// — the callers only use this in phases where no writer is concurrent
/// (the scalar twin performs the same plain loads).
inline int64_t masked_max_i64_scalar(const int32_t* y, const int64_t* scores,
                                     int64_t lo, int64_t hi, int32_t qy,
                                     int64_t best) {
  for (int64_t p = lo; p < hi; p++) {
    if (y[p] < qy && scores[p] > best) best = scores[p];
  }
  return best;
}

// ------------------------------------------------------ AVX-512 backend ----

#if PARLIS_SIMD_AVX512
namespace detail {

// Lane shift toward higher indices by `by` quadwords, vacated low lanes
// filled from the top of `fill`: valignr concatenates [v | fill] and takes
// quadwords 8-by..15-by.
#define PARLIS_SHIFT_UP_512(v, fill, by) \
  _mm512_maskz_alignr_epi64(0xFF, v, fill, 8 - (by))

inline __m512i min8x(__m512i a, __m512i b) {
  return _mm512_maskz_min_epi64(0xFF, a, b);
}

// Exclusive prefix-min over the 8 lanes of v seeded with `bound`:
// e[j] = min(bound, v[0..j-1]). Three shift+min steps build the inclusive
// prefix, one more shifts it to exclusive and folds the seed in.
inline __m512i eprefix_min8(__m512i v, __m512i bound, __m512i inf) {
  __m512i i = min8x(v, PARLIS_SHIFT_UP_512(v, inf, 1));
  i = min8x(i, PARLIS_SHIFT_UP_512(i, inf, 2));
  i = min8x(i, PARLIS_SHIFT_UP_512(i, inf, 4));
  return min8x(bound, PARLIS_SHIFT_UP_512(i, inf, 1));
}

// Horizontal min / max of 8 int64 lanes: halve 512 -> 256 -> 128 -> 64.
inline int64_t hmin8(__m512i v) {
  __m256i m = _mm256_min_epi64(_mm512_maskz_extracti64x4_epi64(0xF, v, 0),
                               _mm512_maskz_extracti64x4_epi64(0xF, v, 1));
  __m128i h = _mm_min_epi64(_mm256_castsi256_si128(m),
                            _mm256_extracti128_si256(m, 1));
  return _mm_cvtsi128_si64(_mm_min_epi64(h, _mm_unpackhi_epi64(h, h)));
}

inline int64_t hmax8(__m512i v) {
  __m256i m = _mm256_max_epi64(_mm512_maskz_extracti64x4_epi64(0xF, v, 0),
                               _mm512_maskz_extracti64x4_epi64(0xF, v, 1));
  __m128i h = _mm_max_epi64(_mm256_castsi256_si128(m),
                            _mm256_extracti128_si256(m, 1));
  return _mm_cvtsi128_si64(_mm_max_epi64(h, _mm_unpackhi_epi64(h, h)));
}

// Lane j of the level passes iff v[j] <= e[j] && v[j] < inf.
inline __mmask8 sweep_mask(__m512i v, __m512i e, __m512i inf) {
  return _mm512_cmple_epi64_mask(v, e) & _mm512_cmplt_epi64_mask(v, inf);
}

inline uint32_t cand_mask8_i64_vec(const int64_t* p, int64_t bound,
                                   int64_t inf) {
  return sweep_mask(_mm512_loadu_si512(p), _mm512_set1_epi64(bound),
                    _mm512_set1_epi64(inf));
}

inline uint32_t sweep8_extract_i64_vec(int64_t* p, int64_t bound, int64_t inf,
                                       int64_t* new_min) {
  __m512i I = _mm512_set1_epi64(inf);
  __m512i v = _mm512_loadu_si512(p);
  __mmask8 ext = sweep_mask(v, eprefix_min8(v, _mm512_set1_epi64(bound), I), I);
  __m512i nv = _mm512_mask_mov_epi64(v, ext, I);
  _mm512_storeu_si512(p, nv);
  *new_min = hmin8(nv);
  return ext;
}

inline int64_t sweep8_count_i64_vec(const int64_t* p, int64_t bound,
                                    int64_t inf) {
  __m512i I = _mm512_set1_epi64(inf);
  __m512i v = _mm512_loadu_si512(p);
  return std::popcount(static_cast<uint32_t>(
      sweep_mask(v, eprefix_min8(v, _mm512_set1_epi64(bound), I), I)));
}

inline void run_masks_i64_vec(const int64_t* s, int64_t lo, int64_t hi,
                              bool force_first, uint64_t* out) {
  const int64_t n = hi - lo;
  for (int64_t w = 0; w < (n + 63) / 64; w++) out[w] = 0;
  if (force_first || s[lo] != s[lo - 1]) out[0] |= 1;
  int64_t p = lo + 1;
  for (; p + 8 <= hi; p += 8) {
    uint64_t neq = _mm512_cmpneq_epi64_mask(_mm512_loadu_si512(s + p),
                                            _mm512_loadu_si512(s + p - 1));
    if (neq == 0) continue;
    // OR the 8 bits in at offset p - lo (may straddle one word boundary).
    const int64_t off = p - lo;
    out[off >> 6] |= neq << (off & 63);
    const int spill = static_cast<int>(off & 63) + 8 - 64;
    if (spill > 0) out[(off >> 6) + 1] |= neq >> (8 - spill);
  }
  for (; p < hi; p++) {
    if (s[p] != s[p - 1]) {
      const int64_t off = p - lo;
      out[off >> 6] |= uint64_t{1} << (off & 63);
    }
  }
}

inline int64_t masked_max_i64_vec(const int32_t* y, const int64_t* scores,
                                  int64_t lo, int64_t hi, int32_t qy,
                                  int64_t best) {
  int64_t p = lo;
  if (p + 8 <= hi) {
    __m256i Q = _mm256_set1_epi32(qy);
    __m512i acc = _mm512_set1_epi64(best);
    for (; p + 8 <= hi; p += 8) {
      __m256i yv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + p));
      __mmask8 sel = _mm256_cmplt_epi32_mask(yv, Q);  // y[p] < qy per lane
      if (sel == 0) continue;
      acc = _mm512_mask_max_epi64(acc, sel, acc, _mm512_loadu_si512(scores + p));
    }
    best = hmax8(acc);
  }
  return masked_max_i64_scalar(y, scores, p, hi, qy, best);
}

}  // namespace detail
#endif  // PARLIS_SIMD_AVX512

// ------------------------------------------------------ dispatch wrappers --
//
// Each reads the runtime toggle once; on scalar builds the toggle is
// constant-false and the wrapper inlines to the twin.

inline uint32_t cand_mask8_i64(const int64_t* p, int64_t bound, int64_t inf) {
#if PARLIS_SIMD_AVX512
  if (enabled()) return detail::cand_mask8_i64_vec(p, bound, inf);
#endif
  return cand_mask8_i64_scalar(p, bound, inf);
}

inline uint32_t sweep8_extract_i64(int64_t* p, int64_t bound, int64_t inf,
                                   int64_t* new_min) {
#if PARLIS_SIMD_AVX512
  if (enabled()) return detail::sweep8_extract_i64_vec(p, bound, inf, new_min);
#endif
  return sweep8_extract_i64_scalar(p, bound, inf, new_min);
}

inline int64_t sweep8_count_i64(const int64_t* p, int64_t bound, int64_t inf) {
#if PARLIS_SIMD_AVX512
  if (enabled()) return detail::sweep8_count_i64_vec(p, bound, inf);
#endif
  return sweep8_count_i64_scalar(p, bound, inf);
}

inline void run_masks_i64(const int64_t* s, int64_t lo, int64_t hi,
                          bool force_first, uint64_t* out) {
#if PARLIS_SIMD_AVX512
  if (enabled()) return detail::run_masks_i64_vec(s, lo, hi, force_first, out);
#endif
  run_masks_i64_scalar(s, lo, hi, force_first, out);
}

inline int64_t masked_max_i64(const int32_t* y, const int64_t* scores,
                              int64_t lo, int64_t hi, int32_t qy,
                              int64_t best) {
#if PARLIS_SIMD_AVX512
  if (enabled()) return detail::masked_max_i64_vec(y, scores, lo, hi, qy, best);
#endif
  return masked_max_i64_scalar(y, scores, lo, hi, qy, best);
}

}  // namespace parlis::simd
