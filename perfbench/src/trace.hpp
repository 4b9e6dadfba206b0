// Span recorder for the traced runs (--trace 1).
//
// The benchmark wraps each call into a library layer's public functions in
// a span: name, start, end, the enclosing span (its parent) and the id of
// the solve or serving op it belongs to. Spans live in memory; the per-layer
// metrics are computed from them after each op, and the retained spans are
// written out at exit as a Chrome trace-event file.
//
// Retention: a large-k solve opens ~1e5 round spans, so after the first
// kDetailOps ops the per-round "detail" leaves are folded away once their
// durations have been read; every phase-level span is kept (up to kMaxSpans).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // string literal
  uint64_t id;       // unique within its tracer, 1-based
  uint64_t parent;   // id of the enclosing span, 0 at top level
  uint64_t op;       // solve / serving-op id
  int64_t start_ns;
  int64_t end_ns;
  bool detail;       // per-round leaf, folded after kDetailOps ops
};

/// One tracer per thread: spans nest through the tracer's open-span stack.
class Tracer {
 public:
  static constexpr uint64_t kDetailOps = 2;
  static constexpr size_t kMaxSpans = size_t{1} << 19;

  explicit Tracer(int thread = 0) : thread_(thread) {}

  size_t mark() const { return spans_.size(); }

  void begin(const char* name, uint64_t op, bool detail = false) {
    const uint64_t parent = open_.empty() ? 0 : spans_[open_.back()].id;
    open_.push_back(spans_.size());
    spans_.push_back(Span{name, ++next_id_, parent, op, now_ns(), 0, detail});
  }

  void end() {
    spans_[open_.back()].end_ns = now_ns();
    open_.pop_back();
  }

  /// Sum of the durations (ms) of spans named `name` recorded since `from`.
  double total_ms(const char* name, size_t from) const {
    int64_t ns = 0;
    for (size_t i = from; i < spans_.size(); i++) {
      if (same(spans_[i].name, name)) ns += spans_[i].end_ns - spans_[i].start_ns;
    }
    return static_cast<double>(ns) * 1e-6;
  }

  /// Sum of the durations (ms) of the top-level spans recorded since
  /// `from`: the traced wall time of one op, layer by layer.
  double top_level_ms(size_t from) const {
    int64_t ns = 0;
    for (size_t i = from; i < spans_.size(); i++) {
      if (spans_[i].parent == 0) ns += spans_[i].end_ns - spans_[i].start_ns;
    }
    return static_cast<double>(ns) * 1e-6;
  }

  /// Appends the durations (in units of `scale` ns) of the spans named
  /// `name` recorded since `from`.
  void durations(const char* name, size_t from, double scale,
                 std::vector<double>& out) const {
    for (size_t i = from; i < spans_.size(); i++) {
      if (same(spans_[i].name, name)) {
        out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) /
                      scale);
      }
    }
  }

  /// Call after the per-op metrics of op `op` were read from spans
  /// [from, mark()): drops its detail leaves unless it is among the first
  /// kDetailOps ops, and stops retaining anything past kMaxSpans.
  void fold(size_t from, uint64_t op) {
    if (op >= kDetailOps) {
      size_t w = from;
      for (size_t i = from; i < spans_.size(); i++) {
        if (!spans_[i].detail) spans_[w++] = spans_[i];
      }
      spans_.resize(w);
    }
    if (spans_.size() > kMaxSpans) {
      dropped_ += spans_.size() - kMaxSpans;
      spans_.resize(kMaxSpans);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  int thread() const { return thread_; }
  uint64_t dropped() const { return dropped_; }

 private:
  static bool same(const char* a, const char* b) {
    return a == b || std::strcmp(a, b) == 0;
  }

  int thread_;
  uint64_t next_id_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name, uint64_t op, bool detail = false)
      : t_(t) {
    if (t_ != nullptr) t_->begin(name, op, detail);
  }
  ~SpanScope() {
    if (t_ != nullptr) t_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
};

/// Writes the tracers' retained spans as Chrome trace-event JSON ("X"
/// events, microseconds relative to the earliest span). `meta` is a JSON
/// object placed under "otherData". Returns false when the file cannot be
/// written.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<Tracer>& tracers,
                               const std::string& meta) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t t0 = INT64_MAX;
  for (const Tracer& t : tracers) {
    for (const Span& s : t.spans()) t0 = std::min(t0, s.start_ns);
  }
  std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n", meta.c_str());
  bool first = true;
  for (const Tracer& t : tracers) {
    for (const Span& s : t.spans()) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"op\":%llu}}",
                   first ? "" : ",\n", s.name, t.thread(),
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
