// Machine-readable benchmark output: every harness accepts --out FILE and,
// when given, appends its measurements as a JSON array of flat records
// (BENCH_*.json). Each record carries at least the op name, input size,
// thread count, and the measured median in milliseconds; harnesses attach
// extra fields (realized k, nodes visited, speedup, ...) freely. The files
// are the repo's perf trajectory: commit one per landmark run and diff them
// across PRs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "parlis/util/simd.hpp"

namespace parlis::bench {

/// CPU model string of the host ("model name" in /proc/cpuinfo), read once
/// per process; "unknown" where the file or the field is absent.
inline const std::string& host_cpu_model() {
  static const std::string model = [] {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) != 0) continue;
      const size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      const size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? std::string("unknown")
                                        : line.substr(start);
    }
    return std::string("unknown");
  }();
  return model;
}

/// One flat JSON object, built field-by-field in insertion order. Every
/// record opens with the provenance the constructor stamps: host_hw_threads
/// (std::thread::hardware_concurrency), the compiled SIMD backend
/// (simd::backend_name), the compiler (__VERSION__) and the host's CPU
/// model. On a small-core host the per-op medians are the signal, not
/// wall-clock scaling, and a committed BENCH_*.json without the host and
/// build context is uninterpretable later. Emitters therefore never add
/// these fields by hand.
class JsonRecord {
 public:
  JsonRecord() {
    field("host_hw_threads",
          static_cast<int>(std::thread::hardware_concurrency()));
    field("simd_backend", simd::backend_name());
    field("compiler", __VERSION__);
    field("cpu_model", host_cpu_model());
  }

  JsonRecord& field(const char* key, int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonRecord& field(const char* key, uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonRecord& field(const char* key, int v) {
    return raw(key, std::to_string(v));
  }
  JsonRecord& field(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return raw(key, buf);
  }
  JsonRecord& field(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  JsonRecord& field(const char* key, const char* v) {
    return field(key, std::string(v));
  }

  const std::string& body() const { return body_; }

 private:
  JsonRecord& raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }

  std::string body_;
};

/// Collects records and writes them as a JSON array on write() (or at
/// destruction). An empty path disables the emitter: add() still accepts
/// records, nothing is written.
class BenchJson {
 public:
  explicit BenchJson(std::string path) : path_(std::move(path)) {}
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { write(); }

  bool enabled() const { return !path_.empty(); }

  void add(const JsonRecord& rec) { records_.push_back(rec.body()); }

  /// Writes the array (once); prints the destination path on success.
  void write() {
    if (path_.empty() || written_) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_json: cannot open %s\n", path_.c_str());
      return;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < records_.size(); i++) {
      std::fprintf(f, "  {%s}%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    std::printf("bench_json: wrote %zu records to %s\n", records_.size(),
                path_.c_str());
    written_ = true;
  }

 private:
  std::string path_;
  std::vector<std::string> records_;
  bool written_ = false;
};

}  // namespace parlis::bench
