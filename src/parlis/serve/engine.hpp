// parlis::serve::Engine — the admission queue that turns the solver
// library into a service.
//
// One dispatcher thread owns execution; callers submit operations and
// block until their result is ready (requests live on the CALLER's stack,
// so the warm submit path allocates nothing). The queue is a fixed ring
// of request pointers with two backpressure modes:
//
//   kBlock  — a full queue blocks the submitting thread until a slot
//             frees (cancellation is honored while blocked);
//   kReject — a full queue throws Error{kOverloaded} immediately, the
//             fail-fast shape for callers with their own retry budget.
//
// The dispatcher drains the queue in FIFO order and:
//   * completes requests whose CancelToken tripped or whose deadline
//     expired while queued WITHOUT executing them — a request cancelled
//     in the queue never reaches a worker;
//   * COALESCES the queries of adjacent guard-free solve requests into
//     one Solver::solve_many batch on the engine's batch solver (the
//     serve.coalesce failpoint fires before the batch runs). solve_many
//     itself packs small queries one-per-task across the pool and runs
//     large ones with intra-query parallelism, so the engine inherits the
//     library's large/small split instead of re-implementing it. A
//     structured failure inside the batch fails every request in it
//     (documented shared fate: the batch is one solver call);
//   * executes guarded requests (live CancelToken / deadline) solo, with
//     the batch solver re-armed per request (set_cancel /
//     set_deadline_ms), because a coalesced batch can only carry one
//     guard;
//   * executes tenant operations — streaming appends, warm per-series
//     solves — on the tenant's own solver under a SessionTable lease
//     acquired at submit time (admission faults and kBudgetExceeded
//     surface synchronously to the caller), with the budget headroom
//     refreshed just before execution.
//
// Deadlines are end to end: the clock starts at submit, the queued wait
// counts against it, and the solver sees only the remainder.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "parlis/api/solver.hpp"
#include "parlis/serve/serve_stats.hpp"
#include "parlis/serve/session_table.hpp"
#include "parlis/util/cancel.hpp"

namespace parlis::serve {

enum class BackpressureMode : uint8_t { kBlock, kReject };

struct EngineConfig {
  SessionTable::Config table{};
  /// Ring capacity in requests; clamped to >= 1.
  int64_t queue_capacity = 256;
  /// Upper bound on queries merged into one coalesced solve_many batch.
  int64_t coalesce_max_queries = 1024;
  /// Batch linger window: after draining, the dispatcher holds the batch
  /// open up to this long (or until coalesce_max_queries) for concurrent
  /// clients' bursts to land in one solve_many. 0 = dispatch immediately;
  /// a lone client pays at most one window per batch, so keep it well
  /// under the per-batch compute time it amortizes.
  int64_t coalesce_linger_us = 0;
  BackpressureMode backpressure = BackpressureMode::kBlock;
  /// Construction-time pause (tests): the dispatcher starts idle until
  /// resume(), making queued-state assertions deterministic.
  bool start_paused = false;
};

/// Per-request guard: both default (invalid token, 0 deadline) means the
/// request is coalescable.
struct RequestGuard {
  CancelToken cancel{};
  int64_t deadline_ms = 0;
};

class Engine {
 public:
  explicit Engine(const EngineConfig& cfg);
  /// Stops accepting work, fails anything still queued with
  /// Error{kCancelled}, and joins the dispatcher.
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Batched solve: queries[i] answered into results[i]
  /// (|results| >= |queries|). Guard-free calls are coalesced with other
  /// queued guard-free solves into one solve_many. Blocks until done;
  /// rethrows the operation's failure.
  void solve(std::span<const Query> queries, std::span<QueryResult> results,
             const RequestGuard& guard = {});

  /// One-query convenience form of solve().
  QueryResult solve_one(const Query& q, const RequestGuard& guard = {});

  /// Streaming append to `series`' session (created on first append);
  /// returns the new LIS length of the tenant's live window.
  int64_t append(uint64_t series, int64_t value,
                 const RequestGuard& guard = {});

  /// Warm per-series solve on the tenant's own solver: weighted queries
  /// run solve_wlis against the tenant's value-sequence cache (repeated
  /// queries over a hot series skip frontier/rank/tree recomputation —
  /// stats count the hits), unweighted ones keep the tenant's tournament
  /// warm. Large inputs get intra-query parallelism via the solver. A
  /// query that breaks validate_query throws Error{kInvalidArgument} on the
  /// caller's thread, before any tenant is pinned.
  QueryResult solve_warm(uint64_t series, const Query& q,
                         const RequestGuard& guard = {});

  /// Combined table + engine counters.
  Stats stats() const;

  SessionTable& table() { return table_; }

  /// Test/maintenance seam: a paused engine admits (and backpressures)
  /// normally but executes nothing until resume().
  void pause();
  void resume();

  /// Requests currently queued (snapshot).
  int64_t queue_depth() const;

 private:
  struct Request {
    enum class Kind : uint8_t { kSolve, kAppend, kWarm } kind;
    // kSolve
    std::span<const Query> queries{};
    std::span<QueryResult> results{};
    // kAppend / kWarm
    uint64_t series = 0;
    int64_t value = 0;
    int64_t append_result = 0;
    const Query* query = nullptr;
    QueryResult* result = nullptr;
    std::optional<SessionTable::Lease> lease;  // pinned at submit
    // Guard, anchored at submit time so the queued wait counts.
    CancelToken cancel{};
    int64_t deadline_ms = 0;
    std::chrono::steady_clock::time_point submitted{};
    bool guarded = false;
    // Completion (the caller waits here; the request is caller-owned).
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::exception_ptr error;
  };

  void submit_and_wait(Request& r);
  void enqueue(Request& r);  // backpressure lives here
  void dispatcher_loop();
  // Pre-execution guard check; completes the request and returns true when
  // it must not run.
  bool finish_if_dead(Request& r);
  void execute_solo(Request& r);
  void run_coalesced(std::vector<Request*>& batch);
  static void complete(Request& r, std::exception_ptr err);
  // Remaining milliseconds of r's deadline (>=1), or 0 for "none".
  static int64_t remaining_deadline_ms(const Request& r);

  SessionTable table_;
  Solver batch_solver_;
  EngineConfig cfg_;

  // Ring of caller-owned request pointers, fixed capacity.
  mutable std::mutex qmu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<Request*> ring_;
  size_t q_head_ = 0, q_size_ = 0;
  bool paused_ = false;
  bool stopping_ = false;

  // Dispatcher scratch, reused across drains.
  std::vector<Request*> drained_;
  std::vector<Request*> batch_reqs_;
  std::vector<Query> batch_queries_;
  std::vector<QueryResult> batch_results_;

  mutable std::atomic<int64_t> requests_{0};
  mutable std::atomic<int64_t> overload_rejections_{0};
  mutable std::atomic<int64_t> cancelled_queued_{0};
  mutable std::atomic<int64_t> expired_queued_{0};
  mutable std::atomic<int64_t> coalesced_batches_{0};
  mutable std::atomic<int64_t> coalesced_queries_{0};
  mutable std::atomic<int64_t> coalesced_batch_max_{0};
  mutable std::atomic<int64_t> queue_depth_hwm_{0};

  std::thread dispatcher_;  // last member: joins before state tears down
};

}  // namespace parlis::serve
