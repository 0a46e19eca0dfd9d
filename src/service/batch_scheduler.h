// BatchScheduler: the admission layer that turns a concurrent stream of
// single similarity queries into well-formed multiple similarity queries.
//
// The paper's entire win comes from batching — one page read is amortized
// across every query it is relevant to (Sec. 5.1) and one query-distance
// matrix across the whole batch (Sec. 5.2) — but the engine only accepts
// pre-formed batches. The scheduler provides the missing front half: many
// client threads Submit() individual queries and get a future each; the
// scheduler accumulates the stream into a batch and flushes it when the
// batch is full, when the oldest pending query has waited flush_deadline,
// or on explicit Flush()/Drain(). Each flushed batch executes on a shared
// ThreadPool via MultiQueryEngine::ExecuteAll (the shifting-window
// sequence of ExploreNeighborhoodsMultiple), so producers never block on
// query execution.
//
// Batching policy:
//  - A query whose id is already pending with the *same* point and type is
//    coalesced: both waiters receive the one answer, the engine sees the
//    query once.
//  - A query whose id is pending with a *different* definition fails
//    immediately (QueryIds name query definitions), without poisoning the
//    batch its namesake rides in.
//  - Overload protection: with max_pending set, a new query arriving while
//    that many admitted queries are unfulfilled is shed immediately with
//    ResourceExhausted (exported as msq_scheduler_shed_total).
//  - Coalescing is keyed by QueryId alone, so a flush is one batch with
//    each id in it once. Callers that share a scheduler keep their query
//    ids apart themselves, e.g. by putting the tenant in the id's high
//    bits as the benchmark's serve workload does.
//  - Failures propagate per query, not per batch: a query whose deadline
//    expired (or whose page reads kept failing) fails only its own
//    waiters; batch-level validation errors still fail every waiter.

#ifndef MSQ_SERVICE_BATCH_SCHEDULER_H_
#define MSQ_SERVICE_BATCH_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/multi_query.h"
#include "core/query.h"
#include "obs/attribution.h"
#include "obs/sink.h"
#include "parallel/thread_pool.h"

namespace msq {

/// Executes one flushed batch and reports per-query outcomes. The default
/// executor (a null BatchSchedulerOptions::executor) runs the scheduler's
/// MultiQueryEngine serialized on an internal mutex; installing a custom
/// one lets the same admission front-end drive any batch backend — notably
/// SharedNothingCluster::ExecuteBatch for replicated serving. Called from
/// pool threads, possibly concurrently: a custom executor owns its own
/// serialization. The QueryStats* is the batch's private stats (never
/// shared between concurrent batches); executors that measure latency
/// attribution charge its attr_* fields. An executor that runs parts of
/// the batch in parallel also returns BatchResult::critical_path, and the
/// latency components are taken from that path instead.
using BatchExecutor = std::function<StatusOr<BatchResult>(
    const std::vector<Query>&, QueryStats*)>;

struct BatchSchedulerOptions {
  /// Flush when this many distinct queries are pending. Clamped to the
  /// engine's MultiQueryOptions::max_batch_size.
  size_t max_batch_size = 32;
  /// Flush when the oldest pending query has waited this long. Zero means
  /// every submission flushes immediately (no batching, lowest latency).
  std::chrono::microseconds flush_deadline{2000};
  /// Overload bound: maximum admitted-but-unfulfilled queries (pending in
  /// the open batch plus riding in in-flight batches). A *new* query
  /// arriving at the bound is shed with ResourceExhausted; coalescing onto
  /// an already-pending query stays allowed (it adds no queue pressure).
  /// Zero means unbounded.
  size_t max_pending = 0;
  /// Optional admission gate consulted for every *new* (non-coalesced)
  /// submission after the max_pending bound. Non-OK sheds the query
  /// immediately with the returned status — the hook for shedding work the
  /// backend could only answer partially, e.g.
  /// SharedNothingCluster::QuorumStatus when the cluster has lost every
  /// replica of some partition. Called under the scheduler lock: keep it
  /// cheap and never let it call back into the scheduler. Null disables
  /// the gate.
  std::function<Status()> admission_check;
  /// Custom batch executor (see BatchExecutor above). Null: execute on the
  /// scheduler's engine. When set, the engine may be null and
  /// max_batch_size is not clamped (the executor enforces its own limits).
  BatchExecutor executor;
  /// Observability sink for the `msq_scheduler_*` instruments (queue depth,
  /// admission wait, end-to-end latency, flush reasons), the
  /// `msq_latency_component_seconds{component=...}` attribution histograms,
  /// and batch spans. nullptr disables scheduler instrumentation.
  const obs::MetricsSink* metrics = obs::MetricsSink::Default();
};

/// Why a pending batch was handed to the pool.
enum class FlushReason {
  kSize,      ///< the batch reached max_batch_size (or zero deadline)
  kDeadline,  ///< the oldest pending query waited flush_deadline
  kExplicit,  ///< Flush() was called
  kDrain,     ///< Drain()/Shutdown() forced the remainder out
};

/// Per-reason flush totals (introspection; also exported as the labeled
/// counter `msq_scheduler_flushes_total{reason=...}`).
struct FlushCounts {
  uint64_t size = 0;
  uint64_t deadline = 0;
  uint64_t explicit_flush = 0;
  uint64_t drain = 0;
};

/// Completion handle of one submitted query: the complete answer set, or
/// the Status of the batch (or submission) that failed it.
using AnswerFuture = std::future<StatusOr<AnswerSet>>;

/// Thread-safe batch-admission service over one MultiQueryEngine.
///
/// `engine` and `pool` are borrowed and must outlive the scheduler. The
/// engine is not thread-safe, so the scheduler serializes batch executions
/// on it with an internal mutex; the pool's value is that producers are
/// decoupled from execution and that one pool serves every scheduler and
/// cluster in the process. Per-batch QueryStats are merged into the
/// optional AggregateStats sink without data races.
class BatchScheduler {
 public:
  /// `engine` may be null iff options.executor is set (replicated serving
  /// runs batches through the executor, not a local engine).
  BatchScheduler(MultiQueryEngine* engine, ThreadPool* pool,
                 const BatchSchedulerOptions& options,
                 AggregateStats* stats_sink = nullptr);
  /// Drains pending work, then stops.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Admits one query. The future completes with the query's full answer
  /// set once the batch it rides in has executed. Invalid submissions
  /// (empty point, id clashing with a differently-defined pending query,
  /// submission after Shutdown) fail the returned future immediately.
  AnswerFuture Submit(Query query);

  /// Hands the currently pending batch to the pool (no-op when empty).
  void Flush();

  /// Flushes and blocks until every admitted query has completed.
  void Drain();

  /// Drains, then rejects all further submissions.
  void Shutdown();

  // --- introspection (for tests and benches) ---------------------------
  size_t pending_size() const;
  /// Queries actually admitted (new or coalesced). Rejected and shed
  /// submissions are counted separately — a rejected submission never
  /// entered the pipeline, so it must not inflate throughput metrics.
  uint64_t queries_submitted() const;
  /// Submissions answered by an already-pending identical query.
  uint64_t queries_coalesced() const;
  /// Submissions refused outright: shutdown, empty point, or an id pending
  /// with a different definition.
  uint64_t queries_rejected() const;
  /// New queries shed by the max_pending bound or the admission gate.
  uint64_t queries_shed() const;
  uint64_t batches_executed() const;
  /// How many flushes each reason caused so far.
  FlushCounts flush_counts() const;
  const BatchSchedulerOptions& options() const { return options_; }

 private:
  /// One pending query and everyone waiting on it.
  struct Pending {
    Query query;
    std::vector<std::promise<StatusOr<AnswerSet>>> promises;
    /// When the query was admitted; the deadline timer always arms from
    /// the *oldest* pending entry (pending_.front()), and the admission
    /// wait and end-to-end latency histograms are fed from it.
    std::chrono::steady_clock::time_point submit_time;
  };

  /// Requires mu_ held. Hands the whole pending set to the pool as one
  /// batch: Submit flushes at max_batch_size, so the set never exceeds
  /// it, and coalescing keeps each id in it once.
  void FlushLocked(FlushReason reason);
  /// Requires mu_ held. Hands one batch to the pool.
  void DispatchLocked(std::shared_ptr<std::vector<Pending>> batch,
                      std::chrono::steady_clock::time_point flush_time);
  void DeadlineLoop();
  /// Splits the executed batch's latency into the obs::LatencyComponent
  /// stages and exports them to msq_latency_component_seconds: queue wait
  /// and dispatch from the stage timestamps plus the executor's own
  /// `executor_dispatch_micros`, the rest from the attr_* times of `attr`
  /// (the executor's critical path, or the batch's stats when it reports
  /// none). Called from the executing pool thread.
  void RecordAttribution(const std::vector<Pending>& batch,
                         const QueryStats& attr,
                         double executor_dispatch_micros,
                         std::chrono::steady_clock::time_point flush_time,
                         std::chrono::steady_clock::time_point task_start);

  MultiQueryEngine* engine_;
  ThreadPool* pool_;
  BatchSchedulerOptions options_;
  AggregateStats* stats_sink_;

  /// Serializes ExecuteAll calls on the (non-thread-safe) engine.
  std::mutex engine_mu_;

  mutable std::mutex mu_;
  std::vector<Pending> pending_;
  std::unordered_map<QueryId, size_t> pending_index_;
  size_t inflight_batches_ = 0;
  /// Queries riding in in-flight batches; pending_.size() + this is the
  /// load the max_pending bound applies to.
  size_t inflight_queries_ = 0;
  bool shutdown_ = false;
  bool stop_deadline_thread_ = false;
  uint64_t queries_submitted_ = 0;
  uint64_t queries_coalesced_ = 0;
  uint64_t queries_rejected_ = 0;
  uint64_t queries_shed_ = 0;
  uint64_t batches_executed_ = 0;
  FlushCounts flush_counts_;

  // Instruments, resolved once at construction (null when metrics is null).
  obs::Tracer* tracer_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Counter* submitted_total_ = nullptr;
  obs::Counter* coalesced_total_ = nullptr;
  obs::Counter* rejected_total_ = nullptr;
  obs::Counter* shed_total_ = nullptr;
  obs::Counter* flush_reason_counters_[4] = {nullptr, nullptr, nullptr,
                                             nullptr};
  obs::Histogram* admission_wait_micros_ = nullptr;
  obs::Histogram* latency_micros_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  /// msq_latency_component_seconds{component=...}, indexed by
  /// obs::LatencyComponent; all null when metrics is null.
  obs::Histogram* component_seconds_[obs::kNumLatencyComponents] = {};

  /// Wakes the deadline thread (new batch opened / shutdown).
  std::condition_variable deadline_cv_;
  /// Signals batch completion (Drain waiters).
  std::condition_variable done_cv_;
  std::thread deadline_thread_;
};

}  // namespace msq

#endif  // MSQ_SERVICE_BATCH_SCHEDULER_H_
