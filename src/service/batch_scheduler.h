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
//  - Multi-tenancy: Submit(query, tenant) tags the query with a tenant
//    whose TenantOptions pick a priority lane, a per-tenant quota, and an
//    optional lane p99 SLO. A flush emits one batch per lane (highest
//    priority first); a tenant at its quota is shed without touching other
//    tenants' admission; while a lane with an SLO runs over target, new
//    lower-priority work is shed to protect it. Coalescing is scoped to
//    the tenant — two tenants submitting the same query id never share a
//    future (and never collide as "different definition").
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
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/multi_query.h"
#include "core/query.h"
#include "obs/attribution.h"
#include "obs/sink.h"
#include "obs/window.h"
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

/// Per-tenant serving policy. Tenants are named by the string passed to
/// Submit(query, tenant); unnamed submissions ("") use default_tenant.
struct TenantOptions {
  /// Priority lane, lower = higher priority. A flush emits one batch per
  /// lane (highest priority first), so a write-heavy or background tenant
  /// on a low-priority lane never dilutes a latency-sensitive tenant's
  /// batches or overtakes them in the pool queue.
  int lane = 0;
  /// Per-tenant admitted-but-unfulfilled bound, enforced on top of the
  /// global max_pending: a flooding tenant is shed at its own quota while
  /// other tenants keep being admitted. Zero = unbounded.
  size_t max_pending = 0;
  /// Target p99 end-to-end latency for this tenant's lane (zero = none).
  /// While a lane with an SLO observes p99 above target (over the recent
  /// completion window), *new* submissions to lower-priority lanes are
  /// shed — load shedding protects the tenants that promised latency, at
  /// the cost of the ones that didn't.
  std::chrono::microseconds slo_p99{0};
};

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
  /// Policy for the unnamed tenant ("") and for tenants absent from
  /// `tenants`.
  TenantOptions default_tenant;
  /// Named per-tenant policies (lane, quota, lane SLO).
  std::unordered_map<std::string, TenantOptions> tenants;
  /// Completed-query samples a lane must have accumulated (in its sliding
  /// ring of the most recent kSloWindow completions) before its SLO can
  /// shed lower-priority work — guards cold-start shedding off one slow
  /// outlier.
  size_t slo_min_samples = 16;
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
  /// When > 0, per-query end-to-end latency is additionally fed into the
  /// sliding-window histogram `msq_scheduler_latency_window_micros` with
  /// this horizon, so p50/p99/p999 *over the last N seconds* are
  /// exportable alongside the cumulative msq_scheduler_latency_micros.
  double latency_window_seconds = 0.0;
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

  /// Admits one query on behalf of the unnamed tenant (""). The future
  /// completes with the query's full answer set once the batch it rides in
  /// has executed. Invalid submissions (empty point, id clashing with a
  /// differently-defined pending query of the same tenant, submission
  /// after Shutdown) fail the returned future immediately.
  AnswerFuture Submit(Query query);

  /// Admits one query on behalf of `tenant` (policy: options().tenants
  /// entry, else default_tenant). Besides the global bounds, the
  /// submission can be shed at the tenant's own quota
  /// (msq_scheduler_tenant_shed_total{tenant=...}) or by SLO pressure from
  /// a higher-priority lane (msq_scheduler_slo_shed_total).
  AnswerFuture Submit(Query query, const std::string& tenant);

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
  /// New queries shed for any overload reason: the global max_pending
  /// bound, a tenant quota, SLO pressure, or the admission gate.
  uint64_t queries_shed() const;
  /// Sheds charged to `tenant`'s own max_pending quota.
  uint64_t queries_shed_tenant(const std::string& tenant) const;
  /// Sheds of lower-priority work while a higher-priority lane's p99 ran
  /// over its SLO.
  uint64_t queries_shed_slo() const;
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
    /// Who submitted it, and the lane its policy resolved to at admission.
    std::string tenant;
    int lane = 0;
  };

  /// Coalescing key: query ids are namespaced per tenant, so two tenants
  /// submitting the same id get independent futures and definitions.
  struct TenantKey {
    std::string tenant;
    QueryId id;
    bool operator==(const TenantKey& o) const {
      return id == o.id && tenant == o.tenant;
    }
  };
  struct TenantKeyHash {
    size_t operator()(const TenantKey& k) const {
      return std::hash<std::string>()(k.tenant) ^
             (std::hash<QueryId>()(k.id) * 0x9e3779b97f4a7c15ull);
    }
  };

  /// Recent end-to-end completions of one lane (ring of the last
  /// kSloWindow samples, micros) plus the tightest SLO any tenant put on
  /// the lane. Guarded by mu_.
  struct LaneSlo {
    std::chrono::microseconds slo{0};
    std::vector<double> ring;
    size_t next = 0;
    size_t count = 0;
  };
  static constexpr size_t kSloWindow = 128;

  const TenantOptions& TenantPolicy(const std::string& tenant) const;
  /// Requires mu_ held. True when some lane with higher priority than
  /// `lane` holds an SLO, has at least slo_min_samples recent completions,
  /// and their p99 exceeds it.
  bool SloPressureLocked(int lane) const;
  /// Requires mu_ held. Splits the pending set into per-lane batches
  /// (highest priority first, duplicate ids never sharing a batch) and
  /// hands each to the pool.
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
  std::unordered_map<TenantKey, size_t, TenantKeyHash> pending_index_;
  size_t inflight_batches_ = 0;
  /// Queries riding in in-flight batches; pending_.size() + this is the
  /// load the max_pending bound applies to.
  size_t inflight_queries_ = 0;
  /// Admitted-but-unfulfilled entries per tenant (pending + inflight);
  /// what TenantOptions::max_pending bounds. Entries are erased at zero so
  /// an idle tenant costs nothing.
  std::unordered_map<std::string, size_t> tenant_load_;
  /// Per-lane completion rings, for lanes some tenant put an SLO on
  /// (populated at construction; std::map so "higher-priority lanes"
  /// iterates in lane order).
  std::map<int, LaneSlo> lane_slos_;
  bool shutdown_ = false;
  bool stop_deadline_thread_ = false;
  uint64_t queries_submitted_ = 0;
  uint64_t queries_coalesced_ = 0;
  uint64_t queries_rejected_ = 0;
  uint64_t queries_shed_ = 0;
  uint64_t queries_shed_slo_ = 0;
  std::unordered_map<std::string, uint64_t> tenant_shed_counts_;
  uint64_t batches_executed_ = 0;
  FlushCounts flush_counts_;

  // Instruments, resolved once at construction (null when metrics is null).
  // The registry itself is kept for the on-demand per-tenant shed counters
  // (tenant names are open-ended, so their labeled counters cannot all be
  // resolved up front).
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Counter* submitted_total_ = nullptr;
  obs::Counter* coalesced_total_ = nullptr;
  obs::Counter* rejected_total_ = nullptr;
  obs::Counter* shed_total_ = nullptr;
  obs::Counter* slo_shed_total_ = nullptr;
  obs::Counter* flush_reason_counters_[4] = {nullptr, nullptr, nullptr,
                                             nullptr};
  obs::Histogram* admission_wait_micros_ = nullptr;
  obs::Histogram* latency_micros_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  /// msq_latency_component_seconds{component=...}, indexed by
  /// obs::LatencyComponent; all null when metrics is null.
  obs::Histogram* component_seconds_[obs::kNumLatencyComponents] = {};
  /// Sliding-window e2e latency (null unless latency_window_seconds > 0).
  obs::SlidingWindowHistogram* latency_window_ = nullptr;

  /// Wakes the deadline thread (new batch opened / shutdown).
  std::condition_variable deadline_cv_;
  /// Signals batch completion (Drain waiters).
  std::condition_variable done_cv_;
  std::thread deadline_thread_;
};

}  // namespace msq

#endif  // MSQ_SERVICE_BATCH_SCHEDULER_H_
