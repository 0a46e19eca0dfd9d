// SharedNothingCluster: the parallel query processor of Sec. 5.3, extended
// with r-way replicated declustering and automatic failover.
//
// The dataset is declustered into one partition per server; with
// ClusterOptions::replication_factor = r each partition additionally lives
// on r distinct servers (chained placement, parallel/decluster.h), every
// replica holding its own complete database organization over the same
// partition subset. A batch normally executes each partition on its
// primary; when a server fails past its retry budget, the coordinator
// re-issues only that server's *partitions* to live replicas, so
// ExecuteMultipleAll returns complete — and, because every replica of a
// partition is a bit-identical database, bit-identical — answers whenever
// at least one replica of every partition survives. Per-server health is
// tracked by a consecutive-failure circuit breaker with half-open probing,
// fed by the same retry machinery that absorbs transient faults.
//
// Communication cost is negligible in the paper's setting, so the modeled
// parallel elapsed time is the *maximum* per-server cost — each server
// pays its own query-distance matrix initialization, reproducing the
// quadratic-in-m effect the paper reports for large m.

#ifndef MSQ_PARALLEL_CLUSTER_H_
#define MSQ_PARALLEL_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/database.h"
#include "parallel/decluster.h"
#include "parallel/thread_pool.h"

namespace msq {

/// Retry behavior for transient per-server failures (IOError — a flaky page
/// read). A crashed server fails deterministically (kUnavailable) and is
/// not retried at all: the failover layer routes around it instead.
struct ClusterRetryPolicy {
  /// Extra attempts after the first failure; 0 disables retrying.
  int max_retries = 0;
  /// Sleep before the first retry; doubled for each further retry.
  std::chrono::microseconds initial_backoff{0};
};

/// Per-server consecutive-failure circuit breaker. A server whose batch
/// executions keep failing (each counted *after* the retry budget was
/// spent) is taken out of replica selection entirely, so later batches
/// stop burning attempts on it; after a cooldown one probe is let through
/// (half-open) and its outcome closes or re-opens the breaker.
struct CircuitBreakerOptions {
  /// Consecutive failed attempts that trip the breaker open.
  /// 0 disables the breaker (every server is always eligible).
  int failure_threshold = 3;
  /// How long an open breaker refuses work before admitting the half-open
  /// probe. Zero admits a probe on the very next call (deterministic, the
  /// mode the failover tests use).
  std::chrono::microseconds open_cooldown{0};
};

/// Health state of one server's circuit breaker.
enum class BreakerState {
  kClosed = 0,    ///< healthy, receives work
  kOpen = 1,      ///< tripped, skipped during replica selection
  kHalfOpen = 2,  ///< cooldown elapsed, exactly one probe in flight
};

std::string BreakerStateName(BreakerState state);

struct ClusterOptions {
  size_t num_servers = 4;
  DeclusterStrategy strategy = DeclusterStrategy::kRoundRobin;
  /// Each partition is stored on this many distinct servers (chained
  /// placement: partition p lives on servers p, p+1, ..., p+r-1 mod s).
  /// 1 — the default — reproduces the unreplicated layout; any value up
  /// to num_servers buys tolerance of r-1 arbitrary server losses at r
  /// times the storage.
  size_t replication_factor = 1;
  /// Per-server database configuration (backend, page size, batch limits).
  DatabaseOptions server_options;
  /// Run server queries on real threads (off: sequential execution; the
  /// modeled cost is identical, wall-clock differs).
  bool use_threads = true;
  /// Pool to execute server queries on. Borrowed, must outlive the
  /// cluster; lets one process-wide pool serve several clusters and the
  /// BatchScheduler. When null (and use_threads), the cluster creates its
  /// own pool of num_servers workers once at Create — per-call
  /// std::thread spawning is gone either way.
  ThreadPool* shared_pool = nullptr;
  uint64_t seed = 17;
  /// Observability sink for the `msq_cluster_*` instruments (per-server
  /// wall time, straggler skew, failovers, replica re-issues, breaker
  /// states) and per-server spans; also inherited by a cluster-owned
  /// pool. nullptr disables cluster instrumentation.
  const obs::MetricsSink* metrics = obs::MetricsSink::Default();
  /// Bounded retries with exponential backoff for transient (IOError)
  /// server failures. Retries are counted in msq_cluster_retries_total.
  ClusterRetryPolicy retry;
  /// Consecutive-failure circuit breaker applied per server.
  CircuitBreakerOptions breaker;
  /// Per-server fault injectors (robust/fault_injector.h): entry i wraps
  /// the backend of every replica database *hosted on* server i, so
  /// crashing injector i takes down the whole server, not one partition.
  /// Shorter than num_servers leaves the remaining servers fault-free;
  /// empty (the default) injects nothing anywhere.
  std::vector<std::shared_ptr<robust::FaultInjector>> server_faults;
  /// When nonempty, each replica database is built fault-free, persisted
  /// to `<store_dir>/part<p>_rep<j>.msq` (storage/page_file), and reopened
  /// from the file with the host's fault injector attached — so replica
  /// page misses are *real* positioned reads against the single-file
  /// store, and injected faults/latency spikes hit real preads. The
  /// directory must already exist. The serve benchmark's mode.
  std::string store_dir;
};

/// Outcome of a degraded (fault-tolerant) cluster batch execution.
struct ClusterBatchResult {
  /// Merged global answers over the partitions that produced a result on
  /// *some* replica. With any partition missing, kNN answers are
  /// best-effort: a missing partition may hold true neighbors.
  std::vector<AnswerSet> answers;
  /// Partitions absent from `answers` (ascending) — every replica failed
  /// or was refused by its breaker. Partition p's primary is server p, so
  /// with replication_factor = 1 this is exactly the failed servers; with
  /// r > 1 an entry means true quorum loss for that partition. Empty
  /// means the answers are complete.
  std::vector<size_t> missing_servers;
  /// Final per-server status: OK if the server's last attempt in this
  /// call succeeded (or no work was issued to it), otherwise the last
  /// failure. A server that succeeded only after retries is OK here —
  /// `server_attempts` exposes the retries.
  std::vector<Status> server_status;
  /// Batch-execution attempts per server in this call, including
  /// transient-fault retries and failover re-issues. 0 means no work was
  /// issued (no partition chose it, or its breaker was open). OK status
  /// with attempts > 1 identifies a server that succeeded only after
  /// retries.
  std::vector<int> server_attempts;
  /// Server-loss events in this call: servers that failed past the retry
  /// budget and had their partitions re-issued to replicas.
  uint64_t failovers = 0;
  /// Partition executions issued to a non-primary replica in this call
  /// (after a failure, or because the preferred server's breaker was
  /// open).
  uint64_t replica_reissues = 0;
  /// Combined QueryStats delta of every execution attempt of this call:
  /// the engine's cost counters plus the attr_* wall-time attribution
  /// (replica lock waits, failed attempts' tails, backoff sleeps, and the
  /// coordinator-side merge).
  QueryStats stats;
  /// The call's latency along its critical path (Sec. 5.3's slowest
  /// server): per round run on the pool, the attr_* times of the attempt
  /// that finished last, the rest of the round charged to dispatch. A
  /// sequential round contributes every attempt; the merge is on the path.
  CriticalPath critical_path;
};

/// A simulated shared-nothing cluster of MetricDatabases.
///
/// Batch execution (ExecuteMultipleAll / ExecuteMultipleAllPartial) is
/// thread-safe: concurrent batches serialize per replica database (the
/// engines are single-threaded) and the breaker/health state is
/// internally synchronized. The accounting surface (ServerStats,
/// Modeled*Millis, ResetAll) is not synchronized against in-flight
/// batches — read it quiescent.
class SharedNothingCluster {
 public:
  /// Declusters `dataset` into one partition per server, places r replicas
  /// of each partition (chained), and builds one server database per
  /// (partition, replica).
  static StatusOr<std::unique_ptr<SharedNothingCluster>> Create(
      const Dataset& dataset, std::shared_ptr<const Metric> metric,
      const ClusterOptions& options);

  /// Executes the batch on every partition (each replica completes all m
  /// queries on its local data) and merges the per-partition answers into
  /// global answer sets honoring each query's type. Answer object ids are
  /// global. A server failing past its retry budget triggers failover:
  /// its partitions are re-issued to live replicas, so the call succeeds
  /// with answers bit-identical to the fault-free run whenever one
  /// replica of every partition survives. Strict: any *lost partition*
  /// (all replicas down) fails the call with a status naming every lost
  /// partition; ExecuteMultipleAllPartial is the degrading counterpart.
  StatusOr<std::vector<AnswerSet>> ExecuteMultipleAll(
      const std::vector<Query>& queries);

  /// Fault-tolerant execution: never fails on server errors (only on an
  /// empty cluster/batch). Merges the surviving partitions' answers and
  /// reports the missing partitions, per-server statuses and attempt
  /// counts explicitly.
  StatusOr<ClusterBatchResult> ExecuteMultipleAllPartial(
      const std::vector<Query>& queries);

  /// Adapts the cluster to the BatchScheduler's BatchExecutor signature:
  /// executes the batch with retry + failover, merges the survivors, and
  /// reports per-query statuses — all OK when the answers are complete,
  /// all kUnavailable naming the lost partitions under quorum loss (kNN
  /// answers would silently miss true neighbors otherwise). The call's
  /// QueryStats, summed over every attempt, is merged into `stats` when
  /// non-null; the result's critical_path carries the wall times the call
  /// waited for, which is what the scheduler attributes latency from.
  StatusOr<BatchResult> ExecuteBatch(const std::vector<Query>& queries,
                                     QueryStats* stats);

  /// Transient-failure retries attempted so far (all servers, all calls).
  uint64_t retries_attempted() const {
    return retries_attempted_.load(std::memory_order_relaxed);
  }
  /// Failover events so far: servers whose partitions were re-issued to
  /// replicas after the retry budget was exhausted (all calls).
  uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }

  size_t num_servers() const { return num_servers_; }
  size_t replication_factor() const { return replication_factor_; }
  /// Primary replica database of partition i (hosted on server i).
  MetricDatabase& server(size_t i) { return *replicas_[i][0].db; }
  /// Replica j of partition p (j indexes placement()[p]).
  MetricDatabase& replica(size_t p, size_t j) { return *replicas_[p][j].db; }
  const std::vector<std::vector<ObjectId>>& partitions() const {
    return partitions_;
  }
  /// partition -> the servers hosting its replicas; entry 0 is the
  /// primary (== the partition index).
  const std::vector<std::vector<size_t>>& placement() const {
    return placement_;
  }

  /// Current breaker state of one server.
  BreakerState breaker_state(size_t server) const;
  /// True when every partition has at least one replica whose breaker
  /// would currently admit work (closed, or open past its cooldown, or
  /// half-open with the probe slot free).
  bool HasQuorum() const { return QuorumStatus().ok(); }
  /// OK under quorum, otherwise ResourceExhausted naming the partitions
  /// with no admissible replica. Designed to plug into
  /// BatchSchedulerOptions::admission_check so a front-end sheds work the
  /// cluster could only answer partially.
  Status QuorumStatus() const;

  /// Cumulative per-server statistics (since the last ResetAll): the sum
  /// over every replica database hosted on that server. With
  /// replication_factor = 1 this is exactly the per-partition stats.
  std::vector<QueryStats> ServerStats() const;
  /// Modeled parallel elapsed time: max over servers of modeled total
  /// (I/O + CPU) time of the replicas hosted there.
  double ModeledElapsedMillis() const;
  /// Sum of all replicas' modeled time (the work, not the makespan).
  double ModeledTotalWorkMillis() const;

  void ResetAll();

 private:
  SharedNothingCluster() = default;

  /// One replica database plus the mutex serializing batch executions on
  /// it (the engines are single-threaded; concurrent cluster batches must
  /// line up per replica).
  struct Replica {
    std::unique_ptr<MetricDatabase> db;
    std::unique_ptr<std::mutex> mu;
  };

  /// Breaker bookkeeping of one server.
  struct ServerHealth {
    mutable std::mutex mu;
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point opened_at{};
    bool probe_inflight = false;
    /// End of the latest successful attempt recorded; a failure that
    /// ended before it is stale and not counted.
    std::chrono::steady_clock::time_point last_success_end{};
  };

  /// Everything one ExecuteMultipleAll* call produces before merging.
  struct CallOutcome {
    std::vector<std::vector<AnswerSet>> partition_answers;
    std::vector<Status> partition_status;
    std::vector<Status> server_status;
    std::vector<int> server_attempts;
    uint64_t failovers = 0;
    uint64_t replica_reissues = 0;
    QueryStats stats;
    CriticalPath critical_path;
  };

  /// Runs the batch over all partitions with retry + failover applied and
  /// fills the outcome; observes the wall-time histograms.
  void RunPartitions(const std::vector<Query>& queries, CallOutcome* out);

  /// Executes the batch on one replica with the transient-retry policy.
  /// `attempts` is incremented once per execution attempt. `stats_out`
  /// (attempt-local, no concurrent writers) receives the replica's
  /// QueryStats delta across all attempts plus the lock-wait and
  /// retry-time attribution of this call.
  StatusOr<std::vector<AnswerSet>> ExecuteReplica(
      size_t partition, size_t replica_idx,
      const std::vector<Query>& queries, int* attempts,
      QueryStats* stats_out);

  /// Breaker gate: may `server` receive work right now? Transitions
  /// open -> half-open when the cooldown elapsed and reserves the single
  /// half-open probe slot for the caller.
  bool AdmitServer(size_t server);
  /// Records the outcome of one attempt that ended at `end` into the
  /// server's breaker. Outcomes are recorded when the attempt's round
  /// ends, so a failure may arrive after a later attempt's success.
  void RecordServerResult(size_t server, bool ok,
                          std::chrono::steady_clock::time_point end);
  /// Breaker admissibility without reserving the probe slot (QuorumStatus).
  bool ServerAdmissible(size_t server) const;
  void SetBreakerGauge(size_t server, BreakerState state);

  /// Merges the answers of partitions whose status is OK (ids translated
  /// to global, (distance, id) order, query-type bounds re-applied).
  std::vector<AnswerSet> MergePartitions(
      const std::vector<Query>& queries,
      const std::vector<std::vector<AnswerSet>>& partition_answers,
      const std::vector<Status>& partition_status) const;

  size_t num_servers_ = 0;
  size_t replication_factor_ = 1;
  std::vector<std::vector<Replica>> replicas_;     // [partition][replica]
  std::vector<std::vector<ObjectId>> partitions_;  // local id -> global id
  std::vector<std::vector<size_t>> placement_;     // partition -> servers
  std::vector<std::unique_ptr<ServerHealth>> health_;  // per server
  size_t dim_ = 0;
  std::unique_ptr<ThreadPool> owned_pool_;  // set when no shared pool given
  ThreadPool* pool_ = nullptr;              // null: sequential execution
  ClusterRetryPolicy retry_;
  CircuitBreakerOptions breaker_;
  std::atomic<uint64_t> retries_attempted_{0};
  std::atomic<uint64_t> failovers_{0};

  // Instruments, resolved once at Create (null when metrics is null).
  obs::Tracer* tracer_ = nullptr;
  obs::Histogram* server_micros_ = nullptr;
  obs::Histogram* skew_micros_ = nullptr;
  obs::Counter* retries_total_ = nullptr;
  obs::Counter* failovers_total_ = nullptr;
  obs::Counter* reissues_total_ = nullptr;
  std::vector<obs::Gauge*> breaker_gauges_;  // per server; may be empty
};

}  // namespace msq

#endif  // MSQ_PARALLEL_CLUSTER_H_
