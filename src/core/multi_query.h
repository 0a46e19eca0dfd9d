// The multiple similarity query engine (Definition 4 / Figure 4).
//
// One call answers the *first* query of the batch completely and the
// remaining queries partially: every data page loaded for the primary query
// is opportunistically processed for each other query it is relevant to
// (Sec. 5.1), with the triangle inequality avoiding distance computations
// across the batch (Sec. 5.2). Partial answers persist in an AnswerBuffer
// between calls, so the shifting-window calls of
// ExploreNeighborhoodsMultiple ([Q1..Qm], [Q2..Qm], ...) re-use all work.

#ifndef MSQ_CORE_MULTI_QUERY_H_
#define MSQ_CORE_MULTI_QUERY_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/answer_buffer.h"
#include "obs/sink.h"
#include "core/backend.h"
#include "core/distance_matrix.h"
#include "core/page_kernel.h"
#include "core/query.h"
#include "dist/counting_metric.h"

namespace msq {

class PivotTable;

/// Tuning knobs of the multiple-query engine. The two `enable_*` flags
/// switch the paper's two orthogonal techniques independently (used by the
/// ablation benches); with both off and batch size 1 the engine degenerates
/// to the single-query algorithm of Figure 1.
struct MultiQueryOptions {
  /// Maximum number of queries per call (the paper's m, bounded by the
  /// memory available for buffering answers plus the quadratic matrix).
  size_t max_batch_size = 100;
  /// Answer-buffer capacity (number of buffered query states).
  size_t buffer_capacity = 1024;
  /// Sec. 5.1: process pages loaded for the primary query for every other
  /// relevant query of the batch.
  bool enable_io_sharing = true;
  /// Sec. 5.2: query-distance matrix + Lemmas 1/2.
  bool enable_triangle_avoidance = true;
  /// Witness-scan cap of one avoidance attempt (see CanAvoidDistance).
  /// Initializes from the library-wide default so the engine and a direct
  /// caller of CanAvoidDistance cannot drift apart again.
  size_t avoidance_max_witnesses = kDefaultMaxWitnesses;
  /// Evaluate page distances through the metrics' batched kernels
  /// (PageKernel's default mode). Off = the scalar reference loop, which
  /// computes identical answers and identical `dist_computations` /
  /// `triangle_avoided` counts (the batched mode's test oracle).
  bool use_batched_kernel = true;
  /// Charge wall-clock stage timings (matrix build, page reads, kernel,
  /// whole window) to QueryStats::attr_* so the serving layer can decompose
  /// end-to-end latency. Only active when a metrics sink is attached — a
  /// null sink always disables attribution, which keeps the verified
  /// zero-overhead property of the null-sink path (per-page clock reads are
  /// the only cost attribution adds).
  bool enable_attribution = true;
  /// Observability sink. Default: the process-global registry + tracer.
  /// nullptr disables all engine instrumentation (zero-overhead no-op);
  /// every completed call publishes its QueryStats delta here, so the
  /// registry is the one export pipeline for the paper's cost counters.
  const obs::MetricsSink* metrics = obs::MetricsSink::Default();
};

/// Result of one multiple-query call.
struct MultiQueryResult {
  /// answers[i] corresponds to queries[i]; answers[0] is complete, the
  /// rest reflect the current buffered (possibly partial) state.
  std::vector<AnswerSet> answers;
  /// OK, or DeadlineExceeded — in which case answers[0] is also partial
  /// (whatever had accumulated when the deadline expired) and the primary
  /// query remains incomplete but resumable in the buffer.
  Status status;
};

/// The wall times a batch actually waited for, when parts of it ran in
/// parallel: summed QueryStats::attr_* count overlapping work once per
/// part, so they overstate the batch's latency.
struct CriticalPath {
  /// The attr_* times along the path: per parallel round, those of the
  /// part that finished last; everything that ran sequentially, in full.
  QueryStats stats;
  /// The rest of each parallel round's wall time: the wait before its
  /// last part started plus the wake-up after that part ended.
  double dispatch_micros = 0.0;
};

/// Result of completing a whole batch with per-query failure isolation.
struct BatchResult {
  /// answers[i] corresponds to queries[i]: complete when statuses[i] is
  /// OK, the buffered partial answers when it is DeadlineExceeded, empty
  /// when the query's window failed outright (e.g. IOError).
  std::vector<AnswerSet> answers;
  std::vector<Status> statuses;
  /// Set by executors that run parts of the batch in parallel
  /// (SharedNothingCluster::ExecuteBatch); the serving layer attributes
  /// latency from it instead of from the summed stats.
  std::optional<CriticalPath> critical_path;
};

/// Executes multiple similarity queries against one backend.
class MultiQueryEngine {
 public:
  /// `backend` and the metric must outlive the engine.
  MultiQueryEngine(QueryBackend* backend, std::shared_ptr<const Metric> metric,
                   const MultiQueryOptions& options);

  /// DB.multiple_similarity_query of Definition 4: answers queries[0]
  /// completely (guaranteed), the others at least partially. Charges all
  /// work to `stats` (may be null).
  StatusOr<MultiQueryResult> Execute(const std::vector<Query>& queries,
                                     QueryStats* stats);

  /// Convenience driver: completes *all* queries by issuing the
  /// shifting-window sequence of calls ([Q0..], [Q1..], ...) the paper
  /// describes, and returns the complete answer set of every query.
  /// All-or-nothing: the first failing window (including a deadline hit)
  /// fails the whole call.
  StatusOr<std::vector<AnswerSet>> ExecuteAll(const std::vector<Query>& queries,
                                              QueryStats* stats);

  /// ExecuteAll with per-query failure isolation (the serving layer's
  /// entry point). Batch-level validation errors (empty/oversized batch,
  /// duplicate ids, a definition conflicting with buffered state) still
  /// fail the whole call; runtime failures of one window — an expired
  /// deadline, an injected or real page-read error — land in
  /// statuses[i] while the remaining windows keep executing.
  StatusOr<BatchResult> ExecuteAllPartial(const std::vector<Query>& queries,
                                          QueryStats* stats);

  /// Arms (or, with nullptr, disarms) LAESA-style pivot filtering: the
  /// page kernel checks each active query's precomputed pivot distances
  /// against the table's object rows before the per-batch Lemma 1/2
  /// witnesses. Filter-only — answers are bit-identical with and without a
  /// table (tests/pivot_test.cc). The table must describe exactly the
  /// backend's objects (ids and metric); MetricDatabase guarantees this
  /// when it builds/loads the table.
  void AttachPivots(std::shared_ptr<const PivotTable> pivots);

  /// Drops all buffered state (between experiments).
  void Reset();

  AnswerBuffer& buffer() { return buffer_; }
  const MultiQueryOptions& options() const { return options_; }
  /// Introspection (tests): the counting metric. Its installed stats sink
  /// must be null between calls — a non-null sink here is a dangling
  /// pointer once the caller's QueryStats dies.
  const CountingMetric& counting_metric() const { return metric_; }

 private:
  /// Shared implementation; fills `result` only when non-null (ExecuteAll
  /// skips the copies of non-primary partial answers). Takes a span so
  /// ExecuteAll's shifting window is a view into the caller's batch —
  /// no per-call copies or O(m) front-pops.
  Status ExecuteInternal(std::span<const Query> queries, QueryStats* stats,
                         AnswerSet* primary_answers, MultiQueryResult* result);

  QueryBackend* backend_;
  CountingMetric metric_;
  MultiQueryOptions options_;
  AnswerBuffer buffer_;
  QueryDistanceCache qq_cache_;
  PageKernel kernel_;
  std::shared_ptr<const PivotTable> pivots_;

  // Instruments, resolved once at construction (null when metrics is null).
  obs::Tracer* tracer_ = nullptr;
  obs::Histogram* window_micros_ = nullptr;
  obs::Histogram* matrix_build_micros_ = nullptr;
  obs::Histogram* window_size_ = nullptr;
  obs::Counter* deadline_hits_ = nullptr;
};

}  // namespace msq

#endif  // MSQ_CORE_MULTI_QUERY_H_
