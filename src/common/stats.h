// Cost accounting for similarity-query processing.
//
// The paper's two cost dimensions (Sec. 1) are the number of disk accesses
// (I/O cost) and the number of distance calculations (CPU cost). All engine
// code charges raw counters in a QueryStats; a CostModel — calibrated with
// the unit costs the paper measured in Sec. 6.2 — converts counts into
// modeled milliseconds so that experiments are deterministic and
// hardware-independent.

#ifndef MSQ_COMMON_STATS_H_
#define MSQ_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>

namespace msq {

/// Unit costs used to convert operation counts into modeled time.
///
/// Defaults reproduce the paper's measured environment (Pentium II 300 MHz,
/// Sec. 6.2): a Euclidean distance computation cost 4.3 us at d=20 and
/// 12.7 us at d=64 — a linear fit in the dimension — and one triangle-
/// inequality comparison cost 0.082 us. Disk costs model a late-90s disk
/// with 32 KB pages: a random page access pays seek+rotation+transfer, a
/// sequential page access pays transfer only.
struct CostModel {
  /// Fixed overhead of one distance computation, microseconds.
  double dist_base_micros = 0.4818;
  /// Per-dimension cost of one distance computation, microseconds.
  /// 0.4818 + 20 * 0.19091 = 4.3; 0.4818 + 64 * 0.19091 = 12.7.
  double dist_per_dim_micros = 0.19091;
  /// Cost of one triangle-inequality evaluation, microseconds (Sec. 6.2).
  double triangle_cmp_micros = 0.082;
  /// Cost of one random page access (seek + rotation + transfer), ms.
  double random_page_ms = 8.0;
  /// Cost of one sequential page access (transfer only), ms.
  double seq_page_ms = 1.0;

  /// Modeled cost of one distance computation at dimension `dim`, in us.
  double DistMicros(size_t dim) const {
    return dist_base_micros + dist_per_dim_micros * static_cast<double>(dim);
  }
};

/// Raw operation counts charged by the query engines. Additive: the `+=`
/// operator aggregates per-query or per-server stats.
///
/// Every field is also listed once in kQueryStatsCounters or
/// kQueryStatsWallTimes below; accumulation, ToString, the exported
/// metrics and bench JSON are all driven by those lists.
struct QueryStats {
  // --- CPU side -------------------------------------------------------
  /// Distance computations against database objects (and, for metric
  /// trees, routing objects — they are real distance computations too).
  uint64_t dist_computations = 0;
  /// Distance computations spent initializing the query-distance matrix
  /// (the m(m-1)/2 term of the paper's CPU cost formula).
  uint64_t matrix_dist_computations = 0;
  /// Triangle-inequality evaluations attempted (successful or not);
  /// `avoiding_tries` in the paper's CPU formula. One evaluated inequality
  /// is one try: a Lemma-1 success charges one, a Lemma-2 success two
  /// (Lemma 1 was evaluated first and failed).
  uint64_t triangle_tries = 0;
  /// Distance computations avoided thanks to Lemma 1 / Lemma 2.
  uint64_t triangle_avoided = 0;
  /// Distance computations from a query object to the global pivot set
  /// (the p-per-query setup term of LAESA-style filtering; see
  /// core/pivot_table.h). Real distance computations, charged separately
  /// so the pivot layer's overhead is visible next to its savings.
  uint64_t pivot_dist_computations = 0;
  /// Pivot lower-bound inequalities evaluated (successful or not) — the
  /// pivot analogue of `triangle_tries`, costed at the same per-comparison
  /// rate in the CPU model. Counts both per-object checks in the page
  /// kernel and per-subtree hyper-ring checks in the M-tree descent.
  uint64_t pivot_tries = 0;
  /// Distance computations avoided by a pivot lower bound
  /// |dist(O,P) - dist(Q,P)| > QueryDist (object-level), plus M-tree
  /// routing-object distances avoided by a hyper-ring cut.
  uint64_t pivot_avoided = 0;

  // --- Execution kernel -----------------------------------------------
  /// Batched distance evaluations issued by the page kernel (one per
  /// BatchDistance call over a candidate block).
  uint64_t kernel_batches = 0;
  /// Distances evaluated through those batched calls. Not a cost-model
  /// term: the paper's CPU cost stays `dist_computations` (the kernel
  /// charges exactly what the scalar algorithm would have computed).
  uint64_t kernel_batched_dists = 0;
  /// Batched evaluations discarded by the kernel's replay pass: computed
  /// speculatively, then proven avoidable once intra-page radius shrinkage
  /// was accounted for. Wasted SIMD lanes, not `dist_computations`.
  uint64_t kernel_speculative_dists = 0;

  // --- I/O side -------------------------------------------------------
  /// Data pages fetched with a random disk access.
  uint64_t random_page_reads = 0;
  /// Data pages fetched with a sequential disk access.
  uint64_t seq_page_reads = 0;
  /// Page requests satisfied by the buffer pool (no disk access).
  uint64_t buffer_hits = 0;
  /// Page requests that skipped the read because the multiple-query answer
  /// buffer had already accounted the page for every interested query.
  uint64_t pages_skipped_buffered = 0;

  // --- Query-level ----------------------------------------------------
  /// Similarity queries completed (primary queries of each call).
  uint64_t queries_completed = 0;
  /// Answers produced across all completed queries.
  uint64_t answers_produced = 0;

  // --- Latency attribution (wall-clock microseconds) ------------------
  // Measured elapsed-time shares of one execution, charged at stage
  // boundaries whenever MultiQueryOptions::metrics is non-null (a null
  // sink keeps the engine free of per-page clock reads). Unlike
  // the counters above these are wall times: additive across sequential
  // work, but a sum over work that ran in parallel counts the overlap once
  // per part. So a threaded SharedNothingCluster also returns the batch's
  // critical path (CriticalPath, core/multi_query.h), and the scheduler's
  // latency components are taken from that.
  /// Whole ExecuteInternal (shifting-window) calls.
  double attr_window_micros = 0.0;
  /// Query-distance matrix builds (Sec. 5.2 setup).
  double attr_matrix_micros = 0.0;
  /// Page reads, including injected latency spikes and real preads of a
  /// store-backed database.
  double attr_page_io_micros = 0.0;
  /// Distance-kernel page processing (PageKernel::ProcessPage).
  double attr_kernel_micros = 0.0;
  /// Waiting to serialize on a single-threaded engine / replica database.
  double attr_lock_wait_micros = 0.0;
  /// Failed execution attempts (their unbilled tail) plus retry backoff
  /// sleeps — the price of faults and failover, not of useful work.
  double attr_retry_micros = 0.0;
  /// Cluster-side merge of per-partition answers.
  double attr_merge_micros = 0.0;

  uint64_t TotalPageReads() const { return random_page_reads + seq_page_reads; }
  uint64_t TotalDistComputations() const {
    return dist_computations + matrix_dist_computations +
           pivot_dist_computations;
  }

  /// Modeled I/O time in milliseconds under `model`.
  double IoMillis(const CostModel& model) const;
  /// Modeled CPU time in milliseconds under `model` for dimension `dim`.
  double CpuMillis(const CostModel& model, size_t dim) const;
  /// Modeled total (I/O + CPU) time in milliseconds.
  double TotalMillis(const CostModel& model, size_t dim) const;

  QueryStats& operator+=(const QueryStats& other);
  QueryStats operator-(const QueryStats& other) const;

  /// One-line human-readable rendering (for examples and debugging):
  /// `name=value` per counter, named as in kQueryStatsCounters.
  std::string ToString() const;
};

/// One QueryStats counter: its member, its name (the member's own — also
/// the ToString and bench JSON key), and the Prometheus counter
/// obs::MetricsSink publishes it to, with that counter's help text.
struct QueryStatsCounter {
  uint64_t QueryStats::*member;
  const char* name;
  const char* metric;
  const char* help;
};

/// One latency-attribution wall time. Not exported as a counter: the
/// batch scheduler turns these into per-query latency components.
struct QueryStatsWallTime {
  double QueryStats::*member;
  const char* name;
};

#define MSQ_STATS_FIELD(field, ...) \
  {&QueryStats::field, #field __VA_OPT__(, ) __VA_ARGS__}

/// The single declaration of every QueryStats counter. Adding a counter
/// takes one entry here (plus its row in docs/ALGORITHMS.md, which a test
/// enforces).
inline constexpr QueryStatsCounter kQueryStatsCounters[] = {
    MSQ_STATS_FIELD(
        dist_computations, "msq_engine_dist_computations_total",
        "Distance computations against database objects (CPU cost term)"),
    MSQ_STATS_FIELD(
        matrix_dist_computations, "msq_engine_matrix_dist_computations_total",
        "Query-distance-matrix initializations, the m(m-1)/2 term of Sec. 5.2"),
    MSQ_STATS_FIELD(
        triangle_tries, "msq_engine_triangle_tries_total",
        "Triangle-inequality avoidance attempts (avoiding_tries, Sec. 5.2)"),
    MSQ_STATS_FIELD(triangle_avoided, "msq_engine_triangle_avoided_total",
                    "Distance computations avoided via Lemma 1 / Lemma 2"),
    MSQ_STATS_FIELD(pivot_dist_computations,
                    "msq_engine_pivot_dist_computations_total",
                    "Query-to-pivot setup distances of the LAESA pivot filter"),
    MSQ_STATS_FIELD(
        pivot_tries, "msq_engine_pivot_tries_total",
        "Pivot lower-bound inequalities evaluated (page filter + hyper-rings)"),
    MSQ_STATS_FIELD(
        pivot_avoided, "msq_engine_pivot_avoided_total",
        "Distance computations avoided by pivot lower bounds / ring cuts"),
    MSQ_STATS_FIELD(kernel_batches, "msq_kernel_batches_total",
                    "Batched distance evaluations issued by the page kernel"),
    MSQ_STATS_FIELD(
        kernel_batched_dists, "msq_kernel_batched_dists_total",
        "Distances evaluated through the page kernel's batched calls"),
    MSQ_STATS_FIELD(kernel_speculative_dists,
                    "msq_kernel_speculative_dists_total",
                    "Speculative batched evaluations discarded by the kernel's "
                    "replay pass (computed, then proven avoidable)"),
    MSQ_STATS_FIELD(
        random_page_reads, "msq_engine_random_page_reads_total",
        "Data pages fetched with a random disk access (I/O cost term)"),
    MSQ_STATS_FIELD(
        seq_page_reads, "msq_engine_seq_page_reads_total",
        "Data pages fetched with a sequential disk access (I/O cost term)"),
    MSQ_STATS_FIELD(buffer_hits, "msq_engine_buffer_hits_total",
                    "Page requests satisfied by the buffer pool"),
    MSQ_STATS_FIELD(pages_skipped_buffered,
                    "msq_engine_pages_skipped_buffered_total",
                    "Pages skipped because the answer buffer already accounted "
                    "them (Sec. 5.1 incremental processing)"),
    MSQ_STATS_FIELD(queries_completed, "msq_engine_queries_completed_total",
                    "Similarity queries answered completely"),
    MSQ_STATS_FIELD(answers_produced, "msq_engine_answers_produced_total",
                    "Answers produced across completed queries"),
};

/// The single declaration of every latency-attribution wall time.
inline constexpr QueryStatsWallTime kQueryStatsWallTimes[] = {
    MSQ_STATS_FIELD(attr_window_micros),
    MSQ_STATS_FIELD(attr_matrix_micros),
    MSQ_STATS_FIELD(attr_page_io_micros),
    MSQ_STATS_FIELD(attr_kernel_micros),
    MSQ_STATS_FIELD(attr_lock_wait_micros),
    MSQ_STATS_FIELD(attr_retry_micros),
    MSQ_STATS_FIELD(attr_merge_micros),
};

#undef MSQ_STATS_FIELD

// A field missing from the lists, or listed twice, fails to compile.
static_assert(
    [] {
      auto distinct = [](const auto& table) {
        for (size_t i = 0; i < std::size(table); ++i) {
          for (size_t j = 0; j < i; ++j) {
            if (table[i].member == table[j].member) return false;
          }
        }
        return true;
      };
      return distinct(kQueryStatsCounters) && distinct(kQueryStatsWallTimes);
    }(),
    "a QueryStats field is listed twice");
static_assert(sizeof(QueryStats) ==
                  std::size(kQueryStatsCounters) * sizeof(uint64_t) +
                      std::size(kQueryStatsWallTimes) * sizeof(double),
              "every QueryStats field needs one kQueryStatsCounters or "
              "kQueryStatsWallTimes entry");

/// Thread-safe QueryStats sink for concurrent execution paths.
///
/// The engines themselves charge a plain QueryStats* (single-threaded per
/// engine); when batches run concurrently — BatchScheduler batches on the
/// shared pool, cluster servers — each execution accumulates into a private
/// QueryStats and merges it here once, so no raw counter is ever written
/// from two threads.
class AggregateStats {
 public:
  /// Merges one batch's (or server's) counters into the total.
  void Add(const QueryStats& stats) {
    std::lock_guard<std::mutex> lock(mu_);
    total_ += stats;
    ++batches_merged_;
  }

  /// Consistent copy of the current total.
  QueryStats Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

  /// Number of Add() calls merged so far.
  uint64_t batches_merged() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_merged_;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    total_ = QueryStats();
    batches_merged_ = 0;
  }

 private:
  mutable std::mutex mu_;
  QueryStats total_;
  uint64_t batches_merged_ = 0;
};

}  // namespace msq

#endif  // MSQ_COMMON_STATS_H_
