// Shared pieces of msq_bench, the benchmark program: run configuration and
// results, the bench-owned span log and distance-timing decorator used by
// the traced pass, the brute-force oracle behind the correctness gates, and
// small statistics helpers.

#ifndef MSQ_BENCH_SUITE_SUITE_H_
#define MSQ_BENCH_SUITE_SUITE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "msq/msq.h"

namespace msq::suite {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What one invocation asks for. Every input is derived from `seed`.
struct Config {
  uint64_t seed = 1;
  /// Measured time of one pass, in seconds.
  double seconds = 30.0;
  /// Tiny sizes and phases: exercises every path and gate in a second or
  /// two; the numbers mean nothing.
  bool smoke = false;
  /// Directory for this run's files (page stores, WAL); created and removed
  /// by msq_bench.
  std::string work_dir;
  /// Set-ups per pass; setup_s is their median.
  int setups = 5;
};

/// One reported metric.
struct Value {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The host's speed while a closed-loop workload runs, for stating its
/// times at a fixed nominal speed.
///
/// A shared host changes speed by up to 2x for seconds to minutes at a
/// time (other tenants on the same cores), which no averaging inside one
/// run removes. So every 100 ms the measuring thread times a fixed
/// bench-owned kernel — squared distances over a 32 KiB block that stays
/// in L1, so that its time does not depend on what the workload left in
/// the caches — and each operation's time is scaled by kNominalMicros over
/// the median of the last five kernel times. The library never runs this
/// code, so no change to the library moves the reference. Open-loop
/// latencies are not scaled: they include fixed timer waits that do not
/// follow the host's speed.
class SpeedReference {
 public:
  static constexpr double kNominalMicros = 500.0;

  SpeedReference();
  /// Times the kernel if none was timed in the last 100 ms.
  void MaybeSample();
  /// `raw` time at the nominal speed, by the recent samples.
  double Scale(double raw) const;

 private:
  static constexpr size_t kWindow = 5;

  std::vector<float> rows_;
  std::vector<double> recent_us_;  // ring of the last kWindow samples
  size_t next_ = 0;
  Clock::time_point last_{};
};

/// Outcome of one pass of one workload.
struct PassResult {
  /// Non-empty when a correctness gate failed (the run prints no result).
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Value> end_to_end;
  /// Filled by the traced pass only.
  std::vector<Value> layers;
  /// The workload's primary metric as a cost (lower is better); the traced
  /// pass's against the untraced pass's gives obs.trace_overhead_pct.
  double primary_cost = 0.0;
};

/// The traced pass's spans, recorded around the calls into each layer,
/// kept in memory and written as a Chrome trace at exit. Every span carries
/// the request it belongs to and its parent span (0 for a root).
class SpanLog {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const char* name, uint64_t id, uint64_t parent, uint64_t req,
              Clock::time_point start, Clock::time_point end);
  size_t size() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t id, parent, req;
    double ts_us, dur_us;
    uint32_t tid;
  };
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Euclidean distance with the batched kernel calls timed: the `dist`
/// layer's numbers. Per-thread accumulators keep the timing off shared
/// cache lines. Scalar Distance() calls (matrix builds) are not timed: a
/// clock read costs as much as one distance.
class TimedEuclidean : public Metric, public BoxDistanceMetric {
 public:
  TimedEuclidean();

  double Distance(const Vec& a, const Vec& b) const override;
  void BatchDistance(const Vec& q, const VecBlock& block,
                     std::span<double> out) const override;
  double MinDistToBox(const Vec& q, const Vec& lo,
                      const Vec& hi) const override;
  std::string Name() const override { return inner_.Name(); }

  struct Totals {
    uint64_t batch_calls = 0;
    uint64_t batch_rows = 0;
    uint64_t batch_ns = 0;

    Totals operator-(const Totals& o) const {
      return {batch_calls - o.batch_calls, batch_rows - o.batch_rows,
              batch_ns - o.batch_ns};
    }
  };
  /// Sum over all threads (read quiescent).
  Totals Sum() const;

 private:
  struct alignas(64) Acc {
    std::atomic<uint64_t> batch_calls{0}, batch_rows{0}, batch_ns{0};
  };
  Acc& Local() const;

  EuclideanMetric inner_;
  const uint64_t serial_;
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Acc>> accs_;
};

/// The metric a workload builds its databases with: plain Euclidean when
/// untraced, the timing decorator (also stored in `timed`) when traced.
std::shared_ptr<const Metric> WorkloadMetric(
    bool traced, std::shared_ptr<const TimedEuclidean>* timed);

// --- oracle ---------------------------------------------------------------

struct LiveObject {
  ObjectId id;
  const Vec* vec;
};

/// Exact kNN by linear scan: the k smallest (distance, id).
AnswerSet BruteForceKnn(const Metric& metric,
                        const std::vector<LiveObject>& objects, const Vec& q,
                        size_t k);

/// "" when `got` equals `want` in ids and distances, else a description.
std::string CompareAnswers(const AnswerSet& got, const AnswerSet& want);

/// Every object of `dataset`, ids 0..n-1.
std::vector<LiveObject> AllObjects(const Dataset& dataset);

/// The live objects of a database version (base minus tombstones, plus the
/// live delta), by current id.
std::vector<LiveObject> LiveObjects(const LiveVersion& version);

// --- statistics -----------------------------------------------------------

/// Percentile p in [0, 100] by linear interpolation between order
/// statistics; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Runs `build` `times` times (each builds the workload's whole system
/// anew, dropping the previous one) and stores the median time in
/// seconds, scaled by `speed` unless it is null. Stops at the first
/// failure.
Status SetUpRepeated(int times, const std::function<Status()>& build,
                     SpeedReference* speed, double* median_seconds);

/// Mean microseconds of QueryBackend::ReadPageBlockChecked over every data
/// page of `db`: first right after ResetAll (cold buffer pool), then again.
Status ProbeBlockReads(MetricDatabase* db, double* cold_us, double* warm_us);

/// Appends the per-layer metrics every workload reports from the engines'
/// QueryStats and the distance decorator (`core.*`, `dist.*` and the
/// page-read part of `storage.*`) over one measured phase. `executor_us` is
/// the executor thread time the shares refer to.
void AddEngineLayers(const QueryStats& stats, double executor_us,
                     const TimedEuclidean::Totals& dist,
                     std::vector<Value>* out);

}  // namespace msq::suite

#endif  // MSQ_BENCH_SUITE_SUITE_H_
