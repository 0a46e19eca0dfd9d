// Metrics primitives of the observability layer.
//
// The paper's argument is a cost-accounting one (I/O and CPU cost per
// multiple-similarity-query batch, Secs. 5.1/5.2); QueryStats carries those
// counts in-band per call. This layer is the out-of-band half: process-wide
// monotonic counters, gauges, and fixed-boundary latency histograms that a
// live BatchScheduler/cluster can be watched through while serving
// concurrent traffic. The hot path is lock-free — every instrument is a set
// of relaxed atomic cells, and instrument *resolution* (name -> pointer) is
// done once at construction time, never per observation.
//
// Export format is the Prometheus text exposition format
// (RenderPrometheusText); Chrome-trace export lives in obs/trace.h.

#ifndef MSQ_OBS_METRICS_H_
#define MSQ_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace msq::obs {

/// Monotonically increasing counter. Add() is a single relaxed atomic
/// fetch-add; safe from any number of threads.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed value (queue depths, in-flight batches).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void Sub(int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-boundary histogram for non-negative samples (latencies in
/// microseconds, batch sizes). `boundaries` are inclusive upper bounds of
/// the finite buckets, strictly increasing; one implicit +Inf overflow
/// bucket follows. Observe() is lock-free: a binary search over the
/// (immutable) boundaries plus two relaxed atomic adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> boundaries);

  void Observe(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;

  /// Consistent-enough copy for percentile extraction and rendering
  /// (buckets are read individually relaxed; exact under quiescence, which
  /// is when percentiles are read).
  struct Snapshot {
    std::vector<double> boundaries;     // finite upper bounds
    std::vector<uint64_t> counts;       // boundaries.size() + 1 buckets
    double sum = 0.0;
    uint64_t count = 0;

    /// Percentile `p` in [0, 100] by linear interpolation inside the
    /// bucket holding rank p/100 * count. Conventions (tested exactly):
    ///  - empty histogram: 0.0;
    ///  - the first finite bucket interpolates from lower edge 0.0;
    ///  - a rank landing in the +Inf bucket returns the last finite
    ///    boundary (the histogram cannot resolve beyond it).
    double Percentile(double p) const;
  };
  Snapshot Snap() const;

  /// Convenience: Snap().Percentile(p).
  double Percentile(double p) const { return Snap().Percentile(p); }

  const std::vector<double>& boundaries() const { return boundaries_; }
  void Reset();

 private:
  std::vector<double> boundaries_;
  std::vector<std::atomic<uint64_t>> buckets_;  // boundaries_.size() + 1
  std::atomic<uint64_t> count_{0};
  // Stored as bits so the sum accumulates with a CAS loop; C++20 atomic
  // double fetch_add is not guaranteed lock-free everywhere.
  std::atomic<uint64_t> sum_bits_{0};
};

/// Default latency boundaries: 1 us .. ~16 s, doubling (25 buckets).
std::vector<double> LatencyBoundariesMicros();
/// Small-cardinality boundaries for batch/queue sizes: 1, 2, 4, .. 1024.
std::vector<double> SizeBoundaries();

/// Thread-safe name -> instrument registry with Prometheus text export.
///
/// GetCounter/GetGauge/GetHistogram return a stable pointer, creating the
/// instrument on first use (idempotent; the same (name, labels) always maps
/// to the same cell, so several engines sharing one registry aggregate
/// naturally). `labels` is an optional Prometheus label list without
/// braces, e.g. `reason="deadline"`. Resolution takes a mutex — resolve
/// once and keep the pointer; observations on the returned instruments are
/// lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "",
                      const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "",
                  const std::string& labels = "");
  /// `boundaries` is only used on first creation; later calls with the
  /// same name return the existing histogram regardless of boundaries.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> boundaries,
                          const std::string& help = "",
                          const std::string& labels = "");

  /// Prometheus text exposition format: one `# HELP` / `# TYPE` block per
  /// metric family, then one sample line per (labels) cell; histograms
  /// render cumulative `_bucket{le=...}` series plus `_sum` / `_count`,
  /// followed by a `<name>_summary` gauge family with the
  /// quantile="0.5"/"0.9"/"0.99"/"0.999" percentiles of each cell.
  std::string RenderPrometheusText() const;

  /// Zeroes every registered instrument (instruments stay registered and
  /// previously resolved pointers stay valid). For tests and CLI runs.
  void ResetValues();

  /// The process-global registry (what MetricsSink::Default() exports).
  static MetricsRegistry* Global();

 private:
  // One family = one metric name; cells are keyed by their label string.
  template <typename T>
  struct Family {
    std::string help;
    std::map<std::string, std::unique_ptr<T>> cells;
  };

  template <typename T>
  T* GetCell(std::map<std::string, Family<T>>* families,
             const std::string& name, const std::string& help,
             const std::string& labels);

  mutable std::mutex mu_;
  std::map<std::string, Family<Counter>> counters_;
  std::map<std::string, Family<Gauge>> gauges_;
  std::map<std::string, Family<Histogram>> histograms_;
};

}  // namespace msq::obs

#endif  // MSQ_OBS_METRICS_H_
