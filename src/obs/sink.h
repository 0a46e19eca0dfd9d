// MetricsSink: the handle instrumented layers carry.
//
// Options structs (MultiQueryOptions, BatchSchedulerOptions,
// ClusterOptions, ThreadPool) hold a `const obs::MetricsSink*`:
//  - MetricsSink::Default() (the default) records into the process-global
//    MetricsRegistry and Tracer;
//  - nullptr disables observability entirely — instrumented code resolves
//    no instruments and its hot paths run exactly as before (verified by
//    bench/micro_obs.cc);
//  - a caller-owned sink isolates one component's metrics (tests do this).
//
// The sink also owns the single pipeline from the paper's in-band cost
// accounting to exported metrics: PublishQueryStats merges one completed
// execution's QueryStats delta into the registry's msq_engine_* counters,
// so `triangle_avoided`, page-read counts, etc. appear on the Prometheus
// page with exactly the semantics Sec. 5.1/5.2 define for them.

#ifndef MSQ_OBS_SINK_H_
#define MSQ_OBS_SINK_H_

#include <array>

#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msq::obs {

class MetricsSink {
 public:
  /// Either pointer may be null to disable that half.
  MetricsSink(MetricsRegistry* registry, Tracer* tracer);

  /// Process-global sink: MetricsRegistry::Global() + Tracer::Global().
  static const MetricsSink* Default();

  MetricsRegistry* registry() const { return registry_; }
  Tracer* tracer() const { return tracer_; }

  /// Merges one execution's QueryStats delta into the registry's
  /// msq_engine_* counters (counter cells are resolved once, at sink
  /// construction). No-op without a registry.
  void PublishQueryStats(const QueryStats& delta) const;

 private:
  MetricsRegistry* registry_;
  Tracer* tracer_;

  /// One cell per kQueryStatsCounters entry, in list order.
  std::array<Counter*, std::size(kQueryStatsCounters)> counters_{};
};

}  // namespace msq::obs

#endif  // MSQ_OBS_SINK_H_
