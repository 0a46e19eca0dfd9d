#include "obs/sink.h"

namespace msq::obs {

MetricsSink::MetricsSink(MetricsRegistry* registry, Tracer* tracer)
    : registry_(registry), tracer_(tracer) {
  if (registry_ == nullptr) return;
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = registry_->GetCounter(kQueryStatsCounters[i].metric,
                                         kQueryStatsCounters[i].help);
  }
}

const MetricsSink* MetricsSink::Default() {
  static const MetricsSink* sink =
      new MetricsSink(MetricsRegistry::Global(), Tracer::Global());
  return sink;
}

void MetricsSink::PublishQueryStats(const QueryStats& delta) const {
  if (registry_ == nullptr) return;
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i]->Add(delta.*kQueryStatsCounters[i].member);
  }
}

}  // namespace msq::obs
