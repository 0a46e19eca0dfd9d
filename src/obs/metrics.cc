#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

namespace msq::obs {

namespace {

double BitsToDouble(uint64_t bits) { return std::bit_cast<double>(bits); }
uint64_t DoubleToBits(double v) { return std::bit_cast<uint64_t>(v); }

/// Formats a double the way Prometheus expects: integral values without a
/// trailing ".000000", +Inf spelled "+Inf".
std::string FormatValue(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string SampleLine(const std::string& name, const std::string& labels,
                       const std::string& value) {
  std::string line = name;
  if (!labels.empty()) line += "{" + labels + "}";
  line += " " + value + "\n";
  return line;
}

/// Merges an instrument's label list with an extra pair (for histogram
/// `le=` labels).
std::string JoinLabels(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "," + b;
}

/// Renders the `<name>_summary` gauge family: one line per (cell, quantile)
/// with quantile="0.5"/"0.9"/"0.99"/"0.999"; `snaps` pairs each cell's
/// label string with its snapshot.
void AppendSummaryFamily(
    const std::string& name,
    const std::vector<std::pair<std::string, Histogram::Snapshot>>& snaps,
    std::string* out) {
  static constexpr struct {
    const char* label;
    double pct;
  } kQuantiles[] = {
      {"0.5", 50.0}, {"0.9", 90.0}, {"0.99", 99.0}, {"0.999", 99.9}};
  const std::string summary = name + "_summary";
  *out += "# HELP " + summary + " Percentiles of " + name +
          " (p50/p90/p99/p999)\n";
  *out += "# TYPE " + summary + " gauge\n";
  for (const auto& [labels, snap] : snaps) {
    for (const auto& q : kQuantiles) {
      *out += SampleLine(
          summary,
          JoinLabels(labels, std::string("quantile=\"") + q.label + "\""),
          FormatValue(snap.Percentile(q.pct)));
    }
  }
}

/// Renders one histogram family (bucket/sum/count lines) from snapshots,
/// then its summary family.
void AppendHistogramFamily(
    const std::string& name, const std::string& help,
    const std::vector<std::pair<std::string, Histogram::Snapshot>>& snaps,
    std::string* out) {
  if (!help.empty()) *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " histogram\n";
  for (const auto& [labels, snap] : snaps) {
    uint64_t cumulative = 0;
    for (size_t i = 0; i < snap.counts.size(); ++i) {
      cumulative += snap.counts[i];
      const double edge = i < snap.boundaries.size()
                              ? snap.boundaries[i]
                              : std::numeric_limits<double>::infinity();
      out->append(SampleLine(
          name + "_bucket", JoinLabels(labels, "le=\"" + FormatValue(edge) + "\""),
          std::to_string(cumulative)));
    }
    *out += SampleLine(name + "_sum", labels, FormatValue(snap.sum));
    *out += SampleLine(name + "_count", labels, std::to_string(snap.count));
  }
  AppendSummaryFamily(name, snaps, out);
}

}  // namespace

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)),
      buckets_(boundaries_.size() + 1) {
  assert(std::is_sorted(boundaries_.begin(), boundaries_.end()));
}

void Histogram::Observe(double value) {
  const auto it =
      std::lower_bound(boundaries_.begin(), boundaries_.end(), value);
  const size_t bucket = static_cast<size_t>(it - boundaries_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      bits, DoubleToBits(BitsToDouble(bits) + value),
      std::memory_order_relaxed)) {
  }
}

double Histogram::Sum() const {
  return BitsToDouble(sum_bits_.load(std::memory_order_relaxed));
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  s.boundaries = boundaries_;
  s.counts.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    s.counts.push_back(b.load(std::memory_order_relaxed));
  }
  s.sum = Sum();
  s.count = count_.load(std::memory_order_relaxed);
  return s;
}

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank in (0, count]: the sample such that a fraction p/100 of all
  // samples is at or below it.
  const double rank = std::max(p / 100.0 * static_cast<double>(count), 1e-12);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    const double next = static_cast<double>(cumulative + in_bucket);
    if (rank <= next) {
      if (i >= boundaries.size()) {
        // Overflow bucket: unbounded above, report the last finite edge
        // (or 0 if the histogram has no finite buckets at all).
        return boundaries.empty() ? 0.0 : boundaries.back();
      }
      const double lower = i == 0 ? 0.0 : boundaries[i - 1];
      const double upper = boundaries[i];
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * within;
    }
    cumulative += in_bucket;
  }
  return boundaries.empty() ? 0.0 : boundaries.back();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

std::vector<double> LatencyBoundariesMicros() {
  std::vector<double> bounds;
  double b = 1.0;  // 1 us
  for (int i = 0; i < 25; ++i) {  // up to ~16.8 s
    bounds.push_back(b);
    b *= 2.0;
  }
  return bounds;
}

std::vector<double> SizeBoundaries() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 1024.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

// --- MetricsRegistry -------------------------------------------------------

template <typename T>
T* MetricsRegistry::GetCell(std::map<std::string, Family<T>>* families,
                            const std::string& name, const std::string& help,
                            const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family<T>& family = (*families)[name];
  if (family.help.empty()) family.help = help;
  auto& cell = family.cells[labels];
  if (cell == nullptr) cell = std::make_unique<T>();
  return cell.get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const std::string& labels) {
  return GetCell(&counters_, name, help, labels);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const std::string& labels) {
  return GetCell(&gauges_, name, help, labels);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> boundaries,
                                         const std::string& help,
                                         const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family<Histogram>& family = histograms_[name];
  if (family.help.empty()) family.help = help;
  auto& cell = family.cells[labels];
  if (cell == nullptr) {
    cell = std::make_unique<Histogram>(std::move(boundaries));
  }
  return cell.get();
}

std::string MetricsRegistry::RenderPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : counters_) {
    if (!family.help.empty()) out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " counter\n";
    for (const auto& [labels, cell] : family.cells) {
      out += SampleLine(name, labels, std::to_string(cell->Value()));
    }
  }
  for (const auto& [name, family] : gauges_) {
    if (!family.help.empty()) out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " gauge\n";
    for (const auto& [labels, cell] : family.cells) {
      out += SampleLine(name, labels, std::to_string(cell->Value()));
    }
  }
  for (const auto& [name, family] : histograms_) {
    std::vector<std::pair<std::string, Histogram::Snapshot>> snaps;
    snaps.reserve(family.cells.size());
    for (const auto& [labels, cell] : family.cells) {
      snaps.emplace_back(labels, cell->Snap());
    }
    AppendHistogramFamily(name, family.help, snaps, &out);
  }
  return out;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : counters_) {
    for (auto& [labels, cell] : family.cells) cell->Reset();
  }
  for (auto& [name, family] : gauges_) {
    for (auto& [labels, cell] : family.cells) cell->Reset();
  }
  for (auto& [name, family] : histograms_) {
    for (auto& [labels, cell] : family.cells) cell->Reset();
  }
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

}  // namespace msq::obs
