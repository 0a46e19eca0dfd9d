#include "suite.h"

#include <algorithm>
#include <cstdio>

namespace msq::suite {

// --- SpanLog --------------------------------------------------------------

void SpanLog::Record(const char* name, uint64_t id, uint64_t parent,
                     uint64_t req, Clock::time_point start,
                     Clock::time_point end) {
  Span span{name,
            id,
            parent,
            req,
            std::chrono::duration<double, std::micro>(start - epoch_).count(),
            std::chrono::duration<double, std::micro>(end - start).count(),
            obs::Tracer::CurrentThreadId()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::fputs("{\"traceEvents\":[", f);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"msq_bench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu,\"req\":%llu}}",
                   i == 0 ? "" : ",", s.name, s.tid, s.ts_us, s.dur_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req));
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

// --- TimedEuclidean -------------------------------------------------------

namespace {
std::atomic<uint64_t> next_timed_serial{1};
}  // namespace

TimedEuclidean::TimedEuclidean()
    : serial_(next_timed_serial.fetch_add(1, std::memory_order_relaxed)) {}

TimedEuclidean::Acc& TimedEuclidean::Local() const {
  // Keyed by a serial, not `this`: a later decorator may reuse the address.
  thread_local uint64_t owner = 0;
  thread_local Acc* acc = nullptr;
  if (owner != serial_) {
    std::lock_guard<std::mutex> lock(mu_);
    accs_.push_back(std::make_unique<Acc>());
    acc = accs_.back().get();
    owner = serial_;
  }
  return *acc;
}

double TimedEuclidean::Distance(const Vec& a, const Vec& b) const {
  return inner_.Distance(a, b);
}

void TimedEuclidean::BatchDistance(const Vec& q, const VecBlock& block,
                                   std::span<double> out) const {
  const Clock::time_point start = Clock::now();
  inner_.BatchDistance(q, block, out);
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  Acc& acc = Local();
  acc.batch_calls.fetch_add(1, std::memory_order_relaxed);
  acc.batch_rows.fetch_add(block.count, std::memory_order_relaxed);
  acc.batch_ns.fetch_add(ns, std::memory_order_relaxed);
}

double TimedEuclidean::MinDistToBox(const Vec& q, const Vec& lo,
                                    const Vec& hi) const {
  return inner_.MinDistToBox(q, lo, hi);
}

TimedEuclidean::Totals TimedEuclidean::Sum() const {
  Totals t;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& acc : accs_) {
    t.batch_calls += acc->batch_calls.load(std::memory_order_relaxed);
    t.batch_rows += acc->batch_rows.load(std::memory_order_relaxed);
    t.batch_ns += acc->batch_ns.load(std::memory_order_relaxed);
  }
  return t;
}

std::shared_ptr<const Metric> WorkloadMetric(
    bool traced, std::shared_ptr<const TimedEuclidean>* timed) {
  if (!traced) {
    timed->reset();
    return std::make_shared<EuclideanMetric>();
  }
  *timed = std::make_shared<TimedEuclidean>();
  return *timed;
}

// --- SpeedReference -------------------------------------------------------

namespace {
constexpr size_t kReferenceDim = 64;
constexpr size_t kReferenceRows = 128;  // 32 KiB of floats
constexpr int kReferencePasses = 128;
// Written after every sample so the kernel cannot be optimized away.
volatile double reference_sink = 0.0;
}  // namespace

SpeedReference::SpeedReference() : rows_(kReferenceRows * kReferenceDim) {
  for (size_t i = 0; i < rows_.size(); ++i) {
    rows_[i] = static_cast<float>(i % 113) * 0.003f;
  }
}

void SpeedReference::MaybeSample() {
  if (last_ != Clock::time_point{} &&
      MillisBetween(last_, Clock::now()) < 100.0) {
    return;
  }
  const Clock::time_point start = Clock::now();
  double total = 0.0;
  for (int pass = 0; pass < kReferencePasses; ++pass) {
    const float q = static_cast<float>(pass) * 0.01f;
    for (size_t row = 0; row < kReferenceRows; ++row) {
      float d = 0.0f;
      for (size_t j = 0; j < kReferenceDim; ++j) {
        const float t = rows_[row * kReferenceDim + j] - q;
        d += t * t;
      }
      total += d;
    }
  }
  reference_sink = total;
  last_ = Clock::now();
  const double us = MillisBetween(start, last_) * 1e3;
  if (recent_us_.size() < kWindow) {
    recent_us_.push_back(us);
  } else {
    recent_us_[next_] = us;
  }
  next_ = (next_ + 1) % kWindow;
}

double SpeedReference::Scale(double raw) const {
  return recent_us_.empty() ? raw : raw * kNominalMicros / Median(recent_us_);
}

// --- oracle ---------------------------------------------------------------

AnswerSet BruteForceKnn(const Metric& metric,
                        const std::vector<LiveObject>& objects, const Vec& q,
                        size_t k) {
  AnswerSet all;
  all.reserve(objects.size());
  for (const LiveObject& o : objects) {
    all.push_back({o.id, metric.Distance(q, *o.vec)});
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end());
  all.resize(keep);
  return all;
}

std::string CompareAnswers(const AnswerSet& got, const AnswerSet& want) {
  if (got.size() != want.size()) {
    return "answer has " + std::to_string(got.size()) + " entries, oracle " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "rank %zu: got (id %llu, %.17g), oracle (id %llu, %.17g)",
                    i, static_cast<unsigned long long>(got[i].id),
                    got[i].distance,
                    static_cast<unsigned long long>(want[i].id),
                    want[i].distance);
      return buf;
    }
  }
  return "";
}

std::vector<LiveObject> AllObjects(const Dataset& dataset) {
  std::vector<LiveObject> out;
  out.reserve(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    out.push_back({static_cast<ObjectId>(i),
                   &dataset.object(static_cast<ObjectId>(i))});
  }
  return out;
}

std::vector<LiveObject> LiveObjects(const LiveVersion& version) {
  std::vector<LiveObject> out;
  out.reserve(version.live_objects());
  for (size_t id = 0; id < version.total_objects(); ++id) {
    if (version.tombstoned(id)) continue;
    const Vec* vec =
        id < version.base_n
            ? &version.base_dataset->object(static_cast<ObjectId>(id))
            : &version.delta[id - version.base_n];
    out.push_back({static_cast<ObjectId>(id), vec});
  }
  return out;
}

// --- statistics -----------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Status SetUpRepeated(int times, const std::function<Status()>& build,
                     SpeedReference* speed, double* median_seconds) {
  std::vector<double> seconds;
  for (int i = 0; i < std::max(times, 1); ++i) {
    if (speed != nullptr) speed->MaybeSample();
    const Clock::time_point start = Clock::now();
    if (Status st = build(); !st.ok()) return st;
    const double s = MillisBetween(start, Clock::now()) / 1e3;
    seconds.push_back(speed != nullptr ? speed->Scale(s) : s);
  }
  *median_seconds = Median(std::move(seconds));
  return Status::OK();
}

Status ProbeBlockReads(MetricDatabase* db, double* cold_us, double* warm_us) {
  QueryBackend& backend = db->backend();
  const size_t pages = backend.NumDataPages();
  if (pages == 0) return Status::Internal("database has no data pages");
  db->ResetAll();
  for (double* out : {cold_us, warm_us}) {
    QueryStats stats;
    PageBlock block;
    const Clock::time_point start = Clock::now();
    for (size_t p = 0; p < pages; ++p) {
      if (Status st = backend.ReadPageBlockChecked(static_cast<PageId>(p),
                                                   &stats, &block);
          !st.ok()) {
        return st;
      }
    }
    *out = MillisBetween(start, Clock::now()) * 1e3 /
           static_cast<double>(pages);
  }
  return Status::OK();
}

void AddEngineLayers(const QueryStats& s, double executor_us,
                     const TimedEuclidean::Totals& dist,
                     std::vector<Value>* out) {
  const double queries = static_cast<double>(s.queries_completed);
  const double avoided =
      static_cast<double>(s.triangle_avoided + s.pivot_avoided);
  const double pages = static_cast<double>(s.TotalPageReads());
  out->push_back({"core.dists_per_query", "count",
                  Ratio(static_cast<double>(s.TotalDistComputations()),
                        queries)});
  out->push_back({"core.avoided_share", "share",
                  Ratio(avoided,
                        avoided + static_cast<double>(s.dist_computations))});
  out->push_back({"core.triangle_tries_per_query", "count",
                  Ratio(static_cast<double>(s.triangle_tries), queries)});
  out->push_back({"core.matrix_share", "share",
                  Ratio(s.attr_matrix_micros, s.attr_window_micros)});
  out->push_back({"core.speculative_share", "share",
                  Ratio(static_cast<double>(s.kernel_speculative_dists),
                        static_cast<double>(s.kernel_batched_dists))});
  out->push_back({"core.window_us_per_query", "us",
                  Ratio(s.attr_window_micros, queries)});
  out->push_back({"storage.page_reads_per_query", "count",
                  Ratio(pages, queries)});
  out->push_back({"storage.buffer_hit_ratio", "share",
                  Ratio(static_cast<double>(s.buffer_hits),
                        static_cast<double>(s.buffer_hits) + pages)});
  out->push_back({"storage.page_io_share", "share",
                  Ratio(s.attr_page_io_micros, executor_us)});
  out->push_back({"dist.rows_per_call", "count",
                  Ratio(static_cast<double>(dist.batch_rows),
                        static_cast<double>(dist.batch_calls))});
  out->push_back({"dist.ns_per_row", "ns",
                  Ratio(static_cast<double>(dist.batch_ns),
                        static_cast<double>(dist.batch_rows))});
  out->push_back({"dist.busy_share", "share",
                  Ratio(static_cast<double>(dist.batch_ns) / 1e3,
                        executor_us)});
}

}  // namespace msq::suite
