// Tests for the observability layer: lock-free instruments and exact
// percentile math, the registry's Prometheus text rendering, the tracer's
// Chrome trace export, and the MetricsSink pipeline that publishes the
// paper's QueryStats cost counters.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "obs/window.h"

namespace msq {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSink;
using obs::ScopedSpan;
using obs::TraceEvent;
using obs::Tracer;

// ---------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetAddSub) {
  Gauge g;
  g.Set(10);
  g.Add(5);
  g.Sub(7);
  EXPECT_EQ(g.Value(), 8);
  g.Sub(20);
  EXPECT_EQ(g.Value(), -12);
}

TEST(ObsConcurrencyTest, CounterAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads * kAddsPerThread));
}

// ---------------------------------------------------------------------
// Histogram percentile math (exact values; conventions of Percentile())
// ---------------------------------------------------------------------

TEST(HistogramTest, BucketAssignmentAndSum) {
  Histogram h({10.0, 20.0, 40.0});
  for (double v : {5.0, 15.0, 30.0, 100.0}) h.Observe(v);
  const auto snap = h.Snap();
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 150.0);
}

TEST(HistogramTest, PercentileExactValues) {
  Histogram h({10.0, 20.0, 40.0});
  for (double v : {5.0, 15.0, 30.0, 100.0}) h.Observe(v);
  // rank = p/100 * 4; linear interpolation inside the holding bucket.
  EXPECT_DOUBLE_EQ(h.Percentile(25), 10.0);  // rank 1 = top of bucket [0,10]
  EXPECT_DOUBLE_EQ(h.Percentile(50), 20.0);  // rank 2 = top of bucket (10,20]
  EXPECT_DOUBLE_EQ(h.Percentile(75), 40.0);  // rank 3 = top of bucket (20,40]
  // rank 4 lands in the +Inf bucket: the histogram cannot resolve beyond
  // its last finite boundary.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 40.0);
  EXPECT_NEAR(h.Percentile(0), 0.0, 1e-9);
}

TEST(HistogramTest, PercentileSingleBucketInterpolatesFromZero) {
  Histogram h({100.0});
  h.Observe(50.0);
  // One sample in [0, 100]: p99 -> rank 0.99 -> 99.0 exactly.
  EXPECT_DOUBLE_EQ(h.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
}

TEST(HistogramTest, PercentileEmptyIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
}

TEST(HistogramTest, PercentileOverflowOnlyReturnsLastFiniteBoundary) {
  Histogram h({10.0});
  h.Observe(1e9);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 10.0);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h({10.0});
  h.Observe(5.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(ObsConcurrencyTest, HistogramObservesAreLossless) {
  Histogram h(obs::LatencyBoundariesMicros());
  constexpr int kThreads = 8;
  constexpr int kObsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObsPerThread; ++i) {
        h.Observe(static_cast<double>(t * 131 + i % 977));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads * kObsPerThread));
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, ResolutionIsIdempotent) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("test_total", "help");
  Counter* b = reg.GetCounter("test_total", "help");
  EXPECT_EQ(a, b);
  // Distinct labels are distinct cells of the same family.
  Counter* x = reg.GetCounter("labeled_total", "help", "reason=\"a\"");
  Counter* y = reg.GetCounter("labeled_total", "help", "reason=\"b\"");
  EXPECT_NE(x, y);
  EXPECT_EQ(x, reg.GetCounter("labeled_total", "help", "reason=\"a\""));
}

TEST(MetricsRegistryTest, RenderPrometheusText) {
  MetricsRegistry reg;
  reg.GetCounter("requests_total", "Requests served")->Add(3);
  reg.GetGauge("queue_depth", "Queued items")->Set(-2);
  Histogram* h =
      reg.GetHistogram("latency_micros", {1.0, 10.0}, "Request latency");
  h->Observe(0.5);
  h->Observe(5.0);
  reg.GetCounter("flushes_total", "Flushes", "reason=\"size\"")->Add(7);

  const std::string text = reg.RenderPrometheusText();
  EXPECT_NE(text.find("# HELP requests_total Requests served\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("queue_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_micros histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_micros_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_micros_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_micros_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_micros_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("flushes_total{reason=\"size\"} 7\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ResetValuesKeepsInstruments) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("will_reset_total", "help");
  c->Add(9);
  reg.ResetValues();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(reg.GetCounter("will_reset_total", "help"), c);
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "test.span", "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, EnabledSpanIsRecordedWithArgs) {
  Tracer tracer;
  tracer.Enable();
  {
    ScopedSpan span(&tracer, "test.span", "test");
    EXPECT_TRUE(span.active());
    span.AddArg("m", 32.0);
  }
  tracer.Disable();
  ASSERT_EQ(tracer.size(), 1u);
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"m\":32"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(TracerTest, BoundedBufferDropsAndCounts) {
  Tracer tracer(/*max_events=*/2);
  tracer.Enable();
  for (int i = 0; i < 5; ++i) {
    TraceEvent event;
    event.name = "e";
    event.category = "test";
    tracer.Record(event);
  }
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, WriteChromeTraceProducesFile) {
  Tracer tracer;
  tracer.Enable();
  {
    ScopedSpan span(&tracer, "io", "test");
  }
  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {0};
  const size_t read = std::fread(buf, 1, 1, f);
  std::fclose(f);
  ASSERT_EQ(read, 1u);
  EXPECT_EQ(buf[0], '{');
}

// ---------------------------------------------------------------------
// MetricsSink: the QueryStats -> registry pipeline
// ---------------------------------------------------------------------

TEST(MetricsSinkTest, PublishQueryStatsMapsEveryField) {
  MetricsRegistry reg;
  MetricsSink sink(&reg, nullptr);
  QueryStats delta;
  uint64_t v = 0;
  for (const QueryStatsCounter& c : kQueryStatsCounters) delta.*c.member = ++v;
  // Wall times are not counters: publishing them must not leak into any.
  for (const QueryStatsWallTime& w : kQueryStatsWallTimes) {
    delta.*w.member = 1000.0;
  }
  sink.PublishQueryStats(delta);
  sink.PublishQueryStats(delta);  // counters accumulate

  for (const QueryStatsCounter& c : kQueryStatsCounters) {
    EXPECT_EQ(reg.GetCounter(c.metric, "")->Value(), 2 * delta.*c.member)
        << c.metric;
  }
}

TEST(MetricsSinkTest, NullRegistryIsNoOp) {
  MetricsSink sink(nullptr, nullptr);
  QueryStats delta;
  delta.dist_computations = 1;
  sink.PublishQueryStats(delta);  // must not crash
  EXPECT_EQ(sink.registry(), nullptr);
  EXPECT_EQ(sink.tracer(), nullptr);
}

// ---------------------------------------------------------------------
// Engine integration: one pipeline from QueryStats to the registry
// ---------------------------------------------------------------------

class ObsEngineTest : public ::testing::Test {
 protected:
  StatusOr<std::unique_ptr<MetricDatabase>> OpenDb(
      const MetricsSink* sink) {
    Dataset data = MakeUniformDataset(600, 8, /*seed=*/5);
    DatabaseOptions options;
    options.backend = BackendKind::kLinearScan;
    options.multi.metrics = sink;
    return MetricDatabase::Open(std::move(data),
                                std::make_shared<EuclideanMetric>(), options);
  }
};

TEST_F(ObsEngineTest, ExecuteAllPublishesStatsToLocalRegistry) {
  MetricsRegistry reg;
  MetricsSink sink(&reg, nullptr);
  auto db = OpenDb(&sink);
  ASSERT_TRUE(db.ok());
  std::vector<Query> batch;
  for (ObjectId id = 0; id < 8; ++id) {
    batch.push_back((*db)->MakeObjectKnnQuery(id, 5));
  }
  ASSERT_TRUE((*db)->MultipleSimilarityQueryAll(batch).ok());

  // The registry's counters must agree exactly with the database's in-band
  // QueryStats — both sides of the one pipeline.
  const QueryStats& stats = (*db)->stats();
  EXPECT_GT(stats.dist_computations, 0u);
  EXPECT_EQ(reg.GetCounter("msq_engine_dist_computations_total", "")->Value(),
            stats.dist_computations);
  EXPECT_EQ(reg.GetCounter("msq_engine_queries_completed_total", "")->Value(),
            stats.queries_completed);
  EXPECT_EQ(reg.GetCounter("msq_engine_triangle_avoided_total", "")->Value(),
            stats.triangle_avoided);
  // The engine also observed its window histograms.
  EXPECT_EQ(reg.GetHistogram("msq_engine_window_micros",
                             obs::LatencyBoundariesMicros(), "")
                ->Count(),
            static_cast<uint64_t>(batch.size()));
}

TEST_F(ObsEngineTest, SingleQueryPublishesThroughSamePipeline) {
  MetricsRegistry reg;
  MetricsSink sink(&reg, nullptr);
  auto db = OpenDb(&sink);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->SimilarityQuery((*db)->MakeObjectKnnQuery(3, 5)).ok());
  const QueryStats& stats = (*db)->stats();
  EXPECT_GT(stats.dist_computations, 0u);
  EXPECT_EQ(reg.GetCounter("msq_engine_dist_computations_total", "")->Value(),
            stats.dist_computations);
}

TEST_F(ObsEngineTest, NullSinkDisablesPublication) {
  auto db = OpenDb(nullptr);
  ASSERT_TRUE(db.ok());
  std::vector<Query> batch;
  batch.push_back((*db)->MakeObjectKnnQuery(0, 5));
  ASSERT_TRUE((*db)->MultipleSimilarityQueryAll(batch).ok());
  // Work still happens and is charged in-band; nothing is exported.
  EXPECT_GT((*db)->stats().dist_computations, 0u);
}

// ---------------------------------------------------------------------
// p999 percentile math (the tail the serving benchmark reports)
// ---------------------------------------------------------------------

TEST(HistogramTest, P999ExactValues) {
  Histogram h({10.0, 20.0});
  // 1000 samples: 999 in [0,10], 1 in (10,20]. rank(p999) = 0.999 * 1000
  // = 999 = exactly the top of the first bucket.
  for (int i = 0; i < 999; ++i) h.Observe(5.0);
  h.Observe(15.0);
  EXPECT_NEAR(h.Percentile(99.9), 10.0, 1e-9);
  // p99.95: rank 999.5 lands halfway through the second bucket's single
  // sample -> 10 + 10 * 0.5.
  EXPECT_NEAR(h.Percentile(99.95), 15.0, 1e-9);
}

TEST(MetricsRegistryTest, RenderIncludesSummaryQuantiles) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lat_micros", {10.0, 100.0}, "latency");
  for (int i = 0; i < 100; ++i) h->Observe(5.0);
  const std::string text = reg.RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE lat_micros_summary gauge"), std::string::npos);
  EXPECT_NE(text.find("lat_micros_summary{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lat_micros_summary{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lat_micros_summary{quantile=\"0.999\"}"),
            std::string::npos);
}

TEST(MetricsRegistryTest, SummaryQuantilesKeepCellLabels) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("comp_seconds", {1.0}, "components",
                                  "component=\"page_io\"");
  h->Observe(0.5);
  const std::string text = reg.RenderPrometheusText();
  EXPECT_NE(
      text.find(
          "comp_seconds_summary{component=\"page_io\",quantile=\"0.999\"}"),
      std::string::npos);
}

// ---------------------------------------------------------------------
// SlidingWindowHistogram
// ---------------------------------------------------------------------

using obs::SlidingWindowHistogram;

TEST(ObsWindowTest, EmptyWindowSnapsToZero) {
  SlidingWindowHistogram w({10.0, 100.0}, std::chrono::seconds(8), 4);
  const auto snap = w.SnapAtMicros(0);
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.Percentile(99), 0.0);
}

TEST(ObsWindowTest, ObservationsInsideWindowAreMerged) {
  SlidingWindowHistogram w({10.0, 100.0}, std::chrono::seconds(8), 4);
  ASSERT_EQ(w.slot_width_micros(), 2'000'000);
  w.ObserveAtMicros(5.0, 0);          // epoch 0
  w.ObserveAtMicros(50.0, 2'000'000);  // epoch 1
  w.ObserveAtMicros(50.0, 3'000'000);  // epoch 1
  const auto snap = w.SnapAtMicros(3'500'000);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 105.0);
}

TEST(ObsWindowTest, OldSamplesAgeOutOfTheWindow) {
  SlidingWindowHistogram w({10.0, 100.0}, std::chrono::seconds(8), 4);
  w.ObserveAtMicros(5.0, 0);  // epoch 0
  // 4 slots: at epoch 4 (t=8s) the merge covers epochs [1, 4] only.
  EXPECT_EQ(w.SnapAtMicros(7'999'999).count, 1u);  // epoch 3: [0,3] covers it
  EXPECT_EQ(w.SnapAtMicros(8'000'000).count, 0u);  // epoch 4: aged out
}

TEST(ObsWindowTest, SlotIsRecycledAfterFullRotation) {
  SlidingWindowHistogram w({10.0}, std::chrono::seconds(4), 4);
  ASSERT_EQ(w.slot_width_micros(), 1'000'000);
  w.ObserveAtMicros(1.0, 0);  // epoch 0, slot 0
  // Epoch 4 reuses slot 0; the old epoch-0 sample must be cleared, not
  // merged into epoch 4's population.
  w.ObserveAtMicros(2.0, 4'000'000);
  const auto snap = w.SnapAtMicros(4'000'000);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 2.0);
}

TEST(ObsWindowTest, ClockSkipAcrossManyEpochsDropsAncientSlots) {
  SlidingWindowHistogram w({10.0}, std::chrono::seconds(4), 4);
  w.ObserveAtMicros(1.0, 0);
  // Jump 100 epochs ahead: every live slot is older than the whole ring.
  const auto snap = w.SnapAtMicros(100'000'000);
  EXPECT_EQ(snap.count, 0u);
  // New observations after the skip land normally.
  w.ObserveAtMicros(3.0, 100'000'000);
  EXPECT_EQ(w.SnapAtMicros(100'000'000).count, 1u);
}

TEST(ObsWindowTest, StaleObservationPastTheRingIsDropped) {
  SlidingWindowHistogram w({10.0}, std::chrono::seconds(4), 4);
  w.ObserveAtMicros(1.0, 50'000'000);  // epoch 50
  w.ObserveAtMicros(2.0, 1'000'000);   // epoch 1: older than the ring, drop
  const auto snap = w.SnapAtMicros(50'000'000);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 1.0);
}

TEST(ObsWindowTest, ResetForgetsEverything) {
  SlidingWindowHistogram w({10.0}, std::chrono::seconds(4), 4);
  w.ObserveAtMicros(1.0, 0);
  w.Reset();
  EXPECT_EQ(w.SnapAtMicros(0).count, 0u);
}

TEST(ObsWindowTest, RegistryRendersSlidingHistogramWithSummary) {
  MetricsRegistry reg;
  SlidingWindowHistogram* w = reg.GetSlidingHistogram(
      "win_micros", {10.0, 100.0}, std::chrono::seconds(10), "windowed");
  w->Observe(5.0);
  const std::string text = reg.RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE win_micros histogram"), std::string::npos);
  EXPECT_NE(text.find("win_micros_count 1"), std::string::npos);
  EXPECT_NE(text.find("win_micros_summary{quantile=\"0.999\"}"),
            std::string::npos);
  // Idempotent resolution, same cell.
  EXPECT_EQ(reg.GetSlidingHistogram("win_micros", {}, std::chrono::seconds(1)),
            w);
}

// Concurrent writers race slot rotation: no sample may be double-counted
// and the total within the live window must be exact when every write
// lands in the covered epochs.
TEST(ObsWindowConcurrencyTest, ConcurrentObservesAreLossless) {
  SlidingWindowHistogram w(obs::LatencyBoundariesMicros(),
                           std::chrono::seconds(60), 4);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&w, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // All writes stay in epoch 0 of a 15 s slot: no rotation races,
        // the count must be exact.
        w.ObserveAtMicros(static_cast<double>((t * kPerThread + i) % 1000),
                          1000);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(w.SnapAtMicros(2000).count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsWindowConcurrencyTest, ConcurrentRotationNeverDoubleCounts) {
  SlidingWindowHistogram w({1000.0}, std::chrono::seconds(4), 4);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::atomic<int64_t> clock{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        // Advance the fake clock so rotations keep happening while other
        // threads are mid-observe; the documented benign race may *drop*
        // a sample at a slot boundary but must never double-count one.
        const int64_t now = clock.fetch_add(137, std::memory_order_relaxed);
        w.ObserveAtMicros(1.0, now);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = w.SnapAtMicros(clock.load(std::memory_order_relaxed));
  EXPECT_LE(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(snap.count));
}

// ---------------------------------------------------------------------
// Latency attribution vocabulary
// ---------------------------------------------------------------------

TEST(AttributionTest, ComponentNamesAndAccounting) {
  EXPECT_STREQ(obs::LatencyComponentName(obs::LatencyComponent::kQueueWait),
               "queue_wait");
  EXPECT_STREQ(obs::LatencyComponentName(obs::LatencyComponent::kMerge),
               "merge");
}

TEST_F(ObsEngineTest, EngineSpansAppearInTrace) {
  MetricsRegistry reg;
  Tracer tracer;
  tracer.Enable();
  MetricsSink sink(&reg, &tracer);
  auto db = OpenDb(&sink);
  ASSERT_TRUE(db.ok());
  std::vector<Query> batch;
  for (ObjectId id = 0; id < 4; ++id) {
    batch.push_back((*db)->MakeObjectKnnQuery(id, 5));
  }
  ASSERT_TRUE((*db)->MultipleSimilarityQueryAll(batch).ok());
  tracer.Disable();
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("engine.window"), std::string::npos);
  EXPECT_NE(json.find("engine.page_scan"), std::string::npos);
  EXPECT_NE(json.find("engine.restore_buffer"), std::string::npos);
}

}  // namespace
}  // namespace msq
