// Tests of the batch-admission service: answers from concurrently
// submitted single queries must be identical to sequential single-query
// execution, failed batches must propagate their Status to every waiter,
// and the flush policy (size / deadline / drain) must complete every
// admitted query.

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/database.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "load/workload.h"
#include "parallel/cluster.h"
#include "parallel/thread_pool.h"
#include "service/batch_scheduler.h"
#include "tests/test_util.h"

namespace msq {
namespace {

using testing::BruteForceQuery;
using testing::SameAnswers;

std::unique_ptr<MetricDatabase> OpenScanDb(Dataset dataset,
                                           MultiQueryOptions multi = {}) {
  DatabaseOptions options;
  options.backend = BackendKind::kLinearScan;
  options.page_size_bytes = 2048;
  options.multi = multi;
  auto db = MetricDatabase::Open(std::move(dataset),
                                 std::make_shared<EuclideanMetric>(), options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

/// Deterministic mixed range/kNN query stream with distinct fresh ids
/// (above the MetricDatabase fresh-id floor so nothing collides).
std::vector<Query> MixedQueryStream(const Dataset& ds, size_t n,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Query q;
    q.id = (static_cast<QueryId>(1) << 40) + i;
    q.point = ds.object(static_cast<ObjectId>(rng.NextIndex(ds.size())));
    if (i % 2 == 0) {
      q.type = QueryType::Knn(1 + rng.NextIndex(10));
    } else {
      q.type = QueryType::Range(rng.NextDouble(0.05, 0.4));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

// The acceptance stress test: >= 10k mixed queries from >= 4 producer
// threads, answers identical to sequential single-query execution.
TEST(BatchSchedulerTest, StressAnswersMatchSequentialSingleQueries) {
  constexpr size_t kQueries = 10000;
  constexpr size_t kProducers = 4;
  Dataset dataset = MakeUniformDataset(500, 4, 901);
  auto db = OpenScanDb(dataset);
  const std::vector<Query> queries = MixedQueryStream(dataset, kQueries, 903);

  // Sequential oracle: the same queries one by one on an identical db.
  auto oracle_db = OpenScanDb(dataset);
  std::vector<AnswerSet> expected(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    auto got = oracle_db->SimilarityQuery(queries[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    expected[i] = std::move(got).value();
  }

  ThreadPool pool(4);
  AggregateStats sink;
  BatchSchedulerOptions options;
  options.max_batch_size = 50;
  options.flush_deadline = std::chrono::microseconds(500);
  BatchScheduler scheduler(&db->engine(), &pool, options, &sink);

  std::vector<AnswerFuture> futures(kQueries);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = p; i < kQueries; i += kProducers) {
        futures[i] = scheduler.Submit(queries[i]);
      }
    });
  }
  for (auto& t : producers) t.join();
  scheduler.Drain();

  for (size_t i = 0; i < kQueries; ++i) {
    auto got = futures[i].get();
    ASSERT_TRUE(got.ok()) << "query " << i << ": " << got.status().ToString();
    EXPECT_TRUE(SameAnswers(*got, expected[i])) << "query " << i;
  }
  EXPECT_EQ(scheduler.queries_submitted(), kQueries);
  // Every admitted query completed exactly once across all batches.
  EXPECT_EQ(sink.Snapshot().queries_completed, kQueries);
  EXPECT_EQ(sink.batches_merged(), scheduler.batches_executed());
}

TEST(BatchSchedulerTest, FailedBatchPropagatesStatusToEveryWaiter) {
  Dataset dataset = MakeUniformDataset(300, 4, 905);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  options.flush_deadline = std::chrono::seconds(10);  // manual flushes only
  BatchScheduler scheduler(&db->engine(), &pool, options);

  // Complete query id 42 so the engine buffers its definition.
  Query original{42, dataset.object(0), QueryType::Knn(3)};
  auto first = scheduler.Submit(original);
  scheduler.Drain();
  ASSERT_TRUE(first.get().ok());

  // Re-submitting id 42 with a different point is only detectable by the
  // engine (it is no longer pending), so the whole batch it rides in
  // fails — and every waiter of that batch must see the batch's status.
  Query poisoned{42, dataset.object(1), QueryType::Knn(3)};
  auto f1 = scheduler.Submit(poisoned);
  auto f2 = scheduler.Submit(Query{43, dataset.object(2), QueryType::Knn(3)});
  auto f3 = scheduler.Submit(Query{44, dataset.object(3), QueryType::Range(0.2)});
  scheduler.Drain();

  auto r1 = f1.get();
  auto r2 = f2.get();
  auto r3 = f3.get();
  EXPECT_TRUE(r1.status().IsInvalidArgument());
  EXPECT_TRUE(r2.status().IsInvalidArgument());
  EXPECT_TRUE(r3.status().IsInvalidArgument());
  EXPECT_EQ(r1.status(), r2.status());
  EXPECT_EQ(r1.status(), r3.status());

  // The scheduler stays serviceable after a failed batch.
  auto ok = scheduler.Submit(Query{45, dataset.object(4), QueryType::Knn(2)});
  scheduler.Drain();
  EXPECT_TRUE(ok.get().ok());
}

TEST(BatchSchedulerTest, ConflictingPendingSubmissionFailsAlone) {
  Dataset dataset = MakeUniformDataset(300, 4, 907);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  options.flush_deadline = std::chrono::seconds(10);
  BatchScheduler scheduler(&db->engine(), &pool, options);

  auto good = scheduler.Submit(Query{7, dataset.object(0), QueryType::Knn(3)});
  // Same id, different point, while the first is still pending: rejected
  // at admission, the pending batch is unharmed.
  auto clash = scheduler.Submit(Query{7, dataset.object(1), QueryType::Knn(3)});
  auto clash_result = clash.get();  // fails immediately, no flush needed
  EXPECT_TRUE(clash_result.status().IsInvalidArgument());

  scheduler.Drain();
  auto good_result = good.get();
  ASSERT_TRUE(good_result.ok()) << good_result.status().ToString();
  EuclideanMetric metric;
  EXPECT_TRUE(SameAnswers(
      *good_result,
      BruteForceQuery(dataset, metric,
                      Query{7, dataset.object(0), QueryType::Knn(3)})));
}

TEST(BatchSchedulerTest, IdenticalPendingSubmissionsAreCoalesced) {
  Dataset dataset = MakeUniformDataset(300, 4, 909);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  options.flush_deadline = std::chrono::seconds(10);
  BatchScheduler scheduler(&db->engine(), &pool, options);

  const Query q{11, dataset.object(5), QueryType::Knn(4)};
  auto f1 = scheduler.Submit(q);
  auto f2 = scheduler.Submit(q);
  EXPECT_EQ(scheduler.pending_size(), 1u);
  EXPECT_EQ(scheduler.queries_coalesced(), 1u);
  scheduler.Drain();
  auto r1 = f1.get();
  auto r2 = f2.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(SameAnswers(*r1, *r2));
  EXPECT_EQ(scheduler.batches_executed(), 1u);
}

TEST(BatchSchedulerTest, EmptyPointFailsImmediatelyWithoutPoisoningBatch) {
  Dataset dataset = MakeUniformDataset(200, 4, 911);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.flush_deadline = std::chrono::seconds(10);
  BatchScheduler scheduler(&db->engine(), &pool, options);

  auto good = scheduler.Submit(Query{1, dataset.object(0), QueryType::Knn(2)});
  auto bad = scheduler.Submit(Query{2, Vec{}, QueryType::Knn(2)});
  EXPECT_TRUE(bad.get().status().IsInvalidArgument());
  scheduler.Drain();
  EXPECT_TRUE(good.get().ok());
}

TEST(BatchSchedulerTest, DeadlineFlushCompletesWithoutExplicitFlush) {
  Dataset dataset = MakeUniformDataset(200, 4, 913);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 1000;  // never size-triggered
  options.flush_deadline = std::chrono::microseconds(1000);
  BatchScheduler scheduler(&db->engine(), &pool, options);

  auto f = scheduler.Submit(Query{1, dataset.object(3), QueryType::Knn(3)});
  // No Flush()/Drain(): only the deadline can complete this future.
  auto result = f.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 3u);
}

TEST(BatchSchedulerTest, ZeroDeadlineFlushesEverySubmissionImmediately) {
  Dataset dataset = MakeUniformDataset(200, 4, 915);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 1000;
  options.flush_deadline = std::chrono::microseconds(0);
  BatchScheduler scheduler(&db->engine(), &pool, options);

  auto f1 = scheduler.Submit(Query{1, dataset.object(0), QueryType::Knn(2)});
  auto f2 = scheduler.Submit(Query{2, dataset.object(1), QueryType::Knn(2)});
  EXPECT_EQ(scheduler.pending_size(), 0u);  // flushed at submit time
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  scheduler.Drain();
  EXPECT_EQ(scheduler.batches_executed(), 2u);
}

TEST(BatchSchedulerTest, SizeTriggeredFlushDoesNotWaitForDeadline) {
  Dataset dataset = MakeUniformDataset(200, 4, 917);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 2;
  options.flush_deadline = std::chrono::seconds(60);
  BatchScheduler scheduler(&db->engine(), &pool, options);

  auto f1 = scheduler.Submit(Query{1, dataset.object(0), QueryType::Knn(2)});
  auto f2 = scheduler.Submit(Query{2, dataset.object(1), QueryType::Knn(2)});
  // The second submission fills the batch; both futures complete without
  // any explicit flush and far before the 60 s deadline.
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
}

TEST(BatchSchedulerTest, SubmitAfterShutdownFailsFast) {
  Dataset dataset = MakeUniformDataset(200, 4, 919);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchScheduler scheduler(&db->engine(), &pool, {});
  scheduler.Shutdown();
  auto f = scheduler.Submit(Query{1, dataset.object(0), QueryType::Knn(2)});
  EXPECT_TRUE(f.get().status().IsResourceExhausted());
}

TEST(BatchSchedulerTest, MaxBatchSizeIsClampedToEngineLimit) {
  Dataset dataset = MakeUniformDataset(200, 4, 921);
  MultiQueryOptions multi;
  multi.max_batch_size = 8;
  auto db = OpenScanDb(dataset, multi);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 100;  // larger than the engine accepts
  options.flush_deadline = std::chrono::seconds(10);
  BatchScheduler scheduler(&db->engine(), &pool, options);
  EXPECT_EQ(scheduler.options().max_batch_size, 8u);

  // 20 quick submissions: no batch may exceed the engine limit, so all
  // queries still succeed (an unclamped scheduler would get the whole
  // batch rejected with ResourceExhausted).
  std::vector<AnswerFuture> futures;
  for (uint64_t i = 0; i < 20; ++i) {
    futures.push_back(scheduler.Submit(
        Query{100 + i, dataset.object(static_cast<ObjectId>(i)),
              QueryType::Knn(2)}));
  }
  scheduler.Drain();
  for (auto& f : futures) {
    auto r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(BatchSchedulerTest, AggregateStatsMergesEveryBatch) {
  Dataset dataset = MakeUniformDataset(400, 4, 923);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  AggregateStats sink;
  BatchSchedulerOptions options;
  options.max_batch_size = 4;
  options.flush_deadline = std::chrono::seconds(10);
  BatchScheduler scheduler(&db->engine(), &pool, options, &sink);

  const auto queries = MixedQueryStream(dataset, 12, 925);
  std::vector<AnswerFuture> futures;
  for (const Query& q : queries) futures.push_back(scheduler.Submit(q));
  scheduler.Drain();
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  const QueryStats total = sink.Snapshot();
  EXPECT_EQ(total.queries_completed, queries.size());
  EXPECT_GT(total.dist_computations, 0u);
  EXPECT_GT(total.TotalPageReads(), 0u);
  EXPECT_EQ(sink.batches_merged(), 3u);  // 12 queries / batches of 4
  sink.Reset();
  EXPECT_EQ(sink.Snapshot().queries_completed, 0u);
  EXPECT_EQ(sink.batches_merged(), 0u);
}

TEST(BatchSchedulerTest, FlushReasonsAreAttributed) {
  Dataset dataset = MakeUniformDataset(200, 4, 929);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 2;
  options.flush_deadline = std::chrono::seconds(60);  // never deadline
  BatchScheduler scheduler(&db->engine(), &pool, options);

  // Two submissions fill the batch: one size flush.
  auto f1 = scheduler.Submit(Query{1, dataset.object(0), QueryType::Knn(2)});
  auto f2 = scheduler.Submit(Query{2, dataset.object(1), QueryType::Knn(2)});
  // One pending + explicit Flush(): one explicit flush.
  auto f3 = scheduler.Submit(Query{3, dataset.object(2), QueryType::Knn(2)});
  scheduler.Flush();
  // One pending + Drain(): one drain flush.
  auto f4 = scheduler.Submit(Query{4, dataset.object(3), QueryType::Knn(2)});
  scheduler.Drain();
  // Drain with nothing pending flushes nothing.
  scheduler.Drain();

  for (auto* f : {&f1, &f2, &f3, &f4}) ASSERT_TRUE(f->get().ok());
  const FlushCounts counts = scheduler.flush_counts();
  EXPECT_EQ(counts.size, 1u);
  EXPECT_EQ(counts.deadline, 0u);
  EXPECT_EQ(counts.explicit_flush, 1u);
  EXPECT_EQ(counts.drain, 1u);
  EXPECT_EQ(scheduler.batches_executed(), 3u);
}

TEST(BatchSchedulerTest, ZeroDeadlineFlushesCountAsDeadline) {
  Dataset dataset = MakeUniformDataset(200, 4, 931);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 1000;
  options.flush_deadline = std::chrono::microseconds(0);
  BatchScheduler scheduler(&db->engine(), &pool, options);

  auto f1 = scheduler.Submit(Query{1, dataset.object(0), QueryType::Knn(2)});
  auto f2 = scheduler.Submit(Query{2, dataset.object(1), QueryType::Knn(2)});
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  // An already-overdue submission is a deadline flush, not a size flush.
  const FlushCounts counts = scheduler.flush_counts();
  EXPECT_EQ(counts.deadline, 2u);
  EXPECT_EQ(counts.size, 0u);
}

// Regression: the deadline timer must arm from the *oldest pending*
// submission. A timer re-armed from the latest submission is starved
// forever by a steady trickle of sub-deadline arrivals, and the first
// query never completes.
TEST(BatchSchedulerTest, DeadlineArmsFromOldestPendingSubmission) {
  Dataset dataset = MakeUniformDataset(200, 4, 933);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 1000;  // never size-triggered
  options.flush_deadline = std::chrono::milliseconds(20);
  BatchScheduler scheduler(&db->engine(), &pool, options);

  auto first = scheduler.Submit(Query{1, dataset.object(0), QueryType::Knn(2)});
  // Keep the batch perpetually "fresh": a new submission every 5 ms, far
  // below the 20 ms deadline, until `first` completes.
  std::atomic<bool> stop{false};
  std::vector<AnswerFuture> fillers;
  std::thread feeder([&] {
    uint64_t id = 100;
    while (!stop.load(std::memory_order_relaxed)) {
      fillers.push_back(scheduler.Submit(
          Query{id, dataset.object(static_cast<ObjectId>(id % 200)),
                QueryType::Knn(2)}));
      ++id;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const auto status = first.wait_for(std::chrono::seconds(5));
  stop.store(true, std::memory_order_relaxed);
  feeder.join();
  ASSERT_EQ(status, std::future_status::ready)
      << "deadline timer starved by sub-deadline submissions";
  EXPECT_TRUE(first.get().ok());
  EXPECT_GE(scheduler.flush_counts().deadline, 1u);
  scheduler.Drain();
  for (auto& f : fillers) EXPECT_TRUE(f.get().ok());
}

TEST(BatchSchedulerTest, ObsMetricsPublishToCallerOwnedRegistry) {
  Dataset dataset = MakeUniformDataset(300, 4, 935);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(&registry, nullptr);
  BatchSchedulerOptions options;
  options.max_batch_size = 4;
  options.flush_deadline = std::chrono::seconds(10);
  options.metrics = &sink;
  BatchScheduler scheduler(&db->engine(), &pool, options);

  const auto queries = MixedQueryStream(dataset, 10, 937);
  std::vector<AnswerFuture> futures;
  for (const Query& q : queries) futures.push_back(scheduler.Submit(q));
  scheduler.Drain();
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  EXPECT_EQ(registry.GetCounter("msq_scheduler_submitted_total")->Value(),
            queries.size());
  EXPECT_EQ(registry
                .GetCounter("msq_scheduler_flushes_total", "",
                            "reason=\"size\"")
                ->Value(),
            2u);  // 10 queries / batches of 4
  EXPECT_EQ(registry
                .GetCounter("msq_scheduler_flushes_total", "",
                            "reason=\"drain\"")
                ->Value(),
            1u);
  // Every admitted query fed the admission-wait and latency histograms;
  // every flush fed the batch-size histogram.
  EXPECT_EQ(registry
                .GetHistogram("msq_scheduler_admission_wait_micros",
                              obs::LatencyBoundariesMicros())
                ->Count(),
            queries.size());
  EXPECT_EQ(registry
                .GetHistogram("msq_scheduler_latency_micros",
                              obs::LatencyBoundariesMicros())
                ->Count(),
            queries.size());
  EXPECT_EQ(registry
                .GetHistogram("msq_scheduler_batch_size",
                              obs::SizeBoundaries())
                ->Count(),
            scheduler.batches_executed());
  // Quiescent: nothing queued, nothing in flight.
  EXPECT_EQ(registry.GetGauge("msq_scheduler_queue_depth")->Value(), 0);
  EXPECT_EQ(registry.GetGauge("msq_scheduler_inflight_batches")->Value(), 0);
}

// Regression: rejected submissions (empty point, conflicting definition,
// post-shutdown) used to increment queries_submitted_ and the exported
// submitted counter, skewing throughput metrics. They must be counted as
// rejections instead.
TEST(BatchSchedulerTest, RejectedSubmissionsDoNotCountAsSubmitted) {
  Dataset dataset = MakeUniformDataset(200, 4, 941);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(&registry, nullptr);
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  options.flush_deadline = std::chrono::seconds(10);
  options.metrics = &sink;
  BatchScheduler scheduler(&db->engine(), &pool, options);

  auto good = scheduler.Submit(Query{1, dataset.object(0), QueryType::Knn(2)});
  auto empty = scheduler.Submit(Query{2, {}, QueryType::Knn(2)});
  auto clash = scheduler.Submit(Query{1, dataset.object(1), QueryType::Knn(2)});
  EXPECT_TRUE(empty.get().status().IsInvalidArgument());
  EXPECT_TRUE(clash.get().status().IsInvalidArgument());
  scheduler.Drain();
  EXPECT_TRUE(good.get().ok());
  scheduler.Shutdown();
  auto late = scheduler.Submit(Query{3, dataset.object(2), QueryType::Knn(2)});
  EXPECT_TRUE(late.get().status().IsResourceExhausted());

  EXPECT_EQ(scheduler.queries_submitted(), 1u);
  EXPECT_EQ(scheduler.queries_rejected(), 3u);
  EXPECT_EQ(scheduler.queries_shed(), 0u);
  EXPECT_EQ(registry.GetCounter("msq_scheduler_submitted_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("msq_scheduler_rejected_total")->Value(), 3u);
  EXPECT_EQ(registry.GetCounter("msq_scheduler_shed_total")->Value(), 0u);
}

// Overload protection: a new query beyond max_pending admitted-but-
// unfulfilled queries is shed with ResourceExhausted; coalescing onto a
// pending query stays allowed (no queue pressure); admitted work drains
// normally.
TEST(BatchSchedulerTest, OverloadShedsNewQueriesButCoalescesPendingOnes) {
  Dataset dataset = MakeUniformDataset(200, 4, 943);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(&registry, nullptr);
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  options.flush_deadline = std::chrono::seconds(10);  // manual flushes only
  options.max_pending = 2;
  options.metrics = &sink;
  BatchScheduler scheduler(&db->engine(), &pool, options);

  const Query q1{1, dataset.object(0), QueryType::Knn(2)};
  auto f1 = scheduler.Submit(q1);
  auto f2 = scheduler.Submit(Query{2, dataset.object(1), QueryType::Knn(2)});
  EXPECT_EQ(scheduler.pending_size(), 2u);

  auto shed = scheduler.Submit(Query{3, dataset.object(2), QueryType::Knn(2)});
  auto shed_result = shed.get();
  EXPECT_TRUE(shed_result.status().IsResourceExhausted())
      << shed_result.status().ToString();
  // An identical resubmission of a pending query coalesces even at the
  // bound.
  auto dup = scheduler.Submit(q1);

  scheduler.Drain();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  EXPECT_TRUE(dup.get().ok());
  EXPECT_EQ(scheduler.queries_shed(), 1u);
  EXPECT_EQ(scheduler.queries_submitted(), 3u);  // q1, q2, coalesced dup
  EXPECT_EQ(registry.GetCounter("msq_scheduler_shed_total")->Value(), 1u);

  // Capacity freed after the drain: the same query is admissible again.
  auto after = scheduler.Submit(Query{4, dataset.object(3), QueryType::Knn(2)});
  scheduler.Drain();
  EXPECT_TRUE(after.get().ok());
}

// The admission_check gate: while the backend reports itself unhealthy
// (e.g. a cluster that lost quorum), new submissions are shed with the
// gate's own status; identical pending queries still coalesce, and
// admission resumes the moment the gate clears.
TEST(BatchSchedulerTest, AdmissionCheckShedsWithBackendStatus) {
  Dataset dataset = MakeUniformDataset(200, 4, 947);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  std::atomic<bool> healthy{true};
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  options.flush_deadline = std::chrono::seconds(10);  // manual flushes only
  options.admission_check = [&healthy]() {
    return healthy.load() ? Status::OK()
                          : Status::ResourceExhausted(
                                "quorum lost: no admissible replica for "
                                "partition(s) 1");
  };
  BatchScheduler scheduler(&db->engine(), &pool, options);

  const Query q1{1, dataset.object(0), QueryType::Knn(2)};
  auto f1 = scheduler.Submit(q1);

  healthy.store(false);
  auto shed = scheduler.Submit(Query{2, dataset.object(1), QueryType::Knn(2)});
  auto shed_result = shed.get();
  ASSERT_TRUE(shed_result.status().IsResourceExhausted())
      << shed_result.status().ToString();
  EXPECT_NE(shed_result.status().message().find("quorum lost"),
            std::string::npos)
      << shed_result.status().message();
  // Coalescing onto the already-admitted query bypasses the gate: it adds
  // no new work for the degraded backend.
  auto dup = scheduler.Submit(q1);

  healthy.store(true);
  auto after = scheduler.Submit(Query{3, dataset.object(2), QueryType::Knn(2)});
  scheduler.Drain();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(dup.get().ok());
  EXPECT_TRUE(after.get().ok());
  EXPECT_EQ(scheduler.queries_shed(), 1u);
  EXPECT_EQ(scheduler.queries_submitted(), 3u);  // q1, coalesced dup, q3
}

// A query whose deadline expired fails only its own waiter; batchmates
// riding in the same flushed batch are answered normally.
TEST(BatchSchedulerTest, ExpiredDeadlineFailsOnlyItsOwnWaiter) {
  Dataset dataset = MakeUniformDataset(300, 4, 945);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  options.flush_deadline = std::chrono::seconds(10);
  BatchScheduler scheduler(&db->engine(), &pool, options);

  Query doomed{21, dataset.object(1), QueryType::Knn(3)};
  doomed.deadline = std::chrono::steady_clock::now();  // already expired
  auto ok1 = scheduler.Submit(Query{20, dataset.object(0), QueryType::Knn(3)});
  auto doomed_future = scheduler.Submit(doomed);
  auto ok2 = scheduler.Submit(Query{22, dataset.object(2), QueryType::Range(0.2)});
  scheduler.Drain();

  auto r_doomed = doomed_future.get();
  EXPECT_TRUE(r_doomed.status().IsDeadlineExceeded())
      << r_doomed.status().ToString();
  auto r1 = ok1.get();
  auto r2 = ok2.get();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EuclideanMetric metric;
  EXPECT_TRUE(SameAnswers(
      *r1, BruteForceQuery(dataset, metric,
                           Query{20, dataset.object(0), QueryType::Knn(3)})));
  EXPECT_TRUE(SameAnswers(
      *r2, BruteForceQuery(dataset, metric,
                           Query{22, dataset.object(2), QueryType::Range(0.2)})));
}

// Concurrent producers against a tight max_pending bound: every future
// completes (answered, rejected, or shed), the books balance, and nothing
// races (this test runs under TSan in CI).
TEST(BatchSchedulerTest, ConcurrentOverloadSheddingKeepsBooksBalanced) {
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 200;
  Dataset dataset = MakeUniformDataset(300, 4, 947);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(4);
  BatchSchedulerOptions options;
  options.max_batch_size = 4;
  options.flush_deadline = std::chrono::microseconds(200);
  options.max_pending = 2;  // tight: producers race the bound and get shed
  BatchScheduler scheduler(&db->engine(), &pool, options);

  std::atomic<uint64_t> answered{0}, shed{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        const uint64_t id = 1000 + p * kPerProducer + i;
        auto f = scheduler.Submit(
            Query{id, dataset.object(static_cast<ObjectId>(id % 300)),
                  QueryType::Knn(2)});
        auto r = f.get();
        if (r.ok()) {
          ++answered;
        } else {
          ASSERT_TRUE(r.status().IsResourceExhausted())
              << r.status().ToString();
          ++shed;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  scheduler.Drain();

  EXPECT_EQ(answered.load() + shed.load(), kProducers * kPerProducer);
  EXPECT_EQ(scheduler.queries_submitted(), answered.load());
  EXPECT_EQ(scheduler.queries_shed(), shed.load());
  EXPECT_EQ(scheduler.queries_rejected(), 0u);
}

TEST(BatchSchedulerTest, DestructorDrainsOutstandingWork) {
  Dataset dataset = MakeUniformDataset(300, 4, 927);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  std::vector<AnswerFuture> futures;
  {
    BatchSchedulerOptions options;
    options.max_batch_size = 100;
    options.flush_deadline = std::chrono::seconds(10);
    BatchScheduler scheduler(&db->engine(), &pool, options);
    for (uint64_t i = 0; i < 5; ++i) {
      futures.push_back(scheduler.Submit(
          Query{200 + i, dataset.object(static_cast<ObjectId>(i)),
                QueryType::Knn(2)}));
    }
  }  // destructor must flush and complete all 5
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
}

// ---------------------------------------------------------------------
// Custom batch executors + latency attribution
// ---------------------------------------------------------------------

TEST(BatchSchedulerTest, CustomExecutorRunsWithoutAnEngine) {
  Dataset dataset = MakeUniformDataset(300, 4, 951);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 8;
  options.flush_deadline = std::chrono::seconds(10);
  // Executors run on pool threads and must provide their own
  // synchronization — the db is not thread-safe (the engine path gets this
  // from the scheduler's engine lock, a cluster from its own locking).
  std::mutex db_mu;
  std::vector<std::vector<QueryId>> batches;  // guarded by db_mu
  options.executor = [&](const std::vector<Query>& queries,
                         QueryStats* stats) -> StatusOr<BatchResult> {
    std::lock_guard<std::mutex> lock(db_mu);
    batches.emplace_back();
    for (const Query& q : queries) batches.back().push_back(q.id);
    auto answers = db->MultipleSimilarityQueryAll(queries);
    if (!answers.ok()) return answers.status();
    *stats += db->stats();
    BatchResult result;
    result.answers = std::move(answers).value();
    result.statuses.assign(queries.size(), Status::OK());
    return result;
  };
  BatchScheduler scheduler(nullptr, &pool, options);

  const auto queries = MixedQueryStream(dataset, 10, 953);
  std::vector<AnswerFuture> futures;
  for (const Query& q : queries) futures.push_back(scheduler.Submit(q));
  scheduler.Drain();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto expected = db->SimilarityQuery(queries[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(SameAnswers(*got, *expected));
  }
  // One flush is one batch, in submission order: the size flush at
  // max_batch_size carries the first eight ids and the drain the last
  // two. The pool has two threads, so the two may run in either order.
  std::vector<QueryId> ids;
  for (const Query& q : queries) ids.push_back(q.id);
  const std::vector<QueryId> size_flush(ids.begin(), ids.begin() + 8);
  const std::vector<QueryId> drain(ids.begin() + 8, ids.end());
  ASSERT_EQ(batches.size(), 2u);
  if (batches[0] != size_flush) std::swap(batches[0], batches[1]);
  EXPECT_EQ(batches[0], size_flush);
  EXPECT_EQ(batches[1], drain);
}

TEST(BatchSchedulerTest, NoEngineAndNoExecutorRejectsSubmissions) {
  ThreadPool pool(1);
  BatchSchedulerOptions options;
  BatchScheduler scheduler(nullptr, &pool, options);
  Query q{1, {0.1, 0.2}, QueryType::Knn(1)};
  auto f = scheduler.Submit(q);
  auto got = f.get();
  EXPECT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsInvalidArgument());
}

/// What the scheduler exported about latency, in microseconds: the sum
/// over every component of msq_latency_component_seconds (attributed) and
/// the sum and count of msq_scheduler_latency_micros (end to end).
struct ExportedLatency {
  double attributed_micros = 0.0;
  double e2e_micros = 0.0;
  uint64_t queries = 0;
};

obs::Histogram* ComponentHistogram(obs::MetricsRegistry& registry,
                                   size_t component) {
  return registry.GetHistogram(
      "msq_latency_component_seconds", obs::LatencySecondsBoundaries(), "",
      std::string("component=\"") +
          obs::LatencyComponentName(
              static_cast<obs::LatencyComponent>(component)) +
          "\"");
}

ExportedLatency ReadExportedLatency(obs::MetricsRegistry& registry) {
  ExportedLatency out;
  for (size_t c = 0; c < obs::kNumLatencyComponents; ++c) {
    out.attributed_micros += 1e6 * ComponentHistogram(registry, c)->Sum();
  }
  obs::Histogram* e2e = registry.GetHistogram(
      "msq_scheduler_latency_micros", obs::LatencyBoundariesMicros(), "");
  out.e2e_micros = e2e->Sum();
  out.queries = e2e->Count();
  return out;
}

TEST(BatchSchedulerTest, AttributionComponentsCoverEndToEndLatency) {
  Dataset dataset = MakeUniformDataset(500, 4, 957);
  auto db = OpenScanDb(dataset);
  ThreadPool pool(2);
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(&registry, nullptr);
  BatchSchedulerOptions options;
  options.max_batch_size = 8;
  options.flush_deadline = std::chrono::milliseconds(1);
  options.metrics = &sink;
  BatchScheduler scheduler(&db->engine(), &pool, options);

  const auto queries = MixedQueryStream(dataset, 64, 959);
  std::vector<AnswerFuture> futures;
  for (const Query& q : queries) futures.push_back(scheduler.Submit(q));
  scheduler.Drain();
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  // Every component histogram cell observed once per query per batch.
  for (size_t c = 0; c < obs::kNumLatencyComponents; ++c) {
    EXPECT_EQ(ComponentHistogram(registry, c)->Count(), queries.size())
        << obs::LatencyComponentName(static_cast<obs::LatencyComponent>(c));
  }
  // The attributed components must essentially cover measured end-to-end
  // latency: nothing big unaccounted, nothing double-counted. Engine-other
  // is the only residual (clamped >= 0), so attributed <= e2e always holds
  // up to timer granularity; allow 10% slack on the covering direction
  // for scheduling noise in CI.
  const ExportedLatency exported = ReadExportedLatency(registry);
  EXPECT_EQ(exported.queries, queries.size());
  EXPECT_GT(exported.attributed_micros, 0.0);
  EXPECT_GT(exported.e2e_micros, 0.0);
  EXPECT_LE(exported.attributed_micros, exported.e2e_micros * 1.10);
  EXPECT_GE(exported.attributed_micros, exported.e2e_micros * 0.50);
}

// Serve's shape, in memory: two open-loop producers submit kNN queries
// through the scheduler to a 4x2 X-tree cluster that runs its partitions
// on the scheduler's own pool. Partitions overlap, so the exported
// components must follow each batch's critical path to add up to the
// exported end-to-end latency; summing every partition's wall time
// overstates it by well over half.
TEST(BatchSchedulerTest, AttributionFollowsTheCriticalPathWithThreadsOn) {
  TychoLikeOptions gen;
  gen.n = 5000;
  gen.seed = 963;
  const Dataset dataset = MakeTychoLikeDataset(gen);
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(&registry, nullptr);
  ThreadPool pool(4, &sink);
  ClusterOptions copts;
  copts.num_servers = 4;
  copts.replication_factor = 2;
  copts.server_options.backend = BackendKind::kXTree;
  copts.server_options.multi.metrics = &sink;
  copts.use_threads = true;
  copts.shared_pool = &pool;
  copts.metrics = &sink;
  auto cluster = SharedNothingCluster::Create(
      dataset, std::make_shared<EuclideanMetric>(), copts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  BatchSchedulerOptions options;
  options.max_batch_size = 32;
  options.flush_deadline = std::chrono::microseconds(2000);
  options.metrics = &sink;
  options.executor = [&](const std::vector<Query>& queries,
                         QueryStats* stats) {
    return (*cluster)->ExecuteBatch(queries, stats);
  };
  BatchScheduler scheduler(nullptr, &pool, options);

  constexpr size_t kProducers = 2;
  constexpr size_t kPerProducer = 500;
  constexpr double kQpsPerProducer = 1500.0;
  std::vector<std::vector<AnswerFuture>> futures(kProducers);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      load::PoissonArrivals arrivals(kQpsPerProducer, 965 + p);
      Rng rng(967 + p);
      auto next = std::chrono::steady_clock::now();
      for (size_t i = 0; i < kPerProducer; ++i) {
        next += arrivals.NextGap();
        std::this_thread::sleep_until(next);
        Query q;
        q.id = (QueryId{p + 1} << load::LoadGenerator::kTenantIdShift) | i;
        q.point = dataset.object(
            static_cast<ObjectId>(rng.NextIndex(dataset.size())));
        q.type = QueryType::Knn(10);
        futures[p].push_back(scheduler.Submit(std::move(q)));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  scheduler.Drain();
  for (auto& producer_futures : futures) {
    for (AnswerFuture& f : producer_futures) {
      auto got = f.get();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->size(), 10u);
    }
  }

  const ExportedLatency exported = ReadExportedLatency(registry);
  ASSERT_EQ(exported.queries, kProducers * kPerProducer);
  ASSERT_GT(exported.e2e_micros, 0.0);
  const double mismatch =
      std::abs(exported.attributed_micros - exported.e2e_micros) /
      exported.e2e_micros;
  EXPECT_LE(mismatch, 0.05) << "attributed " << exported.attributed_micros
                            << " us vs end-to-end " << exported.e2e_micros
                            << " us";
}

}  // namespace
}  // namespace msq
