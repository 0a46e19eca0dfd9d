// Tests of the fault-tolerance layer: deterministic fault injection,
// per-query deadlines with partial answers, transient-fault recovery
// through the engine's accounted-page rollback, and the cluster's retry /
// graceful-degradation paths — each reflected in the exported msq_*
// counters.

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "parallel/cluster.h"
#include "robust/fault_injector.h"
#include "tests/test_util.h"

namespace msq {
namespace {

using testing::BruteForceQuery;
using testing::SameAnswers;

std::unique_ptr<MetricDatabase> OpenScanDb(
    Dataset dataset, std::shared_ptr<robust::FaultInjector> injector = nullptr,
    MultiQueryOptions multi = {}) {
  DatabaseOptions options;
  options.backend = BackendKind::kLinearScan;
  options.page_size_bytes = 2048;
  options.multi = multi;
  options.fault_injector = std::move(injector);
  auto db = MetricDatabase::Open(std::move(dataset),
                                 std::make_shared<EuclideanMetric>(), options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

/// True when every answer of `part` appears (same id, same distance) in
/// `full` — the correctness contract of a partial answer set.
bool SubsetOf(const AnswerSet& part, const AnswerSet& full) {
  for (const Neighbor& nb : part) {
    const bool found =
        std::any_of(full.begin(), full.end(), [&](const Neighbor& other) {
          return other.id == nb.id &&
                 std::abs(other.distance - nb.distance) < 1e-9;
        });
    if (!found) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(RobustInjectorTest, SameSeedSameWorkloadSameFaultSchedule) {
  robust::FaultPlan plan;
  plan.seed = 99;
  plan.page_read_fault_rate = 0.3;
  plan.metrics = nullptr;
  robust::FaultInjector a(plan);
  robust::FaultInjector b(plan);
  std::vector<bool> faults_a, faults_b;
  for (PageId p = 0; p < 200; ++p) {
    faults_a.push_back(!a.OnPageRead(p).ok());
    faults_b.push_back(!b.OnPageRead(p).ok());
  }
  EXPECT_EQ(faults_a, faults_b);
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(a.faults_injected(), 0u);
  EXPECT_LT(a.faults_injected(), 200u);
}

TEST(RobustInjectorTest, CrashFailsEveryReadUntilRestore) {
  robust::FaultPlan plan;
  plan.metrics = nullptr;
  robust::FaultInjector injector(plan);
  EXPECT_TRUE(injector.OnPageRead(0).ok());
  injector.Crash();
  EXPECT_TRUE(injector.crashed());
  // A down server is kUnavailable — deterministic, so retry policies must
  // not burn budget on it (unlike the transient kIOError hazards).
  EXPECT_TRUE(injector.OnPageRead(0).IsUnavailable());
  EXPECT_TRUE(injector.OnPageRead(1).IsUnavailable());
  injector.Restore();
  EXPECT_FALSE(injector.crashed());
  EXPECT_TRUE(injector.OnPageRead(2).ok());
}

TEST(RobustInjectorTest, ScheduledCrashFiresBetweenReads) {
  robust::FaultPlan plan;
  plan.metrics = nullptr;
  robust::FaultInjector injector(plan);
  injector.CrashAfterPageReads(2);
  EXPECT_TRUE(injector.OnPageRead(0).ok());
  EXPECT_TRUE(injector.OnPageRead(1).ok());
  EXPECT_TRUE(injector.OnPageRead(2).IsUnavailable());
  EXPECT_TRUE(injector.crashed());
  EXPECT_TRUE(injector.OnPageRead(3).IsUnavailable());
  injector.Restore();
  EXPECT_FALSE(injector.crashed());
  EXPECT_TRUE(injector.OnPageRead(4).ok());
  // Restore also cancels a not-yet-fired schedule.
  injector.CrashAfterPageReads(1);
  injector.Restore();
  EXPECT_TRUE(injector.OnPageRead(5).ok());
  EXPECT_TRUE(injector.OnPageRead(6).ok());
}

TEST(RobustInjectorTest, ScriptedFaultsConsumeThemselves) {
  robust::FaultPlan plan;
  plan.metrics = nullptr;
  robust::FaultInjector injector(plan);
  injector.FailNextPageReads(2);
  EXPECT_TRUE(injector.OnPageRead(0).IsIOError());
  EXPECT_TRUE(injector.OnPageRead(0).IsIOError());
  EXPECT_TRUE(injector.OnPageRead(0).ok());
  EXPECT_EQ(injector.faults_injected(), 2u);
}

TEST(RobustInjectorTest, CountsFaultsByKindInCallerOwnedRegistry) {
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(&registry, nullptr);
  robust::FaultPlan plan;
  plan.metrics = &sink;
  robust::FaultInjector injector(plan);
  injector.FailNextPageReads(3);
  for (PageId p = 0; p < 5; ++p) (void)injector.OnPageRead(p);
  injector.Crash();
  (void)injector.OnPageRead(0);
  EXPECT_EQ(registry
                .GetCounter("msq_fault_injected_total", "",
                            "kind=\"page_read\"")
                ->Value(),
            3u);
  EXPECT_EQ(registry.GetCounter("msq_fault_injected_total", "",
                                "kind=\"crash\"")
                ->Value(),
            1u);
}

// ---------------------------------------------------------------------
// Engine under faults
// ---------------------------------------------------------------------

// The no-op contract of the decorator: with the injector quiescent, the
// wrapped database answers identically (same answers, same I/O accounting)
// to an unwrapped one.
TEST(RobustEngineTest, QuiescentInjectorIsAnExactNoOp) {
  Dataset dataset = MakeUniformDataset(500, 4, 1201);
  robust::FaultPlan plan;
  plan.metrics = nullptr;
  auto injector = std::make_shared<robust::FaultInjector>(plan);
  auto faulty = OpenScanDb(dataset, injector);
  auto plain = OpenScanDb(dataset);

  std::vector<Query> batch;
  for (uint64_t i = 0; i < 8; ++i) {
    batch.push_back(Query{200 + i, dataset.object(static_cast<ObjectId>(i * 7)),
                          i % 2 == 0 ? QueryType::Knn(5)
                                     : QueryType::Range(0.3)});
  }
  auto got_faulty = faulty->MultipleSimilarityQueryAll(batch);
  auto got_plain = plain->MultipleSimilarityQueryAll(batch);
  ASSERT_TRUE(got_faulty.ok()) << got_faulty.status().ToString();
  ASSERT_TRUE(got_plain.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(SameAnswers((*got_faulty)[i], (*got_plain)[i])) << i;
  }
  EXPECT_EQ(faulty->stats().TotalPageReads(), plain->stats().TotalPageReads());
  EXPECT_EQ(faulty->stats().dist_computations,
            plain->stats().dist_computations);
  EXPECT_EQ(injector->faults_injected(), 0u);
}

// A transient page-read fault fails the call, but the engine rolls the
// failed page's accounting back, so the retry resumes — and the final
// answers are exactly the fault-free ones. (Without the rollback the
// failed page would be skipped forever and answers would silently miss
// its objects.)
TEST(RobustEngineTest, TransientFaultFailsThenRecoversExactly) {
  Dataset dataset = MakeUniformDataset(600, 4, 1203);
  robust::FaultPlan plan;
  plan.metrics = nullptr;
  auto injector = std::make_shared<robust::FaultInjector>(plan);
  auto db = OpenScanDb(dataset, injector);
  EuclideanMetric metric;

  const Query q{301, dataset.object(11), QueryType::Knn(7)};
  injector->FailNextPageReads(1);
  auto failed = db->MultipleSimilarityQueryAll({q});
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();

  // Retry on the same engine: buffered partial state resumes, the
  // previously failed page is revisited, answers are exact.
  auto retried = db->MultipleSimilarityQueryAll({q});
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(SameAnswers((*retried)[0], BruteForceQuery(dataset, metric, q)));
  EXPECT_EQ(injector->faults_injected(), 1u);
}

// Per-query deadline: an expired deadline returns DeadlineExceeded *with*
// the buffered partial answers; the query stays resumable and a later
// call without the deadline completes it exactly.
TEST(RobustEngineTest, DeadlineReturnsPartialAnswersAndStaysResumable) {
  Dataset dataset = MakeUniformDataset(500, 4, 1205);
  // Every page read stalls 1ms, so a 3ms deadline expires mid-scan.
  robust::FaultPlan plan;
  plan.metrics = nullptr;
  plan.latency_spike_rate = 1.0;
  plan.latency_spike = std::chrono::milliseconds(1);
  auto injector = std::make_shared<robust::FaultInjector>(plan);

  obs::MetricsRegistry registry;
  obs::MetricsSink sink(&registry, nullptr);
  MultiQueryOptions multi;
  multi.metrics = &sink;
  auto db = OpenScanDb(dataset, injector, multi);
  EuclideanMetric metric;

  // A range query's partial answers are a subset of its full answers
  // (kNN partials may still contain objects the full answer evicts).
  Query q{401, dataset.object(3), QueryType::Range(10.0)};
  const AnswerSet full = BruteForceQuery(dataset, metric, q);
  ASSERT_GT(full.size(), 0u);

  q.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(3);
  auto got = db->MultipleSimilarityQuery({q});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->status.IsDeadlineExceeded()) << got->status.ToString();
  EXPECT_LT(got->answers[0].size(), full.size());
  EXPECT_TRUE(SubsetOf(got->answers[0], full));
  EXPECT_EQ(
      registry.GetCounter("msq_engine_deadline_hits_total")->Value(), 1u);

  // Same query, no deadline: resumes from the buffered partial state and
  // completes exactly.
  q.deadline = kNoDeadline;
  auto completed = db->MultipleSimilarityQueryAll({q});
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  EXPECT_TRUE(SameAnswers((*completed)[0], full));
  EXPECT_EQ(
      registry.GetCounter("msq_engine_deadline_hits_total")->Value(), 1u);
}

// ExecuteAllPartial: the deadline failure of one query's window stays that
// query's alone; its batchmates complete exactly.
TEST(RobustEngineTest, BatchIsolatesDeadlineFailurePerQuery) {
  Dataset dataset = MakeUniformDataset(500, 4, 1207);
  robust::FaultPlan plan;
  plan.metrics = nullptr;
  plan.latency_spike_rate = 1.0;
  plan.latency_spike = std::chrono::milliseconds(1);
  auto injector = std::make_shared<robust::FaultInjector>(plan);
  auto db = OpenScanDb(dataset, injector);
  EuclideanMetric metric;

  Query ok_query{501, dataset.object(5), QueryType::Knn(4)};
  Query doomed{502, dataset.object(9), QueryType::Range(10.0)};
  // Already expired when its window starts.
  doomed.deadline = std::chrono::steady_clock::now();

  auto got = db->MultipleSimilarityQueryAllPartial({ok_query, doomed});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->statuses.size(), 2u);
  EXPECT_TRUE(got->statuses[0].ok()) << got->statuses[0].ToString();
  EXPECT_TRUE(got->statuses[1].IsDeadlineExceeded());
  EXPECT_TRUE(
      SameAnswers(got->answers[0], BruteForceQuery(dataset, metric, ok_query)));
  // The doomed window still surfaced whatever the ok window's I/O sharing
  // had buffered for it — a valid partial answer.
  EXPECT_TRUE(SubsetOf(got->answers[1],
                       BruteForceQuery(dataset, metric, doomed)));
}

// ---------------------------------------------------------------------
// Cluster under faults
// ---------------------------------------------------------------------

struct ClusterFixture {
  Dataset dataset;
  std::shared_ptr<const Metric> metric;
  std::vector<std::shared_ptr<robust::FaultInjector>> injectors;
  std::unique_ptr<SharedNothingCluster> cluster;
};

ClusterFixture MakeFaultyCluster(size_t servers, uint64_t seed,
                                 ClusterRetryPolicy retry = {}) {
  ClusterFixture fx;
  fx.dataset = MakeUniformDataset(800, 4, seed);
  fx.metric = std::make_shared<EuclideanMetric>();
  ClusterOptions options;
  options.num_servers = servers;
  options.strategy = DeclusterStrategy::kRoundRobin;
  options.server_options.backend = BackendKind::kLinearScan;
  options.server_options.page_size_bytes = 2048;
  options.retry = retry;
  robust::FaultPlan plan;
  plan.metrics = nullptr;
  for (size_t i = 0; i < servers; ++i) {
    fx.injectors.push_back(std::make_shared<robust::FaultInjector>(plan));
  }
  options.server_faults = fx.injectors;
  auto cluster = SharedNothingCluster::Create(fx.dataset, fx.metric, options);
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  fx.cluster = std::move(cluster).value();
  return fx;
}

std::vector<Query> ClusterQueries(const Dataset& ds) {
  std::vector<Query> queries;
  for (uint64_t i = 0; i < 6; ++i) {
    queries.push_back(Query{700 + i, ds.object(static_cast<ObjectId>(i * 13)),
                            i % 2 == 0 ? QueryType::Knn(5)
                                       : QueryType::Range(0.25)});
  }
  return queries;
}

// A crashed server degrades the answers, not the call: the partial result
// names the missing partition and the merged answers are exactly the
// brute-force answers over the surviving partitions.
TEST(RobustClusterTest, CrashedServerYieldsPartialResultsWithMissingPartition) {
  ClusterFixture fx = MakeFaultyCluster(4, 1301);
  const std::vector<Query> queries = ClusterQueries(fx.dataset);
  fx.injectors[1]->Crash();

  auto got = fx.cluster->ExecuteMultipleAllPartial(queries);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->missing_servers, (std::vector<size_t>{1}));
  ASSERT_EQ(got->server_status.size(), 4u);
  EXPECT_TRUE(got->server_status[1].IsUnavailable());

  // Oracle: brute force over the union of the surviving partitions.
  std::vector<Vec> surviving;
  std::vector<ObjectId> surviving_global;
  for (size_t s = 0; s < 4; ++s) {
    if (s == 1) continue;
    for (ObjectId global : fx.cluster->partitions()[s]) {
      surviving.push_back(fx.dataset.object(global));
      surviving_global.push_back(global);
    }
  }
  Dataset surviving_ds(fx.dataset.dim(), surviving);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    AnswerSet expected =
        BruteForceQuery(surviving_ds, *fx.metric, queries[qi]);
    for (Neighbor& nb : expected) nb.id = surviving_global[nb.id];
    std::sort(expected.begin(), expected.end());
    EXPECT_TRUE(SameAnswers(got->answers[qi], expected)) << "query " << qi;
  }
}

// The strict path aggregates *every* failed server into one status
// instead of reporting only the first.
TEST(RobustClusterTest, StrictFailureNamesEveryFailedServer) {
  ClusterFixture fx = MakeFaultyCluster(4, 1303);
  fx.injectors[1]->Crash();
  fx.injectors[3]->Crash();
  auto got = fx.cluster->ExecuteMultipleAll(ClusterQueries(fx.dataset));
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable());
  const std::string& msg = got.status().message();
  EXPECT_NE(msg.find("2 of 4 servers failed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("server 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("server 3"), std::string::npos) << msg;
}

// A transient fault on one server succeeds after a bounded retry; the
// answers are exact and the retry is counted.
TEST(RobustClusterTest, TransientFaultRecoversThroughRetry) {
  ClusterRetryPolicy retry;
  retry.max_retries = 2;
  ClusterFixture fx = MakeFaultyCluster(4, 1307, retry);
  const std::vector<Query> queries = ClusterQueries(fx.dataset);
  fx.injectors[2]->FailNextPageReads(1);

  auto got = fx.cluster->ExecuteMultipleAll(queries);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GE(fx.cluster->retries_attempted(), 1u);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_TRUE(SameAnswers(
        (*got)[qi], BruteForceQuery(fx.dataset, *fx.metric, queries[qi])))
        << "query " << qi;
  }
}

// A crash is deterministic (kUnavailable): retrying the same server could
// only waste the budget, so the retry loop skips it entirely and the
// failure surfaces at once.
TEST(RobustClusterTest, CrashSkipsTheRetryBudget) {
  ClusterRetryPolicy retry;
  retry.max_retries = 2;
  ClusterFixture fx = MakeFaultyCluster(2, 1309, retry);
  fx.injectors[0]->Crash();
  auto got = fx.cluster->ExecuteMultipleAll(ClusterQueries(fx.dataset));
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable());
  EXPECT_EQ(fx.cluster->retries_attempted(), 0u);
}

// Exhausted retries surface a *transient* failure that outlived the
// budget — and every attempt is counted.
TEST(RobustClusterTest, ExhaustedRetriesSurfaceATransientFailure) {
  ClusterRetryPolicy retry;
  retry.max_retries = 2;
  ClusterFixture fx = MakeFaultyCluster(2, 1311, retry);
  // More scripted transient faults than the budget can absorb: every
  // attempt (1 initial + 2 retries) fails on its first page read.
  fx.injectors[0]->FailNextPageReads(10);
  auto got = fx.cluster->ExecuteMultipleAll(ClusterQueries(fx.dataset));
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError());
  EXPECT_EQ(fx.cluster->retries_attempted(), 2u);
}

// Satellite regression: a server dying *between* two page reads of an
// in-flight batch fails the call with kUnavailable, and the DiskModel
// accounting stays honest — the interrupted attempt charges exactly one
// extra (failed) page read over a fault-free twin, and after Restore()
// the resumed run completes exactly.
TEST(RobustEngineTest, MidBatchCrashIsUnavailableWithHonestAccounting) {
  Dataset dataset = MakeUniformDataset(600, 4, 1313);
  EuclideanMetric metric;
  robust::FaultPlan plan;
  plan.metrics = nullptr;
  auto injector = std::make_shared<robust::FaultInjector>(plan);
  auto faulty = OpenScanDb(dataset, injector);
  auto plain = OpenScanDb(dataset);

  std::vector<Query> batch;
  for (uint64_t i = 0; i < 4; ++i) {
    batch.push_back(Query{950 + i, dataset.object(static_cast<ObjectId>(i * 9)),
                          i % 2 == 0 ? QueryType::Knn(5)
                                     : QueryType::Range(0.3)});
  }
  // Crash between the 3rd and 4th page read of the batch.
  injector->CrashAfterPageReads(3);
  auto crashed = faulty->MultipleSimilarityQueryAll(batch);
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(crashed.status().IsUnavailable()) << crashed.status().ToString();
  EXPECT_EQ(injector->faults_injected(), 1u);
  // Honest accounting, part 1: a failed call bills nothing to the caller's
  // stats surface — the engine charges a call-local QueryStats and merges
  // it only on the success epilogue, so an aborted attempt cannot inflate
  // modeled costs (and a later retry cannot double-bill the same pages).
  EXPECT_EQ(faulty->stats().TotalPageReads(), 0u);
  EXPECT_EQ(faulty->stats().buffer_hits, 0u);

  injector->Restore();
  auto resumed = faulty->MultipleSimilarityQueryAll(batch);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  auto reference = plain->MultipleSimilarityQueryAll(batch);
  ASSERT_TRUE(reference.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(SameAnswers((*resumed)[i], (*reference)[i])) << "query " << i;
  }
  // Honest accounting, part 2: the resumed call pays for everything it
  // actually does. The failed page's accounting was rolled back, so it is
  // re-read for real (it cannot be silently skipped); the 3 pages the
  // crashed attempt completed stay accounted in the buffered query state
  // and are skipped — visible as pages_skipped_buffered, not billed as
  // fresh reads.
  EXPECT_GT(faulty->stats().TotalPageReads(), 0u);
  EXPECT_GE(faulty->stats().pages_skipped_buffered, 3u);
}

// ---------------------------------------------------------------------
// Seed sweep (CI runs this under ASan)
// ---------------------------------------------------------------------

// Probabilistic faults across a seed sweep: whatever the schedule, bounded
// retries eventually complete every query exactly — the error paths leak
// nothing and corrupt nothing (ASan watches allocations, the oracle
// watches answers).
TEST(RobustSmokeTest, SeedSweepWithProbabilisticFaultsStaysExact) {
  Dataset dataset = MakeUniformDataset(400, 4, 1401);
  EuclideanMetric metric;
  uint64_t total_faults = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    robust::FaultPlan plan;
    plan.metrics = nullptr;
    plan.seed = seed;
    plan.page_read_fault_rate = 0.25;
    auto injector = std::make_shared<robust::FaultInjector>(plan);
    auto db = OpenScanDb(dataset, injector);

    std::vector<Query> batch;
    for (uint64_t i = 0; i < 4; ++i) {
      batch.push_back(Query{900 + i,
                            dataset.object(static_cast<ObjectId>(i * 31)),
                            i % 2 == 0 ? QueryType::Knn(6)
                                       : QueryType::Range(0.3)});
    }
    // Retry until the whole batch completes; each attempt resumes from
    // the buffered state, so progress is monotone and this terminates.
    StatusOr<BatchResult> got = db->MultipleSimilarityQueryAllPartial(batch);
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (got.ok() && std::all_of(got->statuses.begin(), got->statuses.end(),
                                  [](const Status& st) { return st.ok(); })) {
        break;
      }
      got = db->MultipleSimilarityQueryAllPartial(batch);
    }
    ASSERT_TRUE(got.ok()) << "seed " << seed;
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(got->statuses[i].ok())
          << "seed " << seed << " query " << i << " never completed: "
          << got->statuses[i].ToString();
      EXPECT_TRUE(SameAnswers(got->answers[i],
                              BruteForceQuery(dataset, metric, batch[i])))
          << "seed " << seed << " query " << i;
    }
    total_faults += injector->faults_injected();
  }
  // Whether a specific seed faults depends on its draw sequence; the
  // sweep as a whole must have exercised the error path.
  EXPECT_GT(total_faults, 0u);
}

}  // namespace
}  // namespace msq
