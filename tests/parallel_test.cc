// Tests of the shared-nothing parallel substrate: declustering properties,
// global answer correctness for any server count and backend, and the
// cost-accounting surface the parallel benches rely on.

#include <memory>
#include <numeric>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "parallel/cluster.h"
#include "parallel/decluster.h"
#include "parallel/thread_pool.h"
#include "robust/fault_injector.h"
#include "tests/test_util.h"

namespace msq {
namespace {

using testing::BruteForceQuery;
using testing::SameAnswers;

// ---------------------------------------------------------------------
// Decluster
// ---------------------------------------------------------------------

class DeclusterStrategyTest
    : public ::testing::TestWithParam<DeclusterStrategy> {};

TEST_P(DeclusterStrategyTest, PartitionsAreCompleteAndDisjoint) {
  auto got = Decluster(1000, 7, GetParam(), 42);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 7u);
  std::set<ObjectId> seen;
  for (const auto& part : *got) {
    EXPECT_FALSE(part.empty());
    for (ObjectId id : part) {
      EXPECT_LT(id, 1000u);
      EXPECT_TRUE(seen.insert(id).second) << "object assigned twice";
    }
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST_P(DeclusterStrategyTest, RoughBalance) {
  auto got = Decluster(10000, 8, GetParam(), 43);
  ASSERT_TRUE(got.ok());
  for (const auto& part : *got) {
    EXPECT_GT(part.size(), 10000u / 8 / 2);
    EXPECT_LT(part.size(), 10000u / 8 * 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, DeclusterStrategyTest,
                         ::testing::Values(DeclusterStrategy::kRoundRobin,
                                           DeclusterStrategy::kRandom,
                                           DeclusterStrategy::kChunked),
                         [](const auto& info) {
                           return DeclusterStrategyName(info.param);
                         });

TEST(DeclusterTest, RejectsDegenerateInputs) {
  EXPECT_TRUE(Decluster(10, 0, DeclusterStrategy::kRoundRobin, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Decluster(3, 5, DeclusterStrategy::kRoundRobin, 1)
                  .status()
                  .IsInvalidArgument());
}

TEST(DeclusterTest, RoundRobinIsDeterministicInterleave) {
  auto got = Decluster(10, 3, DeclusterStrategy::kRoundRobin, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[0], (std::vector<ObjectId>{0, 3, 6, 9}));
  EXPECT_EQ((*got)[1], (std::vector<ObjectId>{1, 4, 7}));
  EXPECT_EQ((*got)[2], (std::vector<ObjectId>{2, 5, 8}));
}

TEST(SpatialDeclusterTest, PartitionsAreCompleteDisjointAndBalanced) {
  Dataset dataset = MakeUniformDataset(1000, 4, 929);
  auto got = DeclusterDataset(dataset, 7, DeclusterStrategy::kSpatial, 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), 7u);
  std::set<ObjectId> seen;
  for (const auto& part : *got) {
    EXPECT_GE(part.size(), 1000u / 7 / 2);
    EXPECT_LE(part.size(), 1000u / 7 * 2);
    for (ObjectId id : part) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(SpatialDeclusterTest, PartitionsAreSpatiallyCompact) {
  // Average pairwise distance within a spatial partition must be well
  // below that of a round-robin partition.
  Dataset dataset = MakeUniformDataset(2000, 3, 931);
  EuclideanMetric metric;
  auto spatial = DeclusterDataset(dataset, 8, DeclusterStrategy::kSpatial, 1);
  auto rr = DeclusterDataset(dataset, 8, DeclusterStrategy::kRoundRobin, 1);
  ASSERT_TRUE(spatial.ok());
  ASSERT_TRUE(rr.ok());
  auto avg_intra = [&](const std::vector<std::vector<ObjectId>>& parts) {
    double sum = 0.0;
    size_t count = 0;
    for (const auto& part : parts) {
      for (size_t i = 0; i < part.size(); i += 13) {
        for (size_t j = i + 1; j < part.size(); j += 13) {
          sum += metric.Distance(dataset.object(part[i]),
                                 dataset.object(part[j]));
          ++count;
        }
      }
    }
    return sum / static_cast<double>(count);
  };
  EXPECT_LT(avg_intra(*spatial), 0.7 * avg_intra(*rr));
}

TEST(SpatialDeclusterTest, PlainDeclusterRejectsSpatial) {
  EXPECT_TRUE(Decluster(100, 4, DeclusterStrategy::kSpatial, 1)
                  .status()
                  .IsInvalidArgument());
}

TEST(SpatialDeclusterTest, ClusterAnswersStayCorrect) {
  Dataset dataset = MakeGaussianClustersDataset(900, 4, 5, 0.05, 933);
  EuclideanMetric metric;
  ClusterOptions options;
  options.num_servers = 5;
  options.strategy = DeclusterStrategy::kSpatial;
  options.server_options.page_size_bytes = 2048;
  options.server_options.multi.max_batch_size = 64;
  auto cluster = SharedNothingCluster::Create(
      dataset, std::make_shared<EuclideanMetric>(), options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  std::vector<Query> queries;
  for (ObjectId id : {1u, 200u, 500u, 880u}) {
    queries.push_back(Query{static_cast<QueryId>(id), dataset.object(id),
                            QueryType::Knn(6)});
  }
  auto got = (*cluster)->ExecuteMultipleAll(queries);
  ASSERT_TRUE(got.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers((*got)[i],
                            BruteForceQuery(dataset, metric, queries[i])));
  }
}

// ---------------------------------------------------------------------
// SharedNothingCluster
// ---------------------------------------------------------------------

ClusterOptions MakeClusterOptions(size_t servers, BackendKind backend,
                                  bool threads = true) {
  ClusterOptions options;
  options.num_servers = servers;
  options.use_threads = threads;
  options.server_options.backend = backend;
  options.server_options.page_size_bytes = 2048;
  options.server_options.multi.max_batch_size = 512;
  return options;
}

std::vector<Query> GlobalKnnQueries(const Dataset& ds, size_t m, size_t k,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> queries;
  const auto ids = rng.SampleWithoutReplacement(ds.size(), m);
  for (uint64_t id : ids) {
    // Global query ids; points taken from the global dataset.
    queries.push_back(Query{static_cast<QueryId>(id),
                            ds.object(static_cast<ObjectId>(id)),
                            QueryType::Knn(k)});
  }
  return queries;
}

struct ParallelCase {
  size_t servers;
  BackendKind backend;
  const char* name;
};

class ParallelBackendTest : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelBackendTest, MergedAnswersMatchBruteForce) {
  Dataset dataset = MakeGaussianClustersDataset(1200, 5, 6, 0.05, 801);
  auto metric = std::make_shared<EuclideanMetric>();
  auto cluster = SharedNothingCluster::Create(
      dataset, metric, MakeClusterOptions(GetParam().servers,
                                          GetParam().backend));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const auto queries = GlobalKnnQueries(dataset, 12, 8, 61);
  auto got = (*cluster)->ExecuteMultipleAll(queries);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    const AnswerSet expected = BruteForceQuery(dataset, *metric, queries[i]);
    EXPECT_TRUE(SameAnswers((*got)[i], expected)) << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelBackendTest,
    ::testing::Values(ParallelCase{1, BackendKind::kLinearScan, "s1_scan"},
                      ParallelCase{4, BackendKind::kLinearScan, "s4_scan"},
                      ParallelCase{7, BackendKind::kLinearScan, "s7_scan"},
                      ParallelCase{4, BackendKind::kXTree, "s4_xtree"},
                      ParallelCase{4, BackendKind::kMTree, "s4_mtree"}),
    [](const ::testing::TestParamInfo<ParallelCase>& info) {
      return info.param.name;
    });

// Regression guard for the coordinator's merge: with duplicated points the
// candidate lists carry runs of equal distances, and the merged kNN cut
// must land exactly where the single-server (distance, id) order puts it —
// for every declustering, since each one splits the tied copies across
// servers differently.
TEST(ParallelTest, KnnMergeBreaksDistanceTiesDeterministically) {
  constexpr size_t kDistinct = 50;
  constexpr size_t kCopies = 4;
  Rng rng(811);
  std::vector<Vec> objects;
  objects.reserve(kDistinct * kCopies);
  for (size_t i = 0; i < kDistinct; ++i) {
    Vec point = {static_cast<Scalar>(rng.NextDouble(0.0, 1.0)),
                 static_cast<Scalar>(rng.NextDouble(0.0, 1.0)),
                 static_cast<Scalar>(rng.NextDouble(0.0, 1.0))};
    for (size_t c = 0; c < kCopies; ++c) objects.push_back(point);
  }
  Dataset dataset(3, std::move(objects));
  auto metric = std::make_shared<EuclideanMetric>();

  std::vector<Query> queries;
  for (uint64_t i = 0; i < 6; ++i) {
    // k = 6 cuts through the middle of a 4-copy tie group (1 exact match
    // group of 4, then 2 of the next group's 4 copies).
    queries.push_back(Query{2000 + i,
                            dataset.object(static_cast<ObjectId>(i * 13)),
                            QueryType::Knn(6)});
  }

  for (DeclusterStrategy strategy :
       {DeclusterStrategy::kRoundRobin, DeclusterStrategy::kRandom,
        DeclusterStrategy::kChunked}) {
    ClusterOptions options = MakeClusterOptions(5, BackendKind::kLinearScan);
    options.strategy = strategy;
    auto cluster = SharedNothingCluster::Create(dataset, metric, options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    auto got = (*cluster)->ExecuteMultipleAll(queries);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      const AnswerSet expected =
          BruteForceQuery(dataset, *metric, queries[i]);
      EXPECT_TRUE(SameAnswers((*got)[i], expected))
          << "strategy " << static_cast<int>(strategy) << " query " << i;
    }
  }
}

/// Bit-identical comparison — not SameAnswers' tolerance: failover must be
/// invisible, so ids, distances *and order* have to match exactly.
bool BitIdentical(const std::vector<AnswerSet>& a,
                  const std::vector<AnswerSet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].distance != b[q][i].distance) {
        return false;
      }
    }
  }
  return true;
}

// The failover guarantee, against the merge's hardest input: duplicated
// points put runs of equal distances in every candidate list, and every
// declustering strategy splits the tie groups across servers differently.
// Whichever single server crashes, a 2-way replicated cluster must return
// answers bit-identical to the fault-free unreplicated run — replica
// databases are built over the same partition subsets, so the merge cannot
// tell who served a partition.
TEST(ParallelTest, FailoverMergeIsBitIdenticalAcrossStrategies) {
  constexpr size_t kDistinct = 50;
  constexpr size_t kCopies = 4;
  Rng rng(811);
  std::vector<Vec> objects;
  objects.reserve(kDistinct * kCopies);
  for (size_t i = 0; i < kDistinct; ++i) {
    Vec point = {static_cast<Scalar>(rng.NextDouble(0.0, 1.0)),
                 static_cast<Scalar>(rng.NextDouble(0.0, 1.0)),
                 static_cast<Scalar>(rng.NextDouble(0.0, 1.0))};
    for (size_t c = 0; c < kCopies; ++c) objects.push_back(point);
  }
  Dataset dataset(3, std::move(objects));
  auto metric = std::make_shared<EuclideanMetric>();
  std::vector<Query> queries;
  for (uint64_t i = 0; i < 6; ++i) {
    queries.push_back(Query{2000 + i,
                            dataset.object(static_cast<ObjectId>(i * 13)),
                            QueryType::Knn(6)});
  }

  for (DeclusterStrategy strategy :
       {DeclusterStrategy::kRoundRobin, DeclusterStrategy::kRandom,
        DeclusterStrategy::kChunked, DeclusterStrategy::kSpatial}) {
    SCOPED_TRACE(DeclusterStrategyName(strategy));
    ClusterOptions options = MakeClusterOptions(5, BackendKind::kLinearScan);
    options.strategy = strategy;

    // Fault-free, unreplicated reference.
    auto baseline = SharedNothingCluster::Create(dataset, metric, options);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    auto expected = (*baseline)->ExecuteMultipleAll(queries);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    for (size_t crashed = 0; crashed < 5; ++crashed) {
      ClusterOptions replicated = options;
      replicated.replication_factor = 2;
      robust::FaultPlan plan;
      plan.metrics = nullptr;
      std::vector<std::shared_ptr<robust::FaultInjector>> injectors;
      for (size_t i = 0; i < 5; ++i) {
        injectors.push_back(std::make_shared<robust::FaultInjector>(plan));
      }
      replicated.server_faults = injectors;
      auto cluster = SharedNothingCluster::Create(dataset, metric, replicated);
      ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
      injectors[crashed]->Crash();
      auto got = (*cluster)->ExecuteMultipleAll(queries);
      ASSERT_TRUE(got.ok())
          << "crashed server " << crashed << ": " << got.status().ToString();
      EXPECT_TRUE(BitIdentical(*got, *expected)) << "crashed " << crashed;
      EXPECT_GE((*cluster)->failovers(), 1u) << "crashed " << crashed;
    }
  }
}

TEST(ParallelTest, RangeQueriesMergeToGlobalResult) {
  Dataset dataset = MakeUniformDataset(900, 4, 803);
  auto metric = std::make_shared<EuclideanMetric>();
  auto cluster = SharedNothingCluster::Create(
      dataset, metric, MakeClusterOptions(5, BackendKind::kLinearScan));
  ASSERT_TRUE(cluster.ok());
  std::vector<Query> queries;
  Rng rng(805);
  for (uint64_t i = 0; i < 8; ++i) {
    queries.push_back(Query{1000 + i, dataset.object(rng.NextIndex(900)),
                            QueryType::Range(0.3)});
  }
  auto got = (*cluster)->ExecuteMultipleAll(queries);
  ASSERT_TRUE(got.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers((*got)[i],
                            BruteForceQuery(dataset, *metric, queries[i])));
  }
}

TEST(ParallelTest, ThreadedAndSequentialExecutionAgree) {
  Dataset dataset = MakeUniformDataset(800, 5, 807);
  auto metric = std::make_shared<EuclideanMetric>();
  const auto queries = GlobalKnnQueries(dataset, 10, 5, 63);
  auto threaded = SharedNothingCluster::Create(
      dataset, metric,
      MakeClusterOptions(4, BackendKind::kLinearScan, /*threads=*/true));
  auto sequential = SharedNothingCluster::Create(
      dataset, metric,
      MakeClusterOptions(4, BackendKind::kLinearScan, /*threads=*/false));
  ASSERT_TRUE(threaded.ok());
  ASSERT_TRUE(sequential.ok());
  auto got_t = (*threaded)->ExecuteMultipleAll(queries);
  auto got_s = (*sequential)->ExecuteMultipleAll(queries);
  ASSERT_TRUE(got_t.ok());
  ASSERT_TRUE(got_s.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers((*got_t)[i], (*got_s)[i]));
  }
  // The modeled cost is execution-order independent.
  EXPECT_DOUBLE_EQ((*threaded)->ModeledElapsedMillis(),
                   (*sequential)->ModeledElapsedMillis());
}

TEST(ParallelTest, ClustersShareOneThreadPool) {
  // Two clusters on one process-wide pool, queried from two threads at
  // once: answers must stay correct with far fewer workers than the total
  // server count (RunAll interleaves both clusters' server tasks).
  Dataset dataset = MakeUniformDataset(1000, 5, 817);
  auto metric = std::make_shared<EuclideanMetric>();
  ThreadPool pool(2);
  ClusterOptions options = MakeClusterOptions(4, BackendKind::kLinearScan);
  options.shared_pool = &pool;
  auto cluster_a = SharedNothingCluster::Create(dataset, metric, options);
  auto cluster_b = SharedNothingCluster::Create(dataset, metric, options);
  ASSERT_TRUE(cluster_a.ok());
  ASSERT_TRUE(cluster_b.ok());

  const auto queries_a = GlobalKnnQueries(dataset, 8, 5, 75);
  const auto queries_b = GlobalKnnQueries(dataset, 8, 7, 77);
  StatusOr<std::vector<AnswerSet>> got_a = Status::Internal("unset");
  StatusOr<std::vector<AnswerSet>> got_b = Status::Internal("unset");
  std::thread ta([&] { got_a = (*cluster_a)->ExecuteMultipleAll(queries_a); });
  std::thread tb([&] { got_b = (*cluster_b)->ExecuteMultipleAll(queries_b); });
  ta.join();
  tb.join();
  ASSERT_TRUE(got_a.ok()) << got_a.status().ToString();
  ASSERT_TRUE(got_b.ok()) << got_b.status().ToString();
  for (size_t i = 0; i < queries_a.size(); ++i) {
    EXPECT_TRUE(SameAnswers(
        (*got_a)[i], BruteForceQuery(dataset, *metric, queries_a[i])));
  }
  for (size_t i = 0; i < queries_b.size(); ++i) {
    EXPECT_TRUE(SameAnswers(
        (*got_b)[i], BruteForceQuery(dataset, *metric, queries_b[i])));
  }
}

TEST(ParallelTest, PerServerIoShrinksWithServerCount) {
  Dataset dataset = MakeUniformDataset(4000, 8, 809);
  auto metric = std::make_shared<EuclideanMetric>();
  const auto queries = GlobalKnnQueries(dataset, 10, 10, 65);
  uint64_t pages_s2 = 0, pages_s8 = 0;
  for (size_t s : {2, 8}) {
    auto cluster = SharedNothingCluster::Create(
        dataset, metric, MakeClusterOptions(s, BackendKind::kLinearScan));
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE((*cluster)->ExecuteMultipleAll(queries).ok());
    uint64_t max_pages = 0;
    for (const QueryStats& st : (*cluster)->ServerStats()) {
      max_pages = std::max(max_pages, st.TotalPageReads());
    }
    (s == 2 ? pages_s2 : pages_s8) = max_pages;
  }
  EXPECT_LT(pages_s8, pages_s2);
}

TEST(ParallelTest, ElapsedIsMaxAndWorkIsSumOfServers) {
  Dataset dataset = MakeUniformDataset(1000, 5, 811);
  auto metric = std::make_shared<EuclideanMetric>();
  auto cluster = SharedNothingCluster::Create(
      dataset, metric, MakeClusterOptions(3, BackendKind::kLinearScan));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE(
      (*cluster)->ExecuteMultipleAll(GlobalKnnQueries(dataset, 6, 4, 67)).ok());
  double sum = 0.0, max = 0.0;
  for (size_t i = 0; i < (*cluster)->num_servers(); ++i) {
    const double ms = (*cluster)->server(i).ModeledTotalMillis();
    sum += ms;
    max = std::max(max, ms);
  }
  EXPECT_DOUBLE_EQ((*cluster)->ModeledElapsedMillis(), max);
  EXPECT_DOUBLE_EQ((*cluster)->ModeledTotalWorkMillis(), sum);
}

TEST(ParallelTest, ResetAllClearsServerStats) {
  Dataset dataset = MakeUniformDataset(600, 4, 813);
  auto metric = std::make_shared<EuclideanMetric>();
  auto cluster = SharedNothingCluster::Create(
      dataset, metric, MakeClusterOptions(2, BackendKind::kLinearScan));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE(
      (*cluster)->ExecuteMultipleAll(GlobalKnnQueries(dataset, 4, 3, 69)).ok());
  (*cluster)->ResetAll();
  for (const QueryStats& st : (*cluster)->ServerStats()) {
    EXPECT_EQ(st.TotalPageReads(), 0u);
    EXPECT_EQ(st.dist_computations, 0u);
  }
}

TEST(ParallelTest, EveryPartitionProducesWork) {
  Dataset dataset = MakeUniformDataset(2000, 6, 815);
  auto metric = std::make_shared<EuclideanMetric>();
  auto cluster = SharedNothingCluster::Create(
      dataset, metric, MakeClusterOptions(4, BackendKind::kLinearScan));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE(
      (*cluster)->ExecuteMultipleAll(GlobalKnnQueries(dataset, 8, 5, 71)).ok());
  for (const QueryStats& st : (*cluster)->ServerStats()) {
    EXPECT_GT(st.dist_computations, 0u);
  }
}

}  // namespace
}  // namespace msq
