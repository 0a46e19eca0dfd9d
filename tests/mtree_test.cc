// Tests of the M-tree: covering-radius/parent-distance invariants across
// promotion and partition policies, query correctness (including general
// metrics with no vector-space structure), and search accounting.

#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/single_query.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "dist/counting_metric.h"
#include "dist/edit_distance.h"
#include "mtree/mtree.h"
#include "tests/test_util.h"

namespace msq {
namespace {

std::shared_ptr<const Dataset> SharedDataset(Dataset ds) {
  return std::make_shared<Dataset>(std::move(ds));
}

struct PolicyCase {
  MTreeOptions::Promotion promotion;
  MTreeOptions::Partition partition;
  const char* name;
};

class MTreePolicyTest : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(MTreePolicyTest, InvariantsHoldAfterBuild) {
  auto dataset = SharedDataset(MakeGaussianClustersDataset(1500, 5, 6, 0.05,
                                                           501));
  auto metric = std::make_shared<EuclideanMetric>();
  MTreeOptions options;
  options.page_size_bytes = 1024;
  options.promotion = GetParam().promotion;
  options.partition = GetParam().partition;
  auto tree = MTreeBackend::Build(dataset, metric, options);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE((*tree)->CheckInvariants().ok())
      << (*tree)->CheckInvariants().ToString();
  const MTreeShape shape = (*tree)->Shape();
  EXPECT_GT(shape.num_leaves, 1u);
  EXPECT_GT(shape.height, 1u);
}

TEST_P(MTreePolicyTest, KnnMatchesBruteForce) {
  Dataset raw = MakeGaussianClustersDataset(1000, 5, 5, 0.05, 503);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<EuclideanMetric>();
  MTreeOptions options;
  options.page_size_bytes = 1024;
  options.promotion = GetParam().promotion;
  options.partition = GetParam().partition;
  auto tree = MTreeBackend::Build(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  CountingMetric counted(metric);
  Rng rng(505);
  for (int trial = 0; trial < 15; ++trial) {
    Vec point(5);
    for (auto& x : point) x = static_cast<Scalar>(rng.NextDouble());
    Query q{static_cast<QueryId>(7000 + trial), point, QueryType::Knn(7)};
    auto got = ExecuteSingleQuery(tree->get(), counted, q, nullptr);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(testing::SameAnswers(
        *got, testing::BruteForceQuery(*dataset, *metric, q)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MTreePolicyTest,
    ::testing::Values(
        PolicyCase{MTreeOptions::Promotion::kSampledMinMaxRadius,
                   MTreeOptions::Partition::kGeneralizedHyperplane,
                   "mmrad_gh"},
        PolicyCase{MTreeOptions::Promotion::kSampledMinMaxRadius,
                   MTreeOptions::Partition::kBalanced, "mmrad_balanced"},
        PolicyCase{MTreeOptions::Promotion::kMaxLowerBound,
                   MTreeOptions::Partition::kGeneralizedHyperplane,
                   "mlb_gh"},
        PolicyCase{MTreeOptions::Promotion::kRandom,
                   MTreeOptions::Partition::kGeneralizedHyperplane,
                   "random_gh"}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return info.param.name;
    });

TEST(MTreeTest, RangeQueriesMatchBruteForceOnManhattan) {
  Dataset raw = MakeUniformDataset(900, 4, 507);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<ManhattanMetric>();
  MTreeOptions options;
  options.page_size_bytes = 1024;
  auto tree = MTreeBackend::Build(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  CountingMetric counted(metric);
  Rng rng(509);
  for (int trial = 0; trial < 15; ++trial) {
    Vec point(4);
    for (auto& x : point) x = static_cast<Scalar>(rng.NextDouble());
    Query q{static_cast<QueryId>(8000 + trial), point,
            QueryType::Range(rng.NextDouble(0.1, 0.6))};
    auto got = ExecuteSingleQuery(tree->get(), counted, q, nullptr);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(testing::SameAnswers(
        *got, testing::BruteForceQuery(*dataset, *metric, q)));
  }
}

TEST(MTreeTest, WorksWithEditDistance) {
  // The M-tree is the index for general metric data (web sessions, Sec. 2)
  // where no vector-space MINDIST exists.
  Dataset raw = MakeSessionDataset(400, 6, 30, 12, 511);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<EditDistanceMetric>();
  MTreeOptions options;
  options.page_size_bytes = 1024;
  auto tree = MTreeBackend::Build(dataset, metric, options);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE((*tree)->CheckInvariants().ok())
      << (*tree)->CheckInvariants().ToString();
  CountingMetric counted(metric);
  for (ObjectId probe : {0u, 57u, 399u}) {
    Query q{static_cast<QueryId>(probe), dataset->object(probe),
            QueryType::Knn(5)};
    auto got = ExecuteSingleQuery(tree->get(), counted, q, nullptr);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(testing::SameAnswers(
        *got, testing::BruteForceQuery(*dataset, *metric, q)));
    EXPECT_EQ((*got)[0].id, probe);  // identity: itself at distance 0
  }
}

TEST(MTreeTest, SearchChargesRoutingDistances) {
  // Clustered data: the M-tree has real selectivity, so the total charged
  // distances (routing objects + visited leaf objects) stay well below n.
  Dataset raw = MakeGaussianClustersDataset(2000, 6, 10, 0.03, 513);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<EuclideanMetric>();
  MTreeOptions options;
  options.page_size_bytes = 2048;
  auto tree = MTreeBackend::Build(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  CountingMetric counted(metric);
  QueryStats stats;
  Query q{9100, dataset->object(42), QueryType::Knn(5)};
  auto got = ExecuteSingleQuery(tree->get(), counted, q, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(stats.dist_computations, 0u);
  EXPECT_LT(stats.dist_computations, dataset->size());
}

TEST(MTreeTest, ParentDistancePruningSavesDistanceComputations) {
  // Low-dimensional data gives the cleanest geometry for the stored
  // parent distances: for a query near one end of a 1-d value range,
  // sibling subtrees concentrated around an expanded node's routing
  // object are provably out of range without any distance computation.
  Dataset raw = MakeUniformDataset(3000, 1, 515);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<EuclideanMetric>();
  MTreeOptions options;
  options.page_size_bytes = 512;
  auto tree = MTreeBackend::Build(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  CountingMetric counted(metric);
  QueryStats stats;
  for (ObjectId probe = 0; probe < 20; ++probe) {
    Query q{static_cast<QueryId>(9200 + probe), dataset->object(probe * 7),
            QueryType::Range(0.02)};
    ASSERT_TRUE(ExecuteSingleQuery(tree->get(), counted, q, &stats).ok());
  }
  EXPECT_GT(stats.triangle_tries, 0u);
  EXPECT_GT(stats.triangle_avoided, 0u);
}

TEST(MTreeTest, PageMinDistLowerBoundsObjectDistances) {
  Dataset raw = MakeUniformDataset(1200, 5, 517);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<EuclideanMetric>();
  MTreeOptions options;
  options.page_size_bytes = 1024;
  auto tree = MTreeBackend::Build(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  Query q{9300, Vec(5, 0.4f), QueryType::Knn(3)};
  for (PageId p = 0; p < (*tree)->NumDataPages(); ++p) {
    const double lb = (*tree)->PageMinDist(p, q, nullptr);
    for (ObjectId id : (*tree)->MutableLayout()->Peek(p)) {
      EXPECT_LE(lb, metric->Distance(q.point, dataset->object(id)) + 1e-9);
    }
  }
}

TEST(MTreeTest, PageMinDistChargesOneDistance) {
  Dataset raw = MakeUniformDataset(800, 5, 519);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<EuclideanMetric>();
  MTreeOptions options;
  options.page_size_bytes = 1024;
  auto tree = MTreeBackend::Build(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  QueryStats stats;
  Query q{9400, Vec(5, 0.4f), QueryType::Knn(3)};
  (*tree)->PageMinDist(0, q, &stats);
  EXPECT_EQ(stats.dist_computations, 1u);
}

TEST(MTreeTest, RejectsEmptyDataset) {
  auto dataset = std::make_shared<Dataset>();
  auto metric = std::make_shared<EuclideanMetric>();
  EXPECT_TRUE(
      MTreeBackend::Build(dataset, metric, {}).status().IsInvalidArgument());
}

TEST(MTreeTest, SmallDatasetSingleLeafWorks) {
  Dataset raw = MakeUniformDataset(5, 3, 521);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<EuclideanMetric>();
  auto tree = MTreeBackend::Build(dataset, metric, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
  CountingMetric counted(metric);
  Query q{9500, dataset->object(2), QueryType::Knn(2)};
  auto got = ExecuteSingleQuery(tree->get(), counted, q, nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[0].id, 2u);
}

}  // namespace
}  // namespace msq
