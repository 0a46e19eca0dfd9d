// Structural and behavioural tests of the X-tree: split algorithms,
// invariants under bulk load and dynamic insertion, supernode creation,
// and the MBR machinery.

#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/single_query.h"
#include "dist/counting_metric.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "xtree/mbr.h"
#include "xtree/split.h"
#include "xtree/xtree.h"
#include "tests/test_util.h"

namespace msq {
namespace {

// ---------------------------------------------------------------------
// Mbr
// ---------------------------------------------------------------------

TEST(MbrTest, EmptyExtendsToPoint) {
  Mbr m = Mbr::Empty(2);
  EXPECT_TRUE(m.IsEmpty());
  m.ExtendPoint({1, 2});
  EXPECT_FALSE(m.IsEmpty());
  EXPECT_EQ(m.lo(), (Vec{1, 2}));
  EXPECT_EQ(m.hi(), (Vec{1, 2}));
}

TEST(MbrTest, ExtendGrowsBothBounds) {
  Mbr m = Mbr::ForPoint({1, 5});
  m.ExtendPoint({3, 2});
  EXPECT_EQ(m.lo(), (Vec{1, 2}));
  EXPECT_EQ(m.hi(), (Vec{3, 5}));
}

TEST(MbrTest, ContainsAndIntersects) {
  Mbr a = Mbr::ForPoint({0, 0});
  a.ExtendPoint({2, 2});
  Mbr b = Mbr::ForPoint({1, 1});
  b.ExtendPoint({3, 3});
  Mbr c = Mbr::ForPoint({5, 5});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.ContainsPoint({1, 1}));
  EXPECT_FALSE(a.ContainsPoint({3, 1}));
  Mbr inner = Mbr::ForPoint({0.5, 0.5});
  inner.ExtendPoint({1.5, 1.5});
  EXPECT_TRUE(a.ContainsMbr(inner));
  EXPECT_FALSE(inner.ContainsMbr(a));
}

TEST(MbrTest, AreaMarginOverlap) {
  Mbr a = Mbr::ForPoint({0, 0});
  a.ExtendPoint({2, 3});
  EXPECT_DOUBLE_EQ(a.Area(), 6.0);
  EXPECT_DOUBLE_EQ(a.Margin(), 5.0);
  Mbr b = Mbr::ForPoint({1, 1});
  b.ExtendPoint({3, 4});
  EXPECT_DOUBLE_EQ(a.OverlapArea(b), 2.0);  // [1,2]x[1,3]
  EXPECT_DOUBLE_EQ(a.Enlargement(b), 12.0 - 6.0);  // union [0,3]x[0,4]
}

TEST(MbrTest, MinDistMatchesMetric) {
  Mbr m = Mbr::ForPoint({0, 0});
  m.ExtendPoint({1, 1});
  EuclideanMetric metric;
  EXPECT_DOUBLE_EQ(m.MinDist({2, 1}, metric), 1.0);
  EXPECT_DOUBLE_EQ(m.MinDist({0.5, 0.5}, metric), 0.0);
  EXPECT_NEAR(m.MinDist({2, 2}, metric), std::sqrt(2.0), 1e-12);
}

// ---------------------------------------------------------------------
// Split algorithms
// ---------------------------------------------------------------------

std::vector<SplitItem> PointItems(const std::vector<Vec>& points) {
  std::vector<SplitItem> items;
  for (uint32_t i = 0; i < points.size(); ++i) {
    items.push_back({Mbr::ForPoint(points[i]), i});
  }
  return items;
}

TEST(SplitTest, TopologicalSplitPartitionsAllItems) {
  Rng rng(401);
  std::vector<Vec> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({static_cast<Scalar>(rng.NextDouble()),
                      static_cast<Scalar>(rng.NextDouble())});
  }
  const auto outcome = TopologicalSplit(PointItems(points), 10);
  EXPECT_EQ(outcome.left.size() + outcome.right.size(), points.size());
  EXPECT_GE(outcome.left.size(), 10u);
  EXPECT_GE(outcome.right.size(), 10u);
  std::set<uint32_t> seen(outcome.left.begin(), outcome.left.end());
  seen.insert(outcome.right.begin(), outcome.right.end());
  EXPECT_EQ(seen.size(), points.size());
}

TEST(SplitTest, TopologicalSplitSeparatesTwoClusters) {
  // Two well-separated clusters along x must be split cleanly (overlap 0).
  std::vector<Vec> points;
  Rng rng(403);
  for (int i = 0; i < 20; ++i) {
    points.push_back({static_cast<Scalar>(rng.NextDouble(0, 0.2)),
                      static_cast<Scalar>(rng.NextDouble())});
  }
  for (int i = 0; i < 20; ++i) {
    points.push_back({static_cast<Scalar>(rng.NextDouble(0.8, 1.0)),
                      static_cast<Scalar>(rng.NextDouble())});
  }
  const auto outcome = TopologicalSplit(PointItems(points), 8);
  EXPECT_EQ(outcome.axis, 0u);
  EXPECT_DOUBLE_EQ(outcome.overlap_ratio, 0.0);
}

TEST(SplitTest, OverlapMinimalSplitFindsHistoryDimension) {
  // Boxes separated along dim 1; history says dim 1 was split before.
  std::vector<Vec> points;
  Rng rng(405);
  for (int i = 0; i < 10; ++i) {
    points.push_back({static_cast<Scalar>(rng.NextDouble()),
                      static_cast<Scalar>(rng.NextDouble(0.0, 0.3))});
  }
  for (int i = 0; i < 10; ++i) {
    points.push_back({static_cast<Scalar>(rng.NextDouble()),
                      static_cast<Scalar>(rng.NextDouble(0.7, 1.0))});
  }
  const auto outcome =
      OverlapMinimalSplit(PointItems(points), /*history=*/1ull << 1, 5);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->axis, 1u);
  EXPECT_DOUBLE_EQ(outcome->overlap_ratio, 0.0);
}

TEST(SplitTest, OverlapMinimalSplitFailsWithoutSeparation) {
  // Heavily overlapping boxes: no overlap-free cut exists.
  std::vector<SplitItem> items;
  for (uint32_t i = 0; i < 12; ++i) {
    Mbr box = Mbr::ForPoint({0.0f, 0.0f});
    box.ExtendPoint({1.0f, 1.0f});
    items.push_back({box, i});
  }
  EXPECT_FALSE(OverlapMinimalSplit(items, ~0ull, 4).has_value());
}

TEST(SplitTest, OverlapMinimalSplitRespectsHistoryMask) {
  // Boxes separable along dim 0 but pairwise overlapping along dim 1
  // (every box spans the full [0,1] range there).
  std::vector<SplitItem> items;
  for (uint32_t i = 0; i < 20; ++i) {
    Mbr box = Mbr::ForPoint({i < 10 ? 0.0f : 1.0f, 0.0f});
    box.ExtendPoint({i < 10 ? 0.2f : 1.2f, 1.0f});
    items.push_back({box, i});
  }
  // Separable along dim 0, but history only allows dim 1.
  EXPECT_FALSE(OverlapMinimalSplit(items, 1ull << 1, 5).has_value());
  EXPECT_TRUE(OverlapMinimalSplit(items, 1ull << 0, 5).has_value());
}

TEST(SplitTest, GroupOverlapRatioBounds) {
  Mbr a = Mbr::ForPoint({0, 0});
  a.ExtendPoint({1, 1});
  Mbr b = Mbr::ForPoint({2, 2});
  b.ExtendPoint({3, 3});
  EXPECT_DOUBLE_EQ(GroupOverlapRatio(a, b), 0.0);
  EXPECT_DOUBLE_EQ(GroupOverlapRatio(a, a), 1.0);
}

// ---------------------------------------------------------------------
// Tree construction
// ---------------------------------------------------------------------

std::shared_ptr<const Dataset> SharedDataset(Dataset ds) {
  return std::make_shared<Dataset>(std::move(ds));
}

TEST(XTreeTest, BulkLoadInvariantsHold) {
  auto dataset = SharedDataset(MakeUniformDataset(5000, 8, 407));
  auto metric = std::make_shared<EuclideanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 2048;
  auto tree = XTreeBackend::BulkLoad(dataset, metric, options);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE((*tree)->CheckInvariants().ok())
      << (*tree)->CheckInvariants().ToString();
  const XTreeShape shape = (*tree)->Shape();
  EXPECT_GT(shape.num_leaves, 1u);
  EXPECT_GT(shape.height, 1u);
  EXPECT_GT(shape.avg_leaf_fill, 0.4);
}

TEST(XTreeTest, DynamicInsertionInvariantsHold) {
  auto dataset = SharedDataset(MakeGaussianClustersDataset(2000, 6, 6, 0.05,
                                                           409));
  auto metric = std::make_shared<EuclideanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 1024;
  auto tree = XTreeBackend::BuildByInsertion(dataset, metric, options);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE((*tree)->CheckInvariants().ok())
      << (*tree)->CheckInvariants().ToString();
}

TEST(XTreeTest, DynamicInsertionWithoutReinsert) {
  auto dataset = SharedDataset(MakeUniformDataset(1500, 6, 411));
  auto metric = std::make_shared<EuclideanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 1024;
  options.enable_reinsert = false;
  auto tree = XTreeBackend::BuildByInsertion(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
}

TEST(XTreeTest, SupernodesAppearOnHighDimensionalData) {
  // 64-d uniform data with small directory pages: topological splits
  // overlap badly, the history rarely helps, supernodes must appear.
  auto dataset = SharedDataset(MakeUniformDataset(3000, 64, 413));
  auto metric = std::make_shared<EuclideanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 4096;
  options.max_overlap = 0.05;
  auto tree = XTreeBackend::BuildByInsertion(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
  EXPECT_GT((*tree)->Shape().num_supernodes, 0u);
}

TEST(XTreeTest, SupernodesDisabledYieldsPlainRStarTree) {
  auto dataset = SharedDataset(MakeUniformDataset(3000, 64, 415));
  auto metric = std::make_shared<EuclideanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 4096;
  options.max_overlap = 0.05;
  options.enable_supernodes = false;
  auto tree = XTreeBackend::BuildByInsertion(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
  EXPECT_EQ((*tree)->Shape().num_supernodes, 0u);
}

TEST(XTreeTest, DynamicQueriesMatchBruteForce) {
  Dataset raw = MakeGaussianClustersDataset(1200, 5, 5, 0.05, 417);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<EuclideanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 1024;
  auto tree = XTreeBackend::BuildByInsertion(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  CountingMetric counted(metric);
  Rng rng(419);
  for (int trial = 0; trial < 20; ++trial) {
    Vec point(5);
    for (auto& x : point) x = static_cast<Scalar>(rng.NextDouble());
    Query q{static_cast<QueryId>(1000 + trial), point, QueryType::Knn(8)};
    auto got = ExecuteSingleQuery(tree->get(), counted, q, nullptr);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(testing::SameAnswers(
        *got, testing::BruteForceQuery(*dataset, *metric, q)));
  }
}

TEST(XTreeTest, InsertAfterBulkLoadKeepsInvariantsAndAnswers) {
  Dataset raw = MakeUniformDataset(1000, 4, 421);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<EuclideanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 1024;
  // Bulk load only the first half, then insert the rest dynamically.
  // (BulkLoad indexes the whole dataset; emulate by building dynamically
  // from a bulk-loaded subset is not supported, so here we simply verify
  // that Insert on top of a bulk-loaded tree is rejected for duplicate
  // coverage or accepted and consistent.)
  auto tree = XTreeBackend::BulkLoad(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  // Inserting an existing object again is allowed structurally; the tree
  // then indexes it twice, which CheckInvariants flags via the layout.
  EXPECT_TRUE((*tree)->Insert(0).ok());
  EXPECT_FALSE((*tree)->CheckInvariants().ok());
}

TEST(XTreeTest, RejectsMetricWithoutBoxSupport) {
  auto dataset = SharedDataset(MakeUniformDataset(100, 4, 423));
  auto metric = std::make_shared<AngularMetric>();
  EXPECT_TRUE(XTreeBackend::BulkLoad(dataset, metric, {})
                  .status()
                  .IsNotSupported());
}

TEST(XTreeTest, RejectsEmptyDataset) {
  auto dataset = std::make_shared<Dataset>();
  auto metric = std::make_shared<EuclideanMetric>();
  EXPECT_TRUE(XTreeBackend::BulkLoad(dataset, metric, {})
                  .status()
                  .IsInvalidArgument());
}

TEST(XTreeTest, ManhattanMetricQueriesWork) {
  Dataset raw = MakeUniformDataset(800, 4, 425);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<ManhattanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 1024;
  auto tree = XTreeBackend::BulkLoad(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  CountingMetric counted(metric);
  Query q{9001, Vec{0.5f, 0.5f, 0.5f, 0.5f}, QueryType::Knn(5)};
  auto got = ExecuteSingleQuery(tree->get(), counted, q, nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(testing::SameAnswers(
      *got, testing::BruteForceQuery(*dataset, *metric, q)));
}

TEST(XTreeTest, StreamYieldsPagesInAscendingMinDist) {
  auto dataset = SharedDataset(MakeUniformDataset(2000, 6, 427));
  auto metric = std::make_shared<EuclideanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 1024;
  auto tree = XTreeBackend::BulkLoad(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  Query q{9002, Vec(6, 0.5f), QueryType::Knn(1000000)};
  auto stream = (*tree)->OpenStream(q, nullptr);
  PageCandidate pc;
  double prev = -1.0;
  size_t count = 0;
  while (stream->Next(std::numeric_limits<double>::infinity(), &pc)) {
    EXPECT_GE(pc.min_dist, prev);
    prev = pc.min_dist;
    ++count;
  }
  EXPECT_EQ(count, (*tree)->NumDataPages());
}

TEST(XTreeTest, PageMinDistLowerBoundsObjectDistances) {
  auto dataset = SharedDataset(MakeUniformDataset(1500, 5, 429));
  auto metric = std::make_shared<EuclideanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 1024;
  auto tree = XTreeBackend::BulkLoad(dataset, metric, options);
  ASSERT_TRUE(tree.ok());
  Query q{9003, Vec(5, 0.3f), QueryType::Knn(5)};
  for (PageId p = 0; p < (*tree)->NumDataPages(); ++p) {
    const double lb = (*tree)->PageMinDist(p, q, nullptr);
    for (ObjectId id : (*tree)->MutableLayout()->Peek(p)) {
      EXPECT_LE(lb,
                metric->Distance(q.point, dataset->object(id)) + 1e-9);
    }
  }
}

}  // namespace
}  // namespace msq
