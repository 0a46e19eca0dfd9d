// Tests of the VA-file backend: quantization cells must contain their
// objects, page bounds must be sound, the approximation scan must be
// charged, and higher bit resolutions must filter better.

#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/single_query.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "dist/counting_metric.h"
#include "scan/va_file.h"
#include "tests/test_util.h"

namespace msq {
namespace {

std::shared_ptr<const Dataset> SharedDataset(Dataset ds) {
  return std::make_shared<Dataset>(std::move(ds));
}

TEST(VaFileTest, CellBoxContainsObject) {
  auto dataset = SharedDataset(MakeUniformDataset(500, 6, 601));
  auto metric = std::make_shared<EuclideanMetric>();
  VaFileOptions options;
  options.bits_per_dim = 4;
  auto va = VaFileBackend::Build(dataset, metric, options);
  ASSERT_TRUE(va.ok());
  Vec lo, hi;
  for (ObjectId id = 0; id < dataset->size(); ++id) {
    (*va)->CellBox(id, &lo, &hi);
    const Vec& v = dataset->object(id);
    for (size_t d = 0; d < 6; ++d) {
      EXPECT_GE(v[d], lo[d] - 1e-5);
      EXPECT_LE(v[d], hi[d] + 1e-5);
    }
  }
}

TEST(VaFileTest, QueriesMatchBruteForce) {
  Dataset raw = MakeGaussianClustersDataset(1000, 5, 6, 0.05, 603);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<EuclideanMetric>();
  VaFileOptions options;
  options.page_size_bytes = 1024;
  auto va = VaFileBackend::Build(dataset, metric, options);
  ASSERT_TRUE(va.ok());
  CountingMetric counted(metric);
  Rng rng(605);
  for (int trial = 0; trial < 20; ++trial) {
    Vec point(5);
    for (auto& x : point) x = static_cast<Scalar>(rng.NextDouble());
    Query q{static_cast<QueryId>(trial + 1), point,
            trial % 2 == 0
                ? QueryType::Knn(1 + rng.NextIndex(10))
                : QueryType::Range(rng.NextDouble(0.05, 0.3))};
    auto got = ExecuteSingleQuery(va->get(), counted, q, nullptr);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(testing::SameAnswers(
        *got, testing::BruteForceQuery(*dataset, *metric, q)));
  }
}

TEST(VaFileTest, ApproximationScanChargedAsSequentialReads) {
  auto dataset = SharedDataset(MakeUniformDataset(4000, 16, 607));
  auto metric = std::make_shared<EuclideanMetric>();
  VaFileOptions options;
  options.page_size_bytes = 4096;
  options.bits_per_dim = 8;
  auto va = VaFileBackend::Build(dataset, metric, options);
  ASSERT_TRUE(va.ok());
  EXPECT_GT((*va)->NumApproxPages(), 0u);
  // The approximation file is bits/8 per component: 16 dims * 1 byte =
  // 16 bytes/object vs 72 bytes/object for the data -> ~4.5x smaller.
  EXPECT_LT((*va)->NumApproxPages(), (*va)->NumDataPages() / 3);
  QueryStats stats;
  Query q{1, Vec(16, 0.5f), QueryType::Knn(5)};
  auto stream = (*va)->OpenStream(q, &stats);
  EXPECT_EQ(stats.seq_page_reads, (*va)->NumApproxPages());
}

TEST(VaFileTest, VisitsFewerDataPagesThanScanOnClusteredData) {
  Dataset raw = MakeGaussianClustersDataset(4000, 8, 10, 0.03, 609);
  auto dataset = SharedDataset(raw);
  auto metric = std::make_shared<EuclideanMetric>();
  VaFileOptions options;
  options.page_size_bytes = 2048;
  auto va = VaFileBackend::Build(dataset, metric, options);
  ASSERT_TRUE(va.ok());
  CountingMetric counted(metric);
  QueryStats stats;
  Query q{1, Vec(8, 0.5f), QueryType::Knn(10)};
  ASSERT_TRUE(ExecuteSingleQuery(va->get(), counted, q, &stats).ok());
  // random_page_reads counts the visited data pages (phase 2).
  EXPECT_LT(stats.random_page_reads, (*va)->NumDataPages() / 2);
}

TEST(VaFileTest, MoreBitsNeverVisitMorePages) {
  Dataset raw = MakeGaussianClustersDataset(3000, 8, 10, 0.04, 611);
  auto metric = std::make_shared<EuclideanMetric>();
  uint64_t visited_coarse = 0, visited_fine = 0;
  for (size_t bits : {2, 8}) {
    auto dataset = SharedDataset(raw);
    VaFileOptions options;
    options.page_size_bytes = 2048;
    options.bits_per_dim = bits;
    auto va = VaFileBackend::Build(dataset, metric, options);
    ASSERT_TRUE(va.ok());
    CountingMetric counted(metric);
    QueryStats stats;
    Query q{1, Vec(8, 0.5f), QueryType::Knn(10)};
    ASSERT_TRUE(ExecuteSingleQuery(va->get(), counted, q, &stats).ok());
    (bits == 2 ? visited_coarse : visited_fine) = stats.random_page_reads;
  }
  EXPECT_LE(visited_fine, visited_coarse);
}

TEST(VaFileTest, PageMinDistIsSoundLowerBound) {
  auto dataset = SharedDataset(MakeUniformDataset(1000, 5, 613));
  auto metric = std::make_shared<EuclideanMetric>();
  VaFileOptions options;
  options.page_size_bytes = 1024;
  auto va = VaFileBackend::Build(dataset, metric, options);
  ASSERT_TRUE(va.ok());
  Query q{1, Vec(5, 0.25f), QueryType::Knn(3)};
  for (PageId p = 0; p < (*va)->NumDataPages(); ++p) {
    const double lb = (*va)->PageMinDist(p, q, nullptr);
    for (ObjectId id : (*va)->MutableLayout()->Peek(p)) {
      EXPECT_LE(lb, metric->Distance(q.point, dataset->object(id)) + 1e-9);
    }
  }
}

TEST(VaFileTest, RejectsNonBoxMetric) {
  auto dataset = SharedDataset(MakeUniformDataset(100, 4, 615));
  auto metric = std::make_shared<AngularMetric>();
  EXPECT_TRUE(
      VaFileBackend::Build(dataset, metric, {}).status().IsNotSupported());
}

TEST(VaFileTest, RejectsBadBitWidth) {
  auto dataset = SharedDataset(MakeUniformDataset(100, 4, 617));
  auto metric = std::make_shared<EuclideanMetric>();
  VaFileOptions options;
  options.bits_per_dim = 0;
  EXPECT_TRUE(VaFileBackend::Build(dataset, metric, options)
                  .status()
                  .IsInvalidArgument());
  options.bits_per_dim = 17;
  EXPECT_TRUE(VaFileBackend::Build(dataset, metric, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(VaFileTest, FlatDimensionDoesNotCrash) {
  // A constant dimension has zero extent; the grid must stay sane.
  Dataset ds;
  Rng rng(619);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        ds.Append({static_cast<Scalar>(rng.NextDouble()), 0.5f}).ok());
  }
  auto dataset = SharedDataset(std::move(ds));
  auto metric = std::make_shared<EuclideanMetric>();
  VaFileOptions options;
  options.page_size_bytes = 512;
  auto va = VaFileBackend::Build(dataset, metric, options);
  ASSERT_TRUE(va.ok());
  CountingMetric counted(metric);
  Query q{1, Vec{0.3f, 0.5f}, QueryType::Knn(5)};
  auto got = ExecuteSingleQuery(va->get(), counted, q, nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(testing::SameAnswers(
      *got, testing::BruteForceQuery(*dataset, *metric, q)));
}

}  // namespace
}  // namespace msq
