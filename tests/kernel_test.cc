// Tests for the batched distance-kernel execution layer: bit-exactness of
// Metric::BatchDistance against the scalar Distance path, CountingMetric
// batch accounting, the PageBlock read path of every backend, the
// PageKernel itself, and cost-count equivalence of the batched engines
// against the scalar reference mode.

#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/database.h"
#include "core/page_kernel.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "dist/counting_metric.h"
#include "dist/vector.h"
#include "tests/test_util.h"

namespace msq {
namespace {

using testing::SameAnswers;

/// Deterministic random block of `count` rows plus a query point.
struct TestBlockData {
  Vec query;
  std::vector<Vec> rows;
  std::vector<Scalar> packed;
  std::vector<Scalar> tiles;

  TestBlockData(size_t dim, size_t count, uint64_t seed) {
    Rng rng(seed);
    query.resize(dim);
    for (auto& x : query) x = static_cast<Scalar>(rng.NextDouble());
    rows.assign(count, Vec(dim));
    packed.resize(count * dim);
    for (size_t i = 0; i < count; ++i) {
      for (size_t d = 0; d < dim; ++d) {
        const auto v = static_cast<Scalar>(rng.NextDouble() * 2.0 - 1.0);
        rows[i][d] = v;
        packed[i * dim + d] = v;
      }
    }
    tiles = MakeVecBlockTiles(packed.data(), dim, count);
  }

  VecBlock TiledBlock() const {
    return VecBlock{packed.data(), query.size(), rows.size(), tiles.data()};
  }
  VecBlock RowOnlyBlock() const {
    return VecBlock{packed.data(), query.size(), rows.size()};
  }
};

std::vector<std::shared_ptr<const Metric>> AllBatchMetrics(size_t dim) {
  std::vector<double> weights(dim);
  for (size_t d = 0; d < dim; ++d) weights[d] = 0.25 + 0.03 * d;
  auto weighted = WeightedEuclideanMetric::Make(std::move(weights));
  auto minkowski = MinkowskiMetric::Make(3.0);
  return {
      std::make_shared<EuclideanMetric>(),
      std::make_shared<WeightedEuclideanMetric>(std::move(weighted).value()),
      std::make_shared<ManhattanMetric>(),
      std::make_shared<ChebyshevMetric>(),
      std::make_shared<MinkowskiMetric>(std::move(minkowski).value()),
      // No BatchDistance override: exercises the Metric base fallback.
      std::make_shared<AngularMetric>(),
  };
}

// BatchDistance must be bit-identical to the scalar Distance loop for
// every built-in metric, dimensionality, block size, and for both the
// tile-mirrored and the row-major-only block representation (they take
// different code paths in the kernels).
TEST(BatchKernelBitExactTest, MatchesScalarDistanceExactly) {
  for (size_t dim : {1u, 2u, 16u, 64u}) {
    for (size_t count : {0u, 1u, 7u, 16u, 33u, 64u}) {
      TestBlockData data(dim, count, 1000 + dim * 101 + count);
      for (const auto& metric : AllBatchMetrics(dim)) {
        std::vector<double> batched(count, -1.0);
        for (const VecBlock& block :
             {data.TiledBlock(), data.RowOnlyBlock()}) {
          metric->BatchDistance(data.query, block, batched);
          for (size_t i = 0; i < count; ++i) {
            const double scalar = metric->Distance(data.query, data.rows[i]);
            // EXACT equality — the kernels never reassociate a row's sum.
            ASSERT_EQ(scalar, batched[i])
                << metric->Name() << " dim=" << dim << " count=" << count
                << " row=" << i
                << (block.tiles != nullptr ? " (tiled)" : " (row-major)");
          }
        }
      }
    }
  }
}

// The tile mirror is a pure re-layout: every (row, dim) element must
// appear at its tile position, and tiled_count() covers exactly the full
// 16-row groups.
TEST(BatchKernelBitExactTest, TileMirrorLayout) {
  const size_t dim = 5;
  for (size_t count : {0u, 15u, 16u, 40u}) {
    TestBlockData data(dim, count, 77 + count);
    const VecBlock block = data.TiledBlock();
    EXPECT_EQ(block.tiled_count(), count - count % kVecBlockTileRows);
    for (size_t i = 0; i < block.tiled_count(); ++i) {
      const size_t g = i / kVecBlockTileRows;
      const size_t r = i % kVecBlockTileRows;
      for (size_t d = 0; d < dim; ++d) {
        EXPECT_EQ(block.row(i)[d],
                  block.tiles[g * dim * kVecBlockTileRows +
                              d * kVecBlockTileRows + r]);
      }
    }
    EXPECT_EQ(VecBlock{}.tiled_count(), 0u);
  }
}

// CountingMetric: BatchDistance charges the whole block in one shot;
// BatchDistanceUncounted charges nothing until ChargeDistances.
TEST(KernelCountingMetricTest, BatchAccounting) {
  TestBlockData data(8, 21, 9);
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  QueryStats stats;
  std::vector<double> out(21);

  {
    ScopedStatsSink sink(metric, &stats);
    metric.BatchDistance(data.query, data.TiledBlock(), out);
    EXPECT_EQ(stats.dist_computations, 21u);

    metric.BatchDistanceUncounted(data.query, data.TiledBlock(), out);
    EXPECT_EQ(stats.dist_computations, 21u);

    metric.ChargeDistances(5);
    EXPECT_EQ(stats.dist_computations, 26u);
  }
  // Sink detached: nothing is charged anywhere.
  metric.BatchDistance(data.query, data.TiledBlock(), out);
  EXPECT_EQ(stats.dist_computations, 26u);
}

struct BackendCase {
  BackendKind kind;
};

class KernelBlockReadTest : public ::testing::TestWithParam<BackendCase> {};

// ReadPageBlockChecked must return, for every page of every backend, the
// ids the page layout stores and rows identical to the objects' vectors —
// with a tile mirror consistent with the row data.
TEST_P(KernelBlockReadTest, BlockMatchesObjectVectors) {
  DatabaseOptions options;
  options.backend = GetParam().kind;
  options.page_size_bytes = 1024;
  auto db = MetricDatabase::Open(MakeGaussianClustersDataset(600, 6, 5, 0.1, 11),
                                 std::make_shared<EuclideanMetric>(), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  QueryBackend& backend = (*db)->backend();

  for (PageId page = 0; page < backend.NumDataPages(); ++page) {
    QueryStats stats;
    PageBlock block;
    ASSERT_TRUE(backend.ReadPageBlockChecked(page, &stats, &block).ok());
    const std::vector<ObjectId>& ids = backend.MutableLayout()->Peek(page);
    ASSERT_EQ(block.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(block.ids[i], ids[i]);
      const Vec& expected = backend.ObjectVec(ids[i]);
      ASSERT_EQ(block.vecs.dim, expected.size());
      for (size_t d = 0; d < expected.size(); ++d) {
        EXPECT_EQ(block.vecs.row(i)[d], expected[d]);
      }
    }
    for (size_t i = 0; i < block.vecs.tiled_count(); ++i) {
      const size_t g = i / kVecBlockTileRows;
      const size_t r = i % kVecBlockTileRows;
      for (size_t d = 0; d < block.vecs.dim; ++d) {
        EXPECT_EQ(block.vecs.row(i)[d],
                  block.vecs.tiles[g * block.vecs.dim * kVecBlockTileRows +
                                   d * kVecBlockTileRows + r]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, KernelBlockReadTest,
    ::testing::Values(BackendCase{BackendKind::kLinearScan},
                      BackendCase{BackendKind::kVaFile},
                      BackendCase{BackendKind::kXTree},
                      BackendCase{BackendKind::kMTree}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return BackendKindName(info.param.kind);
    });

// PageKernel batched mode vs its scalar-reference mode on one block, no
// avoidance: identical answer sets and identical dist_computations.
TEST(KernelPageKernelTest, BatchedMatchesScalarReference) {
  const size_t dim = 12;
  TestBlockData data(dim, 50, 21);
  std::vector<ObjectId> ids(50);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<ObjectId>(i);
  PageBlock block{data.TiledBlock(), ids.data()};

  CountingMetric metric(std::make_shared<EuclideanMetric>());
  TestBlockData queries(dim, 3, 22);

  for (size_t k : {1u, 5u, 60u}) {
    std::vector<AnswerList> batched_lists(3, AnswerList(QueryType::Knn(k)));
    std::vector<AnswerList> scalar_lists(3, AnswerList(QueryType::Knn(k)));
    QueryStats batched_stats, scalar_stats;
    PageKernel kernel;
    for (int mode = 0; mode < 2; ++mode) {
      const bool use_batched = mode == 0;
      auto& lists = use_batched ? batched_lists : scalar_lists;
      QueryStats* stats = use_batched ? &batched_stats : &scalar_stats;
      std::vector<PageKernel::ActiveQuery> active;
      for (size_t qi = 0; qi < 3; ++qi) {
        active.push_back({&queries.rows[qi], &lists[qi]});
      }
      ScopedStatsSink sink(metric, stats);
      kernel.ProcessPage(block, active, metric, /*cache=*/nullptr,
                         /*max_witnesses=*/0, /*pivots=*/nullptr, use_batched,
                         stats);
    }
    EXPECT_EQ(batched_stats.dist_computations, scalar_stats.dist_computations);
    EXPECT_GT(batched_stats.kernel_batches, 0u);
    EXPECT_EQ(scalar_stats.kernel_batches, 0u);
    for (size_t qi = 0; qi < 3; ++qi) {
      ASSERT_EQ(batched_lists[qi].size(), scalar_lists[qi].size());
      for (size_t i = 0; i < batched_lists[qi].size(); ++i) {
        EXPECT_EQ(batched_lists[qi].answers()[i].id,
                  scalar_lists[qi].answers()[i].id);
        EXPECT_EQ(batched_lists[qi].answers()[i].distance,
                  scalar_lists[qi].answers()[i].distance);
      }
    }
  }
}

class KernelEngineEquivalenceTest
    : public ::testing::TestWithParam<BackendCase> {};

// The full engines with the batched kernel vs. the scalar reference mode
// (use_batched_kernel = false, the exact pre-kernel loop): identical
// answer sets and identical paper cost counters, with avoidance armed.
TEST_P(KernelEngineEquivalenceTest, SameAnswersAndCosts) {
  Dataset dataset = MakeGaussianClustersDataset(1200, 8, 6, 0.08, 41);
  auto open = [&](bool batched) {
    DatabaseOptions options;
    options.backend = GetParam().kind;
    options.page_size_bytes = 2048;
    options.multi.use_batched_kernel = batched;
    auto db = MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                                   options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  };
  auto batched_db = open(true);
  auto scalar_db = open(false);

  Rng rng(51);
  const auto ids = rng.SampleWithoutReplacement(dataset.size(), 24);
  std::vector<Query> queries;
  for (uint64_t id : ids) {
    queries.push_back(
        batched_db->MakeObjectKnnQuery(static_cast<ObjectId>(id), 10));
  }
  auto batched = batched_db->MultipleSimilarityQueryAll(queries);
  auto scalar = scalar_db->MultipleSimilarityQueryAll(queries);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();

  ASSERT_EQ(batched->size(), scalar->size());
  for (size_t i = 0; i < batched->size(); ++i) {
    ASSERT_EQ((*batched)[i].size(), (*scalar)[i].size()) << "query " << i;
    for (size_t j = 0; j < (*batched)[i].size(); ++j) {
      EXPECT_EQ((*batched)[i][j].id, (*scalar)[i][j].id);
      EXPECT_EQ((*batched)[i][j].distance, (*scalar)[i][j].distance);
    }
  }
  const QueryStats& bs = batched_db->stats();
  const QueryStats& ss = scalar_db->stats();
  EXPECT_EQ(bs.dist_computations, ss.dist_computations);
  EXPECT_EQ(bs.triangle_avoided, ss.triangle_avoided);
  EXPECT_EQ(bs.TotalPageReads(), ss.TotalPageReads());
  EXPECT_GT(bs.kernel_batches, 0u);
  EXPECT_EQ(ss.kernel_batches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, KernelEngineEquivalenceTest,
    ::testing::Values(BackendCase{BackendKind::kLinearScan},
                      BackendCase{BackendKind::kVaFile},
                      BackendCase{BackendKind::kXTree},
                      BackendCase{BackendKind::kMTree}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return BackendKindName(info.param.kind);
    });

// Single-query path: the kernelized ExecuteSingleQuery must still agree
// with the brute-force oracle (it runs unarmed batched mode).
TEST(KernelEngineEquivalenceTest, SingleQueryMatchesBruteForce) {
  Dataset dataset = MakeUniformDataset(800, 5, 61);
  DatabaseOptions options;
  options.backend = BackendKind::kLinearScan;
  auto db = MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                                 options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EuclideanMetric metric;
  for (ObjectId id : {0u, 17u, 400u}) {
    const Query q = (*db)->MakeObjectKnnQuery(id, 10);
    auto got = (*db)->SimilarityQuery(q);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameAnswers(*got, testing::BruteForceQuery(dataset, metric, q)));
  }
}

}  // namespace
}  // namespace msq
