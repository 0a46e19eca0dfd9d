// Tests of the discrete metrics (Hamming, Jaccard) and their integration
// with the general-metric machinery (M-tree + multiple queries).

#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/database.h"
#include "dist/discrete_metrics.h"
#include "tests/test_util.h"

namespace msq {
namespace {

using testing::BruteForceQuery;
using testing::SameAnswers;

TEST(HammingTest, KnownValues) {
  HammingMetric m;
  EXPECT_DOUBLE_EQ(m.Distance({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(m.Distance({1, 2, 3}, {1, 0, 3}), 1.0);
  EXPECT_DOUBLE_EQ(m.Distance({1, 2, 3}, {4, 5, 6}), 3.0);
}

TEST(HammingTest, MetricAxiomsOnRandomCodes) {
  HammingMetric m;
  Rng rng(71);
  auto random_code = [&]() {
    Vec v(12);
    for (auto& x : v) x = static_cast<Scalar>(rng.NextIndex(4));
    return v;
  };
  for (int i = 0; i < 300; ++i) {
    const Vec a = random_code(), b = random_code(), c = random_code();
    EXPECT_DOUBLE_EQ(m.Distance(a, a), 0.0);
    EXPECT_DOUBLE_EQ(m.Distance(a, b), m.Distance(b, a));
    EXPECT_LE(m.Distance(a, c), m.Distance(a, b) + m.Distance(b, c));
    if (a != b) {
      EXPECT_GT(m.Distance(a, b), 0.0);
    }
  }
}

TEST(JaccardTest, KnownValues) {
  JaccardMetric m;
  const Vec a = EncodeSet({0, 1, 2}, 8);
  const Vec b = EncodeSet({1, 2, 3}, 8);
  // |inter| = 2, |union| = 4.
  EXPECT_DOUBLE_EQ(m.Distance(a, b), 0.5);
  EXPECT_DOUBLE_EQ(m.Distance(a, a), 0.0);
  const Vec empty = EncodeSet({}, 8);
  EXPECT_DOUBLE_EQ(m.Distance(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(m.Distance(a, empty), 1.0);
}

TEST(JaccardTest, MetricAxiomsOnRandomSets) {
  JaccardMetric m;
  Rng rng(73);
  auto random_set = [&]() {
    std::vector<int> elements;
    for (int e = 0; e < 16; ++e) {
      if (rng.NextDouble() < 0.4) elements.push_back(e);
    }
    return EncodeSet(elements, 16);
  };
  for (int i = 0; i < 500; ++i) {
    const Vec a = random_set(), b = random_set(), c = random_set();
    EXPECT_DOUBLE_EQ(m.Distance(a, a), 0.0);
    EXPECT_DOUBLE_EQ(m.Distance(a, b), m.Distance(b, a));
    EXPECT_LE(m.Distance(a, c),
              m.Distance(a, b) + m.Distance(b, c) + 1e-12);
  }
}

TEST(JaccardTest, EncodeSetIgnoresOutOfRange) {
  const Vec v = EncodeSet({-3, 2, 99}, 4);
  EXPECT_EQ(v, (Vec{0, 0, 1, 0}));
}

TEST(DiscreteMetricsTest, MultipleQueriesOnMTreeWithJaccard) {
  // Market-basket-like sets: the full stack (M-tree + multiple queries +
  // avoidance) must return brute-force answers for a discrete metric.
  Rng rng(77);
  Dataset dataset;
  for (int i = 0; i < 400; ++i) {
    std::vector<int> elements;
    const int base = static_cast<int>(rng.NextIndex(4)) * 8;
    for (int e = 0; e < 32; ++e) {
      const double p = (e >= base && e < base + 8) ? 0.7 : 0.05;
      if (rng.NextDouble() < p) elements.push_back(e);
    }
    ASSERT_TRUE(dataset.Append(EncodeSet(elements, 32)).ok());
  }
  auto metric = std::make_shared<JaccardMetric>();
  DatabaseOptions options;
  options.backend = BackendKind::kMTree;
  options.page_size_bytes = 1024;
  auto db = MetricDatabase::Open(dataset, metric, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<Query> batch;
  for (ObjectId id : {1u, 44u, 180u, 333u}) {
    batch.push_back((*db)->MakeObjectKnnQuery(id, 6));
  }
  auto all = (*db)->MultipleSimilarityQueryAll(batch);
  ASSERT_TRUE(all.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(SameAnswers((*all)[i],
                            BruteForceQuery(dataset, *metric, batch[i])));
  }
}

TEST(DiscreteMetricsTest, HammingOnScanWithRangeQueries) {
  Rng rng(79);
  Dataset dataset;
  for (int i = 0; i < 300; ++i) {
    Vec v(10);
    for (auto& x : v) x = static_cast<Scalar>(rng.NextIndex(3));
    ASSERT_TRUE(dataset.Append(std::move(v)).ok());
  }
  auto metric = std::make_shared<HammingMetric>();
  DatabaseOptions options;
  options.backend = BackendKind::kLinearScan;
  auto db = MetricDatabase::Open(dataset, metric, options);
  ASSERT_TRUE(db.ok());
  const Query q = (*db)->MakeObjectRangeQuery(5, 3.0);
  auto got = (*db)->SimilarityQuery(q);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(SameAnswers(*got, BruteForceQuery(dataset, *metric, q)));
  EXPECT_FALSE(got->empty());
}

}  // namespace
}  // namespace msq
