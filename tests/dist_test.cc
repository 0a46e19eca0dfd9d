// Tests for the distance-function module: metric axioms (property-checked
// on random samples for every shipped metric), MINDIST lower bounds,
// quadratic forms, edit distance, and the counting wrapper.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dist/builtin_metrics.h"
#include "dist/counting_metric.h"
#include "dist/edit_distance.h"
#include "dist/metric.h"

namespace msq {
namespace {

Vec RandomVec(Rng* rng, size_t dim) {
  Vec v(dim);
  for (auto& x : v) x = static_cast<Scalar>(rng->NextDouble(-1.0, 1.0));
  return v;
}

// ---------------------------------------------------------------------
// Metric axioms, property-checked per metric (TEST_P)
// ---------------------------------------------------------------------

std::shared_ptr<const Metric> MakeNamedMetric(const std::string& name) {
  if (name == "minkowski_p3") {
    auto made = MinkowskiMetric::Make(3.0);
    return std::make_shared<MinkowskiMetric>(std::move(made).value());
  }
  if (name == "weighted_euclidean") {
    auto made = WeightedEuclideanMetric::Make(
        std::vector<double>{1.0, 2.0, 0.5, 3.0, 1.5, 1.0, 2.5, 0.25});
    return std::make_shared<WeightedEuclideanMetric>(std::move(made).value());
  }
  if (name == "quadratic_form") {
    return std::make_shared<QuadraticFormMetric>(
        QuadraticFormMetric::HistogramSimilarity(8));
  }
  auto made = MakeMetric(name);
  return std::move(made).value();
}

class MetricAxiomsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MetricAxiomsTest, IdentityOfIndiscernibles) {
  auto metric = MakeNamedMetric(GetParam());
  // Angular distance goes through acos near 1.0, where float cancellation
  // costs ~1e-4 of absolute precision; all other metrics are exact.
  const double tol = GetParam() == "angular" ? 2e-3 : 1e-9;
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const Vec v = RandomVec(&rng, 8);
    EXPECT_NEAR(metric->Distance(v, v), 0.0, tol);
  }
}

TEST_P(MetricAxiomsTest, NonNegativityAndPositivity) {
  auto metric = MakeNamedMetric(GetParam());
  Rng rng(33);
  for (int i = 0; i < 200; ++i) {
    const Vec a = RandomVec(&rng, 8);
    const Vec b = RandomVec(&rng, 8);
    const double d = metric->Distance(a, b);
    EXPECT_GE(d, 0.0);
    if (a != b) {
      EXPECT_GT(d, 0.0);
    }
  }
}

TEST_P(MetricAxiomsTest, Symmetry) {
  auto metric = MakeNamedMetric(GetParam());
  Rng rng(35);
  for (int i = 0; i < 200; ++i) {
    const Vec a = RandomVec(&rng, 8);
    const Vec b = RandomVec(&rng, 8);
    EXPECT_NEAR(metric->Distance(a, b), metric->Distance(b, a), 1e-9);
  }
}

TEST_P(MetricAxiomsTest, TriangleInequality) {
  auto metric = MakeNamedMetric(GetParam());
  Rng rng(37);
  for (int i = 0; i < 500; ++i) {
    const Vec a = RandomVec(&rng, 8);
    const Vec b = RandomVec(&rng, 8);
    const Vec c = RandomVec(&rng, 8);
    EXPECT_LE(metric->Distance(a, c),
              metric->Distance(a, b) + metric->Distance(b, c) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricAxiomsTest,
                         ::testing::Values("euclidean", "manhattan",
                                           "chebyshev", "angular",
                                           "minkowski_p3",
                                           "weighted_euclidean",
                                           "quadratic_form"));

// ---------------------------------------------------------------------
// Specific metric values
// ---------------------------------------------------------------------

TEST(EuclideanTest, KnownValues) {
  EuclideanMetric m;
  EXPECT_DOUBLE_EQ(m.Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(m.Distance({1, 1, 1}, {1, 1, 1}), 0.0);
}

TEST(ManhattanTest, KnownValues) {
  ManhattanMetric m;
  EXPECT_DOUBLE_EQ(m.Distance({0, 0}, {3, 4}), 7.0);
}

TEST(ChebyshevTest, KnownValues) {
  ChebyshevMetric m;
  EXPECT_DOUBLE_EQ(m.Distance({0, 0}, {3, 4}), 4.0);
}

TEST(MinkowskiTest, P2MatchesEuclidean) {
  auto made = MinkowskiMetric::Make(2.0);
  ASSERT_TRUE(made.ok());
  EuclideanMetric euclid;
  Rng rng(41);
  for (int i = 0; i < 50; ++i) {
    const Vec a = RandomVec(&rng, 6);
    const Vec b = RandomVec(&rng, 6);
    EXPECT_NEAR(made->Distance(a, b), euclid.Distance(a, b), 1e-9);
  }
}

TEST(MinkowskiTest, RejectsPBelowOne) {
  EXPECT_TRUE(MinkowskiMetric::Make(0.5).status().IsInvalidArgument());
}

TEST(WeightedEuclideanTest, UnitWeightsMatchEuclidean) {
  auto made = WeightedEuclideanMetric::Make({1, 1, 1, 1});
  ASSERT_TRUE(made.ok());
  EuclideanMetric euclid;
  const Vec a{1, 2, 3, 4}, b{4, 3, 2, 1};
  EXPECT_NEAR(made->Distance(a, b), euclid.Distance(a, b), 1e-12);
}

TEST(WeightedEuclideanTest, RejectsNonPositiveWeights) {
  EXPECT_TRUE(WeightedEuclideanMetric::Make({1.0, 0.0})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(WeightedEuclideanMetric::Make({}).status().IsInvalidArgument());
}

TEST(QuadraticFormTest, IdentityMatrixMatchesEuclidean) {
  std::vector<double> identity(16, 0.0);
  for (int i = 0; i < 4; ++i) identity[i * 4 + i] = 1.0;
  auto made = QuadraticFormMetric::Make(4, identity);
  ASSERT_TRUE(made.ok());
  EuclideanMetric euclid;
  const Vec a{1, 0, 2, 3}, b{0, 1, 1, 5};
  EXPECT_NEAR(made->Distance(a, b), euclid.Distance(a, b), 1e-9);
}

TEST(QuadraticFormTest, RejectsAsymmetricMatrix) {
  std::vector<double> m{1.0, 0.5, 0.2, 1.0};
  EXPECT_TRUE(QuadraticFormMetric::Make(2, m).status().IsInvalidArgument());
}

TEST(QuadraticFormTest, RejectsNonPositiveDefinite) {
  std::vector<double> m{1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  EXPECT_TRUE(QuadraticFormMetric::Make(2, m).status().IsInvalidArgument());
}

TEST(QuadraticFormTest, RejectsWrongSize) {
  EXPECT_TRUE(QuadraticFormMetric::Make(3, {1.0}).status().IsInvalidArgument());
}

TEST(QuadraticFormTest, CrossBinSimilaritySoftensDistance) {
  // Shifting mass to an adjacent bin must cost less than to a distant bin.
  auto metric = QuadraticFormMetric::HistogramSimilarity(8);
  Vec base(8, 0.0f);
  base[0] = 1.0f;
  Vec adjacent(8, 0.0f);
  adjacent[1] = 1.0f;
  Vec distant(8, 0.0f);
  distant[7] = 1.0f;
  EXPECT_LT(metric.Distance(base, adjacent), metric.Distance(base, distant));
}

TEST(AngularTest, OrthogonalVectorsAreHalfPi) {
  AngularMetric m;
  EXPECT_NEAR(m.Distance({1, 0}, {0, 1}), M_PI / 2, 1e-9);
  EXPECT_NEAR(m.Distance({1, 0}, {-1, 0}), M_PI, 1e-9);
  EXPECT_NEAR(m.Distance({1, 0}, {2, 0}), 0.0, 1e-6);
}

TEST(MakeMetricTest, KnownNamesResolve) {
  for (const char* name : {"euclidean", "manhattan", "chebyshev", "angular"}) {
    auto made = MakeMetric(name);
    ASSERT_TRUE(made.ok()) << name;
    EXPECT_EQ((*made)->Name(), name);
  }
}

TEST(MakeMetricTest, UnknownNameFails) {
  EXPECT_TRUE(MakeMetric("hamming").status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// MINDIST lower bounds
// ---------------------------------------------------------------------

class BoxMinDistTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BoxMinDistTest, LowerBoundsDistanceToAnyBoxPoint) {
  auto metric = MakeNamedMetric(GetParam());
  const auto* box = dynamic_cast<const BoxDistanceMetric*>(metric.get());
  ASSERT_NE(box, nullptr);
  Rng rng(43);
  for (int trial = 0; trial < 300; ++trial) {
    Vec lo = RandomVec(&rng, 6), hi = lo;
    for (size_t d = 0; d < 6; ++d) {
      hi[d] = lo[d] + static_cast<Scalar>(rng.NextDouble(0.0, 0.5));
    }
    const Vec q = RandomVec(&rng, 6);
    // Random point inside the box.
    Vec p(6);
    for (size_t d = 0; d < 6; ++d) {
      p[d] = static_cast<Scalar>(rng.NextDouble(lo[d], hi[d]));
    }
    EXPECT_LE(box->MinDistToBox(q, lo, hi), metric->Distance(q, p) + 1e-9);
  }
}

TEST_P(BoxMinDistTest, ZeroInsideBox) {
  auto metric = MakeNamedMetric(GetParam());
  const auto* box = dynamic_cast<const BoxDistanceMetric*>(metric.get());
  ASSERT_NE(box, nullptr);
  const Vec lo{0, 0, 0, 0, 0, 0}, hi{1, 1, 1, 1, 1, 1};
  const Vec q{0.5, 0.2, 0.9, 0.1, 0.7, 0.3};
  EXPECT_DOUBLE_EQ(box->MinDistToBox(q, lo, hi), 0.0);
}

INSTANTIATE_TEST_SUITE_P(LpMetrics, BoxMinDistTest,
                         ::testing::Values("euclidean", "manhattan",
                                           "chebyshev", "minkowski_p3"));

TEST(BoxMinDistTest, WeightedEuclideanLowerBound) {
  auto made = WeightedEuclideanMetric::Make({1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(made.ok());
  Rng rng(45);
  for (int trial = 0; trial < 200; ++trial) {
    Vec lo = RandomVec(&rng, 6), hi = lo;
    for (size_t d = 0; d < 6; ++d) {
      hi[d] = lo[d] + static_cast<Scalar>(rng.NextDouble(0.0, 0.5));
    }
    const Vec q = RandomVec(&rng, 6);
    Vec p(6);
    for (size_t d = 0; d < 6; ++d) {
      p[d] = static_cast<Scalar>(rng.NextDouble(lo[d], hi[d]));
    }
    EXPECT_LE(made->MinDistToBox(q, lo, hi), made->Distance(q, p) + 1e-9);
  }
}

// ---------------------------------------------------------------------
// Edit distance on encoded sequences
// ---------------------------------------------------------------------

TEST(EditDistanceTest, EncodingRoundTrips) {
  const std::vector<int> symbols{3, 1, 4, 1, 5};
  const Vec encoded = EncodeSequence(symbols, 10);
  EXPECT_EQ(DecodeSequence(encoded), symbols);
}

TEST(EditDistanceTest, EncodingTruncatesAtCapacity) {
  const std::vector<int> symbols{1, 2, 3, 4, 5};
  const Vec encoded = EncodeSequence(symbols, 3);
  EXPECT_EQ(DecodeSequence(encoded), (std::vector<int>{1, 2, 3}));
}

TEST(EditDistanceTest, KnownValues) {
  EditDistanceMetric m;
  EXPECT_DOUBLE_EQ(m.Distance(EncodeString("kitten", 16),
                              EncodeString("sitting", 16)),
                   3.0);
  EXPECT_DOUBLE_EQ(m.Distance(EncodeString("", 16), EncodeString("abc", 16)),
                   3.0);
  EXPECT_DOUBLE_EQ(m.Distance(EncodeString("abc", 16),
                              EncodeString("abc", 16)),
                   0.0);
}

TEST(EditDistanceTest, MetricAxiomsOnRandomSequences) {
  EditDistanceMetric m;
  Rng rng(47);
  auto random_seq = [&]() {
    std::vector<int> s(1 + rng.NextIndex(10));
    for (auto& x : s) x = static_cast<int>(rng.NextIndex(4));
    return EncodeSequence(s, 16);
  };
  for (int i = 0; i < 300; ++i) {
    const Vec a = random_seq(), b = random_seq(), c = random_seq();
    EXPECT_DOUBLE_EQ(m.Distance(a, a), 0.0);
    EXPECT_DOUBLE_EQ(m.Distance(a, b), m.Distance(b, a));
    EXPECT_LE(m.Distance(a, c), m.Distance(a, b) + m.Distance(b, c));
  }
}

// ---------------------------------------------------------------------
// CountingMetric
// ---------------------------------------------------------------------

TEST(CountingMetricTest, ChargesObjectAndMatrixBucketsSeparately) {
  auto base = std::make_shared<EuclideanMetric>();
  CountingMetric counting(base);
  QueryStats stats;
  counting.set_stats(&stats);
  const Vec a{1, 2}, b{3, 4};
  counting.Distance(a, b);
  counting.Distance(a, b);
  counting.DistanceForMatrix(a, b);
  EXPECT_EQ(stats.dist_computations, 2u);
  EXPECT_EQ(stats.matrix_dist_computations, 1u);
}

TEST(CountingMetricTest, UncountedPathChargesNothing) {
  auto base = std::make_shared<EuclideanMetric>();
  CountingMetric counting(base);
  QueryStats stats;
  counting.set_stats(&stats);
  counting.DistanceUncounted({0, 0}, {1, 1});
  EXPECT_EQ(stats.dist_computations, 0u);
}

TEST(CountingMetricTest, NullSinkIsSafe) {
  auto base = std::make_shared<EuclideanMetric>();
  CountingMetric counting(base);
  counting.set_stats(nullptr);
  EXPECT_NEAR(counting.Distance({0, 0}, {3, 4}), 5.0, 1e-12);
}

TEST(CountingMetricTest, ValueMatchesBaseMetric) {
  auto base = std::make_shared<ManhattanMetric>();
  CountingMetric counting(base);
  QueryStats stats;
  counting.set_stats(&stats);
  EXPECT_DOUBLE_EQ(counting.Distance({0, 0}, {3, 4}), 7.0);
}

}  // namespace
}  // namespace msq
