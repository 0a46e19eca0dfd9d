// Tests of the open-loop load layer: statistical sanity of the seeded
// workload models (Poisson gaps, Zipf skew, tenant mix).

#include <algorithm>
#include <chrono>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "load/workload.h"

namespace msq {
namespace {

// ---------------------------------------------------------------------
// Workload models
// ---------------------------------------------------------------------

TEST(LoadWorkloadTest, PoissonGapsHaveTheConfiguredMean) {
  load::PoissonArrivals arrivals(1000.0, 7);  // mean gap 1 ms
  constexpr int kSamples = 20000;
  double total_nanos = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const auto gap = arrivals.NextGap();
    ASSERT_GE(gap.count(), 0);
    total_nanos += static_cast<double>(gap.count());
  }
  const double mean_micros = total_nanos / kSamples / 1e3;
  // Exponential with mean 1000 us; 20k samples put the sample mean well
  // within 5%.
  EXPECT_NEAR(mean_micros, 1000.0, 50.0);
}

TEST(LoadWorkloadTest, ZeroRateProducesZeroGaps) {
  load::PoissonArrivals arrivals(0.0, 7);
  EXPECT_EQ(arrivals.NextGap().count(), 0);
}

TEST(LoadWorkloadTest, ZipfIsSkewedAndCoversTheIdSpace) {
  constexpr size_t kN = 1000;
  load::ZipfSampler zipf(kN, 1.0, 11);
  Rng rng(13);
  std::vector<uint64_t> counts(kN, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t id = zipf.Sample(rng);
    ASSERT_LT(id, kN);
    ++counts[id];
  }
  std::sort(counts.begin(), counts.end(), std::greater<>());
  // Zipf(1.0) over 1000 ranks: the top rank holds ~1/H(1000) ~ 13% of the
  // mass and the top 10 ranks ~39%. Loose bounds to stay seed-robust.
  EXPECT_GT(counts[0], kSamples / 20);  // >= 5%
  const uint64_t top10 =
      std::accumulate(counts.begin(), counts.begin() + 10, uint64_t{0});
  EXPECT_GT(top10, kSamples / 4);
  // The shuffle must spread ranks over ids, not leave id 0 the hottest:
  // sampling must still be a permutation of [0, n).
  load::ZipfSampler uniform(kN, 0.0, 11);
  std::vector<bool> seen(kN, false);
  Rng rng2(17);
  for (int i = 0; i < kSamples; ++i) seen[uniform.Sample(rng2)] = true;
  EXPECT_GT(std::count(seen.begin(), seen.end(), true),
            static_cast<long>(kN * 9 / 10));
}

TEST(LoadWorkloadTest, TenantMixFollowsWeights) {
  load::TenantMix mix({{"a", 3.0, 10, 0.9}, {"b", 1.0, 20, 0.9}});
  ASSERT_EQ(mix.size(), 2u);
  Rng rng(19);
  int a = 0;
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    if (mix.PickIndex(rng) == 0) ++a;
  }
  EXPECT_NEAR(static_cast<double>(a) / kSamples, 0.75, 0.02);
}

TEST(LoadWorkloadTest, EmptyAndZeroWeightMixesAreSafe) {
  load::TenantMix empty({});
  EXPECT_EQ(empty.size(), 1u);  // one default tenant
  load::TenantMix zeros({{"a", 0.0, 10, 0.9}, {"b", 0.0, 20, 0.9}});
  Rng rng(23);
  int b = 0;
  for (int i = 0; i < 10000; ++i) {
    if (zeros.PickIndex(rng) == 1) ++b;
  }
  // All-zero weights degrade to a uniform mix, not "always the last".
  EXPECT_NEAR(static_cast<double>(b) / 10000.0, 0.5, 0.05);
}

}  // namespace
}  // namespace msq