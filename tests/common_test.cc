// Tests for the common substrate: Status/StatusOr, Rng, QueryStats and the
// cost model, and the flag parser.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace msq {
namespace {

// ---------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad eps");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad eps");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad eps");
}

TEST(StatusTest, AllConstructorsProduceMatchingPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

TEST(StatusOrTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() -> Status { return Status::IOError("disk"); };
  auto outer = [&]() -> Status {
    MSQ_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsIOError());
}

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextIndexInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextIndex(17), 17u);
  }
}

TEST(RngTest, NextIndexCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextIndex(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0, sum_sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GammaMeanMatchesAlpha) {
  Rng rng(15);
  for (double alpha : {0.5, 1.0, 3.0, 10.0}) {
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += rng.NextGamma(alpha);
    EXPECT_NEAR(sum / n, alpha, alpha * 0.05) << "alpha=" << alpha;
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(17);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (uint64_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(19);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ForkedGeneratorsAreIndependent) {
  Rng parent(21);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.NextU64() == child.NextU64());
  EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------------
// QueryStats / CostModel
// ---------------------------------------------------------------------

TEST(CostModelTest, ReproducesPaperUnitCosts) {
  // Sec. 6.2: 4.3 us at d=20, 12.7 us at d=64.
  CostModel model;
  EXPECT_NEAR(model.DistMicros(20), 4.3, 0.01);
  EXPECT_NEAR(model.DistMicros(64), 12.7, 0.01);
  EXPECT_DOUBLE_EQ(model.triangle_cmp_micros, 0.082);
}

TEST(CostModelTest, PaperSpeedFactorsOfDistanceVsComparison) {
  // The paper reports factors of 52 (20-d) and 155 (64-d).
  CostModel model;
  EXPECT_NEAR(model.DistMicros(20) / model.triangle_cmp_micros, 52.0, 1.0);
  EXPECT_NEAR(model.DistMicros(64) / model.triangle_cmp_micros, 155.0, 1.0);
}

TEST(QueryStatsTest, IoMillisSplitsRandomAndSequential) {
  CostModel model;
  model.random_page_ms = 10.0;
  model.seq_page_ms = 1.0;
  QueryStats stats;
  stats.random_page_reads = 3;
  stats.seq_page_reads = 7;
  EXPECT_DOUBLE_EQ(stats.IoMillis(model), 37.0);
}

TEST(QueryStatsTest, CpuMillisCountsMatrixAndTriangleCosts) {
  CostModel model;
  QueryStats stats;
  stats.dist_computations = 1000;
  stats.matrix_dist_computations = 500;
  stats.triangle_tries = 10000;
  const double expected =
      (1500 * model.DistMicros(20) + 10000 * model.triangle_cmp_micros) /
      1000.0;
  EXPECT_DOUBLE_EQ(stats.CpuMillis(model, 20), expected);
}

// Distinct per-field values, driven by the declared lists so that a new
// field is covered without touching these tests.
QueryStats Distinct(uint64_t scale) {
  QueryStats s;
  uint64_t v = 0;
  for (const QueryStatsCounter& c : kQueryStatsCounters) {
    s.*c.member = ++v * scale;
  }
  for (const QueryStatsWallTime& w : kQueryStatsWallTimes) {
    s.*w.member = static_cast<double>(++v * scale) + 0.5;
  }
  return s;
}

TEST(QueryStatsTest, AdditionAggregatesEveryField) {
  const QueryStats a = Distinct(1), b = Distinct(10);
  QueryStats sum = a;
  sum += b;
  for (const QueryStatsCounter& c : kQueryStatsCounters) {
    EXPECT_EQ(sum.*c.member, a.*c.member + b.*c.member) << c.name;
  }
  for (const QueryStatsWallTime& w : kQueryStatsWallTimes) {
    EXPECT_DOUBLE_EQ(sum.*w.member, a.*w.member + b.*w.member) << w.name;
  }
}

TEST(QueryStatsTest, SubtractionIsInverseOfAddition) {
  const QueryStats a = Distinct(3), b = Distinct(7);
  QueryStats sum = a;
  sum += b;
  const QueryStats diff = sum - b;
  for (const QueryStatsCounter& c : kQueryStatsCounters) {
    EXPECT_EQ(diff.*c.member, a.*c.member) << c.name;
  }
  for (const QueryStatsWallTime& w : kQueryStatsWallTimes) {
    EXPECT_DOUBLE_EQ(diff.*w.member, a.*w.member) << w.name;
  }
}

TEST(QueryStatsTest, ToStringMentionsKeyCounters) {
  QueryStats stats;
  stats.dist_computations = 42;
  stats.answers_produced = 7;
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("dist_computations=42"), std::string::npos) << s;
  EXPECT_NE(s.find("answers_produced=7"), std::string::npos) << s;
}

TEST(QueryStatsTest, EveryExportedCounterHasADocsRow) {
  std::ifstream in(std::string(MSQ_SOURCE_DIR) + "/docs/ALGORITHMS.md");
  ASSERT_TRUE(in.good());
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("| `", 0) == 0) rows.push_back(line);
  }
  for (const QueryStatsCounter& c : kQueryStatsCounters) {
    const std::string metric = std::string("`") + c.metric + "`";
    const std::string field = std::string("`") + c.name + "`";
    EXPECT_TRUE(std::any_of(rows.begin(), rows.end(), [&](const auto& row) {
      return row.find(metric) != std::string::npos &&
             row.find(field) != std::string::npos;
    })) << "docs/ALGORITHMS.md has no counter-table row for " << c.metric;
  }
}

// ---------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------

TEST(FlagsTest, DefaultsApplyWithoutArguments) {
  Flags flags;
  flags.Define("n", "100", "object count");
  char prog[] = "prog";
  char* argv[] = {prog};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(flags.GetInt("n"), 100);
}

TEST(FlagsTest, ParsesKeyValueAndDashedForms) {
  Flags flags;
  flags.Define("n", "100", "object count");
  flags.Define("name", "x", "label");
  char prog[] = "prog";
  char a1[] = "n=250";
  char a2[] = "--name=hello";
  char* argv[] = {prog, a1, a2};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_EQ(flags.GetInt("n"), 250);
  EXPECT_EQ(flags.GetString("name"), "hello");
}

TEST(FlagsTest, RejectsUnknownKey) {
  Flags flags;
  flags.Define("n", "100", "object count");
  char prog[] = "prog";
  char a1[] = "m=3";
  char* argv[] = {prog, a1};
  EXPECT_TRUE(flags.Parse(2, argv).IsInvalidArgument());
}

TEST(FlagsTest, RejectsMissingEquals) {
  Flags flags;
  flags.Define("n", "100", "object count");
  char prog[] = "prog";
  char a1[] = "n";
  char* argv[] = {prog, a1};
  EXPECT_TRUE(flags.Parse(2, argv).IsInvalidArgument());
}

TEST(FlagsTest, ParsesDoubleBoolAndList) {
  Flags flags;
  flags.Define("eps", "0.5", "radius");
  flags.Define("verbose", "false", "chatty");
  flags.Define("ms", "1,10,100", "batch sizes");
  char prog[] = "prog";
  char a1[] = "eps=0.25";
  char a2[] = "verbose=true";
  char* argv[] = {prog, a1, a2};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps"), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_EQ(flags.GetIntList("ms"), (std::vector<int64_t>{1, 10, 100}));
}

TEST(FlagsTest, HelpReturnsNotFoundWithUsage) {
  Flags flags;
  flags.Define("n", "100", "object count");
  char prog[] = "prog";
  char a1[] = "--help";
  char* argv[] = {prog, a1};
  const Status s = flags.Parse(2, argv);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_NE(s.message().find("usage"), std::string::npos);
}

}  // namespace
}  // namespace msq
