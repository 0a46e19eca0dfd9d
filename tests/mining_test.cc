// Tests of the mining library: the ExploreNeighborhoods schemes and every
// instance (DBSCAN, kNN classification, exploration, proximity, trend,
// association rules). The central property, asserted throughout, is the
// paper's transformation claim: the multiple-query form computes exactly
// the same result as the single-query form.

#include <algorithm>
#include <deque>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "mining/association.h"
#include "mining/dbscan.h"
#include "mining/exploration_sim.h"
#include "mining/explore.h"
#include "mining/knn_classifier.h"
#include "mining/knn_graph.h"
#include "mining/optics.h"
#include "mining/proximity.h"
#include "mining/trend.h"

namespace msq {
namespace {

std::unique_ptr<MetricDatabase> OpenDb(Dataset dataset,
                                       BackendKind kind = BackendKind::kLinearScan) {
  DatabaseOptions options;
  options.backend = kind;
  options.page_size_bytes = 2048;
  auto db = MetricDatabase::Open(std::move(dataset),
                                 std::make_shared<EuclideanMetric>(), options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// ---------------------------------------------------------------------
// ExploreNeighborhoods scheme
// ---------------------------------------------------------------------

TEST(ExploreTest, VisitsConnectedNeighborhoodExactlyOnce) {
  Dataset dataset = MakeGaussianClustersDataset(500, 4, 3, 0.02, 701);
  auto db = OpenDb(std::move(dataset));
  std::vector<ObjectId> visited;
  ExploreCallbacks callbacks;
  callbacks.proc2 = [&](ObjectId id, const AnswerSet&) {
    visited.push_back(id);
  };
  callbacks.filter = [](ObjectId, const AnswerSet& answers) {
    std::vector<ObjectId> next;
    for (const Neighbor& nb : answers) next.push_back(nb.id);
    return next;
  };
  ExploreOptions options;
  options.query_type = QueryType::Knn(5);
  auto processed = ExploreNeighborhoods(db.get(), {0}, options, callbacks);
  ASSERT_TRUE(processed.ok());
  EXPECT_EQ(*processed, visited.size());
  std::set<ObjectId> unique(visited.begin(), visited.end());
  EXPECT_EQ(unique.size(), visited.size()) << "no object processed twice";
}

TEST(ExploreTest, SingleAndMultipleFormsVisitSameObjects) {
  Dataset dataset = MakeGaussianClustersDataset(600, 4, 4, 0.03, 703);
  std::vector<std::vector<ObjectId>> visits(2);
  for (int mode = 0; mode < 2; ++mode) {
    auto db = OpenDb(dataset);
    ExploreCallbacks callbacks;
    callbacks.proc2 = [&, mode](ObjectId id, const AnswerSet&) {
      visits[mode].push_back(id);
    };
    callbacks.filter = [](ObjectId, const AnswerSet& answers) {
      std::vector<ObjectId> next;
      for (const Neighbor& nb : answers) next.push_back(nb.id);
      return next;
    };
    ExploreOptions options;
    options.query_type = QueryType::Range(0.08);
    options.use_multiple = (mode == 1);
    options.batch_size = 8;
    ASSERT_TRUE(ExploreNeighborhoods(db.get(), {5}, options, callbacks).ok());
  }
  EXPECT_EQ(visits[0], visits[1]);
}

TEST(ExploreTest, ConditionCheckBoundsTheWalk) {
  Dataset dataset = MakeUniformDataset(400, 4, 705);
  auto db = OpenDb(std::move(dataset));
  size_t steps = 0;
  ExploreCallbacks callbacks;
  callbacks.condition_check = [&](const std::deque<ObjectId>&) {
    return steps < 3;
  };
  callbacks.proc2 = [&](ObjectId, const AnswerSet&) { ++steps; };
  callbacks.filter = [](ObjectId, const AnswerSet& answers) {
    std::vector<ObjectId> next;
    for (const Neighbor& nb : answers) next.push_back(nb.id);
    return next;
  };
  ExploreOptions options;
  options.query_type = QueryType::Knn(4);
  auto processed = ExploreNeighborhoods(db.get(), {0}, options, callbacks);
  ASSERT_TRUE(processed.ok());
  EXPECT_EQ(*processed, 3u);
}

TEST(ExploreTest, Proc1RunsBeforeEachQuery) {
  Dataset dataset = MakeUniformDataset(200, 3, 707);
  auto db = OpenDb(std::move(dataset));
  std::vector<ObjectId> pre, post;
  ExploreCallbacks callbacks;
  callbacks.proc1 = [&](ObjectId id) { pre.push_back(id); };
  callbacks.proc2 = [&](ObjectId id, const AnswerSet&) {
    post.push_back(id);
  };
  ExploreOptions options;
  options.query_type = QueryType::Knn(3);
  ASSERT_TRUE(ExploreNeighborhoods(db.get(), {1, 2, 3}, options, callbacks)
                  .ok());
  EXPECT_EQ(pre, post);
  EXPECT_EQ(pre, (std::vector<ObjectId>{1, 2, 3}));
}

TEST(ExploreTest, RejectsBadArguments) {
  Dataset dataset = MakeUniformDataset(100, 3, 709);
  auto db = OpenDb(std::move(dataset));
  ExploreOptions options;
  options.batch_size = 0;
  EXPECT_TRUE(ExploreNeighborhoods(db.get(), {0}, options, {})
                  .status()
                  .IsInvalidArgument());
  options.batch_size = 4;
  EXPECT_TRUE(ExploreNeighborhoods(db.get(), {999999}, options, {})
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------
// The single-to-multiple transformation (ForEachNeighborhood, AnswerFirst)
// ---------------------------------------------------------------------

TEST(TransformationTest, VisitsEveryObjectInInputOrderInBothModes) {
  Dataset dataset = MakeUniformDataset(300, 4, 761);
  const std::vector<ObjectId> objects = {5, 9, 5, 2, 40, 9, 9, 17};
  std::vector<std::vector<size_t>> order(2);
  std::vector<std::vector<AnswerSet>> answers(2);
  for (int mode = 0; mode < 2; ++mode) {
    auto db = OpenDb(dataset);
    ASSERT_TRUE(ForEachNeighborhood(db.get(), objects, QueryType::Knn(4), 3,
                                    mode == 1,
                                    [&](size_t i, const AnswerSet& got) {
                                      order[mode].push_back(i);
                                      answers[mode].push_back(got);
                                    })
                    .ok());
  }
  EXPECT_EQ(order[0], (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(order[0], order[1]);
  EXPECT_EQ(answers[0], answers[1]);
  auto db = OpenDb(dataset);
  EXPECT_TRUE(ForEachNeighborhood(db.get(), objects, QueryType::Knn(4), 0,
                                  true, [](size_t, const AnswerSet&) {})
                  .IsInvalidArgument());
}

TEST(TransformationTest, RepeatedObjectsGiveIdenticalResultsInBothModes) {
  Dataset dataset = MakeGaussianClustersDataset(500, 4, 4, 0.03, 763);
  const std::vector<ObjectId> objects = {3, 3, 7, 3, 11};
  for (size_t batch_size : {2u, 32u}) {
    std::vector<ClassificationResult> classified;
    std::vector<ProximityResult> near;
    for (bool use_multiple : {false, true}) {
      KnnClassifierParams classify;
      classify.batch_size = batch_size;
      classify.use_multiple = use_multiple;
      auto db = OpenDb(dataset);
      auto c = ClassifyObjects(db.get(), objects, classify);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      classified.push_back(*c);
      ProximityParams proximity;
      proximity.batch_size = batch_size;
      proximity.use_multiple = use_multiple;
      db = OpenDb(dataset);
      auto p = AnalyzeProximity(db.get(), objects, proximity);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      near.push_back(*p);
    }
    EXPECT_EQ(classified[0].predicted, classified[1].predicted);
    EXPECT_EQ(classified[0].accuracy, classified[1].accuracy);
    EXPECT_EQ(near[0].top_objects, near[1].top_objects);
    EXPECT_EQ(near[0].common_labels, near[1].common_labels);
  }
}

TEST(TransformationTest, ZeroBatchSizeIsRejected) {
  Dataset dataset = MakeGaussianClustersDataset(200, 3, 2, 0.05, 765);
  auto db = OpenDb(dataset);
  for (bool use_multiple : {false, true}) {
    AssociationParams rules;
    rules.batch_size = 0;
    rules.use_multiple = use_multiple;
    EXPECT_TRUE(
        MineNeighborhoodRules(db.get(), rules).status().IsInvalidArgument());
    ProximityParams proximity;
    proximity.batch_size = 0;
    proximity.use_multiple = use_multiple;
    EXPECT_TRUE(AnalyzeProximity(db.get(), {1, 2}, proximity)
                    .status()
                    .IsInvalidArgument());
    TrendParams trend;
    trend.batch_size = 0;
    trend.use_multiple = use_multiple;
    EXPECT_TRUE(DetectTrend(db.get(), 0, trend).status().IsInvalidArgument());
  }
}

// Results of mining runs that follow each other on one database. Object
// queries use the object id as query id whatever their type, so each run
// meets the buffered states that the run before left under the same ids
// for another k or eps.
struct MixedTypeRuns {
  std::vector<std::vector<int32_t>> predicted;  // k = 5, then k = 7
  std::vector<AnswerSet> graph;
  std::vector<std::vector<int32_t>> clusters;  // eps 0.05, then 0.08
  std::vector<ObjectId> optics_order;
  std::vector<double> optics_reachability;
};

void RunMixedTypes(const Dataset& dataset, bool use_multiple,
                   MixedTypeRuns* out) {
  auto db = OpenDb(dataset);
  std::vector<ObjectId> objects;
  for (ObjectId id = 0; id < dataset.size(); id += 7) objects.push_back(id);
  for (size_t k : {5u, 7u}) {
    KnnClassifierParams params;
    params.k = k;
    params.use_multiple = use_multiple;
    auto got = ClassifyObjects(db.get(), objects, params);
    ASSERT_TRUE(got.ok()) << "k=" << k << ": " << got.status().ToString();
    out->predicted.push_back(got->predicted);
  }
  KnnGraphParams graph;
  graph.use_multiple = use_multiple;
  auto g = BuildKnnGraph(db.get(), graph);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  out->graph = g->neighbors;
  for (double eps : {0.05, 0.08}) {
    DbscanParams params;
    params.eps = eps;
    params.use_multiple = use_multiple;
    auto got = RunDbscan(db.get(), params);
    ASSERT_TRUE(got.ok()) << "eps=" << eps << ": " << got.status().ToString();
    out->clusters.push_back(got->cluster_of);
  }
  OpticsParams optics;
  optics.eps = 0.1;
  optics.use_multiple = use_multiple;
  auto o = RunOptics(db.get(), optics);
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  out->optics_order = o->ordering;
  out->optics_reachability = o->reachability;
}

TEST(TransformationTest, RunsWithDifferentQueryTypesShareOneDatabase) {
  Dataset dataset = MakeGaussianClustersDataset(600, 3, 4, 0.02, 767);
  MixedTypeRuns single, multi;
  ASSERT_NO_FATAL_FAILURE(RunMixedTypes(dataset, false, &single));
  ASSERT_NO_FATAL_FAILURE(RunMixedTypes(dataset, true, &multi));
  EXPECT_EQ(single.predicted, multi.predicted);
  EXPECT_EQ(single.graph, multi.graph);
  EXPECT_EQ(single.clusters, multi.clusters);
  EXPECT_EQ(single.optics_order, multi.optics_order);
  EXPECT_EQ(single.optics_reachability, multi.optics_reachability);
}

// ---------------------------------------------------------------------
// DBSCAN
// ---------------------------------------------------------------------

// Brute-force reference DBSCAN with the same processing order.
DbscanResult ReferenceDbscan(const Dataset& ds, const Metric& metric,
                             double eps, size_t min_pts) {
  constexpr int32_t kUnclassified = -2;
  const size_t n = ds.size();
  DbscanResult result;
  result.cluster_of.assign(n, kUnclassified);
  auto neighbors = [&](ObjectId o) {
    std::vector<ObjectId> out;
    for (ObjectId i = 0; i < n; ++i) {
      if (metric.Distance(ds.object(o), ds.object(i)) <= eps) {
        out.push_back(i);
      }
    }
    return out;
  };
  int32_t cluster = -1;
  for (ObjectId o = 0; o < n; ++o) {
    if (result.cluster_of[o] != kUnclassified) continue;
    const auto nb = neighbors(o);
    if (nb.size() < min_pts) {
      result.cluster_of[o] = kDbscanNoise;
      continue;
    }
    ++cluster;
    result.cluster_of[o] = cluster;
    std::deque<ObjectId> seeds;
    for (ObjectId s : nb) {
      if (result.cluster_of[s] == kUnclassified) {
        result.cluster_of[s] = cluster;
        seeds.push_back(s);
      } else if (result.cluster_of[s] == kDbscanNoise) {
        result.cluster_of[s] = cluster;
      }
    }
    while (!seeds.empty()) {
      const ObjectId cur = seeds.front();
      seeds.pop_front();
      const auto cur_nb = neighbors(cur);
      if (cur_nb.size() < min_pts) continue;
      for (ObjectId s : cur_nb) {
        if (result.cluster_of[s] == kUnclassified) {
          result.cluster_of[s] = cluster;
          seeds.push_back(s);
        } else if (result.cluster_of[s] == kDbscanNoise) {
          result.cluster_of[s] = cluster;
        }
      }
    }
  }
  result.num_clusters = static_cast<size_t>(cluster + 1);
  return result;
}

TEST(DbscanTest, MatchesReferenceImplementation) {
  Dataset dataset = MakeGaussianClustersDataset(600, 3, 4, 0.02, 711);
  EuclideanMetric metric;
  const DbscanResult expected = ReferenceDbscan(dataset, metric, 0.06, 5);
  auto db = OpenDb(dataset);
  DbscanParams params;
  params.eps = 0.06;
  params.min_pts = 5;
  auto got = RunDbscan(db.get(), params);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->num_clusters, expected.num_clusters);
  EXPECT_EQ(got->cluster_of, expected.cluster_of);
}

TEST(DbscanTest, SingleAndMultipleModesProduceIdenticalClusterings) {
  Dataset dataset = MakeGaussianClustersDataset(800, 4, 5, 0.02, 713);
  DbscanParams params;
  params.eps = 0.08;
  params.min_pts = 4;
  params.use_multiple = false;
  auto db_single = OpenDb(dataset);
  auto single = RunDbscan(db_single.get(), params);
  ASSERT_TRUE(single.ok());
  params.use_multiple = true;
  auto db_multi = OpenDb(dataset);
  auto multi = RunDbscan(db_multi.get(), params);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(single->cluster_of, multi->cluster_of);
  EXPECT_EQ(single->num_clusters, multi->num_clusters);
  // And batching must be cheaper in page reads.
  EXPECT_LT(db_multi->stats().TotalPageReads(),
            db_single->stats().TotalPageReads());
}

TEST(DbscanTest, RecoverWellSeparatedClusters) {
  Dataset dataset = MakeGaussianClustersDataset(500, 3, 3, 0.01, 715);
  auto db = OpenDb(dataset);
  DbscanParams params;
  params.eps = 0.05;
  params.min_pts = 4;
  auto got = RunDbscan(db.get(), params);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->num_clusters, 3u);
  // Clusters must align with the generator labels (up to renaming).
  std::map<int32_t, std::set<int32_t>> label_to_clusters;
  for (ObjectId id = 0; id < dataset.size(); ++id) {
    if (got->cluster_of[id] != kDbscanNoise) {
      label_to_clusters[dataset.label(id)].insert(got->cluster_of[id]);
    }
  }
  for (const auto& [label, clusters] : label_to_clusters) {
    EXPECT_EQ(clusters.size(), 1u) << "label " << label << " split";
  }
}

TEST(DbscanTest, AllNoiseWhenEpsTiny) {
  Dataset dataset = MakeUniformDataset(300, 5, 717);
  auto db = OpenDb(std::move(dataset));
  DbscanParams params;
  params.eps = 1e-6;
  params.min_pts = 3;
  auto got = RunDbscan(db.get(), params);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->num_clusters, 0u);
  for (int32_t c : got->cluster_of) EXPECT_EQ(c, kDbscanNoise);
}

TEST(DbscanTest, OneClusterWhenEpsHuge) {
  Dataset dataset = MakeUniformDataset(300, 5, 719);
  auto db = OpenDb(std::move(dataset));
  DbscanParams params;
  params.eps = 10.0;
  params.min_pts = 3;
  auto got = RunDbscan(db.get(), params);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->num_clusters, 1u);
}

TEST(DbscanTest, WorksOnXTreeBackend) {
  Dataset dataset = MakeGaussianClustersDataset(600, 4, 4, 0.02, 721);
  EuclideanMetric metric;
  const DbscanResult expected = ReferenceDbscan(dataset, metric, 0.07, 5);
  auto db = OpenDb(dataset, BackendKind::kXTree);
  DbscanParams params;
  params.eps = 0.07;
  params.min_pts = 5;
  auto got = RunDbscan(db.get(), params);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->cluster_of, expected.cluster_of);
}

TEST(DbscanTest, RejectsBadParameters) {
  Dataset dataset = MakeUniformDataset(100, 3, 723);
  auto db = OpenDb(std::move(dataset));
  DbscanParams params;
  params.eps = 0.0;
  EXPECT_TRUE(RunDbscan(db.get(), params).status().IsInvalidArgument());
  params.eps = 0.1;
  params.min_pts = 0;
  EXPECT_TRUE(RunDbscan(db.get(), params).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// kNN classification
// ---------------------------------------------------------------------

TEST(KnnClassifierTest, HighAccuracyOnSeparatedClusters) {
  Dataset dataset = MakeGaussianClustersDataset(1000, 6, 5, 0.02, 725);
  auto db = OpenDb(std::move(dataset));
  Rng rng(727);
  std::vector<ObjectId> to_classify;
  for (uint64_t id : rng.SampleWithoutReplacement(1000, 100)) {
    to_classify.push_back(static_cast<ObjectId>(id));
  }
  KnnClassifierParams params;
  params.k = 5;
  auto got = ClassifyObjects(db.get(), to_classify, params);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(got->accuracy, 0.95);
}

TEST(KnnClassifierTest, SingleAndMultipleModesAgree) {
  Dataset dataset = MakeGaussianClustersDataset(800, 5, 6, 0.03, 729);
  Rng rng(731);
  std::vector<ObjectId> to_classify;
  for (uint64_t id : rng.SampleWithoutReplacement(800, 60)) {
    to_classify.push_back(static_cast<ObjectId>(id));
  }
  KnnClassifierParams params;
  params.k = 7;
  params.use_multiple = false;
  auto db_single = OpenDb(dataset);
  auto single = ClassifyObjects(db_single.get(), to_classify, params);
  ASSERT_TRUE(single.ok());
  params.use_multiple = true;
  auto db_multi = OpenDb(dataset);
  auto multi = ClassifyObjects(db_multi.get(), to_classify, params);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(single->predicted, multi->predicted);
  EXPECT_LT(db_multi->stats().TotalPageReads(),
            db_single->stats().TotalPageReads());
}

TEST(KnnClassifierTest, RequiresLabels) {
  Dataset dataset = MakeUniformDataset(100, 4, 733);  // unlabeled
  auto db = OpenDb(std::move(dataset));
  EXPECT_TRUE(ClassifyObjects(db.get(), {1, 2}, {})
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Exploration simulation
// ---------------------------------------------------------------------

TEST(ExplorationSimTest, SingleAndMultipleVisitSamePositions) {
  Dataset dataset = MakeImageHistogramDataset(
      {.n = 1500, .dim = 32, .num_clusters = 8, .seed = 735});
  ExplorationSimParams params;
  params.num_users = 4;
  params.k = 6;
  params.num_rounds = 2;
  params.seed = 99;
  params.use_multiple = false;
  auto db_single = OpenDb(dataset);
  auto single = RunExplorationSim(db_single.get(), params);
  ASSERT_TRUE(single.ok());
  params.use_multiple = true;
  auto db_multi = OpenDb(dataset);
  auto multi = RunExplorationSim(db_multi.get(), params);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(single->final_positions, multi->final_positions);
  EXPECT_EQ(single->queries_issued, multi->queries_issued);
  EXPECT_LE(db_multi->stats().TotalPageReads(),
            db_single->stats().TotalPageReads());
}

TEST(ExplorationSimTest, QueryCountMatchesRounds) {
  Dataset dataset = MakeUniformDataset(800, 8, 737);
  auto db = OpenDb(std::move(dataset));
  ExplorationSimParams params;
  params.num_users = 3;
  params.k = 5;
  params.num_rounds = 2;
  auto got = RunExplorationSim(db.get(), params);
  ASSERT_TRUE(got.ok());
  // Round 0: c queries; rounds 1..R: c*k each.
  EXPECT_EQ(got->queries_issued, 3u + 2u * 3u * 5u);
  EXPECT_EQ(got->final_positions.size(), 3u);
}

TEST(ExplorationSimTest, StreamGeneratorMatchesQueryCount) {
  Dataset dataset = MakeUniformDataset(700, 8, 739);
  auto db = OpenDb(std::move(dataset));
  ExplorationSimParams params;
  params.num_users = 2;
  params.k = 4;
  params.num_rounds = 2;
  auto stream = GenerateExplorationQueryStream(db.get(), params);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->size(), 2u + 2u * 2u * 4u);
}

TEST(ExplorationSimTest, QueryStreamIsTheSameInBothModes) {
  Dataset dataset = MakeUniformDataset(700, 8, 769);
  ExplorationSimParams params;
  params.num_users = 3;
  params.k = 4;
  params.num_rounds = 2;
  std::vector<std::vector<ObjectId>> streams;
  for (bool use_multiple : {false, true}) {
    params.use_multiple = use_multiple;
    auto db = OpenDb(dataset);
    auto got = RunExplorationSim(db.get(), params);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->queries_issued, got->query_stream.size());
    streams.push_back(got->query_stream);
  }
  EXPECT_EQ(streams[0], streams[1]);
  auto db = OpenDb(dataset);
  auto generated = GenerateExplorationQueryStream(db.get(), params);
  ASSERT_TRUE(generated.ok());
  EXPECT_EQ(*generated, streams[1]);
}

// ---------------------------------------------------------------------
// Proximity analysis
// ---------------------------------------------------------------------

TEST(ProximityTest, FindsNearestForeignObjects) {
  Dataset dataset = MakeGaussianClustersDataset(600, 4, 3, 0.02, 741);
  auto db = OpenDb(dataset);
  // Cluster = all objects with generator label 0.
  std::vector<ObjectId> cluster;
  for (ObjectId id = 0; id < dataset.size(); ++id) {
    if (dataset.label(id) == 0) cluster.push_back(id);
  }
  ProximityParams params;
  params.top_k = 15;
  auto got = AnalyzeProximity(db.get(), cluster, params);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->top_objects.size(), 15u);
  // No cluster member may appear among the top objects.
  std::set<ObjectId> members(cluster.begin(), cluster.end());
  for (const Neighbor& nb : got->top_objects) {
    EXPECT_EQ(members.count(nb.id), 0u);
  }
  // Distances must be ascending.
  for (size_t i = 1; i < got->top_objects.size(); ++i) {
    EXPECT_LE(got->top_objects[i - 1].distance,
              got->top_objects[i].distance);
  }
  // The most common label among near objects exists.
  ASSERT_FALSE(got->common_labels.empty());
}

TEST(ProximityTest, SingleAndMultipleModesAgree) {
  Dataset dataset = MakeGaussianClustersDataset(500, 4, 4, 0.03, 743);
  std::vector<ObjectId> cluster;
  for (ObjectId id = 0; id < dataset.size(); ++id) {
    if (dataset.label(id) == 1) cluster.push_back(id);
  }
  ProximityParams params;
  params.top_k = 10;
  params.use_multiple = false;
  auto db_single = OpenDb(dataset);
  auto single = AnalyzeProximity(db_single.get(), cluster, params);
  ASSERT_TRUE(single.ok());
  params.use_multiple = true;
  auto db_multi = OpenDb(dataset);
  auto multi = AnalyzeProximity(db_multi.get(), cluster, params);
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(single->top_objects.size(), multi->top_objects.size());
  for (size_t i = 0; i < single->top_objects.size(); ++i) {
    EXPECT_EQ(single->top_objects[i].id, multi->top_objects[i].id);
  }
}

TEST(ProximityTest, RejectsEmptyCluster) {
  Dataset dataset = MakeUniformDataset(100, 3, 745);
  auto db = OpenDb(std::move(dataset));
  EXPECT_TRUE(
      AnalyzeProximity(db.get(), {}, {}).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Trend detection
// ---------------------------------------------------------------------

TEST(TrendTest, DetectsPlantedLinearTrend) {
  // Attribute 0 grows linearly with the distance from the origin corner;
  // the detected slope must be positive with a decent fit.
  Dataset ds;
  Rng rng(747);
  for (int i = 0; i < 800; ++i) {
    Vec v(4);
    for (size_t d = 1; d < 4; ++d) {
      v[d] = static_cast<Scalar>(rng.NextDouble());
    }
    const double dist_proxy = VecNorm({v[1], v[2], v[3]});
    v[0] = static_cast<Scalar>(2.0 * dist_proxy +
                               0.05 * rng.NextGaussian());
    ASSERT_TRUE(ds.Append(std::move(v)).ok());
  }
  // Start near the origin of dims 1..3.
  ObjectId start = 0;
  double best = 1e9;
  for (ObjectId id = 0; id < ds.size(); ++id) {
    const double d = VecNorm({ds.object(id)[1], ds.object(id)[2],
                              ds.object(id)[3]});
    if (d < best) {
      best = d;
      start = id;
    }
  }
  auto db = OpenDb(std::move(ds));
  TrendParams params;
  params.attribute_dim = 0;
  params.num_paths = 10;
  params.path_length = 10;
  auto got = DetectTrend(db.get(), start, params);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(got->num_observations, 10u);
  EXPECT_GT(got->slope, 0.5);
  EXPECT_GT(got->r_squared, 0.3);
}

TEST(TrendTest, NoTrendInIndependentAttribute) {
  Dataset dataset = MakeUniformDataset(600, 5, 749);
  auto db = OpenDb(std::move(dataset));
  TrendParams params;
  params.attribute_dim = 4;
  // Distances are driven by all dims incl. 4; use small neighborhoods so
  // the correlation stays weak.
  auto got = DetectTrend(db.get(), 0, params);
  ASSERT_TRUE(got.ok());
  EXPECT_LT(got->r_squared, 0.5);
}

TEST(TrendTest, SingleAndMultipleModesAgree) {
  Dataset dataset = MakeUniformDataset(500, 4, 751);
  TrendParams params;
  params.attribute_dim = 1;
  params.seed = 7;
  params.use_multiple = false;
  auto db_single = OpenDb(dataset);
  auto single = DetectTrend(db_single.get(), 3, params);
  ASSERT_TRUE(single.ok());
  params.use_multiple = true;
  auto db_multi = OpenDb(dataset);
  auto multi = DetectTrend(db_multi.get(), 3, params);
  ASSERT_TRUE(multi.ok());
  EXPECT_DOUBLE_EQ(single->slope, multi->slope);
  EXPECT_EQ(single->num_observations, multi->num_observations);
}

TEST(TrendTest, RejectsBadArguments) {
  Dataset dataset = MakeUniformDataset(100, 3, 753);
  auto db = OpenDb(std::move(dataset));
  TrendParams params;
  params.attribute_dim = 99;
  EXPECT_TRUE(DetectTrend(db.get(), 0, params).status().IsInvalidArgument());
  params.attribute_dim = 0;
  EXPECT_TRUE(
      DetectTrend(db.get(), 999999, params).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Association rules
// ---------------------------------------------------------------------

TEST(AssociationTest, FindsPlantedRule) {
  // Type 1 objects are planted right next to type 0 objects; type 2 is far
  // away. Rule "0 close to 1" must emerge with high confidence.
  Dataset ds;
  Rng rng(755);
  for (int i = 0; i < 150; ++i) {
    Vec a{static_cast<Scalar>(rng.NextDouble(0.0, 0.2)),
          static_cast<Scalar>(rng.NextDouble(0.0, 0.2))};
    Vec b = a;
    b[0] += 0.01f;
    ASSERT_TRUE(ds.Append(std::move(a), 0).ok());
    ASSERT_TRUE(ds.Append(std::move(b), 1).ok());
    ASSERT_TRUE(ds.Append({static_cast<Scalar>(rng.NextDouble(5.0, 6.0)),
                           static_cast<Scalar>(rng.NextDouble(5.0, 6.0))},
                          2)
                    .ok());
  }
  auto db = OpenDb(std::move(ds));
  AssociationParams params;
  params.eps = 0.05;
  params.min_confidence = 0.8;
  params.min_support = 0.05;
  auto got = MineNeighborhoodRules(db.get(), params);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  bool found = false;
  for (const AssociationRule& rule : *got) {
    if (rule.antecedent_label == 0 && rule.consequent_label == 1) {
      found = true;
      EXPECT_GE(rule.confidence, 0.8);
    }
    // Type 2 must never be close to 0 or 1.
    EXPECT_FALSE(rule.antecedent_label == 2 && rule.consequent_label != 2);
  }
  EXPECT_TRUE(found);
}

TEST(AssociationTest, SingleAndMultipleModesAgree) {
  Dataset dataset = MakeGaussianClustersDataset(400, 3, 4, 0.05, 757);
  AssociationParams params;
  params.eps = 0.1;
  params.min_confidence = 0.1;
  params.min_support = 0.01;
  params.use_multiple = false;
  auto db_single = OpenDb(dataset);
  auto single = MineNeighborhoodRules(db_single.get(), params);
  ASSERT_TRUE(single.ok());
  params.use_multiple = true;
  auto db_multi = OpenDb(dataset);
  auto multi = MineNeighborhoodRules(db_multi.get(), params);
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(single->size(), multi->size());
  for (size_t i = 0; i < single->size(); ++i) {
    EXPECT_EQ((*single)[i].antecedent_label, (*multi)[i].antecedent_label);
    EXPECT_EQ((*single)[i].consequent_label, (*multi)[i].consequent_label);
    EXPECT_DOUBLE_EQ((*single)[i].confidence, (*multi)[i].confidence);
  }
}

TEST(AssociationTest, RequiresLabels) {
  Dataset dataset = MakeUniformDataset(100, 3, 759);
  auto db = OpenDb(std::move(dataset));
  AssociationParams params;
  EXPECT_TRUE(
      MineNeighborhoodRules(db.get(), params).status().IsInvalidArgument());
}

}  // namespace
}  // namespace msq
