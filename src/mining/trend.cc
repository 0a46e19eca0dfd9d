#include "mining/trend.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "dist/counting_metric.h"
#include "mining/explore.h"

namespace msq {

namespace {

// Answers for the objects of `objects` not in `out` yet, each asked once.
Status QueryBatch(MetricDatabase* db, const std::vector<ObjectId>& objects,
                  const TrendParams& params,
                  std::unordered_map<ObjectId, AnswerSet>* out) {
  std::vector<ObjectId> unique_ids;
  for (ObjectId id : objects) {
    if (!out->count(id) &&
        std::find(unique_ids.begin(), unique_ids.end(), id) ==
            unique_ids.end()) {
      unique_ids.push_back(id);
    }
  }
  return ForEachNeighborhood(
      db, unique_ids, QueryType::Knn(params.k), params.batch_size,
      params.use_multiple,
      [&](size_t i, const AnswerSet& answers) {
        (*out)[unique_ids[i]] = answers;
      });
}

}  // namespace

StatusOr<TrendResult> DetectTrend(MetricDatabase* db, ObjectId start,
                                  const TrendParams& params) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  const Dataset& ds = db->dataset();
  if (start >= ds.size()) {
    return Status::InvalidArgument("start object out of range");
  }
  if (params.attribute_dim >= ds.dim()) {
    return Status::InvalidArgument("attribute_dim out of range");
  }
  if (params.num_paths == 0 || params.path_length == 0 || params.k == 0) {
    return Status::InvalidArgument("num_paths/path_length/k must be positive");
  }

  Rng rng(params.seed);
  CountingMetric metric(db->metric_ptr());

  // Grow num_paths paths in lockstep; each step's frontier is one batch of
  // kNN queries (the dependent-query pattern of the scheme).
  std::vector<std::vector<ObjectId>> paths(params.num_paths,
                                           std::vector<ObjectId>{start});
  std::unordered_set<ObjectId> on_some_path{start};

  // Observations: (distance from start, attribute value).
  std::vector<std::pair<double, double>> observations;
  const Vec& start_vec = ds.object(start);
  observations.emplace_back(
      0.0, static_cast<double>(start_vec[params.attribute_dim]));

  std::unordered_map<ObjectId, AnswerSet> answer_cache;
  for (size_t step = 0; step < params.path_length; ++step) {
    std::vector<ObjectId> frontier;
    for (const auto& path : paths) {
      if (path.size() == step + 1) frontier.push_back(path.back());
    }
    if (frontier.empty()) break;
    MSQ_RETURN_IF_ERROR(QueryBatch(db, frontier, params, &answer_cache));
    for (auto& path : paths) {
      if (path.size() != step + 1) continue;
      const AnswerSet& answers = answer_cache[path.back()];
      // Extend to a random neighbor that is farther from the start than
      // the current tip and not on any path yet ("moving away").
      const double cur_dist = metric.DistanceUncounted(
          start_vec, ds.object(path.back()));
      std::vector<ObjectId> candidates;
      for (const Neighbor& nb : answers) {
        if (on_some_path.count(nb.id)) continue;
        if (metric.DistanceUncounted(start_vec, ds.object(nb.id)) <=
            cur_dist) {
          continue;
        }
        candidates.push_back(nb.id);
      }
      if (candidates.empty()) continue;  // path ends here
      const ObjectId next = candidates[rng.NextIndex(candidates.size())];
      path.push_back(next);
      on_some_path.insert(next);
      observations.emplace_back(
          metric.DistanceUncounted(start_vec, ds.object(next)),
          static_cast<double>(ds.object(next)[params.attribute_dim]));
    }
  }

  // Least-squares regression attribute ~ distance.
  TrendResult result;
  result.num_observations = observations.size();
  if (observations.size() < 2) return result;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  const double n = static_cast<double>(observations.size());
  for (const auto& [x, y] : observations) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    syy += y * y;
  }
  const double var_x = sxx - sx * sx / n;
  const double var_y = syy - sy * sy / n;
  const double cov = sxy - sx * sy / n;
  if (var_x <= 0.0) return result;
  result.slope = cov / var_x;
  result.intercept = (sy - result.slope * sx) / n;
  result.r_squared = var_y > 0.0 ? (cov * cov) / (var_x * var_y) : 1.0;
  return result;
}

}  // namespace msq
