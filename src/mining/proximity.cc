#include "mining/proximity.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "mining/explore.h"

namespace msq {

StatusOr<ProximityResult> AnalyzeProximity(
    MetricDatabase* db, const std::vector<ObjectId>& cluster,
    const ProximityParams& params) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (cluster.empty()) {
    return Status::InvalidArgument("cluster is empty");
  }
  if (params.top_k == 0 || params.per_member_k == 0) {
    return Status::InvalidArgument("top_k and per_member_k must be positive");
  }
  std::unordered_set<ObjectId> members(cluster.begin(), cluster.end());

  // One kNN query per cluster member; fetch per_member_k + |cluster| so
  // that non-member neighbors survive even when the whole cluster is
  // closer. dist-to-cluster(o) = min over members of dist(o, member).
  std::unordered_map<ObjectId, double> dist_to_cluster;
  MSQ_RETURN_IF_ERROR(ForEachNeighborhood(
      db, cluster, QueryType::Knn(params.per_member_k + cluster.size()),
      params.batch_size, params.use_multiple,
      [&](size_t, const AnswerSet& answers) {
        for (const Neighbor& nb : answers) {
          if (members.count(nb.id)) continue;
          auto [it, inserted] = dist_to_cluster.emplace(nb.id, nb.distance);
          if (!inserted && nb.distance < it->second) it->second = nb.distance;
        }
      }));

  ProximityResult result;
  result.top_objects.reserve(dist_to_cluster.size());
  for (const auto& [id, d] : dist_to_cluster) {
    result.top_objects.push_back({id, d});
  }
  std::sort(result.top_objects.begin(), result.top_objects.end());
  if (result.top_objects.size() > params.top_k) {
    result.top_objects.resize(params.top_k);
  }

  // Feature summary of the top objects.
  const Dataset& ds = db->dataset();
  result.mean_features.assign(ds.dim(), 0.0f);
  std::map<int32_t, size_t> label_counts;
  for (const Neighbor& nb : result.top_objects) {
    const Vec& v = ds.object(nb.id);
    for (size_t d = 0; d < ds.dim(); ++d) result.mean_features[d] += v[d];
    if (ds.has_labels() && ds.label(nb.id) != kNoLabel) {
      ++label_counts[ds.label(nb.id)];
    }
  }
  if (!result.top_objects.empty()) {
    for (auto& x : result.mean_features) {
      x = static_cast<Scalar>(x / static_cast<double>(
                                      result.top_objects.size()));
    }
  }
  for (const auto& [label, count] : label_counts) {
    result.common_labels.emplace_back(label, count);
  }
  std::sort(result.common_labels.begin(), result.common_labels.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return result;
}

}  // namespace msq
