#include "mining/optics.h"

#include <algorithm>
#include <map>
#include <set>

#include "mining/explore.h"

namespace msq {

namespace {

/// Seed list: objects pending processing, ordered by current reachability
/// (ties by id for determinism), with decrease-key support.
class SeedList {
 public:
  bool empty() const { return by_reach_.empty(); }
  size_t size() const { return by_reach_.size(); }

  /// Inserts or improves the reachability of `id`.
  void Update(ObjectId id, double reachability) {
    auto it = current_.find(id);
    if (it != current_.end()) {
      if (reachability >= it->second) return;
      by_reach_.erase({it->second, id});
      it->second = reachability;
    } else {
      current_[id] = reachability;
    }
    by_reach_.insert({reachability, id});
  }

  /// Pops the object with the smallest reachability.
  std::pair<ObjectId, double> PopMin() {
    const auto [reach, id] = *by_reach_.begin();
    by_reach_.erase(by_reach_.begin());
    current_.erase(id);
    return {id, reach};
  }

  /// Up to `count` pending object ids in reachability order (for
  /// multiple-query prefetching).
  std::vector<ObjectId> Peek(size_t count) const {
    std::vector<ObjectId> out;
    for (const auto& [reach, id] : by_reach_) {
      if (out.size() >= count) break;
      out.push_back(id);
    }
    return out;
  }

 private:
  std::set<std::pair<double, ObjectId>> by_reach_;
  std::map<ObjectId, double> current_;
};

}  // namespace

StatusOr<OpticsResult> RunOptics(MetricDatabase* db,
                                 const OpticsParams& params) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (params.eps <= 0.0) {
    return Status::InvalidArgument("eps must be positive");
  }
  if (params.min_pts == 0 || params.batch_size == 0) {
    return Status::InvalidArgument("min_pts and batch_size must be positive");
  }
  const size_t n = db->dataset().size();
  const size_t effective_batch =
      std::min(params.batch_size, db->engine().options().max_batch_size);

  OpticsResult result;
  result.ordering.reserve(n);
  result.reachability.reserve(n);
  result.core_distance.reserve(n);
  std::vector<uint8_t> processed(n, 0);
  SeedList seeds;

  // The Eps-neighborhood of `id`, with the seed list's front prefetched in
  // the same multiple similarity query (the ExploreNeighborhoodsMultiple
  // pattern with a priority-ordered choose_multiple()).
  auto neighborhood = [&](ObjectId id, ObjectId next_unprocessed) {
    std::vector<ObjectId> window{id};
    std::set<ObjectId> in_window{id};
    for (ObjectId s : seeds.Peek(effective_batch - 1)) {
      if (window.size() >= effective_batch) break;
      if (in_window.insert(s).second) window.push_back(s);
    }
    // With a short seed list, prefetch upcoming fresh start objects.
    for (ObjectId fresh = next_unprocessed;
         window.size() < effective_batch && fresh < n; ++fresh) {
      if (!processed[fresh] && in_window.insert(fresh).second) {
        window.push_back(fresh);
      }
    }
    return AnswerFirst(db, window, QueryType::Range(params.eps),
                       params.use_multiple);
  };

  auto process = [&](ObjectId id, double reachability,
                     ObjectId next_unprocessed) -> Status {
    auto answers = neighborhood(id, next_unprocessed);
    if (!answers.ok()) return answers.status();
    processed[id] = 1;
    const double core =
        answers->size() >= params.min_pts
            ? (*answers)[params.min_pts - 1].distance
            : kOpticsUndefined;
    result.ordering.push_back(id);
    result.reachability.push_back(reachability);
    result.core_distance.push_back(core);
    if (core == kOpticsUndefined) return Status::OK();
    for (const Neighbor& nb : *answers) {
      if (processed[nb.id]) continue;
      seeds.Update(nb.id, std::max(core, nb.distance));
    }
    return Status::OK();
  };

  for (ObjectId start = 0; start < n; ++start) {
    if (processed[start]) continue;
    MSQ_RETURN_IF_ERROR(process(start, kOpticsUndefined, start + 1));
    while (!seeds.empty()) {
      const auto [id, reach] = seeds.PopMin();
      MSQ_RETURN_IF_ERROR(process(id, reach, start + 1));
    }
  }
  return result;
}

std::vector<int32_t> OpticsResult::ExtractClustering(double eps_prime) const {
  std::vector<int32_t> cluster_of;
  // Determine the object id range from the ordering.
  ObjectId max_id = 0;
  for (ObjectId id : ordering) max_id = std::max(max_id, id);
  cluster_of.assign(static_cast<size_t>(max_id) + 1, -1);
  int32_t cluster = -1;
  for (size_t i = 0; i < ordering.size(); ++i) {
    if (reachability[i] > eps_prime) {
      if (core_distance[i] <= eps_prime) {
        ++cluster;
        cluster_of[ordering[i]] = cluster;
      }  // else noise: stays -1
    } else if (cluster >= 0) {
      cluster_of[ordering[i]] = cluster;
    }
  }
  return cluster_of;
}

}  // namespace msq
