#include "mining/knn_graph.h"

#include <algorithm>
#include <numeric>

#include "mining/explore.h"

namespace msq {

namespace {

// kNN answers (self excluded) for every database object.
Status AllKnn(MetricDatabase* db, const KnnGraphParams& params,
              std::vector<AnswerSet>* out) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (params.k == 0) return Status::InvalidArgument("k must be positive");
  std::vector<ObjectId> all(db->dataset().size());
  std::iota(all.begin(), all.end(), ObjectId{0});
  out->assign(all.size(), AnswerSet{});
  // k+1 so that dropping the object itself leaves k neighbors.
  return ForEachNeighborhood(
      db, all, QueryType::Knn(params.k + 1), params.batch_size,
      params.use_multiple, [&](size_t i, const AnswerSet& answers) {
        AnswerSet& filtered = (*out)[i];
        filtered.reserve(params.k);
        for (const Neighbor& nb : answers) {
          if (nb.id != i && filtered.size() < params.k) filtered.push_back(nb);
        }
      });
}

}  // namespace

double KnnGraph::MutualEdgeFraction() const {
  size_t edges = 0, mutual = 0;
  for (ObjectId a = 0; a < neighbors.size(); ++a) {
    for (const Neighbor& nb : neighbors[a]) {
      ++edges;
      const AnswerSet& back = neighbors[nb.id];
      for (const Neighbor& rev : back) {
        if (rev.id == a) {
          ++mutual;
          break;
        }
      }
    }
  }
  return edges == 0 ? 0.0
                    : static_cast<double>(mutual) /
                          static_cast<double>(edges);
}

StatusOr<KnnGraph> BuildKnnGraph(MetricDatabase* db,
                                 const KnnGraphParams& params) {
  KnnGraph graph;
  MSQ_RETURN_IF_ERROR(AllKnn(db, params, &graph.neighbors));
  return graph;
}

StatusOr<std::vector<double>> KDistanceList(MetricDatabase* db,
                                            const KnnGraphParams& params) {
  std::vector<AnswerSet> neighbors;
  MSQ_RETURN_IF_ERROR(AllKnn(db, params, &neighbors));
  std::vector<double> k_dist;
  k_dist.reserve(neighbors.size());
  for (const AnswerSet& a : neighbors) {
    k_dist.push_back(a.empty() ? 0.0 : a.back().distance);
  }
  std::sort(k_dist.begin(), k_dist.end(), std::greater<double>());
  return k_dist;
}

}  // namespace msq
