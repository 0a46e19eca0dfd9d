#include "mining/similarity_join.h"

#include <algorithm>
#include <numeric>

#include "mining/explore.h"

namespace msq {

StatusOr<std::vector<JoinPair>> SimilaritySelfJoin(
    MetricDatabase* db, const SimilarityJoinParams& params) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (params.eps <= 0.0) {
    return Status::InvalidArgument("eps must be positive");
  }
  std::vector<ObjectId> all(db->dataset().size());
  std::iota(all.begin(), all.end(), ObjectId{0});
  std::vector<JoinPair> pairs;
  MSQ_RETURN_IF_ERROR(ForEachNeighborhood(
      db, all, QueryType::Range(params.eps), params.batch_size,
      params.use_multiple, [&](size_t i, const AnswerSet& answers) {
        const ObjectId self = static_cast<ObjectId>(i);
        for (const Neighbor& nb : answers) {
          // Emit each unordered pair once, from its smaller endpoint.
          if (nb.id > self) pairs.push_back({self, nb.id, nb.distance});
        }
      }));
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace msq
