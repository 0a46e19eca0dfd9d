#include "mining/exploration_sim.h"

#include <unordered_map>

#include "common/rng.h"
#include "mining/explore.h"

namespace msq {

namespace {

// Answers per query object of one round. Different users may hold the same
// answer object: each distinct object is asked once and its answers fanned
// back out.
Status RunRound(MetricDatabase* db, const std::vector<ObjectId>& query_objects,
                size_t k, bool use_multiple, std::vector<AnswerSet>* answers) {
  std::vector<ObjectId> unique_ids;
  std::unordered_map<ObjectId, size_t> index_of;
  for (ObjectId id : query_objects) {
    if (index_of.emplace(id, unique_ids.size()).second) {
      unique_ids.push_back(id);
    }
  }
  std::vector<AnswerSet> unique_answers(unique_ids.size());
  // The simulation has no batch-size knob: a round goes out in windows as
  // wide as the engine takes.
  MSQ_RETURN_IF_ERROR(ForEachNeighborhood(
      db, unique_ids, QueryType::Knn(k),
      db->engine().options().max_batch_size, use_multiple,
      [&](size_t i, const AnswerSet& got) { unique_answers[i] = got; }));
  answers->clear();
  answers->reserve(query_objects.size());
  for (ObjectId id : query_objects) {
    answers->push_back(unique_answers[index_of[id]]);
  }
  return Status::OK();
}

}  // namespace

StatusOr<ExplorationSimResult> RunExplorationSim(
    MetricDatabase* db, const ExplorationSimParams& params) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (params.num_users == 0 || params.k == 0) {
    return Status::InvalidArgument("num_users and k must be positive");
  }
  const size_t n = db->dataset().size();
  Rng rng(params.seed);

  ExplorationSimResult result;
  // Round 0: one random start object per user.
  std::vector<ObjectId> positions(params.num_users);
  for (auto& p : positions) p = static_cast<ObjectId>(rng.NextIndex(n));
  std::vector<ObjectId> round_queries = positions;

  // Current answer set per user: the k answers their position query got.
  std::vector<std::vector<ObjectId>> user_answers(params.num_users);

  std::vector<AnswerSet> answers;
  for (size_t round = 0; round <= params.num_rounds; ++round) {
    MSQ_RETURN_IF_ERROR(RunRound(db, round_queries, params.k,
                                 params.use_multiple, &answers));
    result.query_stream.insert(result.query_stream.end(),
                               round_queries.begin(), round_queries.end());

    if (round == 0) {
      for (size_t u = 0; u < params.num_users; ++u) {
        user_answers[u].clear();
        for (const Neighbor& nb : answers[u]) {
          user_answers[u].push_back(nb.id);
        }
      }
    } else {
      // round_queries was the concatenation of all users' current answers;
      // map each user's picked object to its prefetched answers.
      size_t offset = 0;
      for (size_t u = 0; u < params.num_users; ++u) {
        const size_t count = user_answers[u].size();
        if (count == 0) continue;
        const size_t pick = rng.NextIndex(count);
        positions[u] = user_answers[u][pick];
        user_answers[u].clear();
        for (const Neighbor& nb : answers[offset + pick]) {
          user_answers[u].push_back(nb.id);
        }
        offset += count;
      }
    }
    if (round == params.num_rounds) break;
    // Next round prefetches the neighborhoods of *all* current answers.
    round_queries.clear();
    for (const auto& ua : user_answers) {
      round_queries.insert(round_queries.end(), ua.begin(), ua.end());
    }
    if (round_queries.empty()) break;
  }
  result.queries_issued = result.query_stream.size();
  result.final_positions = positions;
  return result;
}

StatusOr<std::vector<ObjectId>> GenerateExplorationQueryStream(
    MetricDatabase* db, const ExplorationSimParams& params) {
  ExplorationSimParams multiple = params;
  multiple.use_multiple = true;
  auto run = RunExplorationSim(db, multiple);
  if (!run.ok()) return run.status();
  return std::move(run->query_stream);
}

}  // namespace msq
