#include "mining/explore.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace msq {

namespace {

// The queries of one multiple-form window, after erasing every buffered
// state that shares an id with one of them but defines another query.
std::vector<Query> MultipleWindow(MetricDatabase* db,
                                  const std::vector<ObjectId>& window,
                                  const QueryType& type) {
  AnswerBuffer& buffer = db->engine().buffer();
  std::vector<Query> queries;
  queries.reserve(window.size());
  for (ObjectId id : window) {
    queries.push_back(db->MakeObjectQuery(id, type));
    const BufferedQueryState* state = buffer.Find(queries.back().id);
    if (state != nullptr && !SameDefinition(state->query, queries.back())) {
      buffer.Erase(queries.back().id);
    }
  }
  return queries;
}

}  // namespace

Status ForEachNeighborhood(MetricDatabase* db,
                           const std::vector<ObjectId>& objects,
                           const QueryType& type, size_t m, bool use_multiple,
                           const NeighborhoodVisitor& visit) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (m == 0) return Status::InvalidArgument("batch_size must be positive");
  if (!use_multiple) {
    for (size_t i = 0; i < objects.size(); ++i) {
      auto got = db->SimilarityQuery(db->MakeObjectQuery(objects[i], type));
      if (!got.ok()) return got.status();
      visit(i, *got);
    }
    return Status::OK();
  }
  // At least 1, so that a zero max_batch_size fails in the engine instead
  // of looping here.
  const size_t width =
      std::min(m, std::max<size_t>(db->engine().options().max_batch_size, 1));
  std::vector<ObjectId> unique;
  std::unordered_map<ObjectId, size_t> slot;
  for (size_t first = 0; first < objects.size(); first += width) {
    const size_t end = std::min(objects.size(), first + width);
    unique.clear();
    slot.clear();
    for (size_t i = first; i < end; ++i) {
      if (slot.emplace(objects[i], unique.size()).second) {
        unique.push_back(objects[i]);
      }
    }
    auto got =
        db->MultipleSimilarityQueryAll(MultipleWindow(db, unique, type));
    if (!got.ok()) return got.status();
    for (size_t i = first; i < end; ++i) visit(i, (*got)[slot[objects[i]]]);
  }
  return Status::OK();
}

StatusOr<AnswerSet> AnswerFirst(MetricDatabase* db,
                                const std::vector<ObjectId>& window,
                                const QueryType& type, bool use_multiple) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (window.empty()) return Status::InvalidArgument("window is empty");
  if (!use_multiple) {
    return db->SimilarityQuery(db->MakeObjectQuery(window.front(), type));
  }
  auto got = db->MultipleSimilarityQuery(MultipleWindow(db, window, type));
  if (!got.ok()) return got.status();
  return std::move(got->answers.front());
}

StatusOr<size_t> ExploreNeighborhoods(
    MetricDatabase* db, const std::vector<ObjectId>& start_objects,
    const ExploreOptions& options, const ExploreCallbacks& callbacks) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (options.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }

  std::deque<ObjectId> control_list;
  std::unordered_set<ObjectId> ever_enqueued;
  for (ObjectId id : start_objects) {
    if (id >= db->dataset().size()) {
      return Status::InvalidArgument("start object out of range");
    }
    if (ever_enqueued.insert(id).second) control_list.push_back(id);
  }

  size_t processed = 0;
  const size_t effective_batch =
      std::min(options.batch_size, db->engine().options().max_batch_size);
  while (!control_list.empty() &&
         (!callbacks.condition_check || callbacks.condition_check(control_list))) {
    const ObjectId object = control_list.front();
    if (callbacks.proc1) callbacks.proc1(object);

    // choose_multiple(): the window of the next m control-list objects.
    const std::vector<ObjectId> window(
        control_list.begin(),
        control_list.begin() + std::min(effective_batch, control_list.size()));
    auto answers =
        AnswerFirst(db, window, options.query_type, options.use_multiple);
    if (!answers.ok()) return answers.status();

    if (callbacks.proc2) callbacks.proc2(object, *answers);
    if (callbacks.filter) {
      for (ObjectId id : callbacks.filter(object, *answers)) {
        if (id < db->dataset().size() && ever_enqueued.insert(id).second) {
          control_list.push_back(id);
        }
      }
    }
    control_list.pop_front();
    ++processed;
  }
  return processed;
}

}  // namespace msq
