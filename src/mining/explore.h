// The generic data-mining schemes of Sec. 3:
//   ExploreNeighborhoods          (Figure 2) — single similarity queries
//   ExploreNeighborhoodsMultiple  (Figure 3) — multiple similarity queries
//
// Figure 3 differs from Figure 2 *only* in selecting a window of objects
// and issuing one multiple similarity query for it — the purely syntactic
// transformation the paper describes. That transformation is written once,
// in the two functions every mining instance reaches the database through:
//   ForEachNeighborhood — a fixed list of query objects (classification,
//                         association rules, the join, the kNN graph, ...);
//   AnswerFirst         — one step over a control list (ExploreNeighborhoods
//                         and so DBSCAN, and OPTICS' seed list).
// Each takes `use_multiple` and issues either single similarity queries or
// multiple similarity queries; nothing else differs. The two forms
// therefore produce identical results, which the tests assert for every
// mining instance.

#ifndef MSQ_MINING_EXPLORE_H_
#define MSQ_MINING_EXPLORE_H_

#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace msq {

/// Receives the complete answers of the `index`-th input object.
using NeighborhoodVisitor =
    std::function<void(size_t index, const AnswerSet& answers)>;

/// Answers the `type` query of every object in `objects` and hands each
/// object's complete answers to `visit`, in input order. The objects go
/// out in consecutive windows of m (clamped to the engine's
/// max_batch_size), and a window is visited completely before the next is
/// issued. A window is one multiple similarity query completed for all
/// its objects, with a repeated object asked once (use_multiple, even for
/// m = 1), or one similarity query per object (Figure 1). InvalidArgument
/// when m is 0.
///
/// Object queries use the object id as query id whatever their type, so an
/// earlier run may have left a buffered answer state under the same id for
/// another type. Such a state can never serve this query; before each
/// window it is erased, as LRU eviction would, and so runs with different
/// types can follow each other on one database.
Status ForEachNeighborhood(MetricDatabase* db,
                           const std::vector<ObjectId>& objects,
                           const QueryType& type, size_t m, bool use_multiple,
                           const NeighborhoodVisitor& visit);

/// The complete `type` answers of window[0]: one multiple similarity query
/// for the whole window, which prefetches the rest into the engine's answer
/// buffer (use_multiple, the choose_multiple() step of Figure 3), or the
/// similarity query of window[0] alone. The window's objects must be
/// distinct and at most max_batch_size many. Erases conflicting buffered
/// states as ForEachNeighborhood does.
StatusOr<AnswerSet> AnswerFirst(MetricDatabase* db,
                                const std::vector<ObjectId>& window,
                                const QueryType& type, bool use_multiple);

/// Task-specific hooks of the ExploreNeighborhoods scheme. Defaults: run
/// until the control list is empty, no per-object processing, enqueue
/// nothing new.
struct ExploreCallbacks {
  /// condition_check(ControlList, ...): keep iterating while true.
  std::function<bool(const std::deque<ObjectId>&)> condition_check;
  /// proc_1(Object, ...): invoked before the object's similarity query.
  std::function<void(ObjectId)> proc1;
  /// proc_2(Answers, ...): invoked with the object's complete answers.
  std::function<void(ObjectId, const AnswerSet&)> proc2;
  /// filter(Answers, ...): objects to append to the control list. The
  /// engine additionally drops anything that was ever enqueued, which the
  /// paper requires ("at least those objects which have already been in
  /// the ControlList") to guarantee termination.
  std::function<std::vector<ObjectId>(ObjectId, const AnswerSet&)> filter;
};

struct ExploreOptions {
  /// SimType: the similarity-query type used for every neighborhood.
  QueryType query_type = QueryType::Knn(10);
  /// Window width m of choose_multiple() in the multiple form.
  size_t batch_size = 32;
  /// false runs the original single-query scheme of Figure 2.
  bool use_multiple = true;
};

/// Runs the scheme starting from `start_objects`. Returns the number of
/// objects whose neighborhood was processed.
StatusOr<size_t> ExploreNeighborhoods(MetricDatabase* db,
                                      const std::vector<ObjectId>& start_objects,
                                      const ExploreOptions& options,
                                      const ExploreCallbacks& callbacks);

}  // namespace msq

#endif  // MSQ_MINING_EXPLORE_H_
