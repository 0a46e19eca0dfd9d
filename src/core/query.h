// Similarity-query model (Definitions 1-3 of the paper).
//
// A query type T has three components — T.range, T.cardinality, T.kind —
// whose specializations yield range queries (range = eps, cardinality = inf),
// k-nearest-neighbor queries (range = inf, cardinality = k), and the
// combined "k nearest within a range" type the paper mentions.

#ifndef MSQ_CORE_QUERY_H_
#define MSQ_CORE_QUERY_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dist/vector.h"

namespace msq {

/// Identifies a query across calls: the answer buffer of the multiple-query
/// engine keys partial answers by QueryId, so re-submitting the same id
/// (same point and type) picks up buffered work. Object queries
/// (MetricDatabase::MakeObjectQuery) use the queried object's id.
using QueryId = uint64_t;

/// T.kind of Definition 1.
enum class QueryKind : uint8_t {
  kRange,
  kNearestNeighbor,
  kBoundedNearestNeighbor,
};

/// Unbounded values for T.range / T.cardinality.
inline constexpr double kUnboundedRange =
    std::numeric_limits<double>::infinity();
inline constexpr size_t kUnboundedCardinality =
    std::numeric_limits<size_t>::max();

/// The type T of a similarity query (Definition 1).
struct QueryType {
  QueryKind kind = QueryKind::kRange;
  /// Maximum distance between the query object and an answer.
  double range = kUnboundedRange;
  /// Maximum cardinality of the answer set.
  size_t cardinality = kUnboundedCardinality;

  /// Range query (Definition 2).
  static QueryType Range(double eps) {
    return QueryType{QueryKind::kRange, eps, kUnboundedCardinality};
  }
  /// k-nearest-neighbor query (Definition 3).
  static QueryType Knn(size_t k) {
    return QueryType{QueryKind::kNearestNeighbor, kUnboundedRange, k};
  }
  /// k nearest neighbors within a range (the combined type of Sec. 2).
  static QueryType BoundedKnn(size_t k, double eps) {
    return QueryType{QueryKind::kBoundedNearestNeighbor, eps, k};
  }

  /// True when the query distance can shrink while answers accumulate
  /// (i.e. the type carries a cardinality bound).
  bool Adaptive() const { return kind != QueryKind::kRange; }

  std::string ToString() const;
};

/// Absolute deadline value meaning "no deadline".
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// A similarity query: an identifier, a query object, and a type.
struct Query {
  QueryId id = 0;
  Vec point;
  QueryType type;
  /// Absolute deadline for answering this query. The multiple-query engine
  /// checks it at page granularity while the query is the window's primary;
  /// on expiry the call returns DeadlineExceeded together with the buffered
  /// partial answers (Def. 4's incremental semantics make the partial state
  /// well-defined). Not part of the query's *definition* — two submissions
  /// differing only in deadline still coalesce / share buffered state.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;

  bool HasDeadline() const { return deadline != kNoDeadline; }
};

/// True when `a` and `b` define the same query: equal point and type. Ids
/// name definitions and deadlines are not part of one, so neither is
/// compared. Two submissions may share buffered state only when this holds.
inline bool SameDefinition(const Query& a, const Query& b) {
  return a.point == b.point && a.type.kind == b.type.kind &&
         a.type.range == b.type.range &&
         a.type.cardinality == b.type.cardinality;
}

/// One answer: a database object and its distance to the query object.
struct Neighbor {
  ObjectId id = kInvalidObjectId;
  double distance = 0.0;

  /// Total order by (distance, id). The id tie-break makes kNN answer sets
  /// unique, so results are comparable across backends and engines.
  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.distance == b.distance;
  }
};

/// Answers in ascending (distance, id) order.
using AnswerSet = std::vector<Neighbor>;

}  // namespace msq

#endif  // MSQ_CORE_QUERY_H_
