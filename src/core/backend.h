// QueryBackend: the storage/index abstraction both query engines run on.
//
// Figure 1 (single query) and Figure 4 (multiple query) are implemented
// once, in core/, against this interface; the linear scan, the VA-file, the
// X-tree and the M-tree each provide their own page ordering and page-level
// distance lower bounds. This mirrors the paper's claim that the proposed
// techniques "apply to any type of similarity query and to an
// implementation based on an index or using a sequential scan".

#ifndef MSQ_CORE_BACKEND_H_
#define MSQ_CORE_BACKEND_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "common/stats.h"
#include "common/status.h"
#include "core/query.h"
#include "storage/data_layout.h"
#include "storage/page.h"

namespace msq {

namespace obs {
class MetricsSink;
}  // namespace obs

class PivotTable;

/// One candidate data page with a lower bound on the distance from the
/// primary query object to any object stored on it.
struct PageCandidate {
  PageId page = kInvalidPageId;
  double min_dist = 0.0;
};

/// Lazy stream of candidate data pages for one primary query, in the order
/// they should be processed: address order for the scan (maximizing
/// sequential I/O), ascending MINDIST for trees (the Hjaltason-Samet
/// ordering of [13], proven I/O-optimal for kNN in [3]).
///
/// This realizes `determine_relevant_data_pages` + `prune_pages` of
/// Figure 1: Next() is called with the *current* query distance, so pages
/// whose lower bound exceeds an adapted (shrunken) kNN radius are pruned
/// without being read.
class CandidateStream {
 public:
  virtual ~CandidateStream() = default;

  /// Advances to the next candidate page with min_dist <= query_dist.
  /// Returns false when no such page remains.
  virtual bool Next(double query_dist, PageCandidate* out) = 0;
};

/// A database organization that can answer similarity queries page-wise.
///
/// Object vectors are accessible in memory (`ObjectVec`); data pages are
/// read through one call, ReadPageBlockChecked, which charges the access
/// to the simulated (or, with a page store attached, real) storage.
/// Directory structures of tree backends are assumed memory-resident
/// (their upper levels are buffer-resident in any realistic deployment);
/// I/O accounting covers data pages, the dominant term. No call on the
/// read side rebuilds a backend's page layout.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// Short identifier, e.g. "linear_scan", "xtree".
  virtual std::string Name() const = 0;

  /// Opens the candidate-page stream for a primary query. Tree backends
  /// charge directory-side distance computations (M-tree routing objects)
  /// to `stats`, which must outlive the stream.
  virtual std::unique_ptr<CandidateStream> OpenStream(const Query& query,
                                                      QueryStats* stats) = 0;

  /// Lower bound on dist(point-of-q, O) over objects O stored on `page`.
  /// Used by the multiple-query engine to decide whether a page loaded for
  /// the primary query is also relevant for query q (Sec. 5.1). The M-tree
  /// charges one distance computation (to the leaf's routing object).
  virtual double PageMinDist(PageId page, const Query& q,
                             QueryStats* stats) = 0;

  /// The one page read, used by both engines: a contiguous PageBlock view
  /// of `page`'s object ids and vectors. Charges the page access (buffer
  /// pool, then sequential/random disk read) to `stats`. Fallible:
  /// fault-injecting decorators (robust/) and page-store reads surface
  /// IOError. The view is valid until the next call on this backend.
  virtual Status ReadPageBlockChecked(PageId page, QueryStats* stats,
                                      PageBlock* out) = 0;

  virtual size_t NumDataPages() const = 0;
  virtual size_t NumObjects() const = 0;

  /// The object's feature vector.
  virtual const Vec& ObjectVec(ObjectId id) const = 0;

  /// Clears buffer-pool content and the simulated disk head position so
  /// experiments start from a cold, reproducible state.
  virtual void ResetIoState() = 0;

  /// Charges one failed page-read attempt to the backend's disk model (the
  /// seek happened, no data arrived, head position unknown afterwards).
  /// Called by the fault-injection decorator; default no-op for backends
  /// (and test fakes) without metered storage.
  virtual void NoteFailedRead(QueryStats* /*stats*/) {}

  /// Attaches an observability sink to the backend's storage side (buffer
  /// pool hit/miss/eviction counters). Default: no-op, for backends (and
  /// test fakes) without metered storage.
  virtual void SetMetricsSink(const obs::MetricsSink* /*sink*/) {}

  /// Offers the database's global pivot table to the backend. Backends
  /// with index-side pruning opportunities (the M-tree's PM-tree-style
  /// hyper-rings) keep the shared_ptr and build their per-subtree
  /// structures from it; the default ignores it — page-level pivot
  /// filtering lives in the engines, not the backend.
  virtual void AttachPivots(std::shared_ptr<const PivotTable> /*pivots*/) {}

  /// The backend's DataLayout, for persistence (SaveToStore/AttachStore).
  /// Null for backends without one (test fakes, remote proxies).
  virtual DataLayout* MutableLayout() { return nullptr; }

  /// Serializes the backend's index structure (not the data pages — those
  /// are the layout's) to `out`, in the same tagged format the standalone
  /// Save(path) methods use. Default: not supported.
  virtual Status SaveIndex(std::ostream& /*out*/) {
    return Status::NotSupported("backend cannot serialize its index");
  }
};

}  // namespace msq

#endif  // MSQ_CORE_BACKEND_H_
