// MutableBackend: the online-mutability layer over any QueryBackend.
//
// The paper's lifecycle — build, finalize, query — becomes epoch-based
// versioned state (DESIGN.md §13). Every mutable database is a chain of
// immutable LiveVersion snapshots:
//
//   base  — the last compacted build (backend + dataset + page layout),
//           shared by every version derived from it;
//   delta — objects inserted since, absorbed in memory and exposed to the
//           engines as pseudo-pages appended after the base pages
//           (min_dist 0, so they are never pruned and always processed
//           first — safe because the pruning radius only ever shrinks);
//   tombstones — deletes over base *and* delta ids, masked out of every
//           page read;
//   pivots — the PR-8 filter covering both tiers (appended rows, see
//           PivotTable::WithAppendedRow).
//
// Readers pin an epoch (EpochManager) and traverse one snapshot for a
// whole database-level call; the single writer derives the next snapshot
// (chunked copy-on-write, so untouched state is shared), publishes it with
// one pointer swap, and retires the old one into the epoch limbo list.
// Compaction folds delta + tombstones into a fresh base through the
// normal build path and publishes it the same way — queries in flight
// keep their pinned snapshot, so writes and compaction never block reads.
//
// Transparency: with an empty overlay every call is a pure delegation to
// the base backend — same pages, same counters, same streams — so an
// unmutated database is bit-identical to the pre-refactor build-once one.
// Delta pseudo-pages charge no I/O (they are memory-resident by
// construction; compaction is what pays to put them on pages).
//
// Threading contract: query-side calls (the whole QueryBackend interface)
// are externally serialized, exactly as MultiQueryEngine requires —
// concurrency comes from writers running *alongside* the serialized query
// stream, not from parallel queries on one engine. Current()/Publish()
// are safe from any thread.

#ifndef MSQ_CORE_MUTABLE_BACKEND_H_
#define MSQ_CORE_MUTABLE_BACKEND_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/backend.h"
#include "core/cow_vec.h"
#include "core/epoch.h"
#include "core/pivot_table.h"
#include "dataset/dataset.h"

namespace msq {

/// One immutable snapshot of a mutable database. Built by the writer,
/// published atomically, traversed by readers without synchronization.
struct LiveVersion {
  std::shared_ptr<QueryBackend> base;
  std::shared_ptr<const Dataset> base_dataset;
  /// Covers ids [0, base_n + delta.size()); null = pivot filtering off.
  std::shared_ptr<const PivotTable> pivots;

  /// Objects inserted since the base was built; delta index i is object
  /// id base_n + i.
  CowChunkedVec<Vec> delta;
  CowChunkedVec<int32_t> delta_labels;
  /// Tombstone bytes over ids [0, size()); lazily materialized, so its
  /// size may lag base_n + delta.size() — short means "not tombstoned".
  CowChunkedVec<uint8_t> tombstones;
  size_t base_n = 0;
  size_t tomb_count = 0;
  /// Bumped by every insert/delete/compaction. The facade drops buffered
  /// engine state when the generation it last wired has moved (partial
  /// answers may cite deleted objects; delta pseudo-pages change
  /// composition as the delta grows).
  uint64_t generation = 0;
  /// Objects per delta pseudo-page: the base layout's page capacity, so
  /// overlay pages look like base pages to the cost accounting.
  size_t delta_page_cap = 1;

  size_t num_delta_pages() const {
    return (delta.size() + delta_page_cap - 1) / delta_page_cap;
  }
  size_t total_objects() const { return base_n + delta.size(); }
  size_t live_objects() const { return total_objects() - tomb_count; }
  bool tombstoned(size_t id) const {
    return id < tombstones.size() && tombstones[id] != 0;
  }
  bool has_overlay() const { return !delta.empty() || tomb_count > 0; }
};

/// The outermost backend decorator (outside even the fault injector, so
/// the engines survive compaction swapping the whole base out from under
/// them). See file comment for the model.
class MutableBackend : public QueryBackend {
 public:
  /// `base` must be built over `base_dataset` (ids agree).
  MutableBackend(std::shared_ptr<QueryBackend> base,
                 std::shared_ptr<const Dataset> base_dataset);

  // --- version plumbing (writer + facade side) -------------------------
  std::shared_ptr<const LiveVersion> Current() const;
  /// Swaps in `next` and retires the displaced version through the epoch
  /// limbo list. Thread-safe; the caller (the database writer path)
  /// serializes version *derivation*.
  void Publish(std::shared_ptr<const LiveVersion> next);
  EpochManager& epochs() { return epochs_; }

  /// Installs the snapshot every backend call of the current
  /// database-level query call resolves against (the facade pairs this
  /// with an epoch pin). Query-side serialized, like all reads. Without a
  /// session installed, each call falls back to Current() — safe for
  /// serialized direct use, but without cross-call snapshot consistency.
  void InstallActive(std::shared_ptr<const LiveVersion> v) {
    active_ = std::move(v);
  }
  void ClearActive() { active_ = nullptr; }

  // --- QueryBackend ----------------------------------------------------
  std::string Name() const override { return View()->base->Name(); }
  std::unique_ptr<CandidateStream> OpenStream(const Query& query,
                                              QueryStats* stats) override;
  double PageMinDist(PageId page, const Query& q, QueryStats* stats) override;
  Status ReadPageBlockChecked(PageId page, QueryStats* stats,
                              PageBlock* out) override;
  size_t NumDataPages() const override {
    const auto& v = View();
    return v->base->NumDataPages() + v->num_delta_pages();
  }
  size_t NumObjects() const override { return View()->total_objects(); }
  const Vec& ObjectVec(ObjectId id) const override {
    const auto& v = View();
    if (id < v->base_n) return v->base->ObjectVec(id);
    return v->delta[id - v->base_n];
  }
  void ResetIoState() override { View()->base->ResetIoState(); }
  void NoteFailedRead(QueryStats* stats) override {
    View()->base->NoteFailedRead(stats);
  }
  void SetMetricsSink(const obs::MetricsSink* sink) override {
    sink_ = sink;
    View()->base->SetMetricsSink(sink);
  }
  /// Publishes a version with `pivots` armed (generation unchanged — this
  /// is pre-query wiring, not a mutation) and forwards to the base for its
  /// index-side structures (M-tree hyper-rings).
  void AttachPivots(std::shared_ptr<const PivotTable> pivots) override;
  DataLayout* MutableLayout() override { return View()->base->MutableLayout(); }

  /// The sink last attached (compaction re-wires it onto the new base).
  const obs::MetricsSink* metrics_sink() const { return sink_; }

 private:
  /// The snapshot this call resolves against: the installed session
  /// version, else a per-call refresh of Current().
  const std::shared_ptr<const LiveVersion>& View() const {
    if (active_ != nullptr) return active_;
    fallback_ = Current();
    return fallback_;
  }

  mutable std::mutex version_mu_;
  std::shared_ptr<const LiveVersion> current_;  // guarded by version_mu_
  EpochManager epochs_;

  // Query-side state (externally serialized with all reads).
  std::shared_ptr<const LiveVersion> active_;
  mutable std::shared_ptr<const LiveVersion> fallback_;
  /// Survivors of a tombstoned base page or a delta pseudo-page: the
  /// block ReadPageBlockChecked hands out for them.
  std::vector<ObjectId> scratch_ids_;
  std::vector<Scalar> scratch_rows_;

  const obs::MetricsSink* sink_ = nullptr;
};

}  // namespace msq

#endif  // MSQ_CORE_MUTABLE_BACKEND_H_
