// X-tree backend (Berchtold, Keim, Kriegel: "The X-tree: An Index Structure
// for High-Dimensional Data", VLDB'96) — the index the paper evaluates
// against the sequential scan.
//
// The X-tree is an R*-tree whose directory refuses to split when splitting
// would produce highly overlapping rectangles: it first tries the R*
// topological split, then an overlap-minimal split guided by the split
// history, and finally extends the node into a *supernode* spanning
// multiple disk blocks. Leaves are data pages; kNN search follows the
// Hjaltason-Samet priority ordering, proven I/O-optimal in [3].

#ifndef MSQ_XTREE_XTREE_H_
#define MSQ_XTREE_XTREE_H_

#include <memory>
#include <vector>

#include "core/backend.h"
#include "dataset/dataset.h"
#include "dist/box_metric.h"
#include "dist/metric.h"
#include "storage/data_layout.h"
#include "xtree/node.h"
#include "xtree/split.h"

namespace msq {

struct XTreeOptions {
  size_t page_size_bytes = kDefaultPageSizeBytes;
  /// Buffer pool capacity as a fraction of the tree's total block count
  /// (Sec. 6 uses 10%).
  double buffer_fraction = 0.10;
  /// Objects per leaf; 0 derives it from the page size and dimensionality.
  size_t leaf_capacity = 0;
  /// Entries per directory block; 0 derives it from the page size.
  size_t dir_capacity = 0;
  /// Minimum fill factor of a split half (R*: 40%).
  double min_fill = 0.4;
  /// Maximum tolerated overlap ratio of a topological directory split
  /// before the overlap-minimal split / supernode path is taken.
  double max_overlap = 0.2;
  /// Disable to degrade the structure to a plain R*-tree (ablation).
  bool enable_supernodes = true;
  /// R* forced reinsertion of leaf entries on first overflow.
  bool enable_reinsert = true;
  /// Fraction of entries removed by a forced reinsert.
  double reinsert_fraction = 0.3;
  /// Target fill factor used by the bulk loader.
  double bulk_fill = 0.75;
};

/// Structural statistics for introspection, tests and benches.
struct XTreeShape {
  size_t height = 0;
  size_t num_leaves = 0;
  size_t num_dir_nodes = 0;
  size_t num_supernodes = 0;
  size_t total_blocks = 0;  // leaves + directory blocks (incl. multiplicity)
  double avg_leaf_fill = 0.0;
};

/// X-tree database organization over an in-memory dataset.
class XTreeBackend : public QueryBackend {
 public:
  /// Bulk load by recursive median partitioning on the dimension of
  /// maximum spread (build cost is not charged to query statistics, like
  /// the paper's offline index construction). The metric must implement
  /// BoxDistanceMetric (Lp family); others are rejected as NotSupported.
  static StatusOr<std::unique_ptr<XTreeBackend>> BulkLoad(
      std::shared_ptr<const Dataset> dataset,
      std::shared_ptr<const Metric> metric, const XTreeOptions& options);

  /// Builds by repeated dynamic insertion (exercises the full R*/X split
  /// machinery; slower than BulkLoad).
  static StatusOr<std::unique_ptr<XTreeBackend>> BuildByInsertion(
      std::shared_ptr<const Dataset> dataset,
      std::shared_ptr<const Metric> metric, const XTreeOptions& options);

  /// Inserts one dataset object (id must be valid for the dataset) and
  /// rebuilds the page layout, so the tree is queryable on return.
  Status Insert(ObjectId id);

  /// Persists the index structure (not the objects — those live in the
  /// dataset) to a binary file.
  Status Save(const std::string& path);

  /// Restores an index saved with Save. The dataset must be the one the
  /// index was built over (size and dimensionality are verified).
  static StatusOr<std::unique_ptr<XTreeBackend>> Load(
      const std::string& path, std::shared_ptr<const Dataset> dataset,
      std::shared_ptr<const Metric> metric, const XTreeOptions& options);

  /// Stream counterpart of Load.
  static StatusOr<std::unique_ptr<XTreeBackend>> LoadFrom(
      std::istream& in, std::shared_ptr<const Dataset> dataset,
      std::shared_ptr<const Metric> metric, const XTreeOptions& options);

  // --- QueryBackend --------------------------------------------------
  std::string Name() const override { return "xtree"; }
  std::unique_ptr<CandidateStream> OpenStream(const Query& query,
                                              QueryStats* stats) override;
  double PageMinDist(PageId page, const Query& q, QueryStats* stats) override;
  Status ReadPageBlockChecked(PageId page, QueryStats* stats,
                              PageBlock* out) override {
    return layout_.TryReadBlock(page, stats, out);
  }
  DataLayout* MutableLayout() override { return &layout_; }
  /// Serializes the index structure to a stream (the format behind Save;
  /// also what the single-file page store embeds as its "index" object).
  Status SaveIndex(std::ostream& out) override;
  size_t NumDataPages() const override { return layout_.num_pages(); }
  size_t NumObjects() const override { return dataset_->size(); }
  const Vec& ObjectVec(ObjectId id) const override {
    return dataset_->object(id);
  }
  void ResetIoState() override { layout_.ResetIoState(); }
  void NoteFailedRead(QueryStats* stats) override {
    layout_.NoteFailedRead(stats);
  }
  /// Remembered so Insert's Finalize() (which rebuilds layout_ wholesale)
  /// can re-attach the sink to the new buffer pool.
  void SetMetricsSink(const obs::MetricsSink* sink) override {
    metrics_sink_ = sink;
    layout_.SetMetricsSink(sink);
  }

  // --- introspection ---------------------------------------------------
  XTreeShape Shape() const;

  /// Verifies MBR containment, parent/child consistency, uniform leaf
  /// depth, capacity bounds, and the object partition.
  Status CheckInvariants() const;

 private:
  XTreeBackend(std::shared_ptr<const Dataset> dataset,
               std::shared_ptr<const Metric> metric,
               const BoxDistanceMetric* box_metric, XTreeOptions options);

  friend class XTreeStream;

  // Dynamic-insertion internals.
  /// Insert without the layout rebuild (the factories finalize once).
  void InsertObject(ObjectId id);
  XNodeIndex ChooseSubtree(const Vec& p) const;
  void InsertIntoLeaf(XNodeIndex leaf, ObjectId id, bool may_reinsert);
  void HandleLeafOverflow(XNodeIndex leaf, bool may_reinsert);
  void ReinsertLeafEntries(XNodeIndex leaf);
  void SplitLeaf(XNodeIndex leaf);
  void HandleDirOverflow(XNodeIndex node);
  /// Installs `right` as a sibling of `node` (split along `axis`).
  void InstallSplit(XNodeIndex node, XNodeIndex right, size_t axis);
  void RecomputeMbr(XNodeIndex node);
  void TightenAncestors(XNodeIndex node);
  void ExtendAncestors(XNodeIndex node, const Vec& p);
  size_t LeafMinFillCount() const;
  size_t DirMinFillCount() const;

  // Bulk-load internals.
  void BulkBuild();
  std::vector<XNodeIndex> BulkLeaves(std::vector<ObjectId>* ids);
  std::vector<XNodeIndex> BulkGroup(std::vector<XNodeIndex>* children);

  /// Assigns leaf pages in DFS order and rebuilds the data layout. Every
  /// factory and Insert ends with it; reads never call it.
  void Finalize();

  std::shared_ptr<const Dataset> dataset_;
  std::shared_ptr<const Metric> metric_;
  const BoxDistanceMetric* box_metric_;  // view into *metric_
  XTreeOptions options_;

  std::vector<XNode> nodes_;
  XNodeIndex root_ = kInvalidNode;
  size_t num_objects_indexed_ = 0;

  DataLayout layout_;
  const obs::MetricsSink* metrics_sink_ = nullptr;
  std::vector<XNodeIndex> page_to_node_;
};

}  // namespace msq

#endif  // MSQ_XTREE_XTREE_H_
