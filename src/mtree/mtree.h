// M-tree backend — the dynamic, paged metric index of Ciaccia, Patella,
// Zezula (VLDB'97), reference [5] of the paper and the natural index for
// the *general metric* case where no vector-space MINDIST exists (e.g.
// edit distance over web sessions, Sec. 2).
//
// Search prunes subtrees with the triangle inequality:
//   mindist(q, subtree) = max(0, dist(q, routing) - covering_radius),
// and avoids routing-object distance computations via the stored
// parent distances: |dist(q, parent_routing) - dist_to_parent| - radius is
// already a lower bound. Distance computations against routing objects are
// *charged* to the query statistics — unlike R-tree geometry, metric-tree
// navigation spends real distance evaluations, and our cost accounting
// reflects that.

#ifndef MSQ_MTREE_MTREE_H_
#define MSQ_MTREE_MTREE_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/backend.h"
#include "dataset/dataset.h"
#include "dist/counting_metric.h"
#include "dist/metric.h"
#include "storage/data_layout.h"
#include "mtree/mtree_node.h"

namespace msq {

struct MTreeOptions {
  size_t page_size_bytes = kDefaultPageSizeBytes;
  double buffer_fraction = 0.10;
  /// Objects per leaf; 0 derives it from the page size.
  size_t leaf_capacity = 0;
  /// Children per directory node; 0 derives it from the page size.
  size_t dir_capacity = 0;

  /// Promotion policy for node splits.
  enum class Promotion {
    /// Sampled mM_RAD: evaluate candidate pairs, keep the pair minimizing
    /// the larger covering radius (the policy the M-tree paper found best).
    kSampledMinMaxRadius,
    /// M_LB_DIST: keep the old routing object, promote the farthest entry.
    kMaxLowerBound,
    /// Uniform random pair (baseline).
    kRandom,
  };
  Promotion promotion = Promotion::kSampledMinMaxRadius;

  /// Partition policy after promotion.
  enum class Partition {
    /// Generalized hyperplane: each entry joins the closer promoted object.
    kGeneralizedHyperplane,
    /// Balanced: promoted objects alternately take their closest entry.
    kBalanced,
  };
  Partition partition = Partition::kGeneralizedHyperplane;

  /// Candidate pairs examined by sampled mM_RAD promotion.
  size_t promotion_samples = 48;
  uint64_t seed = 7;
};

/// Shape statistics for tests and benches.
struct MTreeShape {
  size_t height = 0;
  size_t num_leaves = 0;
  size_t num_dir_nodes = 0;
  double avg_leaf_fill = 0.0;
};

/// M-tree database organization over an in-memory dataset. Works with any
/// Metric (no vector-space assumptions).
class MTreeBackend : public QueryBackend {
 public:
  /// Builds by repeated insertion (the M-tree is a dynamic structure; no
  /// bulk load is needed at our scales). Construction distances are not
  /// charged to query statistics, matching offline index builds.
  static StatusOr<std::unique_ptr<MTreeBackend>> Build(
      std::shared_ptr<const Dataset> dataset,
      std::shared_ptr<const Metric> metric, const MTreeOptions& options);

  /// Restores an index written by SaveIndex. The dataset (and metric!)
  /// must be the ones the index was built with; size and dimensionality
  /// are verified, and CheckInvariants re-validates the covering radii
  /// under the supplied metric.
  static StatusOr<std::unique_ptr<MTreeBackend>> LoadFrom(
      std::istream& in, std::shared_ptr<const Dataset> dataset,
      std::shared_ptr<const Metric> metric, const MTreeOptions& options);

  // --- QueryBackend --------------------------------------------------
  std::string Name() const override { return "mtree"; }
  std::unique_ptr<CandidateStream> OpenStream(const Query& query,
                                              QueryStats* stats) override;
  double PageMinDist(PageId page, const Query& q, QueryStats* stats) override;
  Status ReadPageBlockChecked(PageId page, QueryStats* stats,
                              PageBlock* out) override {
    return layout_.TryReadBlock(page, stats, out);
  }
  DataLayout* MutableLayout() override { return &layout_; }
  /// Serializes the index structure (routing objects, radii, parent
  /// distances — not the objects themselves): the single-file page
  /// store's "index" object.
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
  void SetMetricsSink(const obs::MetricsSink* sink) override {
    layout_.SetMetricsSink(sink);
  }
  /// Keeps the table and builds per-subtree hyper-rings from its rows (see
  /// MNode::ring_min); search then cuts whole subtrees whose ring lies
  /// outside the query annulus before computing the routing-object
  /// distance. A table that does not describe this dataset is ignored.
  void AttachPivots(std::shared_ptr<const PivotTable> pivots) override;

  // --- introspection ---------------------------------------------------
  MTreeShape Shape() const;

  /// Verifies covering radii, parent distances, uniform leaf depth,
  /// capacity bounds, and the object partition.
  Status CheckInvariants() const;

 private:
  MTreeBackend(std::shared_ptr<const Dataset> dataset,
               std::shared_ptr<const Metric> metric, MTreeOptions options);

  friend class MTreeStream;

  double Dist(ObjectId a, ObjectId b) const;
  double DistToVec(const Vec& v, ObjectId b) const;

  /// Insert without the layout rebuild (Build finalizes once).
  void InsertObject(ObjectId id);
  void InsertIntoLeaf(MNodeIndex leaf, ObjectId id, double dist_to_routing);
  void SplitNode(MNodeIndex node);
  /// Picks the two promoted positions among the split candidates, given
  /// their pairwise distances.
  std::pair<size_t, size_t> Promote(const std::vector<double>& pairwise,
                                    size_t count, ObjectId old_routing,
                                    const std::vector<ObjectId>& entry_objs);
  /// Assigns leaf pages in DFS order and builds the data layout. Every
  /// factory ends with it; reads never call it.
  void Finalize();
  /// Rebuilds every subtree's hyper-rings from pivots_ (post-order, no
  /// distance computations). No-op without an attached table.
  void BuildRings(MNodeIndex node);
  Status CheckSubtree(MNodeIndex node, size_t depth, size_t* leaf_depth,
                      size_t* objects_seen) const;
  /// Max distance from `routing` to anything in the subtree (exact,
  /// for the invariant checker).
  double SubtreeMaxDist(MNodeIndex node, ObjectId routing) const;

  std::shared_ptr<const Dataset> dataset_;
  std::shared_ptr<const Metric> metric_;
  MTreeOptions options_;
  Rng rng_;

  std::vector<MNode> nodes_;
  MNodeIndex root_ = kInvalidMNode;
  size_t num_objects_indexed_ = 0;

  std::shared_ptr<const PivotTable> pivots_;
  DataLayout layout_;
  std::vector<MNodeIndex> page_to_node_;
};

}  // namespace msq

#endif  // MSQ_MTREE_MTREE_H_
