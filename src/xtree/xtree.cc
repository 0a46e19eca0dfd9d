#include "xtree/xtree.h"

#include "common/serialize.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>

namespace msq {

namespace {

size_t DeriveDirCapacity(size_t page_size_bytes, size_t dim) {
  // Entry: two dim-sized float bounds + child pointer/bookkeeping.
  const size_t entry_bytes = 2 * dim * sizeof(Scalar) + 8;
  const size_t c = page_size_bytes / entry_bytes;
  return c < 2 ? 2 : c;
}

uint64_t AxisBit(size_t axis) {
  return axis < 64 ? (1ull << axis) : 0ull;
}

}  // namespace

XTreeBackend::XTreeBackend(std::shared_ptr<const Dataset> dataset,
                           std::shared_ptr<const Metric> metric,
                           const BoxDistanceMetric* box_metric,
                           XTreeOptions options)
    : dataset_(std::move(dataset)),
      metric_(std::move(metric)),
      box_metric_(box_metric),
      options_(options) {
  // Empty root leaf.
  XNode root;
  root.is_leaf = true;
  root.mbr = Mbr::Empty(dataset_->dim());
  nodes_.push_back(std::move(root));
  root_ = 0;
}

StatusOr<std::unique_ptr<XTreeBackend>> XTreeBackend::BulkLoad(
    std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const Metric> metric, const XTreeOptions& options) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  const auto* box = dynamic_cast<const BoxDistanceMetric*>(metric.get());
  if (box == nullptr) {
    return Status::NotSupported("X-tree requires a metric with MINDIST "
                                "support (Lp family); got " + metric->Name());
  }
  XTreeOptions opts = options;
  if (opts.leaf_capacity == 0) {
    opts.leaf_capacity = ObjectsPerPage(opts.page_size_bytes, dataset->dim());
  }
  if (opts.dir_capacity == 0) {
    opts.dir_capacity = DeriveDirCapacity(opts.page_size_bytes,
                                          dataset->dim());
  }
  if (opts.leaf_capacity < 2 || opts.dir_capacity < 2) {
    return Status::InvalidArgument("page size too small for node capacity");
  }
  auto tree = std::unique_ptr<XTreeBackend>(
      new XTreeBackend(std::move(dataset), std::move(metric), box, opts));
  tree->BulkBuild();
  tree->Finalize();
  return tree;
}

StatusOr<std::unique_ptr<XTreeBackend>> XTreeBackend::BuildByInsertion(
    std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const Metric> metric, const XTreeOptions& options) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  const auto* box = dynamic_cast<const BoxDistanceMetric*>(metric.get());
  if (box == nullptr) {
    return Status::NotSupported("X-tree requires a metric with MINDIST "
                                "support (Lp family); got " + metric->Name());
  }
  XTreeOptions opts = options;
  if (opts.leaf_capacity == 0) {
    opts.leaf_capacity = ObjectsPerPage(opts.page_size_bytes, dataset->dim());
  }
  if (opts.dir_capacity == 0) {
    opts.dir_capacity = DeriveDirCapacity(opts.page_size_bytes,
                                          dataset->dim());
  }
  if (opts.leaf_capacity < 2 || opts.dir_capacity < 2) {
    return Status::InvalidArgument("page size too small for node capacity");
  }
  const size_t n = dataset->size();
  auto tree = std::unique_ptr<XTreeBackend>(
      new XTreeBackend(std::move(dataset), std::move(metric), box, opts));
  for (ObjectId id = 0; id < n; ++id) tree->InsertObject(id);
  tree->Finalize();
  return tree;
}

size_t XTreeBackend::LeafMinFillCount() const {
  const size_t cap = options_.leaf_capacity;
  size_t m = static_cast<size_t>(std::floor(options_.min_fill *
                                            static_cast<double>(cap)));
  if (m < 1) m = 1;
  // Splitting distributes cap+1 items; both halves need min fill.
  if (2 * m > cap + 1) m = (cap + 1) / 2;
  return m;
}

size_t XTreeBackend::DirMinFillCount() const {
  const size_t cap = options_.dir_capacity;
  size_t m = static_cast<size_t>(std::floor(options_.min_fill *
                                            static_cast<double>(cap)));
  if (m < 1) m = 1;
  if (2 * m > cap + 1) m = (cap + 1) / 2;
  return m;
}

// --------------------------------------------------------------------
// Dynamic insertion
// --------------------------------------------------------------------

void XTreeBackend::InsertObject(ObjectId id) {
  const Vec& p = dataset_->object(id);
  const XNodeIndex leaf = ChooseSubtree(p);
  InsertIntoLeaf(leaf, id, /*may_reinsert=*/options_.enable_reinsert);
  ++num_objects_indexed_;
}

XNodeIndex XTreeBackend::ChooseSubtree(const Vec& p) const {
  XNodeIndex cur = root_;
  const Mbr point_mbr = Mbr::ForPoint(p);
  while (!nodes_[cur].is_leaf) {
    const XNode& node = nodes_[cur];
    const bool children_are_leaves =
        nodes_[node.entries.front().child].is_leaf;
    // R*: minimize overlap enlargement for leaf-level children, area
    // enlargement otherwise. Overlap enlargement is O(c^2); restrict the
    // candidate set to the best few by area enlargement when c is large.
    size_t best = 0;
    if (children_are_leaves) {
      std::vector<uint32_t> candidates(node.entries.size());
      for (uint32_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
      constexpr size_t kMaxOverlapCandidates = 32;
      if (candidates.size() > kMaxOverlapCandidates) {
        std::partial_sort(
            candidates.begin(),
            candidates.begin() + kMaxOverlapCandidates, candidates.end(),
            [&](uint32_t a, uint32_t b) {
              return node.entries[a].mbr.Enlargement(point_mbr) <
                     node.entries[b].mbr.Enlargement(point_mbr);
            });
        candidates.resize(kMaxOverlapCandidates);
      }
      double best_overlap_delta = std::numeric_limits<double>::infinity();
      double best_enlargement = std::numeric_limits<double>::infinity();
      for (uint32_t ci : candidates) {
        Mbr extended = node.entries[ci].mbr;
        extended.ExtendPoint(p);
        double overlap_before = 0.0, overlap_after = 0.0;
        for (uint32_t j = 0; j < node.entries.size(); ++j) {
          if (j == ci) continue;
          overlap_before +=
              node.entries[ci].mbr.OverlapArea(node.entries[j].mbr);
          overlap_after += extended.OverlapArea(node.entries[j].mbr);
        }
        const double overlap_delta = overlap_after - overlap_before;
        const double enlargement = node.entries[ci].mbr.Enlargement(point_mbr);
        if (overlap_delta < best_overlap_delta ||
            (overlap_delta == best_overlap_delta &&
             enlargement < best_enlargement)) {
          best_overlap_delta = overlap_delta;
          best_enlargement = enlargement;
          best = ci;
        }
      }
    } else {
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (uint32_t i = 0; i < node.entries.size(); ++i) {
        const double enlargement = node.entries[i].mbr.Enlargement(point_mbr);
        const double area = node.entries[i].mbr.Area();
        if (enlargement < best_enlargement ||
            (enlargement == best_enlargement && area < best_area)) {
          best_enlargement = enlargement;
          best_area = area;
          best = i;
        }
      }
    }
    cur = node.entries[best].child;
  }
  return cur;
}

void XTreeBackend::ExtendAncestors(XNodeIndex node, const Vec& p) {
  XNodeIndex cur = node;
  if (nodes_[cur].mbr.IsEmpty()) {
    nodes_[cur].mbr = Mbr::ForPoint(p);
  } else {
    nodes_[cur].mbr.ExtendPoint(p);
  }
  while (nodes_[cur].parent != kInvalidNode) {
    const XNodeIndex parent = nodes_[cur].parent;
    for (XDirEntry& entry : nodes_[parent].entries) {
      if (entry.child == cur) {
        entry.mbr = nodes_[cur].mbr;
        break;
      }
    }
    if (nodes_[parent].mbr.IsEmpty()) {
      nodes_[parent].mbr = nodes_[cur].mbr;
    } else {
      nodes_[parent].mbr.ExtendMbr(nodes_[cur].mbr);
    }
    cur = parent;
  }
}

void XTreeBackend::InsertIntoLeaf(XNodeIndex leaf, ObjectId id,
                                  bool may_reinsert) {
  nodes_[leaf].objects.push_back(id);
  ExtendAncestors(leaf, dataset_->object(id));
  if (nodes_[leaf].objects.size() > options_.leaf_capacity) {
    HandleLeafOverflow(leaf, may_reinsert);
  }
}

void XTreeBackend::HandleLeafOverflow(XNodeIndex leaf, bool may_reinsert) {
  if (may_reinsert && options_.enable_reinsert && leaf != root_) {
    ReinsertLeafEntries(leaf);
  } else {
    SplitLeaf(leaf);
  }
}

void XTreeBackend::RecomputeMbr(XNodeIndex node) {
  XNode& n = nodes_[node];
  Mbr m = Mbr::Empty(dataset_->dim());
  if (n.is_leaf) {
    for (ObjectId id : n.objects) m.ExtendPoint(dataset_->object(id));
  } else {
    for (const XDirEntry& e : n.entries) m.ExtendMbr(e.mbr);
  }
  n.mbr = m;
}

// Propagates a (possibly shrunken) MBR from `node` to the root, keeping
// parent entries exactly equal to their child MBRs.
void XTreeBackend::TightenAncestors(XNodeIndex node) {
  XNodeIndex cur = node;
  while (nodes_[cur].parent != kInvalidNode) {
    const XNodeIndex parent = nodes_[cur].parent;
    for (XDirEntry& entry : nodes_[parent].entries) {
      if (entry.child == cur) {
        entry.mbr = nodes_[cur].mbr;
        break;
      }
    }
    RecomputeMbr(parent);
    cur = parent;
  }
}

void XTreeBackend::ReinsertLeafEntries(XNodeIndex leaf) {
  XNode& node = nodes_[leaf];
  const Vec center = node.mbr.Center();
  // Farthest-from-center entries get reinserted (R* "far reinsert").
  std::vector<std::pair<double, ObjectId>> by_dist;
  by_dist.reserve(node.objects.size());
  for (ObjectId id : node.objects) {
    by_dist.emplace_back(metric_->Distance(center, dataset_->object(id)), id);
  }
  std::sort(by_dist.begin(), by_dist.end());
  size_t reinsert_count = static_cast<size_t>(
      std::floor(options_.reinsert_fraction *
                 static_cast<double>(node.objects.size())));
  if (reinsert_count < 1) reinsert_count = 1;
  if (reinsert_count >= node.objects.size()) {
    reinsert_count = node.objects.size() - 1;
  }
  std::vector<ObjectId> reinsert;
  reinsert.reserve(reinsert_count);
  for (size_t i = by_dist.size() - reinsert_count; i < by_dist.size(); ++i) {
    reinsert.push_back(by_dist[i].second);
  }
  node.objects.resize(0);
  for (size_t i = 0; i + reinsert_count < by_dist.size(); ++i) {
    node.objects.push_back(by_dist[i].second);
  }
  // Tighten MBRs up the path after the removal.
  RecomputeMbr(leaf);
  TightenAncestors(leaf);
  for (ObjectId id : reinsert) {
    const XNodeIndex target = ChooseSubtree(dataset_->object(id));
    InsertIntoLeaf(target, id, /*may_reinsert=*/false);
  }
}

void XTreeBackend::SplitLeaf(XNodeIndex leaf) {
  XNode& node = nodes_[leaf];
  std::vector<SplitItem> items;
  items.reserve(node.objects.size());
  for (uint32_t i = 0; i < node.objects.size(); ++i) {
    items.push_back({Mbr::ForPoint(dataset_->object(node.objects[i])), i});
  }
  const SplitOutcome outcome = TopologicalSplit(items, LeafMinFillCount());

  XNode right;
  right.is_leaf = true;
  right.split_dims = node.split_dims | AxisBit(outcome.axis);
  std::vector<ObjectId> left_objects;
  left_objects.reserve(outcome.left.size());
  for (uint32_t i : outcome.left) left_objects.push_back(node.objects[i]);
  right.objects.reserve(outcome.right.size());
  for (uint32_t i : outcome.right) right.objects.push_back(node.objects[i]);
  node.objects = std::move(left_objects);
  node.split_dims |= AxisBit(outcome.axis);

  const XNodeIndex right_index = static_cast<XNodeIndex>(nodes_.size());
  nodes_.push_back(std::move(right));
  RecomputeMbr(leaf);
  RecomputeMbr(right_index);
  InstallSplit(leaf, right_index, outcome.axis);
}

void XTreeBackend::InstallSplit(XNodeIndex node, XNodeIndex right,
                                size_t axis) {
  if (node == root_) {
    XNode new_root;
    new_root.is_leaf = false;
    new_root.split_dims = AxisBit(axis);
    new_root.entries.push_back({nodes_[node].mbr, node});
    new_root.entries.push_back({nodes_[right].mbr, right});
    new_root.mbr = nodes_[node].mbr;
    new_root.mbr.ExtendMbr(nodes_[right].mbr);
    const XNodeIndex root_index = static_cast<XNodeIndex>(nodes_.size());
    nodes_.push_back(std::move(new_root));
    nodes_[node].parent = root_index;
    nodes_[right].parent = root_index;
    root_ = root_index;
    return;
  }
  const XNodeIndex parent = nodes_[node].parent;
  nodes_[right].parent = parent;
  XNode& pnode = nodes_[parent];
  for (XDirEntry& entry : pnode.entries) {
    if (entry.child == node) {
      entry.mbr = nodes_[node].mbr;
      break;
    }
  }
  pnode.entries.push_back({nodes_[right].mbr, right});
  pnode.split_dims |= AxisBit(axis);
  RecomputeMbr(parent);
  TightenAncestors(parent);
  if (nodes_[parent].entries.size() >
      options_.dir_capacity * nodes_[parent].multiplicity) {
    HandleDirOverflow(parent);
  }
}

void XTreeBackend::HandleDirOverflow(XNodeIndex node_index) {
  XNode& node = nodes_[node_index];
  std::vector<SplitItem> items;
  items.reserve(node.entries.size());
  for (uint32_t i = 0; i < node.entries.size(); ++i) {
    items.push_back({node.entries[i].mbr, i});
  }

  SplitOutcome outcome = TopologicalSplit(items, DirMinFillCount());
  bool have_split = outcome.overlap_ratio <= options_.max_overlap;
  if (!have_split) {
    // Topological split too overlapping: try the overlap-minimal split
    // along a dimension of the split history.
    std::optional<SplitOutcome> minimal =
        OverlapMinimalSplit(items, node.split_dims, DirMinFillCount());
    if (minimal.has_value()) {
      outcome = std::move(*minimal);
      have_split = true;
    }
  }
  if (!have_split) {
    if (options_.enable_supernodes) {
      // Neither split acceptable: extend into (or grow) a supernode.
      ++node.multiplicity;
      return;
    }
    // Supernodes disabled (plain R*-tree): accept the topological split.
    outcome = TopologicalSplit(items, DirMinFillCount());
  }

  XNode right;
  right.is_leaf = false;
  right.split_dims = node.split_dims | AxisBit(outcome.axis);
  std::vector<XDirEntry> left_entries;
  left_entries.reserve(outcome.left.size());
  for (uint32_t i : outcome.left) left_entries.push_back(node.entries[i]);
  right.entries.reserve(outcome.right.size());
  for (uint32_t i : outcome.right) right.entries.push_back(node.entries[i]);
  node.entries = std::move(left_entries);
  node.split_dims |= AxisBit(outcome.axis);
  // A split (possibly super-) node shrinks to the width its content needs:
  // splitting a wide supernode can still leave more than one block's worth
  // of entries on a side.
  const auto width_for = [this](size_t entries) {
    return static_cast<uint32_t>(
        std::max<size_t>(1, (entries + options_.dir_capacity - 1) /
                                options_.dir_capacity));
  };
  node.multiplicity = width_for(node.entries.size());
  right.multiplicity = width_for(right.entries.size());

  const XNodeIndex right_index = static_cast<XNodeIndex>(nodes_.size());
  nodes_.push_back(std::move(right));
  for (const XDirEntry& e : nodes_[right_index].entries) {
    nodes_[e.child].parent = right_index;
  }
  RecomputeMbr(node_index);
  RecomputeMbr(right_index);
  InstallSplit(node_index, right_index, outcome.axis);
}

// --------------------------------------------------------------------
// Persistence
// --------------------------------------------------------------------

namespace {
constexpr uint32_t kXTreeMagic = 0x4d535158;  // "MSQX"
constexpr uint32_t kXTreeVersion = 1;
}  // namespace

Status XTreeBackend::SaveIndex(std::ostream& out) {
  MSQ_RETURN_IF_ERROR(WriteU32(out, kXTreeMagic));
  MSQ_RETURN_IF_ERROR(WriteU32(out, kXTreeVersion));
  MSQ_RETURN_IF_ERROR(WriteU32(out, static_cast<uint32_t>(dataset_->dim())));
  MSQ_RETURN_IF_ERROR(WriteU64(out, num_objects_indexed_));
  MSQ_RETURN_IF_ERROR(
      WriteU32(out, static_cast<uint32_t>(options_.leaf_capacity)));
  MSQ_RETURN_IF_ERROR(
      WriteU32(out, static_cast<uint32_t>(options_.dir_capacity)));
  MSQ_RETURN_IF_ERROR(WriteU32(out, root_));
  MSQ_RETURN_IF_ERROR(WriteU32(out, static_cast<uint32_t>(nodes_.size())));
  for (const XNode& node : nodes_) {
    MSQ_RETURN_IF_ERROR(WriteU32(out, node.is_leaf ? 1 : 0));
    MSQ_RETURN_IF_ERROR(WriteU32(out, node.multiplicity));
    MSQ_RETURN_IF_ERROR(WriteU32(out, node.parent));
    MSQ_RETURN_IF_ERROR(WriteU64(out, node.split_dims));
    MSQ_RETURN_IF_ERROR(WriteVector(out, node.mbr.lo()));
    MSQ_RETURN_IF_ERROR(WriteVector(out, node.mbr.hi()));
    // Entry MBRs mirror the child MBRs, so children suffice.
    std::vector<XNodeIndex> children;
    children.reserve(node.entries.size());
    for (const XDirEntry& e : node.entries) children.push_back(e.child);
    MSQ_RETURN_IF_ERROR(WriteVector(out, children));
    MSQ_RETURN_IF_ERROR(WriteVector(out, node.objects));
  }
  if (!out) return Status::IOError("write failed (X-tree index)");
  return Status::OK();
}

StatusOr<std::unique_ptr<XTreeBackend>> XTreeBackend::LoadFrom(
    std::istream& in, std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const Metric> metric, const XTreeOptions& options) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  const auto* box = dynamic_cast<const BoxDistanceMetric*>(metric.get());
  if (box == nullptr) {
    return Status::NotSupported("X-tree requires a metric with MINDIST "
                                "support (Lp family); got " + metric->Name());
  }
  uint32_t magic = 0, version = 0, dim = 0;
  MSQ_RETURN_IF_ERROR(ReadU32(in, &magic));
  MSQ_RETURN_IF_ERROR(ReadU32(in, &version));
  if (magic != kXTreeMagic) return Status::Corruption("not an X-tree file");
  if (version != kXTreeVersion) {
    return Status::NotSupported("unsupported X-tree file version");
  }
  MSQ_RETURN_IF_ERROR(ReadU32(in, &dim));
  if (dim != dataset->dim()) {
    return Status::InvalidArgument("index dimensionality mismatch");
  }
  uint64_t indexed = 0;
  MSQ_RETURN_IF_ERROR(ReadU64(in, &indexed));
  if (indexed != dataset->size()) {
    return Status::InvalidArgument("index built over a different dataset");
  }
  XTreeOptions opts = options;
  uint32_t leaf_cap = 0, dir_cap = 0, root = 0, node_count = 0;
  MSQ_RETURN_IF_ERROR(ReadU32(in, &leaf_cap));
  MSQ_RETURN_IF_ERROR(ReadU32(in, &dir_cap));
  MSQ_RETURN_IF_ERROR(ReadU32(in, &root));
  MSQ_RETURN_IF_ERROR(ReadU32(in, &node_count));
  opts.leaf_capacity = leaf_cap;
  opts.dir_capacity = dir_cap;
  if (leaf_cap < 2 || dir_cap < 2 || node_count == 0 ||
      root >= node_count) {
    return Status::Corruption("implausible X-tree header");
  }

  auto tree = std::unique_ptr<XTreeBackend>(
      new XTreeBackend(dataset, std::move(metric), box, opts));
  tree->nodes_.clear();
  tree->nodes_.resize(node_count);
  for (XNode& node : tree->nodes_) {
    uint32_t is_leaf = 0;
    MSQ_RETURN_IF_ERROR(ReadU32(in, &is_leaf));
    node.is_leaf = is_leaf != 0;
    MSQ_RETURN_IF_ERROR(ReadU32(in, &node.multiplicity));
    MSQ_RETURN_IF_ERROR(ReadU32(in, &node.parent));
    MSQ_RETURN_IF_ERROR(ReadU64(in, &node.split_dims));
    Vec lo, hi;
    MSQ_RETURN_IF_ERROR(ReadVector(in, &lo));
    MSQ_RETURN_IF_ERROR(ReadVector(in, &hi));
    if (lo.size() != dim || hi.size() != dim) {
      return Status::Corruption("node MBR dimensionality mismatch");
    }
    node.mbr = Mbr::FromBounds(std::move(lo), std::move(hi));
    std::vector<XNodeIndex> children;
    MSQ_RETURN_IF_ERROR(ReadVector(in, &children));
    for (XNodeIndex child : children) {
      if (child >= node_count) {
        return Status::Corruption("child index out of range");
      }
      node.entries.push_back({Mbr(), child});
    }
    MSQ_RETURN_IF_ERROR(ReadVector(in, &node.objects));
    for (ObjectId id : node.objects) {
      if (id >= dataset->size()) {
        return Status::Corruption("object id out of range");
      }
    }
  }
  // Entry MBRs mirror child MBRs.
  for (XNode& node : tree->nodes_) {
    for (XDirEntry& e : node.entries) {
      e.mbr = tree->nodes_[e.child].mbr;
    }
  }
  tree->root_ = root;
  tree->num_objects_indexed_ = indexed;
  tree->Finalize();
  MSQ_RETURN_IF_ERROR(tree->CheckInvariants());
  return tree;
}

// --------------------------------------------------------------------
// Bulk load
// --------------------------------------------------------------------

namespace {

// Dimension of maximum spread over the given points.
size_t MaxSpreadDim(const Dataset& ds, const std::vector<ObjectId>& ids) {
  const size_t dim = ds.dim();
  Vec mins(dim, std::numeric_limits<Scalar>::max());
  Vec maxs(dim, std::numeric_limits<Scalar>::lowest());
  for (ObjectId id : ids) {
    const Vec& v = ds.object(id);
    for (size_t d = 0; d < dim; ++d) {
      mins[d] = std::min(mins[d], v[d]);
      maxs[d] = std::max(maxs[d], v[d]);
    }
  }
  size_t best = 0;
  double best_spread = -1.0;
  for (size_t d = 0; d < dim; ++d) {
    const double spread = static_cast<double>(maxs[d]) - mins[d];
    if (spread > best_spread) {
      best_spread = spread;
      best = d;
    }
  }
  return best;
}

}  // namespace

void XTreeBackend::BulkBuild() {
  nodes_.clear();
  std::vector<ObjectId> ids(dataset_->size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<ObjectId>(i);
  std::vector<XNodeIndex> level = BulkLeaves(&ids);
  while (level.size() > 1) {
    level = BulkGroup(&level);
  }
  root_ = level.front();
  nodes_[root_].parent = kInvalidNode;
  num_objects_indexed_ = dataset_->size();
}

std::vector<XNodeIndex> XTreeBackend::BulkLeaves(std::vector<ObjectId>* ids) {
  const size_t target = std::max<size_t>(
      2, static_cast<size_t>(std::floor(options_.bulk_fill *
                                        static_cast<double>(
                                            options_.leaf_capacity))));
  std::vector<XNodeIndex> leaves;
  // Work stack of (range, inherited split mask) over *ids.
  struct Range {
    size_t from, to;
    uint64_t mask;
  };
  std::vector<Range> stack{{0, ids->size(), 0}};
  while (!stack.empty()) {
    const Range r = stack.back();
    stack.pop_back();
    const size_t n = r.to - r.from;
    if (n <= target || n <= 2) {
      XNode leaf;
      leaf.is_leaf = true;
      leaf.split_dims = r.mask;
      leaf.objects.assign(ids->begin() + static_cast<ptrdiff_t>(r.from),
                          ids->begin() + static_cast<ptrdiff_t>(r.to));
      leaf.mbr = Mbr::Empty(dataset_->dim());
      for (ObjectId id : leaf.objects) {
        leaf.mbr.ExtendPoint(dataset_->object(id));
      }
      leaves.push_back(static_cast<XNodeIndex>(nodes_.size()));
      nodes_.push_back(std::move(leaf));
      continue;
    }
    const std::vector<ObjectId> slice(
        ids->begin() + static_cast<ptrdiff_t>(r.from),
        ids->begin() + static_cast<ptrdiff_t>(r.to));
    const size_t axis = MaxSpreadDim(*dataset_, slice);
    // Cut at a multiple of the leaf target so nearly every leaf comes out
    // `target` full instead of degrading toward target/2 under halving.
    const size_t total_leaves = (n + target - 1) / target;
    const size_t mid = r.from + (total_leaves / 2) * target;
    std::nth_element(ids->begin() + static_cast<ptrdiff_t>(r.from),
                     ids->begin() + static_cast<ptrdiff_t>(mid),
                     ids->begin() + static_cast<ptrdiff_t>(r.to),
                     [&](ObjectId a, ObjectId b) {
                       return dataset_->object(a)[axis] <
                              dataset_->object(b)[axis];
                     });
    const uint64_t mask = r.mask | AxisBit(axis);
    stack.push_back({r.from, mid, mask});
    stack.push_back({mid, r.to, mask});
  }
  return leaves;
}

std::vector<XNodeIndex> XTreeBackend::BulkGroup(
    std::vector<XNodeIndex>* children) {
  const size_t target = std::max<size_t>(
      2, static_cast<size_t>(std::floor(options_.bulk_fill *
                                        static_cast<double>(
                                            options_.dir_capacity))));
  // Centers of the child MBRs drive the partitioning.
  std::vector<Vec> centers(children->size());
  for (size_t i = 0; i < children->size(); ++i) {
    centers[i] = nodes_[(*children)[i]].mbr.Center();
  }
  std::vector<uint32_t> order(children->size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<XNodeIndex> parents;
  struct Range {
    size_t from, to;
    uint64_t mask;
  };
  std::vector<Range> stack{{0, order.size(), 0}};
  while (!stack.empty()) {
    const Range r = stack.back();
    stack.pop_back();
    const size_t n = r.to - r.from;
    if (n <= target || n <= 2) {
      XNode parent;
      parent.is_leaf = false;
      parent.split_dims = r.mask;
      parent.mbr = Mbr::Empty(dataset_->dim());
      const XNodeIndex parent_index = static_cast<XNodeIndex>(nodes_.size());
      for (size_t i = r.from; i < r.to; ++i) {
        const XNodeIndex child = (*children)[order[i]];
        parent.entries.push_back({nodes_[child].mbr, child});
        parent.mbr.ExtendMbr(nodes_[child].mbr);
      }
      nodes_.push_back(std::move(parent));
      for (const XDirEntry& e : nodes_[parent_index].entries) {
        nodes_[e.child].parent = parent_index;
      }
      parents.push_back(parent_index);
      continue;
    }
    // Max-spread dimension of the centers in this range.
    const size_t dim = dataset_->dim();
    size_t axis = 0;
    double best_spread = -1.0;
    for (size_t d = 0; d < dim; ++d) {
      Scalar mn = std::numeric_limits<Scalar>::max();
      Scalar mx = std::numeric_limits<Scalar>::lowest();
      for (size_t i = r.from; i < r.to; ++i) {
        mn = std::min(mn, centers[order[i]][d]);
        mx = std::max(mx, centers[order[i]][d]);
      }
      if (static_cast<double>(mx) - mn > best_spread) {
        best_spread = static_cast<double>(mx) - mn;
        axis = d;
      }
    }
    const size_t total_groups = (n + target - 1) / target;
    const size_t mid = r.from + (total_groups / 2) * target;
    std::nth_element(order.begin() + static_cast<ptrdiff_t>(r.from),
                     order.begin() + static_cast<ptrdiff_t>(mid),
                     order.begin() + static_cast<ptrdiff_t>(r.to),
                     [&](uint32_t a, uint32_t b) {
                       return centers[a][axis] < centers[b][axis];
                     });
    const uint64_t mask = r.mask | AxisBit(axis);
    stack.push_back({r.from, mid, mask});
    stack.push_back({mid, r.to, mask});
  }
  return parents;
}

// --------------------------------------------------------------------
// Finalization and the QueryBackend interface
// --------------------------------------------------------------------

void XTreeBackend::Finalize() {
  // Assign page ids to leaves in DFS order (spatial locality on "disk")
  // and rebuild the data layout.
  std::vector<std::vector<ObjectId>> groups;
  page_to_node_.clear();
  std::vector<XNodeIndex> stack{root_};
  while (!stack.empty()) {
    const XNodeIndex cur = stack.back();
    stack.pop_back();
    XNode& node = nodes_[cur];
    if (node.is_leaf) {
      node.page = static_cast<PageId>(groups.size());
      groups.push_back(node.objects);
      page_to_node_.push_back(cur);
    } else {
      // Push in reverse so DFS visits entries in order.
      for (size_t i = node.entries.size(); i-- > 0;) {
        stack.push_back(node.entries[i].child);
      }
    }
  }
  const XTreeShape shape = Shape();
  const size_t buffer_pages = static_cast<size_t>(
      std::ceil(options_.buffer_fraction *
                static_cast<double>(shape.total_blocks)));
  layout_ = DataLayout::FromGroups(std::move(groups), buffer_pages);
  layout_.MaterializeRows(dataset_->dim(), dataset_->objects());
}

namespace {

/// Hjaltason-Samet priority traversal: directory nodes and leaves ordered
/// by MINDIST to the query object; leaves whose MINDIST exceeds the
/// current query distance are pruned (with everything behind them).
class XTreeStream : public CandidateStream {
 public:
  XTreeStream(const std::vector<XNode>* nodes, XNodeIndex root, Vec point,
              const BoxDistanceMetric* box)
      : nodes_(nodes), point_(std::move(point)), box_(box) {
    queue_.push({(*nodes_)[root].mbr.MinDist(point_, *box_), root});
  }

  bool Next(double query_dist, PageCandidate* out) override {
    while (!queue_.empty()) {
      const Item top = queue_.top();
      // The frontier is sorted by MINDIST: once the nearest candidate is
      // beyond the (only ever shrinking) query distance, all are.
      if (top.min_dist > query_dist) return false;
      queue_.pop();
      const XNode& node = (*nodes_)[top.node];
      if (node.is_leaf) {
        out->page = node.page;
        out->min_dist = top.min_dist;
        return true;
      }
      for (const XDirEntry& entry : node.entries) {
        const double d = entry.mbr.MinDist(point_, *box_);
        if (d <= query_dist) queue_.push({d, entry.child});
      }
    }
    return false;
  }

 private:
  struct Item {
    double min_dist;
    XNodeIndex node;
    bool operator>(const Item& other) const {
      if (min_dist != other.min_dist) return min_dist > other.min_dist;
      return node > other.node;
    }
  };
  const std::vector<XNode>* nodes_;
  Vec point_;
  const BoxDistanceMetric* box_;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue_;
};

}  // namespace

std::unique_ptr<CandidateStream> XTreeBackend::OpenStream(const Query& query,
                                                          QueryStats* stats) {
  (void)stats;  // Directory traversal performs no metered operations.
  return std::make_unique<XTreeStream>(&nodes_, root_, query.point,
                                       box_metric_);
}

double XTreeBackend::PageMinDist(PageId page, const Query& q,
                                 QueryStats* stats) {
  (void)stats;
  assert(page < page_to_node_.size());
  return nodes_[page_to_node_[page]].mbr.MinDist(q.point, *box_metric_);
}

XTreeShape XTreeBackend::Shape() const {
  XTreeShape shape;
  size_t filled = 0;
  for (const XNode& n : nodes_) {
    if (n.is_leaf) {
      ++shape.num_leaves;
      ++shape.total_blocks;
      filled += n.objects.size();
    } else {
      ++shape.num_dir_nodes;
      shape.total_blocks += n.multiplicity;
      if (n.multiplicity > 1) ++shape.num_supernodes;
    }
  }
  if (shape.num_leaves > 0) {
    shape.avg_leaf_fill =
        static_cast<double>(filled) /
        (static_cast<double>(shape.num_leaves) *
         static_cast<double>(options_.leaf_capacity));
  }
  // Height: walk from the root to a leaf.
  XNodeIndex cur = root_;
  shape.height = 1;
  while (!nodes_[cur].is_leaf) {
    ++shape.height;
    cur = nodes_[cur].entries.front().child;
  }
  return shape;
}

Status XTreeBackend::CheckInvariants() const {
  // Uniform leaf depth + parent/MBR consistency.
  std::vector<std::pair<XNodeIndex, size_t>> stack{{root_, 0}};
  size_t leaf_depth = 0;
  bool saw_leaf = false;
  size_t objects_seen = 0;
  while (!stack.empty()) {
    const auto [cur, depth] = stack.back();
    stack.pop_back();
    const XNode& node = nodes_[cur];
    if (node.is_leaf) {
      if (!saw_leaf) {
        leaf_depth = depth;
        saw_leaf = true;
      } else if (depth != leaf_depth) {
        return Status::Corruption("leaves at different depths");
      }
      if (node.objects.empty() && cur != root_) {
        return Status::Corruption("empty non-root leaf");
      }
      if (node.objects.size() > options_.leaf_capacity) {
        return Status::Corruption("leaf over capacity");
      }
      objects_seen += node.objects.size();
      for (ObjectId id : node.objects) {
        if (!node.mbr.ContainsPoint(dataset_->object(id))) {
          return Status::Corruption("leaf MBR does not contain its object");
        }
      }
    } else {
      if (node.entries.empty()) {
        return Status::Corruption("empty directory node");
      }
      if (node.entries.size() >
          options_.dir_capacity * node.multiplicity) {
        return Status::Corruption("directory node over capacity");
      }
      for (const XDirEntry& e : node.entries) {
        if (nodes_[e.child].parent != cur) {
          return Status::Corruption("broken parent pointer");
        }
        if (!(e.mbr.ContainsMbr(nodes_[e.child].mbr) &&
              nodes_[e.child].mbr.ContainsMbr(e.mbr))) {
          return Status::Corruption("entry MBR differs from child MBR");
        }
        if (!node.mbr.ContainsMbr(e.mbr)) {
          return Status::Corruption("node MBR does not contain entry MBR");
        }
        stack.push_back({e.child, depth + 1});
      }
    }
  }
  if (objects_seen != num_objects_indexed_) {
    return Status::Corruption("indexed object count mismatch");
  }
  return layout_.CheckInvariants();
}

}  // namespace msq
