#include "mtree/mtree.h"

#include "common/serialize.h"
#include "core/pivot_table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>
#include <limits>
#include <queue>

namespace msq {

namespace {

size_t DeriveMLeafCapacity(size_t page_size_bytes, size_t dim) {
  // Object vector + parent distance + id.
  const size_t entry = dim * sizeof(Scalar) + sizeof(double) + 8;
  const size_t c = page_size_bytes / entry;
  return c < 2 ? 2 : c;
}

size_t DeriveMDirCapacity(size_t page_size_bytes, size_t dim) {
  // Routing object vector + radius + parent distance + child pointer.
  const size_t entry = dim * sizeof(Scalar) + 2 * sizeof(double) + 8;
  const size_t c = page_size_bytes / entry;
  return c < 2 ? 2 : c;
}

constexpr double kEps = 1e-9;

}  // namespace

MTreeBackend::MTreeBackend(std::shared_ptr<const Dataset> dataset,
                           std::shared_ptr<const Metric> metric,
                           MTreeOptions options)
    : dataset_(std::move(dataset)),
      metric_(std::move(metric)),
      options_(options),
      rng_(options.seed) {
  MNode root;
  root.is_leaf = true;
  nodes_.push_back(std::move(root));
  root_ = 0;
}

StatusOr<std::unique_ptr<MTreeBackend>> MTreeBackend::Build(
    std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const Metric> metric, const MTreeOptions& options) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  MTreeOptions opts = options;
  if (opts.leaf_capacity == 0) {
    opts.leaf_capacity = DeriveMLeafCapacity(opts.page_size_bytes,
                                             dataset->dim());
  }
  if (opts.dir_capacity == 0) {
    opts.dir_capacity = DeriveMDirCapacity(opts.page_size_bytes,
                                           dataset->dim());
  }
  if (opts.leaf_capacity < 2 || opts.dir_capacity < 2) {
    return Status::InvalidArgument("page size too small for node capacity");
  }
  const size_t n = dataset->size();
  auto tree = std::unique_ptr<MTreeBackend>(
      new MTreeBackend(std::move(dataset), std::move(metric), opts));
  for (ObjectId id = 0; id < n; ++id) tree->InsertObject(id);
  tree->Finalize();
  return tree;
}

double MTreeBackend::Dist(ObjectId a, ObjectId b) const {
  return metric_->Distance(dataset_->object(a), dataset_->object(b));
}

double MTreeBackend::DistToVec(const Vec& v, ObjectId b) const {
  return metric_->Distance(v, dataset_->object(b));
}

Status MTreeBackend::Insert(ObjectId id) {
  if (id >= dataset_->size()) {
    return Status::InvalidArgument("object id out of range");
  }
  if (layout_.has_store()) {
    // Re-finalizing would reshuffle pages out from under the on-disk
    // extents; the persistent store is read-only by design.
    return Status::NotSupported("cannot insert into a persistent store");
  }
  InsertObject(id);
  Finalize();
  return Status::OK();
}

void MTreeBackend::InsertObject(ObjectId id) {
  // Descend: at each directory node pick the child whose region needs the
  // least (ideally zero) radius enlargement, enlarging along the path.
  MNodeIndex cur = root_;
  double dist_to_routing = 0.0;  // unused for a routing-less root leaf
  while (!nodes_[cur].is_leaf) {
    const MNode& node = nodes_[cur];
    MNodeIndex best = kInvalidMNode;
    double best_d = 0.0;
    bool best_inside = false;
    double best_penalty = std::numeric_limits<double>::infinity();
    for (MNodeIndex child : node.children) {
      const double d = Dist(id, nodes_[child].routing_object);
      const bool inside = d <= nodes_[child].radius;
      if (inside) {
        if (!best_inside || d < best_penalty) {
          best_inside = true;
          best_penalty = d;
          best = child;
          best_d = d;
        }
      } else if (!best_inside) {
        const double enlarge = d - nodes_[child].radius;
        if (enlarge < best_penalty) {
          best_penalty = enlarge;
          best = child;
          best_d = d;
        }
      }
    }
    assert(best != kInvalidMNode);
    if (best_d > nodes_[best].radius) {
      nodes_[best].radius = best_d;  // enlarge along the insertion path
    }
    dist_to_routing = best_d;
    cur = best;
  }
  InsertIntoLeaf(cur, id, dist_to_routing);
  ++num_objects_indexed_;
}

void MTreeBackend::InsertIntoLeaf(MNodeIndex leaf, ObjectId id,
                                  double dist_to_routing) {
  nodes_[leaf].objects.push_back({id, dist_to_routing});
  if (nodes_[leaf].objects.size() > options_.leaf_capacity) {
    SplitNode(leaf);
  }
}

std::pair<size_t, size_t> MTreeBackend::Promote(
    const std::vector<double>& pairwise, size_t count, ObjectId old_routing,
    const std::vector<ObjectId>& entry_objs) {
  auto pw = [&](size_t i, size_t j) { return pairwise[i * count + j]; };
  switch (options_.promotion) {
    case MTreeOptions::Promotion::kRandom: {
      const size_t a = rng_.NextIndex(count);
      size_t b = rng_.NextIndex(count - 1);
      if (b >= a) ++b;
      return {a, b};
    }
    case MTreeOptions::Promotion::kMaxLowerBound: {
      // Keep the previous routing object (if among the entries), promote
      // the farthest entry from it.
      size_t a = 0;
      for (size_t i = 0; i < count; ++i) {
        if (entry_objs[i] == old_routing) {
          a = i;
          break;
        }
      }
      size_t b = (a == 0) ? 1 : 0;
      for (size_t i = 0; i < count; ++i) {
        if (i != a && pw(a, i) > pw(a, b)) b = i;
      }
      return {a, b};
    }
    case MTreeOptions::Promotion::kSampledMinMaxRadius:
      break;
  }
  // Sampled mM_RAD: evaluate candidate pairs under generalized-hyperplane
  // assignment, keep the pair minimizing the larger covering radius.
  const size_t total_pairs = count * (count - 1) / 2;
  std::vector<std::pair<size_t, size_t>> candidates;
  if (total_pairs <= options_.promotion_samples) {
    for (size_t i = 0; i < count; ++i) {
      for (size_t j = i + 1; j < count; ++j) candidates.emplace_back(i, j);
    }
  } else {
    for (size_t s = 0; s < options_.promotion_samples; ++s) {
      const size_t a = rng_.NextIndex(count);
      size_t b = rng_.NextIndex(count - 1);
      if (b >= a) ++b;
      candidates.emplace_back(a, b);
    }
  }
  std::pair<size_t, size_t> best{0, 1};
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& [a, b] : candidates) {
    double ra = 0.0, rb = 0.0;
    for (size_t i = 0; i < count; ++i) {
      const double da = pw(a, i), db = pw(b, i);
      if (da <= db) {
        ra = std::max(ra, da);
      } else {
        rb = std::max(rb, db);
      }
    }
    const double score = std::max(ra, rb);
    if (score < best_score) {
      best_score = score;
      best = {a, b};
    }
  }
  return best;
}

void MTreeBackend::SplitNode(MNodeIndex node_index) {
  const bool is_leaf = nodes_[node_index].is_leaf;

  // Collect the split entries and their representative objects.
  std::vector<ObjectId> entry_objs;
  if (is_leaf) {
    for (const MLeafEntry& e : nodes_[node_index].objects) {
      entry_objs.push_back(e.object);
    }
  } else {
    for (MNodeIndex child : nodes_[node_index].children) {
      entry_objs.push_back(nodes_[child].routing_object);
    }
  }
  const size_t count = entry_objs.size();
  assert(count >= 2);

  // Pairwise distances of the candidates (index construction cost; not
  // charged to query statistics).
  std::vector<double> pairwise(count * count, 0.0);
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = i + 1; j < count; ++j) {
      const double d = Dist(entry_objs[i], entry_objs[j]);
      pairwise[i * count + j] = d;
      pairwise[j * count + i] = d;
    }
  }
  auto pw = [&](size_t i, size_t j) { return pairwise[i * count + j]; };

  const auto [pa, pb] = Promote(pairwise, count,
                                nodes_[node_index].routing_object, entry_objs);

  // Partition entry indices between the two promoted objects.
  std::vector<size_t> group_a, group_b;
  if (options_.partition == MTreeOptions::Partition::kGeneralizedHyperplane) {
    for (size_t i = 0; i < count; ++i) {
      if (pw(pa, i) <= pw(pb, i)) {
        group_a.push_back(i);
      } else {
        group_b.push_back(i);
      }
    }
    // Guard degenerate assignments: both sides need at least two entries
    // (when available) so no single-child directory nodes appear. The
    // stolen entry is the donor-side one closest to the receiving
    // promoted object, excluding the donor's own promoted object.
    auto steal = [&](std::vector<size_t>* to, std::vector<size_t>* from,
                     size_t to_anchor, size_t from_anchor) {
      size_t best_pos = SIZE_MAX;
      for (size_t pos = 0; pos < from->size(); ++pos) {
        if ((*from)[pos] == from_anchor) continue;
        if (best_pos == SIZE_MAX ||
            pw(to_anchor, (*from)[pos]) < pw(to_anchor, (*from)[best_pos])) {
          best_pos = pos;
        }
      }
      if (best_pos == SIZE_MAX) return false;
      to->push_back((*from)[best_pos]);
      from->erase(from->begin() + static_cast<ptrdiff_t>(best_pos));
      return true;
    };
    const size_t min_side = count >= 4 ? 2 : 1;
    while (group_a.size() < min_side &&
           group_b.size() > min_side &&
           steal(&group_a, &group_b, pa, pb)) {
    }
    while (group_b.size() < min_side &&
           group_a.size() > min_side &&
           steal(&group_b, &group_a, pb, pa)) {
    }
  } else {  // kBalanced
    std::vector<size_t> remaining(count);
    for (size_t i = 0; i < count; ++i) remaining[i] = i;
    bool turn_a = true;
    while (!remaining.empty()) {
      const size_t anchor = turn_a ? pa : pb;
      size_t best_pos = 0;
      for (size_t r = 1; r < remaining.size(); ++r) {
        if (pw(anchor, remaining[r]) < pw(anchor, remaining[best_pos])) {
          best_pos = r;
        }
      }
      (turn_a ? group_a : group_b).push_back(remaining[best_pos]);
      remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(best_pos));
      turn_a = !turn_a;
    }
  }

  // Materialize the sibling and redistribute content.
  const MNodeIndex right_index = static_cast<MNodeIndex>(nodes_.size());
  {
    MNode right;
    right.is_leaf = is_leaf;
    nodes_.push_back(std::move(right));
  }
  MNode& node = nodes_[node_index];
  MNode& right = nodes_[right_index];

  double radius_a = 0.0, radius_b = 0.0;
  if (is_leaf) {
    std::vector<MLeafEntry> old = std::move(node.objects);
    node.objects.clear();
    for (size_t i : group_a) {
      node.objects.push_back({old[i].object, pw(pa, i)});
      radius_a = std::max(radius_a, pw(pa, i));
    }
    for (size_t i : group_b) {
      right.objects.push_back({old[i].object, pw(pb, i)});
      radius_b = std::max(radius_b, pw(pb, i));
    }
  } else {
    std::vector<MNodeIndex> old = std::move(node.children);
    node.children.clear();
    for (size_t i : group_a) {
      const MNodeIndex child = old[i];
      node.children.push_back(child);
      nodes_[child].parent = node_index;
      nodes_[child].dist_to_parent = pw(pa, i);
      radius_a = std::max(radius_a, pw(pa, i) + nodes_[child].radius);
    }
    for (size_t i : group_b) {
      const MNodeIndex child = old[i];
      right.children.push_back(child);
      nodes_[child].parent = right_index;
      nodes_[child].dist_to_parent = pw(pb, i);
      radius_b = std::max(radius_b, pw(pb, i) + nodes_[child].radius);
    }
  }
  node.routing_object = entry_objs[pa];
  node.radius = radius_a;
  right.routing_object = entry_objs[pb];
  right.radius = radius_b;

  if (node_index == root_) {
    MNode new_root;
    new_root.is_leaf = false;
    new_root.children = {node_index, right_index};
    const MNodeIndex root_index = static_cast<MNodeIndex>(nodes_.size());
    nodes_.push_back(std::move(new_root));
    nodes_[node_index].parent = root_index;
    nodes_[node_index].dist_to_parent = 0.0;
    nodes_[right_index].parent = root_index;
    nodes_[right_index].dist_to_parent = 0.0;
    root_ = root_index;
    return;
  }

  // Hook the sibling into the parent and refresh parent distances.
  const MNodeIndex parent = node.parent;
  right.parent = parent;
  nodes_[parent].children.push_back(right_index);
  const ObjectId parent_routing = nodes_[parent].routing_object;
  if (parent_routing != kInvalidObjectId) {
    nodes_[node_index].dist_to_parent =
        Dist(nodes_[node_index].routing_object, parent_routing);
    nodes_[right_index].dist_to_parent =
        Dist(nodes_[right_index].routing_object, parent_routing);
    // The split can move content outward; widen the parent radius so its
    // covering invariant keeps holding.
    nodes_[parent].radius = std::max(
        {nodes_[parent].radius,
         nodes_[node_index].dist_to_parent + nodes_[node_index].radius,
         nodes_[right_index].dist_to_parent + nodes_[right_index].radius});
  } else {
    nodes_[node_index].dist_to_parent = 0.0;
    nodes_[right_index].dist_to_parent = 0.0;
  }
  if (nodes_[parent].children.size() > options_.dir_capacity) {
    SplitNode(parent);
  }
}

// --------------------------------------------------------------------
// Persistence
// --------------------------------------------------------------------

namespace {
constexpr uint32_t kMTreeMagic = 0x4d53514d;  // "MSQM"
constexpr uint32_t kMTreeVersion = 1;
}  // namespace

Status MTreeBackend::SaveIndex(std::ostream& out) {
  MSQ_RETURN_IF_ERROR(WriteU32(out, kMTreeMagic));
  MSQ_RETURN_IF_ERROR(WriteU32(out, kMTreeVersion));
  MSQ_RETURN_IF_ERROR(WriteU32(out, static_cast<uint32_t>(dataset_->dim())));
  MSQ_RETURN_IF_ERROR(WriteU64(out, num_objects_indexed_));
  MSQ_RETURN_IF_ERROR(
      WriteU32(out, static_cast<uint32_t>(options_.leaf_capacity)));
  MSQ_RETURN_IF_ERROR(
      WriteU32(out, static_cast<uint32_t>(options_.dir_capacity)));
  MSQ_RETURN_IF_ERROR(WriteU32(out, root_));
  MSQ_RETURN_IF_ERROR(WriteU32(out, static_cast<uint32_t>(nodes_.size())));
  for (const MNode& node : nodes_) {
    MSQ_RETURN_IF_ERROR(WriteU32(out, node.is_leaf ? 1 : 0));
    MSQ_RETURN_IF_ERROR(WriteU32(out, node.parent));
    MSQ_RETURN_IF_ERROR(WriteU32(out, node.routing_object));
    MSQ_RETURN_IF_ERROR(WriteF64(out, node.radius));
    MSQ_RETURN_IF_ERROR(WriteF64(out, node.dist_to_parent));
    MSQ_RETURN_IF_ERROR(WriteVector(out, node.children));
    std::vector<ObjectId> object_ids;
    std::vector<double> parent_dists;
    object_ids.reserve(node.objects.size());
    parent_dists.reserve(node.objects.size());
    for (const MLeafEntry& e : node.objects) {
      object_ids.push_back(e.object);
      parent_dists.push_back(e.dist_to_parent);
    }
    MSQ_RETURN_IF_ERROR(WriteVector(out, object_ids));
    MSQ_RETURN_IF_ERROR(WriteVector(out, parent_dists));
  }
  if (!out) return Status::IOError("write failed (M-tree index)");
  return Status::OK();
}

Status MTreeBackend::Save(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  MSQ_RETURN_IF_ERROR(SaveIndex(out));
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

StatusOr<std::unique_ptr<MTreeBackend>> MTreeBackend::Load(
    const std::string& path, std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const Metric> metric, const MTreeOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadFrom(in, std::move(dataset), std::move(metric), options);
}

StatusOr<std::unique_ptr<MTreeBackend>> MTreeBackend::LoadFrom(
    std::istream& in, std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const Metric> metric, const MTreeOptions& options) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  uint32_t magic = 0, version = 0, dim = 0;
  MSQ_RETURN_IF_ERROR(ReadU32(in, &magic));
  MSQ_RETURN_IF_ERROR(ReadU32(in, &version));
  if (magic != kMTreeMagic) return Status::Corruption("not an M-tree file");
  if (version != kMTreeVersion) {
    return Status::NotSupported("unsupported M-tree file version");
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
  MTreeOptions opts = options;
  uint32_t leaf_cap = 0, dir_cap = 0, root = 0, node_count = 0;
  MSQ_RETURN_IF_ERROR(ReadU32(in, &leaf_cap));
  MSQ_RETURN_IF_ERROR(ReadU32(in, &dir_cap));
  MSQ_RETURN_IF_ERROR(ReadU32(in, &root));
  MSQ_RETURN_IF_ERROR(ReadU32(in, &node_count));
  opts.leaf_capacity = leaf_cap;
  opts.dir_capacity = dir_cap;
  if (leaf_cap < 2 || dir_cap < 2 || node_count == 0 ||
      root >= node_count) {
    return Status::Corruption("implausible M-tree header");
  }
  auto tree = std::unique_ptr<MTreeBackend>(
      new MTreeBackend(dataset, std::move(metric), opts));
  tree->nodes_.clear();
  tree->nodes_.resize(node_count);
  for (MNode& node : tree->nodes_) {
    uint32_t is_leaf = 0;
    MSQ_RETURN_IF_ERROR(ReadU32(in, &is_leaf));
    node.is_leaf = is_leaf != 0;
    MSQ_RETURN_IF_ERROR(ReadU32(in, &node.parent));
    MSQ_RETURN_IF_ERROR(ReadU32(in, &node.routing_object));
    MSQ_RETURN_IF_ERROR(ReadF64(in, &node.radius));
    MSQ_RETURN_IF_ERROR(ReadF64(in, &node.dist_to_parent));
    MSQ_RETURN_IF_ERROR(ReadVector(in, &node.children));
    for (MNodeIndex child : node.children) {
      if (child >= node_count) {
        return Status::Corruption("child index out of range");
      }
    }
    std::vector<ObjectId> object_ids;
    std::vector<double> parent_dists;
    MSQ_RETURN_IF_ERROR(ReadVector(in, &object_ids));
    MSQ_RETURN_IF_ERROR(ReadVector(in, &parent_dists));
    if (object_ids.size() != parent_dists.size()) {
      return Status::Corruption("leaf entry arrays disagree");
    }
    node.objects.reserve(object_ids.size());
    for (size_t i = 0; i < object_ids.size(); ++i) {
      if (object_ids[i] >= dataset->size()) {
        return Status::Corruption("object id out of range");
      }
      node.objects.push_back({object_ids[i], parent_dists[i]});
    }
  }
  tree->root_ = root;
  tree->num_objects_indexed_ = indexed;
  tree->Finalize();
  // Re-validates radii/parent distances under the caller's metric: loading
  // an index with the wrong metric fails here instead of corrupting
  // query results.
  MSQ_RETURN_IF_ERROR(tree->CheckInvariants());
  return tree;
}

// --------------------------------------------------------------------
// Finalization and the QueryBackend interface
// --------------------------------------------------------------------

void MTreeBackend::Finalize() {
  std::vector<std::vector<ObjectId>> groups;
  page_to_node_.clear();
  std::vector<MNodeIndex> stack{root_};
  while (!stack.empty()) {
    const MNodeIndex cur = stack.back();
    stack.pop_back();
    MNode& node = nodes_[cur];
    if (node.is_leaf) {
      node.page = static_cast<PageId>(groups.size());
      std::vector<ObjectId> group;
      group.reserve(node.objects.size());
      for (const MLeafEntry& e : node.objects) group.push_back(e.object);
      groups.push_back(std::move(group));
      page_to_node_.push_back(cur);
    } else {
      for (size_t i = node.children.size(); i-- > 0;) {
        stack.push_back(node.children[i]);
      }
    }
  }
  const MTreeShape shape = Shape();
  const size_t buffer_pages = static_cast<size_t>(std::ceil(
      options_.buffer_fraction *
      static_cast<double>(shape.num_leaves + shape.num_dir_nodes)));
  layout_ = DataLayout::FromGroups(std::move(groups), buffer_pages);
  layout_.MaterializeRows(dataset_->dim(), dataset_->objects());
  layout_.SetMetricsSink(metrics_sink_);
  // Inserts since the last attach may have reshaped subtrees; re-derive
  // the hyper-rings so they bound the current membership.
  if (pivots_ != nullptr && root_ != kInvalidMNode) BuildRings(root_);
}

void MTreeBackend::AttachPivots(std::shared_ptr<const PivotTable> pivots) {
  if (pivots != nullptr && pivots->num_objects() != dataset_->size()) {
    return;  // wrong table; rings from it would prune valid answers
  }
  pivots_ = std::move(pivots);
  if (pivots_ != nullptr && root_ != kInvalidMNode) BuildRings(root_);
}

void MTreeBackend::BuildRings(MNodeIndex index) {
  MNode& node = nodes_[index];
  const size_t p = pivots_->num_pivots();
  node.ring_min.assign(p, std::numeric_limits<double>::infinity());
  node.ring_max.assign(p, -std::numeric_limits<double>::infinity());
  if (node.is_leaf) {
    for (const MLeafEntry& e : node.objects) {
      const double* row = pivots_->Row(e.object);
      for (size_t k = 0; k < p; ++k) {
        node.ring_min[k] = std::min(node.ring_min[k], row[k]);
        node.ring_max[k] = std::max(node.ring_max[k], row[k]);
      }
    }
  } else {
    for (MNodeIndex c : node.children) {
      BuildRings(c);
      const MNode& child = nodes_[c];
      for (size_t k = 0; k < p; ++k) {
        node.ring_min[k] = std::min(node.ring_min[k], child.ring_min[k]);
        node.ring_max[k] = std::max(node.ring_max[k], child.ring_max[k]);
      }
    }
  }
}

/// Priority traversal over M-tree subtrees ordered by the lower bound
/// max(0, dist(q, routing) - radius); parent-distance pruning skips
/// routing-object distance computations where the stored distances prove
/// the bound already exceeds the query distance.
class MTreeStream : public CandidateStream {
 public:
  MTreeStream(MTreeBackend* tree, Vec point, QueryStats* stats)
      : tree_(tree), point_(std::move(point)),
        metric_(tree->metric_), stats_(stats) {
    metric_.set_stats(stats_);
    if (tree_->pivots_ != nullptr) {
      // Hyper-ring cuts need dist(q, P_k); charged per stream as
      // pivot_dist_computations — the per-query setup cost of the filter.
      tree_->pivots_->QueryDists(point_, *tree_->metric_, stats_,
                                 &query_pivot_dists_);
    }
    queue_.push({0.0, tree_->root_, 0.0, false});
  }

  bool Next(double query_dist, PageCandidate* out) override {
    while (!queue_.empty()) {
      const Item top = queue_.top();
      if (top.lower_bound > query_dist) return false;
      queue_.pop();
      const MNode& node = tree_->nodes_[top.node];
      if (node.is_leaf) {
        out->page = node.page;
        out->min_dist = top.lower_bound;
        return true;
      }
      for (MNodeIndex child_index : node.children) {
        const MNode& child = tree_->nodes_[child_index];
        if (top.has_routing_dist) {
          // Triangle-inequality prefilter from the stored parent distance:
          // |d(q,parent) - d(child,parent)| - r(child) already lower-bounds
          // d(q, child subtree); one comparison instead of one distance.
          if (stats_ != nullptr) ++stats_->triangle_tries;
          const double cheap_lb =
              std::fabs(top.routing_dist - child.dist_to_parent) -
              child.radius;
          if (cheap_lb > query_dist) {
            if (stats_ != nullptr) ++stats_->triangle_avoided;
            continue;
          }
        }
        if (RingCut(child, query_dist)) continue;
        const double d = metric_.Distance(
            point_, tree_->dataset_->object(child.routing_object));
        const double lb = std::max(0.0, d - child.radius);
        if (lb <= query_dist) queue_.push({lb, child_index, d, true});
      }
    }
    return false;
  }

 private:
  /// PM-tree hyper-ring cut: every object of `child`'s subtree lies within
  /// [ring_min_k, ring_max_k] of pivot P_k, so
  /// d(q,P_k) - query_dist > ring_max_k (subtree entirely inside the
  /// query's pivot ball, too close to the pivot) or
  /// d(q,P_k) + query_dist < ring_min_k (entirely outside) proves every
  /// subtree object farther than query_dist — strictly, so boundary
  /// objects survive. One charged pivot_tries per evaluated pivot; a cut
  /// charges one pivot_avoided (the skipped routing-object distance).
  bool RingCut(const MNode& child, double query_dist) {
    if (query_pivot_dists_.empty() || child.ring_min.empty() ||
        std::isinf(query_dist)) {
      return false;
    }
    for (size_t k = 0; k < query_pivot_dists_.size(); ++k) {
      if (stats_ != nullptr) ++stats_->pivot_tries;
      if (query_pivot_dists_[k] - query_dist > child.ring_max[k] ||
          query_pivot_dists_[k] + query_dist < child.ring_min[k]) {
        if (stats_ != nullptr) ++stats_->pivot_avoided;
        return true;
      }
    }
    return false;
  }

  struct Item {
    double lower_bound;
    MNodeIndex node;
    /// dist(q, this node's routing object); meaningless for the root.
    double routing_dist;
    bool has_routing_dist;
    bool operator>(const Item& other) const {
      if (lower_bound != other.lower_bound) {
        return lower_bound > other.lower_bound;
      }
      return node > other.node;
    }
  };
  MTreeBackend* tree_;
  Vec point_;
  CountingMetric metric_;
  QueryStats* stats_;
  /// dist(q, P_k) for the attached pivot table; empty when none.
  std::vector<double> query_pivot_dists_;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue_;
};

std::unique_ptr<CandidateStream> MTreeBackend::OpenStream(const Query& query,
                                                          QueryStats* stats) {
  return std::make_unique<MTreeStream>(this, query.point, stats);
}

double MTreeBackend::PageMinDist(PageId page, const Query& q,
                                 QueryStats* stats) {
  assert(page < page_to_node_.size());
  const MNode& node = nodes_[page_to_node_[page]];
  if (node.routing_object == kInvalidObjectId) return 0.0;  // root leaf
  CountingMetric counted(metric_);
  counted.set_stats(stats);
  const double d = counted.Distance(q.point,
                                    dataset_->object(node.routing_object));
  return std::max(0.0, d - node.radius);
}

MTreeShape MTreeBackend::Shape() const {
  MTreeShape shape;
  size_t filled = 0;
  for (const MNode& n : nodes_) {
    if (n.is_leaf) {
      ++shape.num_leaves;
      filled += n.objects.size();
    } else {
      ++shape.num_dir_nodes;
    }
  }
  if (shape.num_leaves > 0) {
    shape.avg_leaf_fill =
        static_cast<double>(filled) /
        (static_cast<double>(shape.num_leaves) *
         static_cast<double>(options_.leaf_capacity));
  }
  MNodeIndex cur = root_;
  shape.height = 1;
  while (!nodes_[cur].is_leaf) {
    ++shape.height;
    cur = nodes_[cur].children.front();
  }
  return shape;
}

double MTreeBackend::SubtreeMaxDist(MNodeIndex node_index,
                                    ObjectId routing) const {
  const MNode& node = nodes_[node_index];
  double max_d = 0.0;
  if (node.is_leaf) {
    for (const MLeafEntry& e : node.objects) {
      max_d = std::max(max_d, Dist(e.object, routing));
    }
  } else {
    for (MNodeIndex child : node.children) {
      max_d = std::max(max_d, SubtreeMaxDist(child, routing));
    }
  }
  return max_d;
}

Status MTreeBackend::CheckSubtree(MNodeIndex node_index, size_t depth,
                                  size_t* leaf_depth,
                                  size_t* objects_seen) const {
  const MNode& node = nodes_[node_index];
  if (node.is_leaf) {
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (depth != *leaf_depth) {
      return Status::Corruption("leaves at different depths");
    }
    if (node.objects.size() > options_.leaf_capacity) {
      return Status::Corruption("leaf over capacity");
    }
    *objects_seen += node.objects.size();
    if (node.routing_object != kInvalidObjectId) {
      for (const MLeafEntry& e : node.objects) {
        const double d = Dist(e.object, node.routing_object);
        if (std::fabs(d - e.dist_to_parent) > kEps) {
          return Status::Corruption("stale leaf parent distance");
        }
        if (d > node.radius + kEps) {
          return Status::Corruption("leaf object outside covering radius");
        }
      }
    }
    return Status::OK();
  }
  if (node.children.size() > options_.dir_capacity) {
    return Status::Corruption("directory node over capacity");
  }
  if (node.children.size() < 2 && node_index != root_) {
    return Status::Corruption("underfull directory node");
  }
  for (MNodeIndex child_index : node.children) {
    const MNode& child = nodes_[child_index];
    if (child.parent != node_index) {
      return Status::Corruption("broken parent pointer");
    }
    if (node.routing_object != kInvalidObjectId) {
      const double d = Dist(child.routing_object, node.routing_object);
      if (std::fabs(d - child.dist_to_parent) > kEps) {
        return Status::Corruption("stale routing parent distance");
      }
      if (SubtreeMaxDist(child_index, node.routing_object) >
          node.radius + kEps) {
        return Status::Corruption("subtree escapes covering radius");
      }
    }
    if (SubtreeMaxDist(child_index, child.routing_object) >
        child.radius + kEps) {
      return Status::Corruption("child covering radius too small");
    }
    MSQ_RETURN_IF_ERROR(
        CheckSubtree(child_index, depth + 1, leaf_depth, objects_seen));
  }
  return Status::OK();
}

Status MTreeBackend::CheckInvariants() const {
  size_t leaf_depth = 0;
  size_t objects_seen = 0;
  MSQ_RETURN_IF_ERROR(CheckSubtree(root_, 1, &leaf_depth, &objects_seen));
  if (objects_seen != num_objects_indexed_) {
    return Status::Corruption("indexed object count mismatch");
  }
  return layout_.CheckInvariants();
}

}  // namespace msq
