#include "core/mutable_backend.h"

#include <algorithm>
#include <utility>

namespace msq {

namespace {

/// Yields every delta pseudo-page first (min_dist 0: the delta is
/// memory-resident and unindexed, so no lower bound exists and no pruning
/// is sound), then delegates to the base backend's stream. Yielding the
/// unprunable pages before any radius tightening is always safe — a page
/// pruned later is pruned against a radius the delta answers only
/// shrank. The stream owns a snapshot reference, so it stays consistent
/// even if the caller's session ends first.
class OverlayStream : public CandidateStream {
 public:
  OverlayStream(std::shared_ptr<const LiveVersion> version,
                std::unique_ptr<CandidateStream> inner)
      : version_(std::move(version)),
        inner_(std::move(inner)),
        base_pages_(version_->base->NumDataPages()) {}

  bool Next(double query_dist, PageCandidate* out) override {
    if (next_delta_ < version_->num_delta_pages()) {
      out->page = static_cast<PageId>(base_pages_ + next_delta_);
      out->min_dist = 0.0;
      ++next_delta_;
      return true;
    }
    return inner_->Next(query_dist, out);
  }

 private:
  std::shared_ptr<const LiveVersion> version_;
  std::unique_ptr<CandidateStream> inner_;
  size_t base_pages_;
  size_t next_delta_ = 0;
};

bool AnyTombstoned(const LiveVersion& v, const ObjectId* ids, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (v.tombstoned(ids[i])) return true;
  }
  return false;
}

}  // namespace

MutableBackend::MutableBackend(std::shared_ptr<QueryBackend> base,
                               std::shared_ptr<const Dataset> base_dataset) {
  auto v = std::make_shared<LiveVersion>();
  v->base_n = base_dataset->size();
  const size_t base_pages = std::max<size_t>(1, base->NumDataPages());
  v->delta_page_cap =
      std::max<size_t>(1, (v->base_n + base_pages - 1) / base_pages);
  v->base = std::move(base);
  v->base_dataset = std::move(base_dataset);
  current_ = std::move(v);
}

std::shared_ptr<const LiveVersion> MutableBackend::Current() const {
  std::lock_guard<std::mutex> lock(version_mu_);
  return current_;
}

void MutableBackend::Publish(std::shared_ptr<const LiveVersion> next) {
  // `old` is dropped after the lock is released: when the writer holds the
  // last reference, the version's teardown (possibly a whole index) must
  // not block readers loading Current().
  std::shared_ptr<const LiveVersion> old;
  {
    std::lock_guard<std::mutex> lock(version_mu_);
    old = std::move(current_);
    current_ = std::move(next);
  }
}

void MutableBackend::AttachPivots(std::shared_ptr<const PivotTable> pivots) {
  std::shared_ptr<const LiveVersion> cur = Current();
  auto next = std::make_shared<LiveVersion>(*cur);
  next->pivots = pivots;
  Publish(std::move(next));
  cur->base->AttachPivots(std::move(pivots));
}

std::unique_ptr<CandidateStream> MutableBackend::OpenStream(
    const Query& query, QueryStats* stats) {
  std::shared_ptr<const LiveVersion> v = View();
  std::unique_ptr<CandidateStream> inner = v->base->OpenStream(query, stats);
  if (v->delta.empty()) return inner;  // transparent when unmutated
  return std::make_unique<OverlayStream>(std::move(v), std::move(inner));
}

double MutableBackend::PageMinDist(PageId page, const Query& q,
                                   QueryStats* stats) {
  const auto& v = View();
  if (page >= v->base->NumDataPages()) return 0.0;
  return v->base->PageMinDist(page, q, stats);
}

Status MutableBackend::ReadPageBlockChecked(PageId page, QueryStats* stats,
                                            PageBlock* out) {
  const auto& v = View();
  const size_t base_pages = v->base->NumDataPages();
  if (page < base_pages) {
    MSQ_RETURN_IF_ERROR(v->base->ReadPageBlockChecked(page, stats, out));
    if (v->tomb_count == 0 ||
        !AnyTombstoned(*v, out->ids, out->size())) {
      return Status::OK();  // pass-through: tiles and all
    }
    // Filter the survivors into scratch. The gathered block loses the
    // tile mirror (kernels fall back to the row-major path) — acceptable:
    // only pages actually holding tombstones pay, and only until
    // compaction.
    const size_t dim = out->vecs.dim;
    scratch_ids_.clear();
    scratch_rows_.clear();
    for (size_t i = 0; i < out->size(); ++i) {
      if (v->tombstoned(out->ids[i])) continue;
      scratch_ids_.push_back(out->ids[i]);
      const Scalar* row = out->vecs.data + i * dim;
      scratch_rows_.insert(scratch_rows_.end(), row, row + dim);
    }
    out->ids = scratch_ids_.data();
    out->vecs = VecBlock{scratch_rows_.data(), dim, scratch_ids_.size()};
    return Status::OK();
  }
  // Delta pseudo-page: gather the surviving rows from the in-memory
  // delta. No I/O is charged — the delta is memory-resident by
  // construction; compaction is the step that pays to page it.
  const size_t begin = (page - base_pages) * v->delta_page_cap;
  const size_t end = std::min(begin + v->delta_page_cap, v->delta.size());
  const size_t dim = v->base_dataset->dim();
  scratch_ids_.clear();
  scratch_rows_.clear();
  for (size_t i = begin; i < end; ++i) {
    const size_t id = v->base_n + i;
    if (v->tombstoned(id)) continue;
    scratch_ids_.push_back(static_cast<ObjectId>(id));
    const Vec& row = v->delta[i];
    scratch_rows_.insert(scratch_rows_.end(), row.begin(), row.end());
  }
  out->ids = scratch_ids_.data();
  out->vecs = VecBlock{scratch_rows_.data(), dim, scratch_ids_.size()};
  return Status::OK();
}

}  // namespace msq
