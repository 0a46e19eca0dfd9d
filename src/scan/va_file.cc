#include "scan/va_file.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/serialize.h"

namespace msq {

namespace {
constexpr uint32_t kVaFileMagic = 0x4d535156;  // "MSQV"
constexpr uint32_t kVaFileVersion = 1;
}  // namespace

VaFileBackend::VaFileBackend(std::shared_ptr<const Dataset> dataset,
                             std::shared_ptr<const Metric> metric,
                             const BoxDistanceMetric* box_metric,
                             VaFileOptions options)
    : dataset_(std::move(dataset)),
      metric_(std::move(metric)),
      box_metric_(box_metric),
      options_(options) {}

StatusOr<std::unique_ptr<VaFileBackend>> VaFileBackend::Build(
    std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const Metric> metric, const VaFileOptions& options) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (options.bits_per_dim < 1 || options.bits_per_dim > 16) {
    return Status::InvalidArgument("bits_per_dim must be in [1, 16]");
  }
  const auto* box = dynamic_cast<const BoxDistanceMetric*>(metric.get());
  if (box == nullptr) {
    return Status::NotSupported(
        "VA-file requires a metric with MINDIST support (Lp family); got " +
        metric->Name());
  }
  auto backend = std::unique_ptr<VaFileBackend>(
      new VaFileBackend(std::move(dataset), std::move(metric), box, options));
  backend->BuildApproximations();
  return backend;
}

void VaFileBackend::BuildApproximations() {
  const size_t n = dataset_->size();
  const size_t dim = dataset_->dim();
  cells_per_dim_ = static_cast<size_t>(1) << options_.bits_per_dim;

  dataset_->Bounds(&grid_min_, &grid_max_);
  cell_width_.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    const double extent =
        static_cast<double>(grid_max_[d]) - grid_min_[d];
    cell_width_[d] = extent > 0.0
                         ? extent / static_cast<double>(cells_per_dim_)
                         : 1.0;  // flat dimension: one cell covers all
  }

  cells_.resize(n * dim);
  for (size_t i = 0; i < n; ++i) {
    const Vec& v = dataset_->object(static_cast<ObjectId>(i));
    for (size_t d = 0; d < dim; ++d) {
      const double offset = (static_cast<double>(v[d]) - grid_min_[d]) /
                            cell_width_[d];
      long cell = static_cast<long>(std::floor(offset));
      cell = std::clamp<long>(cell, 0,
                              static_cast<long>(cells_per_dim_) - 1);
      cells_[i * dim + d] = static_cast<uint16_t>(cell);
    }
  }

  // Data layout: sequential, like the scan.
  const size_t per_page = ObjectsPerPage(options_.page_size_bytes, dim);
  const size_t num_pages = (n + per_page - 1) / per_page;
  const size_t buffer_pages = static_cast<size_t>(
      std::ceil(options_.buffer_fraction * static_cast<double>(num_pages)));
  layout_ = DataLayout::Sequential(n, per_page, buffer_pages);
  layout_.MaterializeRows(dim, dataset_->objects());

  // Approximation file size: bits_per_dim bits per component.
  const size_t approx_bytes = (n * dim * options_.bits_per_dim + 7) / 8;
  approx_pages_ = (approx_bytes + options_.page_size_bytes - 1) /
                  options_.page_size_bytes;

  // Per-page quantized MBRs for the multiple-query page bound.
  page_lo_.assign(num_pages, Vec(dim, 0));
  page_hi_.assign(num_pages, Vec(dim, 0));
  for (size_t p = 0; p < num_pages; ++p) {
    Vec lo(dim, std::numeric_limits<Scalar>::max());
    Vec hi(dim, std::numeric_limits<Scalar>::lowest());
    for (ObjectId id : layout_.Peek(static_cast<PageId>(p))) {
      Vec olo, ohi;
      CellBox(id, &olo, &ohi);
      for (size_t d = 0; d < dim; ++d) {
        lo[d] = std::min(lo[d], olo[d]);
        hi[d] = std::max(hi[d], ohi[d]);
      }
    }
    page_lo_[p] = std::move(lo);
    page_hi_[p] = std::move(hi);
  }
}

void VaFileBackend::CellBox(ObjectId id, Vec* lo, Vec* hi) const {
  const size_t dim = dataset_->dim();
  lo->resize(dim);
  hi->resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    const uint16_t cell = cells_[static_cast<size_t>(id) * dim + d];
    (*lo)[d] = static_cast<Scalar>(grid_min_[d] + cell * cell_width_[d]);
    (*hi)[d] =
        static_cast<Scalar>(grid_min_[d] + (cell + 1) * cell_width_[d]);
  }
}

namespace {

/// Phase-1 result: data pages ordered by their best object-level lower
/// bound; Next() consumes them while the bound qualifies.
class VaFileStream : public CandidateStream {
 public:
  VaFileStream(std::vector<PageCandidate> ordered)
      : ordered_(std::move(ordered)) {}

  bool Next(double query_dist, PageCandidate* out) override {
    if (next_ >= ordered_.size()) return false;
    if (ordered_[next_].min_dist > query_dist) {
      // Ordered ascending: everything behind is farther still.
      return false;
    }
    *out = ordered_[next_++];
    return true;
  }

 private:
  std::vector<PageCandidate> ordered_;
  size_t next_ = 0;
};

}  // namespace

std::unique_ptr<CandidateStream> VaFileBackend::OpenStream(const Query& query,
                                                           QueryStats* stats) {
  // Phase 1: sequential scan of the approximation file.
  if (stats != nullptr) {
    stats->seq_page_reads += approx_pages_;
  }
  const size_t dim = dataset_->dim();
  const size_t num_pages = layout_.num_pages();
  std::vector<PageCandidate> pages(num_pages);
  Vec lo(dim), hi(dim);
  for (size_t p = 0; p < num_pages; ++p) {
    double best = std::numeric_limits<double>::infinity();
    for (ObjectId id : layout_.Peek(static_cast<PageId>(p))) {
      CellBox(id, &lo, &hi);
      best = std::min(best, box_metric_->MinDistToBox(query.point, lo, hi));
      if (best == 0.0) break;
    }
    pages[p] = {static_cast<PageId>(p), best};
  }
  std::sort(pages.begin(), pages.end(),
            [](const PageCandidate& a, const PageCandidate& b) {
              if (a.min_dist != b.min_dist) return a.min_dist < b.min_dist;
              return a.page < b.page;
            });
  return std::make_unique<VaFileStream>(std::move(pages));
}

double VaFileBackend::PageMinDist(PageId page, const Query& q,
                                  QueryStats* stats) {
  (void)stats;  // In-memory approximation data; no metered operations.
  assert(page < page_lo_.size());
  return box_metric_->MinDistToBox(q.point, page_lo_[page], page_hi_[page]);
}

Status VaFileBackend::SaveIndex(std::ostream& out) {
  MSQ_RETURN_IF_ERROR(WriteU32(out, kVaFileMagic));
  MSQ_RETURN_IF_ERROR(WriteU32(out, kVaFileVersion));
  MSQ_RETURN_IF_ERROR(WriteU32(out, static_cast<uint32_t>(dataset_->dim())));
  MSQ_RETURN_IF_ERROR(WriteU64(out, dataset_->size()));
  MSQ_RETURN_IF_ERROR(
      WriteU32(out, static_cast<uint32_t>(options_.bits_per_dim)));
  MSQ_RETURN_IF_ERROR(WriteU64(out, layout_.Peek(0).size()));
  MSQ_RETURN_IF_ERROR(WriteU64(out, layout_.buffer().capacity()));
  MSQ_RETURN_IF_ERROR(WriteU64(out, approx_pages_));
  MSQ_RETURN_IF_ERROR(WriteVector(out, grid_min_));
  MSQ_RETURN_IF_ERROR(WriteVector(out, grid_max_));
  MSQ_RETURN_IF_ERROR(WriteVector(out, cell_width_));
  MSQ_RETURN_IF_ERROR(WriteVector(out, cells_));
  for (size_t p = 0; p < layout_.num_pages(); ++p) {
    MSQ_RETURN_IF_ERROR(WriteVector(out, page_lo_[p]));
    MSQ_RETURN_IF_ERROR(WriteVector(out, page_hi_[p]));
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<VaFileBackend>> VaFileBackend::LoadIndex(
    std::istream& in, std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const Metric> metric) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  const auto* box = dynamic_cast<const BoxDistanceMetric*>(metric.get());
  if (box == nullptr) {
    return Status::NotSupported(
        "VA-file requires a metric with MINDIST support (Lp family); got " +
        metric->Name());
  }
  uint32_t magic = 0, version = 0, dim = 0, bits = 0;
  MSQ_RETURN_IF_ERROR(ReadU32(in, &magic));
  if (magic != kVaFileMagic) {
    return Status::Corruption("not a VA-file index blob");
  }
  MSQ_RETURN_IF_ERROR(ReadU32(in, &version));
  if (version != kVaFileVersion) {
    return Status::NotSupported("unsupported VA-file index version");
  }
  MSQ_RETURN_IF_ERROR(ReadU32(in, &dim));
  uint64_t n = 0, per_page = 0, buffer_pages = 0, approx_pages = 0;
  MSQ_RETURN_IF_ERROR(ReadU64(in, &n));
  MSQ_RETURN_IF_ERROR(ReadU32(in, &bits));
  MSQ_RETURN_IF_ERROR(ReadU64(in, &per_page));
  MSQ_RETURN_IF_ERROR(ReadU64(in, &buffer_pages));
  MSQ_RETURN_IF_ERROR(ReadU64(in, &approx_pages));
  if (dim != dataset->dim() || n != dataset->size()) {
    return Status::InvalidArgument("index built over a different dataset");
  }
  if (bits < 1 || bits > 16 || per_page == 0) {
    return Status::Corruption("implausible VA-file header");
  }
  VaFileOptions opts;
  opts.bits_per_dim = bits;
  auto backend = std::unique_ptr<VaFileBackend>(
      new VaFileBackend(std::move(dataset), std::move(metric), box, opts));
  backend->cells_per_dim_ = static_cast<size_t>(1) << bits;
  backend->approx_pages_ = static_cast<size_t>(approx_pages);
  MSQ_RETURN_IF_ERROR(ReadVector(in, &backend->grid_min_));
  MSQ_RETURN_IF_ERROR(ReadVector(in, &backend->grid_max_));
  MSQ_RETURN_IF_ERROR(ReadVector(in, &backend->cell_width_));
  MSQ_RETURN_IF_ERROR(ReadVector(in, &backend->cells_));
  if (backend->grid_min_.size() != dim || backend->grid_max_.size() != dim ||
      backend->cell_width_.size() != dim ||
      backend->cells_.size() != static_cast<size_t>(n) * dim) {
    return Status::Corruption("VA-file grid arrays malformed");
  }
  for (size_t i = 0; i < backend->cells_.size(); ++i) {
    if (backend->cells_[i] >= backend->cells_per_dim_) {
      return Status::Corruption("VA-file cell index out of range");
    }
  }
  backend->layout_ = DataLayout::Sequential(
      backend->dataset_->size(), static_cast<size_t>(per_page),
      static_cast<size_t>(buffer_pages));
  MSQ_RETURN_IF_ERROR(backend->layout_.CheckInvariants());
  backend->layout_.MaterializeRows(dim, backend->dataset_->objects());
  const size_t num_pages = backend->layout_.num_pages();
  backend->page_lo_.resize(num_pages);
  backend->page_hi_.resize(num_pages);
  for (size_t p = 0; p < num_pages; ++p) {
    MSQ_RETURN_IF_ERROR(ReadVector(in, &backend->page_lo_[p]));
    MSQ_RETURN_IF_ERROR(ReadVector(in, &backend->page_hi_[p]));
    if (backend->page_lo_[p].size() != dim ||
        backend->page_hi_[p].size() != dim) {
      return Status::Corruption("VA-file page MBR malformed");
    }
  }
  return backend;
}

}  // namespace msq
