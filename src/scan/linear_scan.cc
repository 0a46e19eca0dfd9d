#include "scan/linear_scan.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/serialize.h"

namespace msq {

namespace {

constexpr uint32_t kScanMagic = 0x4d535153;  // "MSQS"
constexpr uint32_t kScanVersion = 1;

/// Yields every page in address order with a zero lower bound: the scan has
/// no selectivity, but its accesses are sequential.
class ScanStream : public CandidateStream {
 public:
  explicit ScanStream(size_t num_pages) : num_pages_(num_pages) {}

  bool Next(double query_dist, PageCandidate* out) override {
    (void)query_dist;  // min_dist is 0, so the page always qualifies.
    if (next_ >= num_pages_) return false;
    out->page = static_cast<PageId>(next_++);
    out->min_dist = 0.0;
    return true;
  }

 private:
  size_t num_pages_;
  size_t next_ = 0;
};

}  // namespace

StatusOr<std::unique_ptr<LinearScanBackend>> LinearScanBackend::Build(
    std::shared_ptr<const Dataset> dataset, const LinearScanOptions& options) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  const size_t per_page = ObjectsPerPage(options.page_size_bytes,
                                         dataset->dim());
  const size_t num_pages = (dataset->size() + per_page - 1) / per_page;
  const size_t buffer_pages = static_cast<size_t>(
      std::ceil(options.buffer_fraction * static_cast<double>(num_pages)));
  DataLayout layout =
      DataLayout::Sequential(dataset->size(), per_page, buffer_pages);
  MSQ_RETURN_IF_ERROR(layout.CheckInvariants());
  layout.MaterializeRows(dataset->dim(), dataset->objects());
  return std::unique_ptr<LinearScanBackend>(
      new LinearScanBackend(std::move(dataset), std::move(layout)));
}

std::unique_ptr<CandidateStream> LinearScanBackend::OpenStream(
    const Query& query, QueryStats* stats) {
  (void)query;
  (void)stats;
  return std::make_unique<ScanStream>(layout_.num_pages());
}

double LinearScanBackend::PageMinDist(PageId page, const Query& q,
                                      QueryStats* stats) {
  (void)page;
  (void)q;
  (void)stats;
  return 0.0;  // No approximation information: every page may qualify.
}

Status LinearScanBackend::SaveIndex(std::ostream& out) {
  MSQ_RETURN_IF_ERROR(WriteU32(out, kScanMagic));
  MSQ_RETURN_IF_ERROR(WriteU32(out, kScanVersion));
  MSQ_RETURN_IF_ERROR(WriteU32(out, static_cast<uint32_t>(dataset_->dim())));
  MSQ_RETURN_IF_ERROR(WriteU64(out, dataset_->size()));
  // The sequential layout is fully determined by its geometry.
  MSQ_RETURN_IF_ERROR(WriteU64(out, layout_.Peek(0).size()));
  MSQ_RETURN_IF_ERROR(WriteU64(out, layout_.buffer().capacity()));
  return Status::OK();
}

StatusOr<std::unique_ptr<LinearScanBackend>> LinearScanBackend::LoadIndex(
    std::istream& in, std::shared_ptr<const Dataset> dataset) {
  if (dataset == nullptr || dataset->empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  uint32_t magic = 0, version = 0, dim = 0;
  MSQ_RETURN_IF_ERROR(ReadU32(in, &magic));
  if (magic != kScanMagic) {
    return Status::Corruption("not a linear-scan index blob");
  }
  MSQ_RETURN_IF_ERROR(ReadU32(in, &version));
  if (version != kScanVersion) {
    return Status::NotSupported("unsupported linear-scan index version");
  }
  MSQ_RETURN_IF_ERROR(ReadU32(in, &dim));
  uint64_t n = 0, per_page = 0, buffer_pages = 0;
  MSQ_RETURN_IF_ERROR(ReadU64(in, &n));
  MSQ_RETURN_IF_ERROR(ReadU64(in, &per_page));
  MSQ_RETURN_IF_ERROR(ReadU64(in, &buffer_pages));
  if (dim != dataset->dim() || n != dataset->size()) {
    return Status::InvalidArgument("index built over a different dataset");
  }
  if (per_page == 0) {
    return Status::Corruption("implausible linear-scan page geometry");
  }
  DataLayout layout = DataLayout::Sequential(
      dataset->size(), static_cast<size_t>(per_page),
      static_cast<size_t>(buffer_pages));
  MSQ_RETURN_IF_ERROR(layout.CheckInvariants());
  layout.MaterializeRows(dataset->dim(), dataset->objects());
  return std::unique_ptr<LinearScanBackend>(
      new LinearScanBackend(std::move(dataset), std::move(layout)));
}

}  // namespace msq
