// Linear-scan backend (Sec. 2 / Sec. 5.1, sequential-scan implementation).
//
// Every data page is relevant for every query; pages are visited in address
// order, so all but the first access of a pass are sequential. For a
// multiple query this is the paper's best case: the page set is identical
// for all m queries, so the I/O speed-up of a batch is exactly m.

#ifndef MSQ_SCAN_LINEAR_SCAN_H_
#define MSQ_SCAN_LINEAR_SCAN_H_

#include <memory>

#include "core/backend.h"
#include "dataset/dataset.h"
#include "storage/data_layout.h"

namespace msq {

struct LinearScanOptions {
  size_t page_size_bytes = kDefaultPageSizeBytes;
  /// Buffer pool capacity as a fraction of the number of data pages.
  double buffer_fraction = 0.10;
};

/// Sequential-scan database organization.
class LinearScanBackend : public QueryBackend {
 public:
  /// The dataset is shared (not copied); it must stay alive and unchanged.
  static StatusOr<std::unique_ptr<LinearScanBackend>> Build(
      std::shared_ptr<const Dataset> dataset, const LinearScanOptions& options);

  /// Restores a backend from the index blob written by SaveIndex. The
  /// layout geometry (objects per page, buffer pages) comes from the blob;
  /// the dataset supplies the vectors.
  static StatusOr<std::unique_ptr<LinearScanBackend>> LoadIndex(
      std::istream& in, std::shared_ptr<const Dataset> dataset);

  std::string Name() const override { return "linear_scan"; }
  std::unique_ptr<CandidateStream> OpenStream(const Query& query,
                                              QueryStats* stats) override;
  double PageMinDist(PageId page, const Query& q, QueryStats* stats) override;
  Status ReadPageBlockChecked(PageId page, QueryStats* stats,
                              PageBlock* out) override {
    return layout_.TryReadBlock(page, stats, out);
  }
  DataLayout* MutableLayout() override { return &layout_; }
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

 private:
  LinearScanBackend(std::shared_ptr<const Dataset> dataset, DataLayout layout)
      : dataset_(std::move(dataset)), layout_(std::move(layout)) {}

  std::shared_ptr<const Dataset> dataset_;
  DataLayout layout_;
};

}  // namespace msq

#endif  // MSQ_SCAN_LINEAR_SCAN_H_
