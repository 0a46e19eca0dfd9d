// VA-file backend (Weber, Schek, Blott, VLDB'98 — reference [22] of the
// paper): a sequential-scan organization with per-object bit-quantized
// approximations that let most data pages be filtered out before reading.
//
// Phase 1 scans the (much smaller) approximation file — charged as
// sequential page reads proportional to n * dim * bits_per_dim / 8 — and
// derives a lower bound on the distance from the query to every object;
// Phase 2 visits only data pages whose best object-level lower bound does
// not exceed the query distance, in ascending lower-bound order.
//
// Within the multiple-query engine, the approximation data read for the
// primary query is reused in memory to bound pages for the other queries
// (page-level quantized MBRs), so a batch pays the approximation scan once
// per call.

#ifndef MSQ_SCAN_VA_FILE_H_
#define MSQ_SCAN_VA_FILE_H_

#include <cstdint>
#include <memory>

#include "core/backend.h"
#include "dataset/dataset.h"
#include "dist/box_metric.h"
#include "dist/metric.h"
#include "storage/data_layout.h"

namespace msq {

struct VaFileOptions {
  size_t page_size_bytes = kDefaultPageSizeBytes;
  double buffer_fraction = 0.10;
  /// Quantization resolution; the VA-file paper recommends 4-8 bits.
  size_t bits_per_dim = 6;
};

/// VA-file database organization. Requires a metric with MINDIST support
/// (the cell of an approximation is an axis-aligned box).
class VaFileBackend : public QueryBackend {
 public:
  static StatusOr<std::unique_ptr<VaFileBackend>> Build(
      std::shared_ptr<const Dataset> dataset,
      std::shared_ptr<const Metric> metric, const VaFileOptions& options);

  /// Restores a backend from the index blob written by SaveIndex — the
  /// quantization grid, per-object cells, and page MBRs are read back
  /// instead of recomputed.
  static StatusOr<std::unique_ptr<VaFileBackend>> LoadIndex(
      std::istream& in, std::shared_ptr<const Dataset> dataset,
      std::shared_ptr<const Metric> metric);

  std::string Name() const override { return "va_file"; }
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

  /// Number of pages occupied by the approximation file.
  size_t NumApproxPages() const { return approx_pages_; }

  /// Quantized cell box of one object (exposed for tests: the true vector
  /// must always lie inside it).
  void CellBox(ObjectId id, Vec* lo, Vec* hi) const;

 private:
  VaFileBackend(std::shared_ptr<const Dataset> dataset,
                std::shared_ptr<const Metric> metric,
                const BoxDistanceMetric* box_metric, VaFileOptions options);
  void BuildApproximations();

  friend class VaFileStream;

  std::shared_ptr<const Dataset> dataset_;
  std::shared_ptr<const Metric> metric_;
  const BoxDistanceMetric* box_metric_;
  VaFileOptions options_;

  DataLayout layout_;
  size_t approx_pages_ = 0;

  // Grid: per-dimension [min, max] and cell width.
  Vec grid_min_, grid_max_;
  std::vector<double> cell_width_;
  size_t cells_per_dim_ = 0;
  /// Cell index per object per dimension (row-major n x dim).
  std::vector<uint16_t> cells_;
  /// Per-page quantized MBR (lo, hi interleaved per page), for the cheap
  /// page-level bound used by the multiple-query engine.
  std::vector<Vec> page_lo_, page_hi_;
};

}  // namespace msq

#endif  // MSQ_SCAN_VA_FILE_H_
