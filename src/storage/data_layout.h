// DataLayout: assignment of objects to data pages.
//
// The linear scan stores objects in address order; tree backends store each
// leaf node as one data page whose membership reflects the tree's
// clustering. The layout owns the page -> objects mapping and the combined
// I/O path (buffer pool check, then disk model charge).

#ifndef MSQ_STORAGE_DATA_LAYOUT_H_
#define MSQ_STORAGE_DATA_LAYOUT_H_

#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "dist/vector.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace msq {

/// Non-owning view of one data page's payload: the objects' feature
/// vectors packed contiguously (row-major) with the parallel ObjectId
/// array. `vecs.row(i)` is the vector of object `ids[i]`. This is what the
/// page kernel streams batched distance computations over — sequential
/// memory instead of one ObjectVec pointer chase per object.
struct PageBlock {
  VecBlock vecs;
  const ObjectId* ids = nullptr;

  size_t size() const { return vecs.count; }
};

/// Maps pages to object lists and meters access to them.
class DataLayout {
 public:
  DataLayout() : buffer_(0) {}

  /// Sequential layout: objects 0..n-1 chunked into pages of
  /// `objects_per_page` in id order (the scan's file organization).
  static DataLayout Sequential(size_t num_objects, size_t objects_per_page,
                               size_t buffer_pages);

  /// Clustered layout: one page per group (tree leaves). Groups need not
  /// have equal sizes; empty groups are rejected by the invariant checker.
  static DataLayout FromGroups(std::vector<std::vector<ObjectId>> groups,
                               size_t buffer_pages);

  /// Packs each page's object vectors into a contiguous row-major block so
  /// TryReadBlock can hand out PageBlock views. `objects[id]` must be the
  /// vector of object `id` (every id stored in the layout), all of size
  /// `dim`. Idempotent: re-invoke after the page map changes (tree
  /// re-finalization).
  void MaterializeRows(size_t dim, const std::vector<Vec>& objects);

  /// True once MaterializeRows has run for the current page map.
  bool has_rows() const { return !row_data_.empty() || pages_.empty(); }

  /// Objects stored on `page`. Charges the access (buffer hit or disk
  /// read) to `stats`. When a persistent store is attached the page
  /// payload comes from a real positioned read whose failure (I/O error,
  /// checksum mismatch) is surfaced; on failure the page is NOT left
  /// resident in the buffer pool — a retry is a true miss that re-reads.
  /// Without a store this always succeeds.
  Status TryRead(PageId page, QueryStats* stats,
                 const std::vector<ObjectId>** out);

  /// Contiguous view of `page` (requires MaterializeRows): TryRead plus the
  /// packed rows, charged as the same single page access. The returned
  /// view is valid until the next read on this layout.
  Status TryReadBlock(PageId page, QueryStats* stats, PageBlock* out);

  /// Writes every page's payload (ids + packed rows) as extents of `store`
  /// plus a "pages" directory object mapping page ids to extents. Requires
  /// MaterializeRows. Layout metadata (which backend Save embeds in its
  /// index blob) is not written here.
  Status SaveToStore(PageFile* store) const;

  /// Routes subsequent reads through `store`: page payloads (rows + tiles)
  /// are dropped and re-read on demand from the extents recorded by
  /// SaveToStore, with the buffer pool now tracking which payloads stay
  /// resident. The page -> objects metadata remains in memory; the store's
  /// "pages" directory is verified against it (page count, per-page
  /// sizes, dimensionality).
  Status AttachStore(std::shared_ptr<PageFile> store);

  bool has_store() const { return store_ != nullptr; }
  const PageFile* store() const { return store_.get(); }

  /// Reads every object vector back from the "pages" directory of `store`
  /// (the inverse of SaveToStore's data-page pass). `objects` is indexed by
  /// ObjectId; every id must appear exactly once across the stored pages or
  /// the store is rejected as corrupt. Used by MetricDatabase::Open to
  /// reconstruct the dataset before the index blob is loaded.
  static Status LoadStoredObjects(const PageFile& store, size_t* dim,
                                  std::vector<Vec>* objects);

  /// Objects stored on `page`, without any accounting (for tests/tools).
  const std::vector<ObjectId>& Peek(PageId page) const;

  /// Charges a failed read attempt to the disk model (seek paid, no data,
  /// head position lost). See DiskModel::RecordFailedRead.
  void NoteFailedRead(QueryStats* stats) { disk_.RecordFailedRead(stats); }

  /// Page holding `object`.
  PageId PageOf(ObjectId object) const;

  size_t num_pages() const { return pages_.size(); }
  size_t num_objects() const { return page_of_.size(); }
  BufferPool& buffer() { return buffer_; }

  /// Forwards the observability sink to the buffer pool (see
  /// BufferPool::SetMetricsSink).
  void SetMetricsSink(const obs::MetricsSink* sink) {
    buffer_.SetMetricsSink(sink);
  }

  /// Clears buffer content and disk-head position (between experiments).
  void ResetIoState();

  /// Verifies that every object appears on exactly one page and no page is
  /// empty. Used by tests and the tree invariant checkers.
  Status CheckInvariants() const;

 private:
  /// Loads `page`'s payload from the store, verifying extent CRC, tag,
  /// page id, and that the stored ids equal the resident metadata.
  Status EnsurePageLoaded(PageId page);
  /// Frees a page's cached payload (store mode only).
  void DropPayload(PageId page);
  /// Admits a freshly loaded page into the buffer pool, dropping the
  /// payload of whatever got evicted so "resident in pool" and "payload
  /// cached" stay in lockstep. With a zero-capacity pool only the most
  /// recently read page keeps its payload (so returned views stay valid
  /// until the next read).
  void AdmitLoaded(PageId page);

  std::vector<std::vector<ObjectId>> pages_;
  /// Per-page packed rows (row i of page p is the vector of pages_[p][i]);
  /// empty until MaterializeRows.
  std::vector<std::vector<Scalar>> row_data_;
  /// Per-page tile-major mirror of row_data_ (see VecBlock::tiles), built
  /// alongside it so TryReadBlock hands out blocks the ISA-cloned kernels
  /// can stream at full vector width.
  std::vector<std::vector<Scalar>> tile_data_;
  size_t dim_ = 0;
  std::vector<PageId> page_of_;
  BufferPool buffer_;
  DiskModel disk_;

  // Persistent-store mode (null when the layout is purely RAM-resident).
  std::shared_ptr<PageFile> store_;
  std::vector<PageFileExtent> extents_;
  /// Whether row_data_/tile_data_ for the page are currently cached.
  std::vector<uint8_t> loaded_;
  /// With a zero-capacity buffer pool, the single page whose payload is
  /// kept (the last one read).
  PageId last_loaded_ = kInvalidPageId;
};

}  // namespace msq

#endif  // MSQ_STORAGE_DATA_LAYOUT_H_
