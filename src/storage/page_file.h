// Single-file, block-addressed persistent page store.
//
// The paper states its cost model in disk accesses (Sec. 1, Sec. 6); this
// layer gives those accesses a real counterpart: a database saved with
// MetricDatabase::Save is one file whose data pages, index blob, and
// metadata live in fixed-size blocks behind pread/pwrite, so
// MetricDatabase::Open returns a queryable database without rebuilding
// anything and every page read is a measurable positioned read.
//
// File layout (all integers little-endian):
//
//   block 0            superblock: magic, version, block size, total block
//                      count, object-table extent; CRC-32 over the whole
//                      block in its last 4 bytes
//   blocks 1..N        extents appended by a bump allocator (write-once
//                      store: blocks are never reclaimed). Data pages are
//                      written first so a full scan of the object set is a
//                      sequential pass; index/meta blobs and the object
//                      table follow.
//
// Every extent's CRC covers its full padded length (trailing zero fill
// included), and Open verifies the file size equals the superblock's block
// count exactly — so a bit flip or truncation anywhere in the file
// surfaces as Status::Corruption, never as undefined behaviour.

#ifndef MSQ_STORAGE_PAGE_FILE_H_
#define MSQ_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/fs_util.h"

namespace msq {

/// Contiguous run of blocks holding one stored payload.
struct PageFileExtent {
  uint64_t first_block = 0;
  uint32_t num_blocks = 0;
  /// Payload length in bytes, before zero padding to the block boundary.
  uint32_t byte_length = 0;
  /// CRC-32 over the padded `num_blocks * block_size` bytes.
  uint32_t crc = 0;
};

/// Measured (not modeled) I/O counters for one PageFile.
struct PageFileIoStats {
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t read_nanos = 0;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t write_nanos = 0;
};

/// A write-once block store in a single file: a bump allocator appends
/// extents, a name -> extent object table makes small blobs addressable,
/// and a superblock (written by Sync) bootstraps reads. Not thread-safe;
/// the database layer serializes access.
class PageFile {
 public:
  static constexpr uint32_t kMagic = 0x4d535146;  // "MSQF"
  static constexpr uint32_t kVersion = 1;
  static constexpr uint32_t kDefaultBlockSize = 4096;
  static constexpr uint32_t kMinBlockSize = 512;
  static constexpr uint32_t kMaxBlockSize = 16u << 20;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Creates (truncating) a writable page file. Block 0 is reserved for
  /// the superblock, which is only written by Sync(). `hooks` see every
  /// write and fsync; either failure poisons the file (fsyncgate, see
  /// DurableFile).
  static StatusOr<std::unique_ptr<PageFile>> Create(
      const std::string& path, uint32_t block_size = kDefaultBlockSize,
      IoFaultHooks hooks = {});

  /// Opens an existing file read-only, verifying superblock magic and CRC,
  /// the exact file size, and the object table's CRC. Any mismatch is
  /// Status::Corruption; an unknown version (with a valid CRC) is
  /// Status::NotSupported.
  static StatusOr<std::unique_ptr<PageFile>> Open(const std::string& path);

  /// Appends `bytes` bytes as a new extent (padded with zeros to the block
  /// boundary) and returns its location. Create-mode only.
  StatusOr<PageFileExtent> AppendExtent(const void* data, size_t bytes);

  /// Stores a named blob (an extent registered in the object table).
  /// Create-mode only; duplicate names are rejected.
  Status PutObject(const std::string& name, const std::string& payload);

  /// Reads an extent back, verifying its CRC over the padded length, and
  /// returns exactly `byte_length` payload bytes in `*out`.
  Status ReadExtent(const PageFileExtent& extent, std::string* out) const;

  bool HasObject(const std::string& name) const;
  Status GetObject(const std::string& name, std::string* out) const;

  /// Writes the object table and superblock and fsyncs. Until Sync
  /// succeeds the file is not openable. Create-mode only.
  Status Sync();

  /// Closes the file descriptor, reporting the close() result (a write
  /// error surfacing at close would otherwise vanish). Idempotent; after
  /// a failed write or fsync it returns that sticky error.
  Status Close() { return file_.Close(); }

  uint32_t block_size() const { return block_size_; }
  /// Total blocks allocated, superblock included.
  uint64_t num_blocks() const { return next_block_; }
  const std::map<std::string, PageFileExtent>& objects() const {
    return objects_;
  }

  const PageFileIoStats& io_stats() const { return io_stats_; }
  void ResetIoStats() { io_stats_ = PageFileIoStats{}; }

  /// Test hook: invoked with the extent's first block before every real
  /// read; a non-OK return aborts the read with that status. Lets fault
  /// tests exercise the real-I/O failure path without touching the file.
  void SetReadFaultHook(std::function<Status(uint64_t)> hook) {
    read_fault_hook_ = std::move(hook);
  }

 private:
  PageFile(DurableFile file, uint32_t block_size, bool writable);

  Status PreadBlocks(uint64_t first_block, uint32_t num_blocks,
                     std::string* out) const;

  DurableFile file_;
  uint32_t block_size_ = 0;
  bool writable_ = false;
  bool synced_ = false;
  uint64_t next_block_ = 1;  // Block 0 is the superblock.
  std::map<std::string, PageFileExtent> objects_;
  mutable PageFileIoStats io_stats_;
  std::function<Status(uint64_t)> read_fault_hook_;
};

}  // namespace msq

#endif  // MSQ_STORAGE_PAGE_FILE_H_
