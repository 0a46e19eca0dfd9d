// Small filesystem helpers for crash-consistent persistence.
//
// POSIX only promises that a rename is atomic; it does not promise the
// rename is *durable* until the containing directory has been fsynced.
// Every atomic-swap in the durability layer (DESIGN §14) goes through
// DurableRename: write temp → fsync(temp) → rename(temp, dst) →
// fsync(parent dir), so a crash at any point leaves either the old file
// or the new file, never a torn mixture and never a dangling entry.
//
// DurableFile is the one file handle under the WAL and the page store: it
// owns the descriptor, the write-side fault hooks and the fsyncgate rule.

#ifndef MSQ_STORAGE_FS_UTIL_H_
#define MSQ_STORAGE_FS_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"

namespace msq {

/// Write-side fault hooks (see robust::FaultInjector); empty hooks inject
/// nothing.
struct IoFaultHooks {
  /// Runs before every positioned write. A non-OK return fails the write
  /// with that status after the first `*allowed` bytes (the hook may cap
  /// it; it starts at `length`) reached the file: a torn write.
  std::function<Status(uint64_t offset, size_t length, size_t* allowed)>
      write;
  /// Runs before every fsync; a non-OK return fails the flush.
  std::function<Status()> fsync;
};

/// An open file that keeps the fsyncgate rule: the first failed write or
/// fsync, injected or real, poisons the file, and every later read,
/// write, fsync or close returns that original error. After a failed
/// fsync the page cache's copy of the written range is in an unknown
/// state, so a later fsync that succeeds proves nothing; recovery is a
/// fresh file. Not thread-safe; the owner serializes access.
class DurableFile {
 public:
  /// open(2)s `path` with `flags` (mode 0644 when O_CREAT creates it).
  static StatusOr<DurableFile> Open(const std::string& path, int flags,
                                    IoFaultHooks hooks = {});

  DurableFile(DurableFile&& other) noexcept;
  DurableFile& operator=(DurableFile&&) = delete;
  /// Closes a file nobody closed, warning on stderr if that fails:
  /// anything that must see the close error calls Close().
  ~DurableFile();

  /// Writes all `len` bytes at `offset`.
  Status WriteAt(const char* data, size_t len, uint64_t offset);
  /// fsyncs the file's contents.
  Status Sync();
  /// Reads exactly `len` bytes at `offset`; a file that ends first is
  /// Corruption.
  Status ReadAt(char* data, size_t len, uint64_t offset) const;
  StatusOr<uint64_t> Size() const;
  Status Truncate(uint64_t size);
  /// Closes the descriptor, reporting close(2)'s result or the sticky
  /// error. Idempotent.
  Status Close();

 private:
  DurableFile(int fd, std::string path, IoFaultHooks hooks);
  /// Records `st` as the sticky error unless one is already set.
  Status Poison(Status st);

  int fd_ = -1;
  std::string path_;
  IoFaultHooks hooks_;
  Status poisoned_ = Status::OK();
};

/// fsyncs the directory containing `file_path` (the directory entry for
/// the file, not the file's contents). "" and paths without a separator
/// sync the current working directory.
Status FsyncParentDir(const std::string& file_path);

/// Atomically replaces `to` with `from` (same directory) and makes the
/// swap durable by fsyncing the parent directory. The caller is
/// responsible for having fsynced `from`'s *contents* first.
Status DurableRename(const std::string& from, const std::string& to);

/// Best-effort unlink for temp-file cleanup on error paths; never fails.
void RemoveFileIfExists(const std::string& path);

/// True if `path` names an existing regular file.
bool FileExists(const std::string& path);

}  // namespace msq

#endif  // MSQ_STORAGE_FS_UTIL_H_
