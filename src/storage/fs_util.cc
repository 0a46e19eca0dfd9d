#include "storage/fs_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace msq {

namespace {

std::string Errno() { return std::strerror(errno); }

Status PwriteAll(int fd, const std::string& path, const char* data,
                 size_t len, uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd, data + done, len - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite of " + path + " failed: " + Errno());
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

StatusOr<DurableFile> DurableFile::Open(const std::string& path, int flags,
                                        IoFaultHooks hooks) {
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return Status::IOError("cannot open " + path + ": " + Errno());
  return DurableFile(fd, path, std::move(hooks));
}

DurableFile::DurableFile(int fd, std::string path, IoFaultHooks hooks)
    : fd_(fd), path_(std::move(path)), hooks_(std::move(hooks)) {}

DurableFile::DurableFile(DurableFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      hooks_(std::move(other.hooks_)),
      poisoned_(std::move(other.poisoned_)) {}

DurableFile::~DurableFile() {
  if (fd_ >= 0 && ::close(fd_) != 0) {
    std::fprintf(stderr, "msq: warning: close(%s) failed: %s\n",
                 path_.c_str(), std::strerror(errno));
  }
}

Status DurableFile::Poison(Status st) {
  if (poisoned_.ok()) poisoned_ = st;
  return st;
}

Status DurableFile::WriteAt(const char* data, size_t len, uint64_t offset) {
  if (!poisoned_.ok()) return poisoned_;
  if (hooks_.write) {
    size_t allowed = len;
    Status st = hooks_.write(offset, len, &allowed);
    if (!st.ok()) {
      // A torn write: the prefix the hook allowed reaches the disk, the
      // rest never does — exactly what a power cut mid-pwrite leaves.
      if (allowed > 0) {
        (void)PwriteAll(fd_, path_, data, std::min(allowed, len), offset);
      }
      return Poison(std::move(st));
    }
  }
  Status st = PwriteAll(fd_, path_, data, len, offset);
  if (!st.ok()) return Poison(std::move(st));
  return st;
}

Status DurableFile::Sync() {
  if (!poisoned_.ok()) return poisoned_;
  if (hooks_.fsync) {
    Status st = hooks_.fsync();
    if (!st.ok()) return Poison(std::move(st));
  }
  if (::fsync(fd_) != 0) {
    return Poison(Status::IOError("fsync of " + path_ + " failed: " + Errno()));
  }
  return Status::OK();
}

Status DurableFile::ReadAt(char* data, size_t len, uint64_t offset) const {
  if (!poisoned_.ok()) return poisoned_;
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, data + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread of " + path_ + " failed: " + Errno());
    }
    if (n == 0) return Status::Corruption("unexpected end of " + path_);
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<uint64_t> DurableFile::Size() const {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError("fstat of " + path_ + " failed: " + Errno());
  }
  return static_cast<uint64_t>(st.st_size);
}

Status DurableFile::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError("truncate of " + path_ + " failed: " + Errno());
  }
  return Status::OK();
}

Status DurableFile::Close() {
  if (fd_ < 0) return poisoned_;
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) {
    return Poison(Status::IOError("close of " + path_ + " failed: " + Errno()));
  }
  return poisoned_;
}

Status FsyncParentDir(const std::string& file_path) {
  const size_t slash = file_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : file_path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync of directory " + dir +
                           " failed: " + std::strerror(saved_errno));
  }
  return Status::OK();
}

Status DurableRename(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError("rename " + from + " -> " + to +
                           " failed: " + std::strerror(errno));
  }
  return FsyncParentDir(to);
}

void RemoveFileIfExists(const std::string& path) {
  ::unlink(path.c_str());  // ENOENT is fine; other errors are best-effort.
}

bool FileExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace msq
