#include "storage/page_file.h"

#include <fcntl.h>

#include <chrono>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "common/crc32.h"
#include "common/serialize.h"

namespace msq {

namespace {

// Byte offsets of the superblock fields within block 0. The CRC lives in
// the block's last 4 bytes and covers everything before it.
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffBlockSize = 8;
constexpr size_t kOffNumBlocks = 16;
constexpr size_t kOffTableFirstBlock = 24;
constexpr size_t kOffTableNumBlocks = 32;
constexpr size_t kOffTableByteLength = 36;
constexpr size_t kOffTableCrc = 40;

constexpr uint32_t kTableTag = 0x4241544f;  // "OTAB"

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void PutU32(char* base, size_t off, uint32_t v) {
  std::memcpy(base + off, &v, sizeof(v));
}
void PutU64(char* base, size_t off, uint64_t v) {
  std::memcpy(base + off, &v, sizeof(v));
}
uint32_t GetU32(const char* base, size_t off) {
  uint32_t v;
  std::memcpy(&v, base + off, sizeof(v));
  return v;
}
uint64_t GetU64(const char* base, size_t off) {
  uint64_t v;
  std::memcpy(&v, base + off, sizeof(v));
  return v;
}

bool PlausibleBlockSize(uint32_t bs) {
  return bs >= PageFile::kMinBlockSize && bs <= PageFile::kMaxBlockSize;
}

}  // namespace

PageFile::PageFile(DurableFile file, uint32_t block_size, bool writable)
    : file_(std::move(file)), block_size_(block_size), writable_(writable) {}

StatusOr<std::unique_ptr<PageFile>> PageFile::Create(const std::string& path,
                                                     uint32_t block_size,
                                                     IoFaultHooks hooks) {
  if (!PlausibleBlockSize(block_size)) {
    return Status::InvalidArgument("block size out of range");
  }
  auto opened =
      DurableFile::Open(path, O_RDWR | O_CREAT | O_TRUNC, std::move(hooks));
  if (!opened.ok()) return opened.status();
  return std::unique_ptr<PageFile>(new PageFile(
      std::move(opened).value(), block_size, /*writable=*/true));
}

StatusOr<std::unique_ptr<PageFile>> PageFile::Open(const std::string& path) {
  auto opened = DurableFile::Open(path, O_RDONLY);
  if (!opened.ok()) return opened.status();
  auto file = std::unique_ptr<PageFile>(new PageFile(
      std::move(opened).value(), /*block_size=*/0, /*writable=*/false));
  const DurableFile& f = file->file_;

  // Bootstrap: magic and block size live inside the first kMinBlockSize
  // bytes regardless of the actual block size.
  char head[kMinBlockSize];
  {
    StatusOr<uint64_t> size = f.Size();
    if (!size.ok()) return size.status();
    if (*size < kMinBlockSize) {
      return Status::Corruption("file too small for a superblock");
    }
    MSQ_RETURN_IF_ERROR(f.ReadAt(head, sizeof(head), 0));
    if (GetU32(head, kOffMagic) != kMagic) {
      return Status::Corruption("bad magic; not a page file");
    }
    const uint32_t bs = GetU32(head, kOffBlockSize);
    if (!PlausibleBlockSize(bs)) {
      return Status::Corruption("implausible block size in superblock");
    }
    file->block_size_ = bs;
    if (*size < bs) {
      return Status::Corruption("file shorter than one block");
    }
    // Full superblock, CRC first: a flipped bit anywhere in block 0 —
    // version field included — must read as corruption, not as an
    // unsupported version.
    std::vector<char> sb(bs);
    MSQ_RETURN_IF_ERROR(f.ReadAt(sb.data(), bs, 0));
    const uint32_t want_crc = GetU32(sb.data(), bs - 4);
    if (Crc32(sb.data(), bs - 4) != want_crc) {
      return Status::Corruption("superblock checksum mismatch");
    }
    if (GetU32(sb.data(), kOffVersion) != kVersion) {
      return Status::NotSupported("unsupported page file version");
    }
    const uint64_t num_blocks = GetU64(sb.data(), kOffNumBlocks);
    if (num_blocks < 1 ||
        num_blocks > (uint64_t{1} << 40) / bs) {
      return Status::Corruption("implausible block count");
    }
    if (*size != num_blocks * bs) {
      return Status::Corruption("file size disagrees with superblock");
    }
    file->next_block_ = num_blocks;

    PageFileExtent table;
    table.first_block = GetU64(sb.data(), kOffTableFirstBlock);
    table.num_blocks = GetU32(sb.data(), kOffTableNumBlocks);
    table.byte_length = GetU32(sb.data(), kOffTableByteLength);
    table.crc = GetU32(sb.data(), kOffTableCrc);

    std::string table_bytes;
    MSQ_RETURN_IF_ERROR(file->ReadExtent(table, &table_bytes));
    std::istringstream in(table_bytes);
    MSQ_RETURN_IF_ERROR(ExpectTag(in, kTableTag, "object table"));
    uint32_t count = 0;
    MSQ_RETURN_IF_ERROR(ReadU32(in, &count));
    for (uint32_t i = 0; i < count; ++i) {
      std::string name;
      MSQ_RETURN_IF_ERROR(ReadString(in, &name));
      PageFileExtent e;
      MSQ_RETURN_IF_ERROR(ReadU64(in, &e.first_block));
      MSQ_RETURN_IF_ERROR(ReadU32(in, &e.num_blocks));
      MSQ_RETURN_IF_ERROR(ReadU32(in, &e.byte_length));
      MSQ_RETURN_IF_ERROR(ReadU32(in, &e.crc));
      if (name.empty() || !file->objects_.emplace(name, e).second) {
        return Status::Corruption("bad object table entry");
      }
    }
  }
  file->synced_ = true;
  return file;
}

StatusOr<PageFileExtent> PageFile::AppendExtent(const void* data,
                                                size_t bytes) {
  if (!writable_) {
    return Status::NotSupported("page file is open read-only");
  }
  if (bytes > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("extent larger than 4 GiB");
  }
  PageFileExtent extent;
  extent.first_block = next_block_;
  extent.byte_length = static_cast<uint32_t>(bytes);
  extent.num_blocks =
      static_cast<uint32_t>((bytes + block_size_ - 1) / block_size_);
  if (extent.num_blocks > 0) {
    // CRC over the padded length: the zero fill is part of the stored
    // bytes, so corruption in the padding is detected too.
    std::vector<char> padded(static_cast<size_t>(extent.num_blocks) *
                             block_size_);
    std::memcpy(padded.data(), data, bytes);
    extent.crc = Crc32(padded.data(), padded.size());
    const uint64_t t0 = NowNanos();
    MSQ_RETURN_IF_ERROR(file_.WriteAt(padded.data(), padded.size(),
                                      extent.first_block * block_size_));
    io_stats_.writes += 1;
    io_stats_.write_bytes += padded.size();
    io_stats_.write_nanos += NowNanos() - t0;
    next_block_ += extent.num_blocks;
  } else {
    extent.crc = 0;
  }
  synced_ = false;
  return extent;
}

Status PageFile::PutObject(const std::string& name,
                           const std::string& payload) {
  if (!writable_) {
    return Status::NotSupported("page file is open read-only");
  }
  if (name.empty()) return Status::InvalidArgument("empty object name");
  if (objects_.count(name) > 0) {
    return Status::InvalidArgument("object already stored: " + name);
  }
  StatusOr<PageFileExtent> extent =
      AppendExtent(payload.data(), payload.size());
  if (!extent.ok()) return extent.status();
  objects_[name] = *extent;
  return Status::OK();
}

Status PageFile::PreadBlocks(uint64_t first_block, uint32_t num_blocks,
                             std::string* out) const {
  if (read_fault_hook_) {
    MSQ_RETURN_IF_ERROR(read_fault_hook_(first_block));
  }
  out->resize(static_cast<size_t>(num_blocks) * block_size_);
  const uint64_t t0 = NowNanos();
  MSQ_RETURN_IF_ERROR(
      file_.ReadAt(out->data(), out->size(), first_block * block_size_));
  io_stats_.reads += 1;
  io_stats_.read_bytes += out->size();
  io_stats_.read_nanos += NowNanos() - t0;
  return Status::OK();
}

Status PageFile::ReadExtent(const PageFileExtent& extent,
                            std::string* out) const {
  if (extent.num_blocks == 0) {
    if (extent.byte_length != 0) {
      return Status::Corruption("extent has bytes but no blocks");
    }
    out->clear();
    return Status::OK();
  }
  if (extent.first_block < 1 ||
      extent.first_block + extent.num_blocks > next_block_ ||
      extent.byte_length >
          static_cast<uint64_t>(extent.num_blocks) * block_size_ ||
      extent.byte_length <=
          static_cast<uint64_t>(extent.num_blocks - 1) * block_size_) {
    return Status::Corruption("extent out of bounds");
  }
  std::string padded;
  MSQ_RETURN_IF_ERROR(PreadBlocks(extent.first_block, extent.num_blocks,
                                  &padded));
  if (Crc32(padded.data(), padded.size()) != extent.crc) {
    return Status::Corruption("extent checksum mismatch");
  }
  padded.resize(extent.byte_length);
  *out = std::move(padded);
  return Status::OK();
}

bool PageFile::HasObject(const std::string& name) const {
  return objects_.count(name) > 0;
}

Status PageFile::GetObject(const std::string& name, std::string* out) const {
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return Status::NotFound("no such object: " + name);
  }
  return ReadExtent(it->second, out);
}

Status PageFile::Sync() {
  if (!writable_) {
    return Status::NotSupported("page file is open read-only");
  }
  // Serialize and append the object table as a regular extent.
  std::ostringstream table;
  MSQ_RETURN_IF_ERROR(WriteU32(table, kTableTag));
  MSQ_RETURN_IF_ERROR(WriteU32(table, static_cast<uint32_t>(objects_.size())));
  for (const auto& [name, extent] : objects_) {
    MSQ_RETURN_IF_ERROR(WriteString(table, name));
    MSQ_RETURN_IF_ERROR(WriteU64(table, extent.first_block));
    MSQ_RETURN_IF_ERROR(WriteU32(table, extent.num_blocks));
    MSQ_RETURN_IF_ERROR(WriteU32(table, extent.byte_length));
    MSQ_RETURN_IF_ERROR(WriteU32(table, extent.crc));
  }
  const std::string table_bytes = table.str();
  StatusOr<PageFileExtent> table_extent =
      AppendExtent(table_bytes.data(), table_bytes.size());
  if (!table_extent.ok()) return table_extent.status();

  std::vector<char> sb(block_size_, 0);
  PutU32(sb.data(), kOffMagic, kMagic);
  PutU32(sb.data(), kOffVersion, kVersion);
  PutU32(sb.data(), kOffBlockSize, block_size_);
  PutU64(sb.data(), kOffNumBlocks, next_block_);
  PutU64(sb.data(), kOffTableFirstBlock, table_extent->first_block);
  PutU32(sb.data(), kOffTableNumBlocks, table_extent->num_blocks);
  PutU32(sb.data(), kOffTableByteLength, table_extent->byte_length);
  PutU32(sb.data(), kOffTableCrc, table_extent->crc);
  PutU32(sb.data(), block_size_ - 4, Crc32(sb.data(), block_size_ - 4));

  // Data and table first, then the superblock that points at them: a crash
  // mid-save leaves a file whose superblock never validates, not one that
  // points at garbage.
  MSQ_RETURN_IF_ERROR(file_.Sync());
  const uint64_t t0 = NowNanos();
  MSQ_RETURN_IF_ERROR(file_.WriteAt(sb.data(), sb.size(), 0));
  io_stats_.writes += 1;
  io_stats_.write_bytes += sb.size();
  io_stats_.write_nanos += NowNanos() - t0;
  MSQ_RETURN_IF_ERROR(file_.Sync());
  synced_ = true;
  return Status::OK();
}

}  // namespace msq
