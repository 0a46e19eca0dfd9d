#include "storage/wal.h"

#include <fcntl.h>

#include <cstring>
#include <sstream>

#include "common/crc32.h"
#include "common/serialize.h"

namespace msq {

namespace {

constexpr size_t kFrameOverhead = 8;  // u32 crc + u32 length

// Payload record-type codes (first byte of every frame payload).
constexpr uint8_t kTypeHeader = 0;
constexpr uint8_t kTypeInsert =
    static_cast<uint8_t>(WalRecord::Type::kInsert);
constexpr uint8_t kTypeDelete =
    static_cast<uint8_t>(WalRecord::Type::kDelete);

/// Serializes one record's frame payload (type byte + body).
Status SerializePayload(const WalRecord& record, std::string* out) {
  std::ostringstream body;
  switch (record.type) {
    case WalRecord::Type::kInsert:
      body.put(static_cast<char>(kTypeInsert));
      MSQ_RETURN_IF_ERROR(
          WriteU32(body, static_cast<uint32_t>(record.label)));
      MSQ_RETURN_IF_ERROR(WriteVector(body, record.point));
      break;
    case WalRecord::Type::kDelete:
      body.put(static_cast<char>(kTypeDelete));
      MSQ_RETURN_IF_ERROR(WriteU64(body, record.id));
      break;
  }
  *out = body.str();
  return Status::OK();
}

Status SerializeHeaderPayload(uint64_t nonce, std::string* out) {
  std::ostringstream body;
  body.put(static_cast<char>(kTypeHeader));
  MSQ_RETURN_IF_ERROR(WriteU32(body, Wal::kMagic));
  MSQ_RETURN_IF_ERROR(WriteU32(body, Wal::kFormatVersion));
  MSQ_RETURN_IF_ERROR(WriteU64(body, nonce));
  *out = body.str();
  return Status::OK();
}

/// Wraps a payload in [crc][length][payload]; crc covers length+payload.
std::string Frame(const std::string& payload) {
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::string framed(kFrameOverhead + payload.size(), '\0');
  std::memcpy(framed.data() + 4, &length, sizeof(length));
  std::memcpy(framed.data() + 8, payload.data(), payload.size());
  const uint32_t crc = Crc32(framed.data() + 4, 4 + payload.size());
  std::memcpy(framed.data(), &crc, sizeof(crc));
  return framed;
}

/// Parses the frame at `offset`. Returns true and advances
/// `*next_offset` past it when the frame is intact; false (torn /
/// corrupt / incomplete) otherwise. Never throws a Status: any parse
/// failure is by definition the end of the valid prefix.
bool ParseFrame(const std::string& bytes, uint64_t offset,
                std::string* payload, uint64_t* next_offset) {
  if (offset + kFrameOverhead > bytes.size()) return false;
  uint32_t crc = 0, length = 0;
  std::memcpy(&crc, bytes.data() + offset, sizeof(crc));
  std::memcpy(&length, bytes.data() + offset + 4, sizeof(length));
  if (length > Wal::kMaxPayloadBytes) return false;
  if (offset + kFrameOverhead + length > bytes.size()) return false;
  if (Crc32(bytes.data() + offset + 4, 4 + length) != crc) return false;
  payload->assign(bytes.data() + offset + kFrameOverhead, length);
  *next_offset = offset + kFrameOverhead + length;
  return true;
}

/// Decodes a non-header payload into a WalRecord.
Status DecodeRecord(const std::string& payload, WalRecord* out) {
  if (payload.empty()) return Status::Corruption("empty wal payload");
  std::istringstream in(payload.substr(1));
  switch (static_cast<uint8_t>(payload[0])) {
    case kTypeInsert: {
      out->type = WalRecord::Type::kInsert;
      uint32_t label = 0;
      MSQ_RETURN_IF_ERROR(ReadU32(in, &label));
      out->label = static_cast<int32_t>(label);
      MSQ_RETURN_IF_ERROR(ReadVector(in, &out->point));
      break;
    }
    case kTypeDelete: {
      out->type = WalRecord::Type::kDelete;
      MSQ_RETURN_IF_ERROR(ReadU64(in, &out->id));
      break;
    }
    default:
      return Status::Corruption("unknown wal record type");
  }
  if (in.peek() != std::istringstream::traits_type::eof()) {
    return Status::Corruption("trailing bytes in wal record");
  }
  return Status::OK();
}

/// Decodes a header payload; returns the nonce or an error.
StatusOr<uint64_t> DecodeHeader(const std::string& payload) {
  if (payload.empty() || static_cast<uint8_t>(payload[0]) != kTypeHeader) {
    return Status::Corruption("wal does not start with a header frame");
  }
  std::istringstream in(payload.substr(1));
  uint32_t magic = 0, version = 0;
  uint64_t nonce = 0;
  MSQ_RETURN_IF_ERROR(ReadU32(in, &magic));
  MSQ_RETURN_IF_ERROR(ReadU32(in, &version));
  MSQ_RETURN_IF_ERROR(ReadU64(in, &nonce));
  if (magic != Wal::kMagic) return Status::Corruption("bad wal magic");
  if (version != Wal::kFormatVersion) {
    return Status::NotSupported("unsupported wal format version");
  }
  return nonce;
}

Status ReadWholeFile(const DurableFile& file, std::string* out) {
  StatusOr<uint64_t> size = file.Size();
  if (!size.ok()) return size.status();
  out->resize(static_cast<size_t>(*size));
  return file.ReadAt(out->data(), out->size(), 0);
}

/// Shared frame walk: fills `out` from `bytes`, honoring the nonce rule.
/// Torn/corrupt suffixes set tail_truncated; they are never an error.
Status ScanBytes(const std::string& bytes, uint64_t expected_nonce,
                 WalReplayResult* out) {
  *out = WalReplayResult{};
  if (bytes.empty()) return Status::OK();

  std::string payload;
  uint64_t offset = 0, next = 0;
  if (!ParseFrame(bytes, 0, &payload, &next)) {
    // Not even a whole header survived: the log dies at byte 0.
    out->tail_truncated = true;
    return Status::OK();
  }
  auto nonce = DecodeHeader(payload);
  if (!nonce.ok()) {
    out->tail_truncated = true;
    return Status::OK();
  }
  out->header_nonce = *nonce;
  offset = next;
  out->valid_bytes = next;

  const bool stale = expected_nonce != 0 && *nonce != expected_nonce;
  while (ParseFrame(bytes, offset, &payload, &next)) {
    WalRecord record;
    if (!DecodeRecord(payload, &record).ok()) break;
    if (!stale) out->records.push_back(std::move(record));
    offset = next;
    out->valid_bytes = next;
  }
  if (out->valid_bytes < bytes.size()) out->tail_truncated = true;
  if (stale) {
    out->stale_discarded = true;
    out->valid_bytes = 0;  // nothing of the old log is worth keeping
  }
  return Status::OK();
}

}  // namespace

std::string WalFsyncPolicyName(WalFsyncPolicy policy) {
  switch (policy) {
    case WalFsyncPolicy::kEveryRecord:
      return "every_record";
    case WalFsyncPolicy::kEveryN:
      return "every_n";
    case WalFsyncPolicy::kOnCheckpoint:
      return "on_checkpoint";
  }
  return "unknown";
}

StatusOr<WalFsyncPolicy> WalFsyncPolicyFromName(const std::string& name) {
  if (name == "every_record") return WalFsyncPolicy::kEveryRecord;
  if (name == "every_n") return WalFsyncPolicy::kEveryN;
  if (name == "on_checkpoint") return WalFsyncPolicy::kOnCheckpoint;
  return Status::InvalidArgument("unknown wal fsync policy: " + name);
}

WalRecord WalRecord::Insert(Vec point, int32_t label) {
  WalRecord r;
  r.type = Type::kInsert;
  r.point = std::move(point);
  r.label = label;
  return r;
}

WalRecord WalRecord::Delete(uint64_t id) {
  WalRecord r;
  r.type = Type::kDelete;
  r.id = id;
  return r;
}

Wal::Wal(DurableFile file, const Options& options)
    : file_(std::move(file)),
      fsync_policy_(options.fsync_policy),
      fsync_every_n_(options.fsync_every_n) {
  if (options.metrics != nullptr && options.metrics->registry() != nullptr) {
    obs::MetricsRegistry* reg = options.metrics->registry();
    appends_counter_ = reg->GetCounter("msq_wal_appends_total",
                                       "Records appended to the mutation WAL");
    bytes_gauge_ =
        reg->GetGauge("msq_wal_bytes", "Current mutation-WAL file size");
  }
}

StatusOr<std::unique_ptr<Wal>> Wal::OpenForAppend(const std::string& path,
                                                  uint64_t checkpoint_nonce,
                                                  const Options& options,
                                                  WalReplayResult* replay) {
  auto file = DurableFile::Open(path, O_RDWR | O_CREAT, options.fault_hooks);
  if (!file.ok()) return file.status();
  auto wal = std::unique_ptr<Wal>(new Wal(std::move(file).value(), options));

  std::string bytes;
  MSQ_RETURN_IF_ERROR(ReadWholeFile(wal->file_, &bytes));
  MSQ_RETURN_IF_ERROR(ScanBytes(bytes, checkpoint_nonce, replay));
  wal->records_appended_ = replay->records.size();

  const bool needs_header = replay->valid_bytes == 0;
  const bool needs_truncate =
      replay->valid_bytes < bytes.size() || replay->stale_discarded;
  if (needs_truncate) {
    MSQ_RETURN_IF_ERROR(wal->file_.Truncate(replay->valid_bytes));
  }
  wal->size_bytes_ = replay->valid_bytes;
  if (needs_header) {
    std::string payload;
    MSQ_RETURN_IF_ERROR(SerializeHeaderPayload(checkpoint_nonce, &payload));
    const std::string frame = Frame(payload);
    MSQ_RETURN_IF_ERROR(wal->file_.WriteAt(frame.data(), frame.size(), 0));
    wal->size_bytes_ = frame.size();
  }
  if (needs_header || needs_truncate) {
    // The (possibly fresh) header and the truncation must be durable
    // before the caller logs against this file.
    MSQ_RETURN_IF_ERROR(wal->Sync());
    MSQ_RETURN_IF_ERROR(FsyncParentDir(path));
  }
  if (wal->bytes_gauge_ != nullptr) {
    wal->bytes_gauge_->Set(static_cast<int64_t>(wal->size_bytes_));
  }
  return wal;
}

Status Wal::Scan(const std::string& path, uint64_t expected_nonce,
                 WalReplayResult* out) {
  auto file = DurableFile::Open(path, O_RDONLY);
  if (!file.ok()) return file.status();
  std::string bytes;
  MSQ_RETURN_IF_ERROR(ReadWholeFile(*file, &bytes));
  return ScanBytes(bytes, expected_nonce, out);
}

Status Wal::Sync() {
  MSQ_RETURN_IF_ERROR(file_.Sync());
  unsynced_records_ = 0;
  return Status::OK();
}

Status Wal::Append(const WalRecord& record) {
  std::string payload;
  MSQ_RETURN_IF_ERROR(SerializePayload(record, &payload));
  const std::string frame = Frame(payload);
  MSQ_RETURN_IF_ERROR(file_.WriteAt(frame.data(), frame.size(), size_bytes_));
  size_bytes_ += frame.size();
  ++records_appended_;
  if (appends_counter_ != nullptr) appends_counter_->Increment();
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Set(static_cast<int64_t>(size_bytes_));
  }
  ++unsynced_records_;
  switch (fsync_policy_) {
    case WalFsyncPolicy::kEveryRecord:
      return Sync();
    case WalFsyncPolicy::kEveryN:
      if (unsynced_records_ >= fsync_every_n_) return Sync();
      return Status::OK();
    case WalFsyncPolicy::kOnCheckpoint:
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace msq
