// Write-ahead log for online mutations (DESIGN §14).
//
// PR 9 made MetricDatabase mutable but left Insert/Delete purely
// in-memory: a crash loses every mutation since the last full Save. The
// Wal closes that window. Each mutation is one CRC-framed,
// length-prefixed record appended to `<db>.wal`; recovery replays the
// log over the last checkpoint through the same mutable-backend path the
// live writes took, so a post-crash Open is bit-identical to the
// pre-crash quiesced state.
//
// Frame format (all integers little-endian):
//
//   [u32 crc] [u32 length] [payload: u8-coded record]
//
// where `crc` is CRC-32 over the length field plus the payload, and
// `length` is the payload byte count. The first frame of every log is a
// kHeader record carrying the magic, the format version and the
// *checkpoint nonce* — a random u64 also stored in the checkpoint's
// metadata. A WAL whose nonce does not match the checkpoint it sits next
// to is stale (the crash landed between checkpoint-rename and
// WAL-truncate) and is discarded rather than replayed twice.
//
// Torn-tail tolerance: replay walks frames from the front and stops at
// the first frame whose length is implausible or whose CRC fails;
// OpenForAppend truncates the file there. A torn final append therefore
// rolls back to the last durable record — exactly the contract fsync
// policies weaker than every_record advertise.
//
// fsyncgate semantics: the log's DurableFile (storage/fs_util.h) poisons
// itself on the first failed write or fsync, so every later Append/Sync
// returns the original error; recovery is a checkpoint (which swaps in a
// fresh log) or a reopen.

#ifndef MSQ_STORAGE_WAL_H_
#define MSQ_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataset/dataset.h"
#include "dist/vector.h"
#include "obs/sink.h"
#include "storage/fs_util.h"

namespace msq {

/// When Append makes the appended record durable.
enum class WalFsyncPolicy {
  kEveryRecord,   // fsync after every Append (durable on return)
  kEveryN,        // fsync once per fsync_every_n appended records
  kOnCheckpoint,  // fsync only at checkpoint time (crash may lose the tail)
};

std::string WalFsyncPolicyName(WalFsyncPolicy policy);
StatusOr<WalFsyncPolicy> WalFsyncPolicyFromName(const std::string& name);

/// One logged mutation.
struct WalRecord {
  enum class Type : uint8_t { kInsert = 1, kDelete = 2 };
  Type type = Type::kInsert;
  // kInsert payload.
  Vec point;
  int32_t label = kNoLabel;
  // kDelete payload.
  uint64_t id = 0;

  static WalRecord Insert(Vec point, int32_t label);
  static WalRecord Delete(uint64_t id);
};

/// What a scan/replay of a log file found.
struct WalReplayResult {
  std::vector<WalRecord> records;
  /// Byte length of the valid frame prefix (header included).
  uint64_t valid_bytes = 0;
  /// Nonce carried by the log's header frame (0 if the log is empty/new).
  uint64_t header_nonce = 0;
  /// Bytes past valid_bytes were dropped (torn or corrupt tail).
  bool tail_truncated = false;
  /// The header nonce did not match the expected checkpoint nonce; the
  /// log predates the checkpoint and its records were discarded.
  bool stale_discarded = false;
};

/// Append-side handle on one log file. Not thread-safe; the database
/// layer serializes writers under its writer mutex.
class Wal {
 public:
  static constexpr uint32_t kMagic = 0x4c57514d;  // "MQWL"
  static constexpr uint32_t kFormatVersion = 1;
  /// Sanity bound on one frame's payload; a torn length field almost
  /// always lands outside it.
  static constexpr uint32_t kMaxPayloadBytes = 16u << 20;

  struct Options {
    WalFsyncPolicy fsync_policy = WalFsyncPolicy::kEveryRecord;
    size_t fsync_every_n = 32;
    /// nullptr disables the msq_wal_* instruments.
    const obs::MetricsSink* metrics = obs::MetricsSink::Default();
    /// Armed before OpenForAppend writes anything: the header/truncate
    /// writes of a WAL swap are crash points too.
    IoFaultHooks fault_hooks;
  };

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating if absent) `path` for appending against the
  /// checkpoint identified by `checkpoint_nonce`. Valid records are
  /// returned through `*replay` (never null); a torn tail is truncated
  /// and a stale log (nonce mismatch) is reset to an empty one with a
  /// fresh header. On return the file ends exactly at the last valid
  /// frame and the header is durable.
  static StatusOr<std::unique_ptr<Wal>> OpenForAppend(
      const std::string& path, uint64_t checkpoint_nonce,
      const Options& options, WalReplayResult* replay);

  /// Read-only scan of an existing log (recovery for databases opened
  /// without durability, and `msq_cli scrub`). Does not modify the file.
  /// With `expected_nonce` != 0 a mismatching header marks the result
  /// stale and suppresses its records; 0 accepts any header.
  static Status Scan(const std::string& path, uint64_t expected_nonce,
                     WalReplayResult* out);

  /// Appends one record as one positioned write and applies the fsync
  /// policy.
  Status Append(const WalRecord& record);

  /// Forces everything appended so far to disk regardless of policy.
  Status Sync();

  /// Closes the file descriptor, reporting close/poison errors.
  Status Close() { return file_.Close(); }

  uint64_t size_bytes() const { return size_bytes_; }
  uint64_t records_appended() const { return records_appended_; }

 private:
  Wal(DurableFile file, const Options& options);

  DurableFile file_;
  const WalFsyncPolicy fsync_policy_;
  const size_t fsync_every_n_;
  uint64_t size_bytes_ = 0;
  uint64_t records_appended_ = 0;
  size_t unsynced_records_ = 0;

  obs::Counter* appends_counter_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
};

}  // namespace msq

#endif  // MSQ_STORAGE_WAL_H_
