// Tests for the crash-consistent durability layer (DESIGN §14): the WAL's
// frame format (round trip, torn-tail truncation, stale-nonce discard),
// fsyncgate poisoning on both Wal and PageFile, atomic Save (a crash at
// any write offset of an overwrite leaves the old file or the new one,
// never a corrupt one), WAL recovery with exact counter accounting, the
// auto-checkpoint thresholds, and the acceptance criterion itself: a
// kill-at-every-write-offset matrix across all four backends, pivots off
// and on, over three phases (save overwrite, WAL appends, checkpoint) —
// every reopened database must answer bit-identically to a valid quiesced
// prefix of the mutation history, and no crash point may surface as
// Corruption.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "obs/metrics.h"
#include "robust/fault_injector.h"
#include "storage/fs_util.h"
#include "storage/page_file.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace msq {
namespace {

using testing::BruteForceQuery;
using testing::SameAnswers;

constexpr BackendKind kAllBackends[] = {
    BackendKind::kLinearScan, BackendKind::kXTree, BackendKind::kMTree,
    BackendKind::kVaFile};

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void RemoveDbFiles(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".wal");
  std::filesystem::remove(path + ".tmp");
}

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global()->GetCounter(name)->Value();
}

// --- Wal frame format ----------------------------------------------------

TEST(DurabilityWalTest, RecordsRoundTripThroughScan) {
  const std::string path = TempPath("durab_wal_roundtrip.wal");
  std::filesystem::remove(path);
  WalReplayResult replay;
  auto wal = Wal::OpenForAppend(path, /*checkpoint_nonce=*/42, Wal::Options{},
                                &replay);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(replay.records.size(), 0u);
  ASSERT_TRUE((*wal)->Append(WalRecord::Insert({1.0f, 2.0f, 3.0f}, 7)).ok());
  ASSERT_TRUE((*wal)->Append(WalRecord::Delete(19)).ok());
  ASSERT_TRUE(
      (*wal)->AppendBatch({WalRecord::Insert({4.0f, 5.0f, 6.0f}, kNoLabel),
                           WalRecord::Delete(3)})
          .ok());
  EXPECT_EQ((*wal)->records_appended(), 4u);
  ASSERT_TRUE((*wal)->Close().ok());

  WalReplayResult scanned;
  ASSERT_TRUE(Wal::Scan(path, /*expected_nonce=*/42, &scanned).ok());
  ASSERT_EQ(scanned.records.size(), 4u);
  EXPECT_FALSE(scanned.tail_truncated);
  EXPECT_FALSE(scanned.stale_discarded);
  EXPECT_EQ(scanned.header_nonce, 42u);
  EXPECT_EQ(scanned.records[0].type, WalRecord::Type::kInsert);
  EXPECT_EQ(scanned.records[0].point, (Vec{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(scanned.records[0].label, 7);
  EXPECT_EQ(scanned.records[1].type, WalRecord::Type::kDelete);
  EXPECT_EQ(scanned.records[1].id, 19u);
  EXPECT_EQ(scanned.records[2].label, kNoLabel);
  EXPECT_EQ(scanned.records[3].id, 3u);
  std::filesystem::remove(path);
}

TEST(DurabilityWalTest, TornTailIsTruncatedAtFirstBadFrame) {
  const std::string path = TempPath("durab_wal_torn.wal");
  std::filesystem::remove(path);
  WalReplayResult replay;
  {
    auto wal = Wal::OpenForAppend(path, 5, Wal::Options{}, &replay);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*wal)
                      ->Append(WalRecord::Insert({float(i), float(i)}, i))
                      .ok());
    }
    ASSERT_TRUE((*wal)->Close().ok());
  }
  const uint64_t intact = std::filesystem::file_size(path);
  // A torn final append: garbage bytes that parse as neither a plausible
  // length nor a valid CRC.
  {
    std::ofstream tail(path, std::ios::binary | std::ios::app);
    tail.write("\xde\xad\xbe\xef\xde\xad", 6);
  }
  WalReplayResult scanned;
  ASSERT_TRUE(Wal::Scan(path, 5, &scanned).ok());
  EXPECT_EQ(scanned.records.size(), 3u);
  EXPECT_TRUE(scanned.tail_truncated);
  EXPECT_EQ(scanned.valid_bytes, intact);

  // OpenForAppend truncates the file back to the valid prefix and keeps
  // appending from there.
  auto wal = Wal::OpenForAppend(path, 5, Wal::Options{}, &replay);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(replay.records.size(), 3u);
  EXPECT_TRUE(replay.tail_truncated);
  EXPECT_EQ(std::filesystem::file_size(path), intact);
  ASSERT_TRUE((*wal)->Append(WalRecord::Delete(1)).ok());
  ASSERT_TRUE((*wal)->Close().ok());
  WalReplayResult again;
  ASSERT_TRUE(Wal::Scan(path, 5, &again).ok());
  EXPECT_EQ(again.records.size(), 4u);
  EXPECT_FALSE(again.tail_truncated);
  std::filesystem::remove(path);
}

TEST(DurabilityWalTest, StaleNonceLogIsDiscardedAndReset) {
  const std::string path = TempPath("durab_wal_stale.wal");
  std::filesystem::remove(path);
  WalReplayResult replay;
  {
    auto wal = Wal::OpenForAppend(path, /*checkpoint_nonce=*/111,
                                  Wal::Options{}, &replay);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(WalRecord::Delete(4)).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  // The checkpoint moved on (nonce 222) but the crash landed before the
  // WAL swap: the log on disk predates the checkpoint.
  WalReplayResult scanned;
  ASSERT_TRUE(Wal::Scan(path, 222, &scanned).ok());
  EXPECT_TRUE(scanned.stale_discarded);
  EXPECT_EQ(scanned.records.size(), 0u);

  auto wal = Wal::OpenForAppend(path, 222, Wal::Options{}, &replay);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(replay.stale_discarded);
  EXPECT_EQ(replay.records.size(), 0u);
  ASSERT_TRUE((*wal)->Close().ok());
  // The reset log now carries the new nonce.
  WalReplayResult fresh;
  ASSERT_TRUE(Wal::Scan(path, 222, &fresh).ok());
  EXPECT_FALSE(fresh.stale_discarded);
  EXPECT_EQ(fresh.header_nonce, 222u);
  std::filesystem::remove(path);
}

TEST(DurabilityWalTest, WriteOrFsyncFailurePoisonsTheLog) {
  const std::string path = TempPath("durab_wal_poison.wal");
  std::filesystem::remove(path);
  WalReplayResult replay;
  auto wal = Wal::OpenForAppend(path, 9, Wal::Options{}, &replay);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(WalRecord::Delete(1)).ok());
  // One injected fsync failure...
  int fail_budget = 1;
  (*wal)->SetFsyncFaultHook([&]() -> Status {
    if (fail_budget > 0) {
      --fail_budget;
      return Status::IOError("injected fsync failure");
    }
    return Status::OK();
  });
  Status first = (*wal)->Append(WalRecord::Delete(2));
  ASSERT_FALSE(first.ok());
  // ...poisons every later operation with the original error, even though
  // the hook would now succeed (fsyncgate: the failed range's fate is
  // unknown; a later "clean" fsync proves nothing).
  Status second = (*wal)->Append(WalRecord::Delete(3));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.ToString(), first.ToString());
  EXPECT_FALSE((*wal)->Sync().ok());
  EXPECT_FALSE((*wal)->Close().ok());
  std::filesystem::remove(path);
}

TEST(DurabilityWalTest, FsyncPolicyNamesRoundTrip) {
  for (WalFsyncPolicy p :
       {WalFsyncPolicy::kEveryRecord, WalFsyncPolicy::kEveryN,
        WalFsyncPolicy::kOnCheckpoint}) {
    auto back = WalFsyncPolicyFromName(WalFsyncPolicyName(p));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(WalFsyncPolicyFromName("bogus").ok());
}

// --- PageFile close/poison (the Close() satellite) ------------------------

TEST(DurabilityPageFileTest, CloseReturnsStatusAndIsIdempotent) {
  const std::string path = TempPath("durab_pf_close.msq");
  std::filesystem::remove(path);
  auto pf = PageFile::Create(path);
  ASSERT_TRUE(pf.ok());
  ASSERT_TRUE((*pf)->PutObject("blob", "payload").ok());
  ASSERT_TRUE((*pf)->Sync().ok());
  EXPECT_TRUE((*pf)->Close().ok());
  EXPECT_TRUE((*pf)->Close().ok());  // idempotent
  std::filesystem::remove(path);
}

TEST(DurabilityPageFileTest, FsyncFailurePoisonsTheFile) {
  const std::string path = TempPath("durab_pf_poison.msq");
  std::filesystem::remove(path);
  auto pf = PageFile::Create(path);
  ASSERT_TRUE(pf.ok());
  ASSERT_TRUE((*pf)->PutObject("blob", "payload").ok());
  (*pf)->SetFsyncFaultHook(
      []() { return Status::IOError("injected fsync failure"); });
  Status sync = (*pf)->Sync();
  ASSERT_FALSE(sync.ok());
  (*pf)->SetFsyncFaultHook(nullptr);
  // Sticky: later writes and the close itself report the original error.
  EXPECT_FALSE((*pf)->PutObject("more", "x").ok());
  Status close = (*pf)->Close();
  ASSERT_FALSE(close.ok());
  EXPECT_EQ(close.ToString(), sync.ToString());
  std::filesystem::remove(path);
}

// --- fs_util --------------------------------------------------------------

TEST(DurabilityFsUtilTest, DurableRenameReplacesAndFileExists) {
  const std::string from = TempPath("durab_fs_from.bin");
  const std::string to = TempPath("durab_fs_to.bin");
  { std::ofstream(from) << "new"; }
  { std::ofstream(to) << "old"; }
  EXPECT_TRUE(FileExists(from));
  ASSERT_TRUE(DurableRename(from, to).ok());
  EXPECT_FALSE(FileExists(from));
  std::ifstream in(to);
  std::string content;
  in >> content;
  EXPECT_EQ(content, "new");
  RemoveFileIfExists(to);
  EXPECT_FALSE(FileExists(to));
  EXPECT_FALSE(DurableRename(from, to).ok());  // source is gone
}

// --- database-level durability -------------------------------------------

std::unique_ptr<MetricDatabase> BuildDb(const Dataset& data,
                                        const DatabaseOptions& options) {
  auto db = MetricDatabase::Open(data, std::make_shared<EuclideanMetric>(),
                                 options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(db).value() : nullptr;
}

DatabaseOptions WalOptions(std::shared_ptr<robust::FaultInjector> injector =
                               nullptr,
                           BackendKind kind = BackendKind::kLinearScan,
                           bool pivots = false) {
  DatabaseOptions options;
  options.backend = kind;
  options.pivots.enabled = pivots;
  options.pivots.table.num_pivots = 3;
  options.pivots.table.sample_size = 32;
  options.durability.wal_enabled = true;
  options.fault_injector = std::move(injector);
  return options;
}

/// One scripted mutation of the crash-matrix history.
struct Mutation {
  bool is_insert = true;
  Vec row;          // insert payload
  ObjectId id = 0;  // delete target
};

std::vector<Mutation> MakeMutations(const Dataset& adds) {
  std::vector<Mutation> muts;
  for (ObjectId i = 0; i < adds.size(); ++i) {
    muts.push_back({true, adds.object(i), 0});
  }
  muts.push_back({false, {}, 7});
  muts.push_back({false, {}, 33});
  return muts;
}

/// The object set after the first `prefix` mutations, in the id order
/// compaction produces (base survivors in base order, then inserts in
/// insertion order) — so a quiesced database of this history must answer
/// bit-identically to a fresh build of these rows.
Dataset ExpectedSet(const Dataset& base, const std::vector<Mutation>& muts,
                    size_t prefix) {
  std::vector<bool> dead(base.size(), false);
  std::vector<Vec> inserts;
  for (size_t i = 0; i < prefix; ++i) {
    if (muts[i].is_insert) {
      inserts.push_back(muts[i].row);
    } else {
      dead[muts[i].id] = true;
    }
  }
  std::vector<Vec> rows;
  for (ObjectId id = 0; id < base.size(); ++id) {
    if (!dead[id]) rows.push_back(base.object(id));
  }
  for (Vec& v : inserts) rows.push_back(std::move(v));
  return Dataset(base.dim(), std::move(rows));
}

/// Quiesces `db` and checks its answers are bit-identical (ids and
/// distances, zero tolerance) to a brute-force pass over `expected`.
::testing::AssertionResult MatchesExpected(MetricDatabase* db,
                                           const Dataset& expected,
                                           const Dataset& probes) {
  if (Status s = db->Compact(); !s.ok()) {
    return ::testing::AssertionFailure() << "compact: " << s.ToString();
  }
  if (db->NumLiveObjects() != expected.size()) {
    return ::testing::AssertionFailure()
           << "live " << db->NumLiveObjects() << " != expected "
           << expected.size();
  }
  EuclideanMetric metric;
  for (ObjectId i = 0; i < probes.size(); ++i) {
    const Query knn{static_cast<QueryId>(4000 + i), probes.object(i),
                    QueryType::Knn(5)};
    auto got = db->SimilarityQuery(knn);
    if (!got.ok()) {
      return ::testing::AssertionFailure()
             << "knn: " << got.status().ToString();
    }
    if (!SameAnswers(*got, BruteForceQuery(expected, metric, knn), 0.0)) {
      return ::testing::AssertionFailure() << "knn answers differ (probe "
                                           << i << ")";
    }
  }
  const Query range{4999, probes.object(0), QueryType::Range(0.6)};
  auto got = db->SimilarityQuery(range);
  if (!got.ok()) {
    return ::testing::AssertionFailure()
           << "range: " << got.status().ToString();
  }
  if (!SameAnswers(*got, BruteForceQuery(expected, metric, range), 0.0)) {
    return ::testing::AssertionFailure() << "range answers differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(DurabilityRecoveryTest, WalReplayRestoresPreCrashStateExactly) {
  const Dataset base = MakeUniformDataset(100, 4, 31);
  const Dataset adds = MakeUniformDataset(6, 4, 32);
  const Dataset probes = MakeUniformDataset(4, 4, 33);
  const std::vector<Mutation> muts = MakeMutations(adds);
  const std::string path = TempPath("durab_recover.msq");
  RemoveDbFiles(path);

  {
    auto db = BuildDb(base, WalOptions());
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->Save(path).ok());
    EXPECT_TRUE(db->wal_attached());
    for (const Mutation& m : muts) {
      if (m.is_insert) {
        ASSERT_TRUE(db->Insert(m.row).ok());
      } else {
        ASSERT_TRUE(db->Delete(m.id).ok());
      }
    }
    EXPECT_GT(db->WalSizeBytes(), 0u);
    // The database is dropped without Checkpoint or Save — the process
    // "crashes". Everything that survives is the checkpoint + the WAL.
  }

  const uint64_t recoveries_before = CounterValue("msq_recoveries_total");
  const uint64_t replayed_before =
      CounterValue("msq_wal_replayed_records_total");
  auto reopened = MetricDatabase::Open(path, WalOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& recovery = (*reopened)->recovery();
  EXPECT_TRUE(recovery.recovered);
  EXPECT_EQ(recovery.replayed_records, muts.size());
  EXPECT_FALSE(recovery.wal_tail_truncated);
  EXPECT_FALSE(recovery.wal_stale_discarded);
  // The counters account for the replay exactly.
  EXPECT_EQ(CounterValue("msq_recoveries_total"), recoveries_before + 1);
  EXPECT_EQ(CounterValue("msq_wal_replayed_records_total"),
            replayed_before + muts.size());
  EXPECT_TRUE(MatchesExpected(reopened->get(),
                              ExpectedSet(base, muts, muts.size()), probes));
  RemoveDbFiles(path);
}

TEST(DurabilityRecoveryTest, CheckpointTruncatesWalAndSurvivesReopen) {
  const Dataset base = MakeUniformDataset(80, 4, 41);
  const Dataset probes = MakeUniformDataset(3, 4, 43);
  const std::string path = TempPath("durab_ckpt.msq");
  RemoveDbFiles(path);
  auto db = BuildDb(base, WalOptions());
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Save(path).ok());
  const uint64_t empty_wal = db->WalSizeBytes();  // header only

  ASSERT_TRUE(db->Insert(probes.object(0)).ok());
  ASSERT_TRUE(db->Delete(5).ok());
  EXPECT_GT(db->WalSizeBytes(), empty_wal);

  const uint64_t ckpts_before = CounterValue("msq_checkpoints_total");
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(CounterValue("msq_checkpoints_total"), ckpts_before + 1);
  EXPECT_EQ(db->WalSizeBytes(), empty_wal);
  EXPECT_EQ(db->NumDeltaObjects(), 0u);

  // Reopening after a clean checkpoint replays nothing.
  db.reset();
  auto reopened = MetricDatabase::Open(path, WalOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE((*reopened)->recovery().recovered);
  EXPECT_EQ((*reopened)->NumLiveObjects(), base.size());  // 80 - 1 + 1

  // A checkpoint with nothing mutated is a no-op.
  const uint64_t ckpts_clean = CounterValue("msq_checkpoints_total");
  ASSERT_TRUE((*reopened)->Checkpoint().ok());
  EXPECT_EQ(CounterValue("msq_checkpoints_total"), ckpts_clean);
  RemoveDbFiles(path);
}

TEST(DurabilityRecoveryTest, CompactBetweenLoggedMutationsRecoversExactly) {
  // Compact() renumbers survivors ("position among survivors"), so a
  // Delete logged after it references the post-compaction id space. On a
  // durability-armed database Compact must therefore be a full checkpoint
  // — otherwise crash recovery would replay that Delete against the
  // pre-compaction checkpoint and tombstone the wrong object.
  const Dataset base = MakeUniformDataset(100, 4, 111);
  const Dataset adds = MakeUniformDataset(2, 4, 112);
  const Dataset probes = MakeUniformDataset(4, 4, 113);
  const std::string path = TempPath("durab_compact_mid.msq");
  RemoveDbFiles(path);

  // Expected survivor set: base minus {7}, plus adds[0]. adds[1] sits at
  // post-compaction id 100 (99 base survivors, then the two inserts) and
  // is deleted after the compact.
  std::vector<Vec> rows;
  for (ObjectId id = 0; id < base.size(); ++id) {
    if (id != 7) rows.push_back(base.object(id));
  }
  rows.push_back(adds.object(0));
  const Dataset expected(base.dim(), std::move(rows));

  {
    auto db = BuildDb(base, WalOptions());
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->Save(path).ok());
    const uint64_t empty_wal = db->WalSizeBytes();  // header only
    ASSERT_TRUE(db->Insert(adds.object(0)).ok());  // id 100
    ASSERT_TRUE(db->Insert(adds.object(1)).ok());  // id 101
    ASSERT_TRUE(db->Delete(7).ok());
    const uint64_t ckpts = CounterValue("msq_checkpoints_total");
    ASSERT_TRUE(db->Compact().ok());
    // The WAL-attached compact checkpointed: the renumbered base is on
    // disk under a fresh nonce and the old log is retired.
    EXPECT_EQ(CounterValue("msq_checkpoints_total"), ckpts + 1);
    EXPECT_TRUE(db->wal_attached());
    EXPECT_EQ(db->WalSizeBytes(), empty_wal);
    ASSERT_TRUE(db->Delete(100).ok());  // adds[1], post-compaction id
    // The database is dropped without a clean shutdown — a crash.
  }
  auto reopened = MetricDatabase::Open(path, WalOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Only the post-compaction Delete is in the log; it must land on
  // adds[1], not on whatever object held id 100 before the compact.
  EXPECT_EQ((*reopened)->recovery().replayed_records, 1u);
  EXPECT_TRUE(MatchesExpected(reopened->get(), expected, probes));
  RemoveDbFiles(path);
}

TEST(DurabilityRecoveryTest, FailedCheckpointDetachesWalUntilHealed) {
  // A checkpoint whose save fails may already have landed its rename (new
  // nonce durable at the bound path) while the attached WAL still frames
  // the old nonce — appends would succeed yet be discarded as stale by
  // recovery. After any failed checkpoint save the log must be detached
  // (mutations fail Unavailable, never silently undurable) until a clean
  // Checkpoint() writes a fresh checkpoint and re-arms it.
  const Dataset base = MakeUniformDataset(60, 4, 121);
  const Dataset adds = MakeUniformDataset(3, 4, 122);
  const std::string path = TempPath("durab_ckpt_poison.msq");
  RemoveDbFiles(path);
  auto injector =
      std::make_shared<robust::FaultInjector>(robust::FaultPlan{});
  auto db = BuildDb(base, WalOptions(injector));
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Save(path).ok());
  ASSERT_TRUE(db->Insert(adds.object(0)).ok());

  injector->FailNextFsyncs(1);
  ASSERT_FALSE(db->Checkpoint().ok());
  EXPECT_FALSE(db->wal_attached());
  Status blocked = db->Insert(adds.object(1)).status();
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.IsUnavailable());
  EXPECT_TRUE(db->Delete(3).IsUnavailable());

  // A clean checkpoint heals: fresh checkpoint + empty re-armed log.
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_TRUE(db->wal_attached());
  ASSERT_TRUE(db->Insert(adds.object(1)).ok());
  db.reset();  // crash

  auto reopened = MetricDatabase::Open(path, WalOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // adds[0] was folded by the healing checkpoint; only adds[1] replays.
  EXPECT_EQ((*reopened)->recovery().replayed_records, 1u);
  EXPECT_EQ((*reopened)->NumLiveObjects(), base.size() + 2);
  RemoveDbFiles(path);
}

TEST(DurabilityRecoveryTest, CheckpointRequiresABoundPath) {
  auto db = BuildDb(MakeUniformDataset(20, 3, 1), DatabaseOptions());
  ASSERT_NE(db, nullptr);
  Status s = db->Checkpoint();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(DurabilityAutoCheckpointTest, WalByteThresholdFoldsEveryMutation) {
  const Dataset base = MakeUniformDataset(60, 4, 51);
  const Dataset adds = MakeUniformDataset(3, 4, 52);
  const std::string path = TempPath("durab_auto_bytes.msq");
  RemoveDbFiles(path);
  DatabaseOptions options = WalOptions();
  options.durability.auto_checkpoint_wal_bytes = 1;  // any record trips it
  auto db = BuildDb(base, options);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Save(path).ok());
  const uint64_t empty_wal = db->WalSizeBytes();
  const uint64_t ckpts_before = CounterValue("msq_checkpoints_total");
  for (ObjectId i = 0; i < adds.size(); ++i) {
    ASSERT_TRUE(db->Insert(adds.object(i)).ok());
    // Every mutation lands in the WAL and is immediately folded into a
    // fresh checkpoint: the log never accumulates, the delta stays empty.
    EXPECT_EQ(db->WalSizeBytes(), empty_wal);
    EXPECT_EQ(db->NumDeltaObjects(), 0u);
  }
  EXPECT_EQ(CounterValue("msq_checkpoints_total"),
            ckpts_before + adds.size());
  db.reset();
  auto reopened = MetricDatabase::Open(path, WalOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->recovery().recovered);
  EXPECT_EQ((*reopened)->NumLiveObjects(), base.size() + adds.size());
  RemoveDbFiles(path);
}

TEST(DurabilityAutoCheckpointTest, TombstoneRatioThresholdTriggers) {
  const Dataset base = MakeUniformDataset(20, 4, 61);
  const std::string path = TempPath("durab_auto_tombs.msq");
  RemoveDbFiles(path);
  DatabaseOptions options = WalOptions();
  options.durability.auto_checkpoint_tombstone_ratio = 0.25;
  auto db = BuildDb(base, options);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Save(path).ok());
  // Four deletes: 4/20 = 0.2, below the threshold — tombstones accumulate.
  for (ObjectId id = 0; id < 4; ++id) {
    ASSERT_TRUE(db->Delete(id).ok());
  }
  EXPECT_EQ(db->NumTombstones(), 4u);
  // The fifth crosses 0.25 and the checkpoint folds them all.
  ASSERT_TRUE(db->Delete(4).ok());
  EXPECT_EQ(db->NumTombstones(), 0u);
  EXPECT_EQ(db->NumLiveObjects(), base.size() - 5);
  RemoveDbFiles(path);
}

TEST(DurabilityAutoCheckpointTest, InsertReturnsPostFoldIdWhenFoldRenumbers) {
  // When the auto-checkpoint trips on an Insert while tombstones exist,
  // the fold renumbers survivors before Insert returns — the returned id
  // must be the post-fold one (valid at return time), not the stale
  // pre-fold position.
  const Dataset base = MakeUniformDataset(60, 4, 131);
  const Dataset adds = MakeUniformDataset(1, 4, 132);
  const std::string path = TempPath("durab_auto_id.msq");

  // Pass 1: measure the WAL size after one Delete, so pass 2 can arm a
  // byte threshold that only the *second* mutation (the Insert) trips.
  uint64_t delete_bytes = 0;
  {
    RemoveDbFiles(path);
    auto db = BuildDb(base, WalOptions());
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->Save(path).ok());
    ASSERT_TRUE(db->Delete(3).ok());
    delete_bytes = db->WalSizeBytes();
  }
  RemoveDbFiles(path);

  DatabaseOptions options = WalOptions();
  options.durability.auto_checkpoint_wal_bytes = delete_bytes + 1;
  auto db = BuildDb(base, options);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Save(path).ok());
  ASSERT_TRUE(db->Delete(3).ok());
  EXPECT_EQ(db->NumTombstones(), 1u);  // below the threshold: no fold yet
  auto id = db->Insert(adds.object(0));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // The insert tripped the fold: the tombstone is reclaimed and survivors
  // renumbered. The pre-fold id would have been 60; the post-fold one is
  // 59 (59 base survivors, then the insert) and must resolve to the
  // inserted row.
  EXPECT_EQ(db->NumTombstones(), 0u);
  EXPECT_EQ(*id, base.size() - 1);
  EXPECT_EQ(db->backend().ObjectVec(*id), adds.object(0));
  RemoveDbFiles(path);
}

// --- atomic save: crash at every write offset of an overwrite -------------

// The regression the atomic-Save satellite exists for: the old Save wrote
// in place, so a crash mid-write destroyed the only copy. Now a crash at
// *any* write op of an overwrite (temp-file writes, fsyncs aside, the
// rename itself) must leave `path` opening cleanly as either the old
// state or the new one — never Corruption, never NotFound.
TEST(DurabilityAtomicSaveTest, CrashAtEveryWriteOpLeavesOldOrNewState) {
  const Dataset base = MakeUniformDataset(100, 4, 71);
  const Dataset adds = MakeUniformDataset(6, 4, 72);
  const Dataset probes = MakeUniformDataset(3, 4, 73);
  const std::vector<Mutation> muts = MakeMutations(adds);
  const Dataset old_set = ExpectedSet(base, muts, 0);
  const Dataset new_set = ExpectedSet(base, muts, muts.size());

  auto injector =
      std::make_shared<robust::FaultInjector>(robust::FaultPlan{});
  DatabaseOptions options;  // durability off: pure atomic-save semantics
  options.fault_injector = injector;
  const std::string path = TempPath("durab_atomic_save.msq");
  const std::string scratch = TempPath("durab_atomic_scratch.msq");
  RemoveDbFiles(path);
  RemoveDbFiles(scratch);

  auto db = BuildDb(base, options);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Save(path).ok());
  for (const Mutation& m : muts) {
    if (m.is_insert) {
      ASSERT_TRUE(db->Insert(m.row).ok());
    } else {
      ASSERT_TRUE(db->Delete(m.id).ok());
    }
  }
  // Learn the overwrite's write-op count from a clean save of the same
  // content to a scratch path.
  const uint64_t before = injector->write_ops();
  ASSERT_TRUE(db->Save(scratch).ok());
  const uint64_t total_ops = injector->write_ops() - before;
  ASSERT_GE(total_ops, 3u);  // data, meta, rename at minimum
  RemoveDbFiles(scratch);

  for (uint64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("crash at write op " + std::to_string(k));
    injector->CrashAfterWriteOps(static_cast<int>(k),
                                 /*torn_bytes=*/k % 2 == 0 ? 0 : 512);
    Status st = db->Save(path);
    EXPECT_FALSE(st.ok());
    injector->Restore();
    // The destination must open — as exactly one of the two states.
    auto reopened = MetricDatabase::Open(path);
    ASSERT_TRUE(reopened.ok())
        << "crash point " << k << ": " << reopened.status().ToString();
    const size_t live = (*reopened)->NumLiveObjects();
    ASSERT_TRUE(live == old_set.size() || live == new_set.size());
    EXPECT_TRUE(MatchesExpected(
        reopened->get(), live == old_set.size() ? old_set : new_set,
        probes));
  }
  // With the injector quiet the overwrite completes, and only the new
  // state remains.
  ASSERT_TRUE(db->Save(path).ok());
  auto final_db = MetricDatabase::Open(path);
  ASSERT_TRUE(final_db.ok());
  EXPECT_TRUE(MatchesExpected(final_db->get(), new_set, probes));
  EXPECT_FALSE(FileExists(path + ".tmp"));  // failed saves cleaned up
  RemoveDbFiles(path);
}

// --- the acceptance matrix ------------------------------------------------

// Kill-at-every-write-offset across all four backends, pivots off and on,
// in the two durability phases: (B) WAL appends — the reopened database
// must equal the checkpoint plus exactly the durably-appended prefix of
// the mutation history, with recovery counters matching that prefix; and
// (C) checkpoint — the fold is all-or-nothing over an already-durable WAL,
// so every crash point must recover the *full* state (old checkpoint +
// full WAL before the rename, new checkpoint + discarded stale WAL after).
// No crash point may surface as Corruption.
TEST(DurabilityCrashMatrixTest, KillAtEveryWalAppendOffset) {
  const Dataset base = MakeUniformDataset(90, 4, 81);
  const Dataset adds = MakeUniformDataset(6, 4, 82);
  const Dataset probes = MakeUniformDataset(3, 4, 83);
  const std::vector<Mutation> muts = MakeMutations(adds);

  for (BackendKind kind : kAllBackends) {
    for (bool pivots : {false, true}) {
      auto injector =
          std::make_shared<robust::FaultInjector>(robust::FaultPlan{});
      const std::string path =
          TempPath("durab_matrix_wal_" + BackendKindName(kind) +
                   (pivots ? "_p" : "") + ".msq");
      // One WAL append is one write op, so the mutation count bounds the
      // crash schedule; confirmed against the injector on the first pass.
      for (size_t k = 0; k <= muts.size(); ++k) {
        for (size_t torn : {size_t{0}, size_t{3}}) {
          if (k == muts.size() && torn != 0) continue;  // no op to tear
          SCOPED_TRACE(BackendKindName(kind) + (pivots ? "+pivots" : "") +
                       " crash after " + std::to_string(k) +
                       " appends, torn=" + std::to_string(torn));
          RemoveDbFiles(path);
          auto db = BuildDb(base, WalOptions(injector, kind, pivots));
          ASSERT_NE(db, nullptr);
          ASSERT_TRUE(db->Save(path).ok());

          const uint64_t ops_before = injector->write_ops();
          if (k < muts.size()) {
            injector->CrashAfterWriteOps(static_cast<int>(k), torn);
          }
          size_t succeeded = 0;
          for (const Mutation& m : muts) {
            Status st = m.is_insert ? db->Insert(m.row).status()
                                    : db->Delete(m.id);
            if (st.ok()) ++succeeded;
          }
          if (k < muts.size()) {
            // The crash landed inside append k: mutations 0..k-1 were
            // published, everything after was refused.
            EXPECT_EQ(succeeded, k);
          } else {
            EXPECT_EQ(succeeded, muts.size());
            EXPECT_EQ(injector->write_ops() - ops_before, muts.size())
                << "one WAL append should be exactly one write op";
          }
          injector->Restore();
          db.reset();  // crash: no checkpoint, no clean shutdown

          auto reopened = MetricDatabase::Open(path, WalOptions());
          ASSERT_TRUE(reopened.ok())
              << "recovery must never fail: "
              << reopened.status().ToString();
          const auto& recovery = (*reopened)->recovery();
          EXPECT_EQ(recovery.replayed_records, succeeded)
              << "every_record fsync: exactly the published prefix is "
                 "durable";
          EXPECT_EQ(recovery.recovered, succeeded > 0);
          EXPECT_TRUE(MatchesExpected(reopened->get(),
                                      ExpectedSet(base, muts, succeeded),
                                      probes));
        }
      }
      RemoveDbFiles(path);
    }
  }
}

TEST(DurabilityCrashMatrixTest, KillAtEveryCheckpointOffset) {
  const Dataset base = MakeUniformDataset(90, 4, 91);
  const Dataset adds = MakeUniformDataset(6, 4, 92);
  const Dataset probes = MakeUniformDataset(3, 4, 93);
  const std::vector<Mutation> muts = MakeMutations(adds);
  const Dataset full_set = ExpectedSet(base, muts, muts.size());

  for (BackendKind kind : kAllBackends) {
    for (bool pivots : {false, true}) {
      auto injector =
          std::make_shared<robust::FaultInjector>(robust::FaultPlan{});
      const std::string path =
          TempPath("durab_matrix_ckpt_" + BackendKindName(kind) +
                   (pivots ? "_p" : "") + ".msq");

      auto setup = [&]() -> std::unique_ptr<MetricDatabase> {
        RemoveDbFiles(path);
        auto db = BuildDb(base, WalOptions(injector, kind, pivots));
        if (db == nullptr) return nullptr;
        if (!db->Save(path).ok()) return nullptr;
        for (const Mutation& m : muts) {
          Status st =
              m.is_insert ? db->Insert(m.row).status() : db->Delete(m.id);
          if (!st.ok()) return nullptr;
        }
        return db;
      };

      // Clean run: learn the checkpoint's write-op count.
      auto db = setup();
      ASSERT_NE(db, nullptr);
      const uint64_t before = injector->write_ops();
      ASSERT_TRUE(db->Checkpoint().ok());
      const uint64_t total_ops = injector->write_ops() - before;
      ASSERT_GE(total_ops, 3u);

      for (uint64_t k = 0; k < total_ops; ++k) {
        SCOPED_TRACE(BackendKindName(kind) + (pivots ? "+pivots" : "") +
                     " crash at checkpoint op " + std::to_string(k));
        db = setup();
        ASSERT_NE(db, nullptr);
        injector->CrashAfterWriteOps(static_cast<int>(k),
                                     /*torn_bytes=*/k % 2 == 0 ? 0 : 256);
        Status st = db->Checkpoint();
        EXPECT_FALSE(st.ok());
        injector->Restore();
        db.reset();

        // Whatever the crash point — before the temp file finished,
        // before the rename, between rename and WAL swap — the durable
        // state is the full mutation history.
        auto reopened = MetricDatabase::Open(path, WalOptions());
        ASSERT_TRUE(reopened.ok())
            << "recovery must never fail: " << reopened.status().ToString();
        EXPECT_TRUE(
            MatchesExpected(reopened->get(), full_set, probes));
      }
      RemoveDbFiles(path);
    }
  }
}

// --- concurrent WAL writers and queries (the TSan target) -----------------

TEST(DurabilityStressTest, ConcurrentWalWritersAndQueries) {
  constexpr int kWriters = 3;
  constexpr int kInsertsPerWriter = 30;
  constexpr int kQueriesPerThread = 40;
  const Dataset base = MakeUniformDataset(200, 4, 101);
  const Dataset probes = MakeUniformDataset(8, 4, 102);
  const std::string path = TempPath("durab_stress.msq");
  RemoveDbFiles(path);
  DatabaseOptions options = WalOptions();
  options.durability.wal_fsync_policy = WalFsyncPolicy::kEveryN;
  options.durability.wal_fsync_every_n = 8;
  auto db = BuildDb(base, options);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Save(path).ok());

  std::atomic<bool> failed{false};
  std::mutex query_mu;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        Vec v(4);
        for (size_t d = 0; d < 4; ++d) {
          v[d] = static_cast<Scalar>((w * 100 + i + d) % 97) / 97.0f;
        }
        if (!db->Insert(std::move(v)).ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const Vec& p = probes.object(static_cast<ObjectId>((t + i) % 8));
        std::lock_guard<std::mutex> lock(query_mu);
        auto got = db->SimilarityQuery(db->MakeKnnQuery(p, 5));
        if (!got.ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());
  const size_t total = base.size() + kWriters * kInsertsPerWriter;
  EXPECT_EQ(db->NumLiveObjects(), total);
  db.reset();  // no checkpoint: reopen replays every concurrent insert

  auto reopened = MetricDatabase::Open(path, WalOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery().replayed_records,
            static_cast<uint64_t>(kWriters * kInsertsPerWriter));
  EXPECT_EQ((*reopened)->NumLiveObjects(), total);
  RemoveDbFiles(path);
}

TEST(DurabilityStressTest, MonitorAccessorsRaceAutoCheckpointWalSwaps) {
  // The durability accessors (bound_path, WalSizeBytes, wal_attached)
  // take writer_mu_: a monitoring thread polling them while the writer's
  // auto-checkpoints swap wal_ out must be race-free — this is the TSan
  // target for those accessors.
  const Dataset base = MakeUniformDataset(80, 4, 141);
  const std::string path = TempPath("durab_monitor.msq");
  RemoveDbFiles(path);
  DatabaseOptions options = WalOptions();
  options.durability.auto_checkpoint_wal_bytes = 1;  // fold every mutation
  auto db = BuildDb(base, options);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Save(path).ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread monitor([&] {
    while (!stop.load()) {
      if (db->bound_path().empty()) failed = true;
      (void)db->WalSizeBytes();
      (void)db->wal_attached();
    }
  });
  constexpr int kMutations = 40;
  for (int i = 0; i < kMutations; ++i) {
    Vec v(4, static_cast<Scalar>(i + 1) / (kMutations + 1));
    ASSERT_TRUE(db->Insert(std::move(v)).ok());
  }
  stop = true;
  monitor.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(db->NumLiveObjects(), base.size() + kMutations);
  RemoveDbFiles(path);
}

// A reader's installed snapshot must never leak into the writer's
// checkpoint. Each round inserts an object and deletes it again, so every
// auto-checkpoint folds the overlay into a fresh base while a reader thread
// keeps querying a reopened, store-backed database. A checkpoint that saved
// the reader's stale base instead of the writer's own fails ("already
// backed by a page store") and detaches the WAL, or persists stale
// contents; a lazily finalized tree base must not be finalized by reader
// and writer at once.
TEST(DurabilityStressTest, CheckpointsIgnoreTheReadersSnapshot) {
  const Dataset base = MakeUniformDataset(2000, 8, 151);
  const Dataset adds = MakeUniformDataset(64, 8, 152);
  const Dataset probes = MakeUniformDataset(4, 8, 153);
  for (BackendKind kind : {BackendKind::kLinearScan, BackendKind::kXTree}) {
    SCOPED_TRACE(BackendKindName(kind));
    const std::string path = TempPath("durab_reader_ckpt.msq");
    RemoveDbFiles(path);
    DatabaseOptions options = WalOptions(nullptr, kind);
    options.durability.auto_checkpoint_wal_bytes = 2048;
    {
      auto built = BuildDb(base, options);
      ASSERT_NE(built, nullptr);
      ASSERT_TRUE(built->Save(path).ok());
    }
    auto opened = MetricDatabase::Open(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    MetricDatabase* db = opened->get();

    std::atomic<bool> stop{false};
    std::atomic<int> queries{0};
    std::atomic<bool> query_failed{false};
    std::thread reader([&] {
      for (int i = 0; !stop.load(); ++i) {
        const Vec& p = probes.object(static_cast<ObjectId>(i % 4));
        if (!db->SimilarityQuery(db->MakeKnnQuery(p, 5)).ok()) {
          query_failed = true;
        }
        ++queries;
      }
    });
    while (queries.load() == 0) std::this_thread::yield();
    int write_failures = 0;
    for (int round = 0; round < 300; ++round) {
      auto id = db->Insert(adds.object(static_cast<ObjectId>(round % 64)));
      if (!id.ok() || !db->Delete(*id).ok()) ++write_failures;
    }
    stop = true;
    reader.join();
    EXPECT_FALSE(query_failed.load());
    EXPECT_EQ(write_failures, 0);
    EXPECT_TRUE(db->wal_attached());
    opened->reset();

    // Every insert was deleted again: the recovered database is the base.
    auto reopened = MetricDatabase::Open(path, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(MatchesExpected(reopened->get(), base, probes));
    reopened->reset();
    RemoveDbFiles(path);
  }
}

}  // namespace
}  // namespace msq
