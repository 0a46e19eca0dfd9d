// Micro-benchmark of the durability layer (DESIGN §14).
//
// Section 1 — WAL append cost under the three fsync policies. Wall-clock
// latency is printed for information (it is hardware-dependent and never
// compared); the JSON carries only the deterministic shape of the log:
// record count and exact on-disk byte length, which a frame-format
// regression would shift.
//
// Section 2 — recovery as a function of WAL length. A checkpoint plus an
// L-record log is reopened; the run fails (exit non-zero) unless the
// recovery replayed exactly L records and the recovered database answers
// bit-identically to a fresh build of the same final object set — this is
// what the contract_durability test asserts against the committed baseline.

#include <filesystem>

#include "bench/bench_common.h"

using namespace msq;
using namespace msq::bench;

namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void RemoveDbFiles(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".wal");
  std::filesystem::remove(path + ".tmp");
}

bool Identical(const AnswerSet& a, const AnswerSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance != b[i].distance) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Define("n", "5000", "base database size (Tycho-style clustered)");
  flags.Define("appends", "2000", "records per fsync-policy measurement");
  flags.Define("recovery_lengths", "0,64,256,1024",
               "WAL lengths (records) for the recovery measurement");
  flags.Define("num_queries", "16", "verification kNN queries");
  flags.Define("k", "10", "kNN cardinality");
  flags.Define("json", "", "write one JSON record per row to this file");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::printf("%s\n", s.message().c_str());
    return s.IsNotFound() ? 0 : 1;
  }
  const size_t n = static_cast<size_t>(flags.GetInt("n"));
  const size_t appends = static_cast<size_t>(flags.GetInt("appends"));
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("num_queries"));
  const size_t k = static_cast<size_t>(flags.GetInt("k"));
  BenchJsonWriter json(flags.GetString("json"));
  bool ok = true;

  TychoLikeOptions base_options;
  base_options.n = n;
  base_options.seed = 42;
  const Dataset base = MakeTychoLikeDataset(base_options);
  TychoLikeOptions add_options;
  add_options.n = 2048;
  add_options.seed = 43;
  const Dataset additions = MakeTychoLikeDataset(add_options);
  TychoLikeOptions probe_options;
  probe_options.n = num_queries;
  probe_options.seed = 44;
  const Dataset probes = MakeTychoLikeDataset(probe_options);

  // --- Section 1: append cost per fsync policy ---------------------------
  std::printf("=== WAL append: %zu %zu-d records per fsync policy ===\n",
              appends, base.dim());
  for (WalFsyncPolicy policy :
       {WalFsyncPolicy::kEveryRecord, WalFsyncPolicy::kEveryN,
        WalFsyncPolicy::kOnCheckpoint}) {
    const std::string wal_path =
        TempPath("micro_durability_" + WalFsyncPolicyName(policy) + ".wal");
    std::filesystem::remove(wal_path);
    Wal::Options options;
    options.fsync_policy = policy;
    options.fsync_every_n = 32;
    WalReplayResult replay;
    auto wal = Wal::OpenForAppend(wal_path, /*checkpoint_nonce=*/1, options,
                                  &replay);
    if (!wal.ok()) {
      std::fprintf(stderr, "wal open failed: %s\n",
                   wal.status().ToString().c_str());
      return 1;
    }
    WallTimer timer;
    for (size_t i = 0; i < appends; ++i) {
      const Vec& row = additions.object(
          static_cast<ObjectId>(i % additions.size()));
      if (Status s = (*wal)->Append(WalRecord::Insert(row, kNoLabel));
          !s.ok()) {
        std::fprintf(stderr, "append failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    const double wall_ms = timer.ElapsedMillis();
    const uint64_t wal_bytes = (*wal)->size_bytes();
    if (Status s = (*wal)->Close(); !s.ok()) {
      std::fprintf(stderr, "close failed: %s\n", s.ToString().c_str());
      return 1;
    }
    // Re-scan: every appended record must already be a valid frame.
    WalReplayResult scanned;
    if (Status s = Wal::Scan(wal_path, 1, &scanned); !s.ok()) {
      std::fprintf(stderr, "scan failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const bool scan_complete =
        scanned.records.size() == appends && !scanned.tail_truncated;
    std::printf("%-14s %zu records, %llu bytes, %.1f ms "
                "(%.0f appends/s, %.1f us/append)  %s\n",
                WalFsyncPolicyName(policy).c_str(), appends,
                static_cast<unsigned long long>(wal_bytes), wall_ms,
                appends / (wall_ms / 1000.0), wall_ms * 1000.0 / appends,
                scan_complete ? "OK" : "FAIL");
    if (json.enabled()) {
      json.BeginRecord("micro_durability");
      json.Str("section", "wal_append");
      json.Str("fsync_policy", WalFsyncPolicyName(policy));
      json.Int("records", static_cast<int64_t>(appends));
      json.Int("wal_bytes", static_cast<int64_t>(wal_bytes));
      json.Int("scan_complete", scan_complete ? 1 : 0);
      json.Num("wall_ms", wall_ms);
    }
    ok = ok && scan_complete;
    std::filesystem::remove(wal_path);
  }

  // --- Section 2: recovery time vs WAL length ----------------------------
  std::printf("\n=== recovery: checkpoint(n=%zu) + L-record WAL ===\n", n);
  const auto metric = BenchMetric();
  for (int64_t length : flags.GetIntList("recovery_lengths")) {
    const size_t L = static_cast<size_t>(length);
    if (L > additions.size()) {
      std::fprintf(stderr, "recovery length %zu exceeds the addition pool "
                   "(%zu)\n", L, additions.size());
      return 1;
    }
    const std::string path =
        TempPath("micro_durability_recover_" + std::to_string(L) + ".msq");
    RemoveDbFiles(path);
    DatabaseOptions options;
    options.backend = BackendKind::kLinearScan;
    options.durability.wal_enabled = true;
    {
      auto db = MetricDatabase::Open(base, metric, options);
      if (!db.ok()) {
        std::fprintf(stderr, "open failed: %s\n",
                     db.status().ToString().c_str());
        return 1;
      }
      if (Status s = (*db)->Save(path); !s.ok()) {
        std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
        return 1;
      }
      for (size_t i = 0; i < L; ++i) {
        if (!(*db)->Insert(additions.object(static_cast<ObjectId>(i)))
                 .ok()) {
          std::fprintf(stderr, "insert failed\n");
          return 1;
        }
      }
      // Dropped without Checkpoint: the "crash".
    }
    WallTimer timer;
    auto reopened = MetricDatabase::Open(path, options);
    const double recover_ms = timer.ElapsedMillis();
    if (!reopened.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   reopened.status().ToString().c_str());
      return 1;
    }
    const uint64_t replayed = (*reopened)->recovery().replayed_records;
    // The log length recovery replayed — captured now, because the
    // verification Compact below is a full checkpoint on a WAL-attached
    // database and truncates the log.
    const uint64_t replayed_wal_bytes = (*reopened)->WalSizeBytes();

    // The recovered database must answer bit-identically to a fresh build
    // of the same final object set (quiesced equality over recovery).
    std::vector<Vec> rows;
    for (ObjectId id = 0; id < base.size(); ++id) {
      rows.push_back(base.object(id));
    }
    for (size_t i = 0; i < L; ++i) {
      rows.push_back(additions.object(static_cast<ObjectId>(i)));
    }
    Dataset final_set(base.dim(), std::move(rows));
    auto fresh = MetricDatabase::Open(final_set, metric, DatabaseOptions());
    if (!fresh.ok()) {
      std::fprintf(stderr, "fresh build failed\n");
      return 1;
    }
    if (Status s = (*reopened)->Compact(); !s.ok()) {
      std::fprintf(stderr, "compact failed: %s\n", s.ToString().c_str());
      return 1;
    }
    bool identical = (*reopened)->NumLiveObjects() == final_set.size();
    for (size_t i = 0; identical && i < probes.size(); ++i) {
      const Vec& p = probes.object(static_cast<ObjectId>(i));
      const Query q{static_cast<QueryId>(3000 + i), p, QueryType::Knn(k)};
      auto a = (*reopened)->SimilarityQuery(q);
      auto b = (*fresh)->SimilarityQuery(q);
      if (!a.ok() || !b.ok()) {
        std::fprintf(stderr, "verification query failed\n");
        return 1;
      }
      identical = Identical(*a, *b);
    }
    const bool replay_exact = replayed == L;
    std::printf("L=%-5zu replayed=%-5llu recover %.1f ms  answers=%s  %s\n",
                L, static_cast<unsigned long long>(replayed), recover_ms,
                identical ? "same" : "DIFF",
                replay_exact && identical ? "OK" : "FAIL");
    if (json.enabled()) {
      json.BeginRecord("micro_durability");
      json.Str("section", "recovery");
      json.Int("records", static_cast<int64_t>(L));
      json.Int("replayed", static_cast<int64_t>(replayed));
      json.Int("replay_exact", replay_exact ? 1 : 0);
      json.Int("recovered_identical", identical ? 1 : 0);
      json.Int("wal_bytes", static_cast<int64_t>(replayed_wal_bytes));
      json.Num("recover_ms", recover_ms);
    }
    ok = ok && replay_exact && identical;
    RemoveDbFiles(path);
  }

  if (!ok) {
    std::fprintf(stderr, "\nmicro_durability: FAILED (see above)\n");
    return 1;
  }
  std::printf("\nmicro_durability: all checks passed\n");
  return 0;
}
