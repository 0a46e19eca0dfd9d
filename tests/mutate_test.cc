// Tests for the online-mutability layer (DESIGN §13): epoch-based
// reclamation, the chunked copy-on-write container, two-tier pivot rows,
// insert/delete visibility against every backend, quiesced equality (a
// mutated-then-compacted database answers bit-identically to a fresh build
// of the same final object set, pivots on and off), persistence of the
// mutated state through the page store, and a mixed reader/writer stress
// run (the TSan CI target).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cow_vec.h"
#include "core/database.h"
#include "core/epoch.h"
#include "core/pivot_table.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
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

std::unique_ptr<MetricDatabase> OpenDb(const Dataset& data, BackendKind kind,
                                       bool pivots = false) {
  DatabaseOptions options;
  options.backend = kind;
  options.pivots.enabled = pivots;
  options.pivots.table.num_pivots = 4;
  options.pivots.table.sample_size = 64;
  auto db = MetricDatabase::Open(data, std::make_shared<EuclideanMetric>(),
                                 options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(db).value() : nullptr;
}

/// Exhaustive oracle over the *current overlay state* of a mutable
/// database: base minus tombstones plus live delta, ids as queries see
/// them before compaction.
AnswerSet OverlayOracle(const LiveVersion& v, const Metric& metric,
                        const Query& q) {
  AnswerSet all;
  for (size_t id = 0; id < v.total_objects(); ++id) {
    if (v.tombstoned(id)) continue;
    const Vec& row = id < v.base_n
                         ? v.base_dataset->object(static_cast<ObjectId>(id))
                         : v.delta[id - v.base_n];
    const double d = metric.Distance(q.point, row);
    if (d <= q.type.range) all.push_back({static_cast<ObjectId>(id), d});
  }
  std::sort(all.begin(), all.end());
  if (q.type.Adaptive() && all.size() > q.type.cardinality) {
    all.resize(q.type.cardinality);
  }
  return all;
}

// --- EpochManager --------------------------------------------------------

TEST(MutateEpochTest, ReclaimWaitsForActiveReader) {
  EpochManager epochs;
  auto version = std::make_shared<int>(7);
  std::weak_ptr<int> alive = version;

  EpochManager::Guard reader = epochs.Pin();
  epochs.Retire(std::move(version));
  // The reader pinned before the retirement, so the retired object must
  // survive every reclamation attempt while the pin is held.
  epochs.Reclaim();
  EXPECT_FALSE(alive.expired());
  EXPECT_EQ(epochs.limbo_size(), 1u);
  EXPECT_GE(epochs.ReclaimLagEpochs(), 1u);

  reader.Release();
  epochs.Reclaim();
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(epochs.limbo_size(), 0u);
  EXPECT_EQ(epochs.ReclaimLagEpochs(), 0u);
}

TEST(MutateEpochTest, RetireWithoutReadersReclaimsImmediately) {
  EpochManager epochs;
  auto version = std::make_shared<int>(1);
  std::weak_ptr<int> alive = version;
  // Retire advances the epoch and reclaims inline; with no pins the limbo
  // entry must not outlive the call.
  epochs.Retire(std::move(version));
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(epochs.limbo_size(), 0u);
}

TEST(MutateEpochTest, LaterPinDoesNotBlockOlderRetirement) {
  EpochManager epochs;
  auto old_version = std::make_shared<int>(1);
  std::weak_ptr<int> alive = old_version;
  epochs.Retire(std::move(old_version));  // reclaimed inline (no readers)
  ASSERT_TRUE(alive.expired());

  // A reader pinning *now* can only observe post-retirement state; a fresh
  // retirement parks until the pin drops, but the pin cannot resurrect
  // eligibility rules for entries retired at even older epochs.
  EpochManager::Guard reader = epochs.Pin();
  auto next = std::make_shared<int>(2);
  std::weak_ptr<int> next_alive = next;
  epochs.Retire(std::move(next));
  EXPECT_FALSE(next_alive.expired());
  reader.Release();
  epochs.Reclaim();
  EXPECT_TRUE(next_alive.expired());
}

// --- CowChunkedVec -------------------------------------------------------

TEST(MutateCowVecTest, SnapshotsAreIsolatedFromLaterWrites) {
  CowChunkedVec<int> writer;
  for (int i = 0; i < 150; ++i) writer.PushBack(i);  // spans 3 chunks

  const CowChunkedVec<int> snapshot = writer;  // O(chunks) copy
  writer.PushBack(999);
  writer.Set(3, -3);
  writer.Set(130, -130);

  ASSERT_EQ(snapshot.size(), 150u);
  EXPECT_EQ(snapshot[3], 3);
  EXPECT_EQ(snapshot[130], 130);
  ASSERT_EQ(writer.size(), 151u);
  EXPECT_EQ(writer[3], -3);
  EXPECT_EQ(writer[130], -130);
  EXPECT_EQ(writer[150], 999);
  // Untouched chunks stay shared: element 64..127 live in a chunk neither
  // write touched, so both views agree.
  EXPECT_EQ(snapshot[70], writer[70]);
}

// --- PivotTable::WithAppendedRow -----------------------------------------

TEST(MutatePivotTest, AppendedRowIsExactAndSharesBase) {
  const Dataset data = MakeUniformDataset(120, 5, 3);
  EuclideanMetric metric;
  PivotTableOptions options;
  options.num_pivots = 4;
  options.sample_size = 64;
  auto built = PivotTable::Build(data, metric, options);
  ASSERT_TRUE(built.ok());
  std::shared_ptr<const PivotTable> table = std::move(built).value();

  const Vec extra = MakeUniformDataset(1, 5, 9).object(0);
  std::shared_ptr<const PivotTable> appended =
      table->WithAppendedRow(extra, metric);
  ASSERT_EQ(appended->num_objects(), table->num_objects() + 1);
  const double* row = appended->Row(static_cast<ObjectId>(data.size()));
  for (size_t k = 0; k < appended->num_pivots(); ++k) {
    EXPECT_EQ(row[k], metric.Distance(extra, appended->pivot_point(k)));
  }
  // The base rows are shared, not copied: identical storage addresses.
  EXPECT_EQ(appended->Row(0), table->Row(0));
}

// --- insert/delete visibility before compaction --------------------------

TEST(MutateTest, InsertVisibleAndDeleteHiddenOnEveryBackend) {
  const Dataset base = MakeUniformDataset(300, 6, 21);
  const Dataset adds = MakeUniformDataset(10, 6, 22);
  const Dataset probes = MakeUniformDataset(6, 6, 23);
  EuclideanMetric metric;
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(BackendKindName(kind));
    auto db = OpenDb(base, kind);
    ASSERT_NE(db, nullptr);
    std::vector<ObjectId> delta_ids;
    for (size_t i = 0; i < adds.size(); ++i) {
      auto id = db->Insert(adds.object(static_cast<ObjectId>(i)));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      EXPECT_EQ(*id, base.size() + i);
      delta_ids.push_back(*id);
    }
    ASSERT_TRUE(db->Delete(7).ok());                  // base tier
    ASSERT_TRUE(db->Delete(133).ok());                // base tier
    ASSERT_TRUE(db->Delete(delta_ids[2]).ok());       // delta tier
    ASSERT_TRUE(db->Delete(delta_ids[9]).ok());       // delta tier
    EXPECT_FALSE(db->Delete(7).ok());                 // double delete refused
    EXPECT_EQ(db->NumDeltaObjects(), adds.size());
    EXPECT_EQ(db->NumTombstones(), 4u);
    EXPECT_EQ(db->NumLiveObjects(), base.size() + adds.size() - 4);

    auto version = db->CurrentVersion();
    for (size_t i = 0; i < probes.size(); ++i) {
      const Query knn{static_cast<QueryId>(9000 + i),
                      probes.object(static_cast<ObjectId>(i)),
                      QueryType::Knn(8)};
      auto got = db->SimilarityQuery(knn);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(SameAnswers(*got, OverlayOracle(*version, metric, knn), 0.0));

      const Query range{static_cast<QueryId>(9100 + i),
                        probes.object(static_cast<ObjectId>(i)),
                        QueryType::Range(0.7)};
      auto got_range = db->SimilarityQuery(range);
      ASSERT_TRUE(got_range.ok()) << got_range.status().ToString();
      EXPECT_TRUE(SameAnswers(*got_range,
                              OverlayOracle(*version, metric, range), 0.0));
    }
  }
}

// --- quiesced equality (the acceptance criterion) ------------------------

// Mutate, compact, and compare against a database built directly from the
// final object set: answers must be bit-identical (ids and distances) for
// every backend, pivots off and on. Compaction renumbers survivors in
// base-then-insertion order, which is exactly the row order of `final_set`
// below, so ids must agree too.
TEST(MutateTest, QuiescedCompactionMatchesFreshBuild) {
  const Dataset base = MakeUniformDataset(240, 6, 5);
  const Dataset adds = MakeUniformDataset(40, 6, 77);
  const Dataset probes = MakeUniformDataset(12, 6, 99);
  const std::vector<ObjectId> dead_base = {3, 57, 120, 239};
  const std::vector<size_t> dead_delta = {1, 5, 19};

  // The final object set, in the id order compaction produces.
  std::vector<Vec> rows;
  for (ObjectId id = 0; id < base.size(); ++id) {
    if (std::find(dead_base.begin(), dead_base.end(), id) == dead_base.end()) {
      rows.push_back(base.object(id));
    }
  }
  for (size_t i = 0; i < adds.size(); ++i) {
    if (std::find(dead_delta.begin(), dead_delta.end(), i) ==
        dead_delta.end()) {
      rows.push_back(adds.object(static_cast<ObjectId>(i)));
    }
  }
  const Dataset final_set(6, std::move(rows));

  for (BackendKind kind : kAllBackends) {
    for (bool pivots : {false, true}) {
      SCOPED_TRACE(BackendKindName(kind) + (pivots ? "+pivots" : ""));
      auto db = OpenDb(base, kind, pivots);
      ASSERT_NE(db, nullptr);
      std::vector<ObjectId> delta_ids;
      for (size_t i = 0; i < adds.size(); ++i) {
        auto id = db->Insert(adds.object(static_cast<ObjectId>(i)));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        delta_ids.push_back(*id);
      }
      for (ObjectId id : dead_base) ASSERT_TRUE(db->Delete(id).ok());
      for (size_t i : dead_delta) ASSERT_TRUE(db->Delete(delta_ids[i]).ok());
      ASSERT_TRUE(db->Compact().ok());
      EXPECT_EQ(db->NumLiveObjects(), final_set.size());
      EXPECT_EQ(db->NumDeltaObjects(), 0u);
      EXPECT_EQ(db->NumTombstones(), 0u);

      auto fresh = OpenDb(final_set, kind, pivots);
      ASSERT_NE(fresh, nullptr);
      for (size_t i = 0; i < probes.size(); ++i) {
        const Query knn{static_cast<QueryId>(7000 + i),
                        probes.object(static_cast<ObjectId>(i)),
                        QueryType::Knn(7)};
        auto mutated = db->SimilarityQuery(knn);
        auto rebuilt = fresh->SimilarityQuery(knn);
        ASSERT_TRUE(mutated.ok() && rebuilt.ok());
        EXPECT_TRUE(SameAnswers(*mutated, *rebuilt, 0.0));

        const Query range{static_cast<QueryId>(7100 + i),
                          probes.object(static_cast<ObjectId>(i)),
                          QueryType::Range(0.8)};
        auto mutated_range = db->SimilarityQuery(range);
        auto rebuilt_range = fresh->SimilarityQuery(range);
        ASSERT_TRUE(mutated_range.ok() && rebuilt_range.ok());
        EXPECT_TRUE(SameAnswers(*mutated_range, *rebuilt_range, 0.0));
      }
    }
  }
}

// --- persistence of mutated state ----------------------------------------

// Save compacts first, so the written file is a clean base; reopening it
// must answer like a fresh build of the final set, and the reopened
// database must itself accept further mutations and a second Save.
TEST(MutateTest, MutateSaveReopenMutateSaveAgain) {
  const Dataset base = MakeUniformDataset(200, 5, 41);
  const Dataset adds = MakeUniformDataset(12, 5, 42);
  const Dataset probes = MakeUniformDataset(6, 5, 43);
  EuclideanMetric metric;
  for (BackendKind kind : {BackendKind::kXTree, BackendKind::kVaFile}) {
    SCOPED_TRACE(BackendKindName(kind));
    const std::string p1 = TempPath("mutate_reopen_1_" +
                                    BackendKindName(kind) + ".msq");
    const std::string p2 = TempPath("mutate_reopen_2_" +
                                    BackendKindName(kind) + ".msq");
    {
      auto db = OpenDb(base, kind);
      ASSERT_NE(db, nullptr);
      for (size_t i = 0; i < adds.size(); ++i) {
        ASSERT_TRUE(db->Insert(adds.object(static_cast<ObjectId>(i))).ok());
      }
      ASSERT_TRUE(db->Delete(11).ok());
      ASSERT_TRUE(db->Delete(static_cast<ObjectId>(base.size() + 4)).ok());
      ASSERT_TRUE(db->Save(p1).ok());
    }
    auto reopened = MetricDatabase::Open(p1);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->NumLiveObjects(), base.size() + adds.size() - 2);
    EXPECT_EQ((*reopened)->NumDeltaObjects(), 0u);
    {
      const Dataset& loaded = *(*reopened)->CurrentVersion()->base_dataset;
      const Query q{8000, probes.object(0), QueryType::Knn(6)};
      auto got = (*reopened)->SimilarityQuery(q);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameAnswers(*got, BruteForceQuery(loaded, metric, q), 0.0));
    }
    // Mutate the *reopened* database (its base was loaded from the store,
    // not built in-process) and save to a second path.
    ASSERT_TRUE((*reopened)->Insert(probes.object(5)).ok());
    ASSERT_TRUE((*reopened)->Delete(0).ok());
    ASSERT_TRUE((*reopened)->Save(p2).ok());
    auto again = MetricDatabase::Open(p2);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ((*again)->NumLiveObjects(), base.size() + adds.size() - 2);
    {
      const Dataset& loaded = *(*again)->CurrentVersion()->base_dataset;
      const Query q{8001, probes.object(1), QueryType::Knn(6)};
      auto got = (*again)->SimilarityQuery(q);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameAnswers(*got, BruteForceQuery(loaded, metric, q), 0.0));
    }
    std::filesystem::remove(p1);
    std::filesystem::remove(p2);
  }
}

// --- mixed reader/writer stress (the TSan CI target) ---------------------

// Four writer threads mutate while four query threads read. The query
// stream is serialized on one mutex (the engine's documented contract);
// the writers run free — epochs and version publication are what TSan
// exercises here. Afterwards the database is compacted and checked
// exhaustively against its own final object set.
TEST(MutateStressTest, ConcurrentWritersAndQueriesAllBackends) {
  constexpr int kWriters = 4;
  constexpr int kQueryThreads = 4;
  constexpr int kInsertsPerWriter = 40;
  constexpr int kQueriesPerThread = 50;
  const Dataset base = MakeUniformDataset(400, 4, 11);
  const Dataset probes = MakeUniformDataset(16, 4, 12);
  EuclideanMetric metric;
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(BackendKindName(kind));
    auto db = OpenDb(base, kind);
    ASSERT_NE(db, nullptr);
    std::atomic<bool> failed{false};
    std::mutex query_mu;
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        Rng rng(static_cast<uint64_t>(100 + w));
        std::vector<ObjectId> mine;
        for (int i = 0; i < kInsertsPerWriter; ++i) {
          Vec v(4);
          for (Scalar& x : v) x = static_cast<Scalar>(rng.NextDouble());
          auto id = db->Insert(std::move(v));
          if (!id.ok()) {
            failed = true;
            return;
          }
          mine.push_back(*id);
          if (i % 3 == 2) {
            // Each writer deletes only ids it inserted itself, each at
            // most once, so every Delete must succeed.
            if (!db->Delete(mine.front()).ok()) {
              failed = true;
              return;
            }
            mine.erase(mine.begin());
          }
        }
      });
    }
    for (int t = 0; t < kQueryThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<uint64_t>(200 + t));
        for (int i = 0; i < kQueriesPerThread; ++i) {
          const Vec& p =
              probes.object(static_cast<ObjectId>(rng.NextIndex(16)));
          std::lock_guard<std::mutex> lock(query_mu);
          auto got = db->SimilarityQuery(db->MakeKnnQuery(p, 5));
          if (!got.ok() || got->size() > 5) {
            failed = true;
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_FALSE(failed.load());
    const size_t deletes_per_writer = kInsertsPerWriter / 3;
    EXPECT_EQ(db->NumLiveObjects(),
              base.size() + kWriters * (kInsertsPerWriter -
                                        deletes_per_writer));

    ASSERT_TRUE(db->Compact().ok());
    const Dataset& final_set = *db->CurrentVersion()->base_dataset;
    for (size_t i = 0; i < 6; ++i) {
      const Query q{static_cast<QueryId>(6000 + i),
                    probes.object(static_cast<ObjectId>(i)),
                    QueryType::Knn(6)};
      auto got = db->SimilarityQuery(q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(SameAnswers(*got, BruteForceQuery(final_set, metric, q),
                              0.0));
    }
  }
}

}  // namespace
}  // namespace msq
