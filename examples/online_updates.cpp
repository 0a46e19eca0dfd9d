// Online updates: mutate a live metric database while queries run.
//
// Walks the DESIGN §13 lifecycle end to end: build a base, Insert new
// objects (answered immediately from the in-memory delta), Delete others
// (tombstoned, invisible from the next query on), run queries between
// every step, Compact the overlay into a fresh base build, and check the
// compacted database answers exactly like a database built directly from
// the final object set. A writer thread mutating concurrently with the
// query loop shows the versioned snapshots keeping both sides safe.
//
//   ./online_updates [n=5000] [dim=8] [k=5] [backend=xtree]

#include <atomic>
#include <cstdio>
#include <thread>

#include "msq/msq.h"

namespace {

// Answers printed as id/distance pairs; the ids of delta-resident objects
// are >= the base size until compaction renumbers them.
void PrintAnswers(const char* what, const msq::AnswerSet& answers) {
  std::printf("%s:", what);
  for (const msq::Neighbor& nb : answers) {
    std::printf("  %u@%.4f", nb.id, nb.distance);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  msq::Flags flags;
  flags.Define("n", "5000", "base database size");
  flags.Define("dim", "8", "dimensionality");
  flags.Define("k", "5", "nearest neighbors per query");
  flags.Define("backend", "xtree", "linear_scan | xtree | mtree | va_file");
  if (msq::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::printf("%s\n", s.message().c_str());
    return s.IsNotFound() ? 0 : 1;
  }
  const size_t n = static_cast<size_t>(flags.GetInt("n"));
  const size_t dim = static_cast<size_t>(flags.GetInt("dim"));
  const size_t k = static_cast<size_t>(flags.GetInt("k"));

  msq::Dataset data = msq::MakeGaussianClustersDataset(
      n, dim, /*num_clusters=*/8, /*stddev=*/0.05, /*seed=*/42);
  auto metric = std::make_shared<msq::EuclideanMetric>();
  msq::DatabaseOptions options;
  const std::string backend = flags.GetString("backend");
  options.backend = backend == "linear_scan" ? msq::BackendKind::kLinearScan
                    : backend == "mtree"     ? msq::BackendKind::kMTree
                    : backend == "va_file"   ? msq::BackendKind::kVaFile
                                             : msq::BackendKind::kXTree;
  auto opened = msq::MetricDatabase::Open(data, metric, options);
  if (!opened.ok()) {
    std::printf("open failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<msq::MetricDatabase> db = std::move(opened).value();
  std::printf("base: %zu objects, backend=%s, %zu data pages\n\n",
              db->NumLiveObjects(), db->backend().Name().c_str(),
              db->backend().NumDataPages());

  // 1. A reference query before any mutation.
  const msq::Vec probe = db->dataset().object(0);
  auto before = db->SimilarityQuery(db->MakeKnnQuery(probe, k));
  if (!before.ok()) return 1;
  PrintAnswers("before mutation ", *before);

  // 2. Insert a near-duplicate of the probe: the very next query sees it,
  // served from the in-memory delta segment (no index rebuild, no I/O
  // charged for the delta page).
  msq::Vec twin = probe;
  twin[0] += 1e-4f;
  auto inserted = db->Insert(twin);
  if (!inserted.ok()) return 1;
  auto after_insert = db->SimilarityQuery(db->MakeKnnQuery(probe, k));
  if (!after_insert.ok()) return 1;
  std::printf("inserted object %u (delta tier)\n", *inserted);
  PrintAnswers("after insert    ", *after_insert);

  // 3. Delete the twin again: a tombstone hides it from the next query.
  if (!db->Delete(*inserted).ok()) return 1;
  auto after_delete = db->SimilarityQuery(db->MakeKnnQuery(probe, k));
  if (!after_delete.ok()) return 1;
  PrintAnswers("after delete    ", *after_delete);
  std::printf("delta=%zu tombstones=%zu generation=%llu\n\n",
              db->NumDeltaObjects(), db->NumTombstones(),
              static_cast<unsigned long long>(db->MutationGeneration()));

  // 4. A writer thread inserts and deletes while this thread keeps
  // querying: each query holds one immutable snapshot for its whole call,
  // so the two sides never block or tear each other.
  std::atomic<bool> stop{false};
  std::thread writer([&db, &stop, dim] {
    msq::Rng rng(7);
    std::vector<msq::ObjectId> mine;
    while (!stop.load(std::memory_order_relaxed)) {
      msq::Vec v(dim);
      for (float& x : v) x = static_cast<float>(rng.NextDouble());
      if (auto id = db->Insert(v); id.ok()) mine.push_back(*id);
      if (mine.size() > 8) {
        (void)db->Delete(mine.front());
        mine.erase(mine.begin());
      }
    }
  });
  size_t queries = 0;
  for (; queries < 200; ++queries) {
    if (!db->SimilarityQuery(db->MakeKnnQuery(probe, k)).ok()) break;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  std::printf("ran %zu queries concurrent with a writer thread "
              "(generation now %llu)\n",
              queries,
              static_cast<unsigned long long>(db->MutationGeneration()));

  // 5. Compact: delta + tombstones fold into a fresh base build; ids
  // renumber densely.
  if (msq::Status s = db->Compact(); !s.ok()) {
    std::printf("compact failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("compacted: %zu live objects, delta=%zu tombstones=%zu\n",
              db->NumLiveObjects(), db->NumDeltaObjects(),
              db->NumTombstones());

  // 6. The compacted database must answer exactly like a fresh build of
  // the same final object set.
  const msq::Dataset& final_set = *db->CurrentVersion()->base_dataset;
  auto fresh = msq::MetricDatabase::Open(final_set, metric, options);
  if (!fresh.ok()) return 1;
  auto mutated_ans = db->SimilarityQuery(db->MakeKnnQuery(probe, k));
  auto fresh_ans = (*fresh)->SimilarityQuery((*fresh)->MakeKnnQuery(probe, k));
  if (!mutated_ans.ok() || !fresh_ans.ok()) return 1;
  bool identical = mutated_ans->size() == fresh_ans->size();
  for (size_t i = 0; identical && i < mutated_ans->size(); ++i) {
    identical = (*mutated_ans)[i].id == (*fresh_ans)[i].id &&
                (*mutated_ans)[i].distance == (*fresh_ans)[i].distance;
  }
  std::printf("compacted vs fresh build of the final set: %s\n",
              identical ? "bit-identical answers" : "MISMATCH");
  return identical ? 0 : 1;
}
