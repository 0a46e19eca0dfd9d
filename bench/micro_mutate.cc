// Micro-benchmark of the online-mutability layer (DESIGN §13).
//
// Section 1 — overlay: a mutated, uncompacted database (delta segment +
// tombstones) must answer exactly like an exhaustive oracle over its live
// object set, on every backend, pivots off and on. Records the overlay
// query cost so a regression in delta/tombstone handling shows up as a
// counter drift against the committed baseline.
//
// Section 2 — quiesced equality: after Compact() the database must answer
// bit-identically to a database built directly from the final object set
// — same ids, same distances, and the same dist_computations (the
// compacted index is a fresh build, not a patched one). Any divergence
// fails the run — this is what the contract_mutate test asserts.
//
// Wall-clock timings for the mutation path are printed for information
// but never compared (only deterministic counters go to the JSON).

#include "bench/bench_common.h"

using namespace msq;
using namespace msq::bench;

namespace {

std::unique_ptr<MetricDatabase> OpenMutateDb(const Dataset& data,
                                             BackendKind backend,
                                             bool pivots) {
  DatabaseOptions options;
  options.backend = backend;
  options.xtree_dynamic_build = true;
  options.multi.max_batch_size = 256;
  options.multi.buffer_capacity = 1024;
  options.pivots.enabled = pivots;
  auto db = MetricDatabase::Open(data, BenchMetric(), options);
  if (!db.ok()) {
    std::fprintf(stderr, "open(%s) failed: %s\n",
                 BackendKindName(backend).c_str(),
                 db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(db).value();
}

/// Exhaustive kNN over the live object set of an uncompacted overlay.
AnswerSet OverlayOracle(const LiveVersion& v, const Metric& metric,
                        const Vec& point, size_t k) {
  AnswerSet all;
  for (size_t id = 0; id < v.total_objects(); ++id) {
    if (v.tombstoned(id)) continue;
    const Vec& row = id < v.base_n
                         ? v.base_dataset->object(static_cast<ObjectId>(id))
                         : v.delta[id - v.base_n];
    all.push_back({static_cast<ObjectId>(id), metric.Distance(point, row)});
  }
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

bool Identical(const AnswerSet& a, const AnswerSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance != b[i].distance) return false;
  }
  return true;
}

const std::vector<BackendKind> kAllBackends = {
    BackendKind::kLinearScan, BackendKind::kVaFile, BackendKind::kXTree,
    BackendKind::kMTree};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Define("n", "10000", "base database size (Tycho-style clustered)");
  flags.Define("num_add", "400", "objects inserted into the delta segment");
  flags.Define("num_del_base", "300", "base-tier objects tombstoned");
  flags.Define("num_del_delta", "100", "delta-tier objects tombstoned");
  flags.Define("num_queries", "32", "kNN queries per configuration");
  flags.Define("k", "10", "kNN cardinality");
  flags.Define("json", "", "write one JSON record per row to this file");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::printf("%s\n", s.message().c_str());
    return s.IsNotFound() ? 0 : 1;
  }
  const size_t n = static_cast<size_t>(flags.GetInt("n"));
  const size_t num_add = static_cast<size_t>(flags.GetInt("num_add"));
  const size_t num_del_base =
      static_cast<size_t>(flags.GetInt("num_del_base"));
  const size_t num_del_delta =
      static_cast<size_t>(flags.GetInt("num_del_delta"));
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("num_queries"));
  const size_t k = static_cast<size_t>(flags.GetInt("k"));
  BenchJsonWriter json(flags.GetString("json"));
  bool ok = true;

  // Base objects, additions, and probe points all come from the same
  // Tycho-style distribution (distinct seeds), so the delta segment is
  // statistically indistinguishable from the base tier.
  TychoLikeOptions base_options;
  base_options.n = n;
  base_options.seed = 42;
  const Dataset base = MakeTychoLikeDataset(base_options);
  TychoLikeOptions add_options;
  add_options.n = num_add;
  add_options.seed = 43;
  const Dataset additions = MakeTychoLikeDataset(add_options);
  TychoLikeOptions probe_options;
  probe_options.n = num_queries;
  probe_options.seed = 44;
  const Dataset probes = MakeTychoLikeDataset(probe_options);
  const auto metric = BenchMetric();

  std::printf("=== overlay: uncompacted delta+tombstones vs exhaustive "
              "oracle (n=%zu +%zu -%zu) ===\n",
              n, num_add, num_del_base + num_del_delta);
  for (BackendKind backend : kAllBackends) {
    for (bool pivots : {false, true}) {
      auto db = OpenMutateDb(base, backend, pivots);

      WallTimer mutate_timer;
      std::vector<ObjectId> delta_ids;
      for (size_t i = 0; i < additions.size(); ++i) {
        auto id = db->Insert(additions.object(static_cast<ObjectId>(i)));
        if (!id.ok()) {
          std::fprintf(stderr, "insert failed: %s\n",
                       id.status().ToString().c_str());
          return 1;
        }
        delta_ids.push_back(*id);
      }
      // Deterministic, collision-free victim ids in both tiers.
      for (size_t i = 0; i < num_del_base; ++i) {
        const ObjectId victim = static_cast<ObjectId>((i * 31) % n);
        if (Status s = db->Delete(victim); !s.ok() && !s.IsInvalidArgument()) {
          std::fprintf(stderr, "delete failed: %s\n", s.ToString().c_str());
          return 1;
        }
      }
      for (size_t i = 0; i < num_del_delta && i < delta_ids.size(); ++i) {
        if (Status s = db->Delete(delta_ids[i]); !s.ok()) {
          std::fprintf(stderr, "delete failed: %s\n", s.ToString().c_str());
          return 1;
        }
      }
      const double mutate_ms = mutate_timer.ElapsedMillis();

      auto version = db->CurrentVersion();
      db->ResetAll();
      bool overlay_identical = true;
      for (size_t i = 0; i < probes.size(); ++i) {
        const Vec& p = probes.object(static_cast<ObjectId>(i));
        auto got = db->SimilarityQuery(db->MakeKnnQuery(p, k));
        if (!got.ok()) {
          std::fprintf(stderr, "overlay query failed: %s\n",
                       got.status().ToString().c_str());
          return 1;
        }
        overlay_identical =
            overlay_identical &&
            Identical(*got, OverlayOracle(*version, *metric, p, k));
      }
      const QueryStats overlay_stats = db->stats();
      std::printf("%-12s pivots=%-3s answers=%s live=%zu delta=%zu "
                  "tombstones=%zu dists=%llu (mutate %.1fms)  %s\n",
                  BackendKindName(backend).c_str(), pivots ? "on" : "off",
                  overlay_identical ? "same" : "DIFF", db->NumLiveObjects(),
                  db->NumDeltaObjects(), db->NumTombstones(),
                  static_cast<unsigned long long>(
                      overlay_stats.dist_computations),
                  mutate_ms, overlay_identical ? "OK" : "FAIL");
      if (json.enabled()) {
        json.BeginRecord("micro_mutate");
        json.Str("section", "overlay");
        json.Str("backend", BackendKindName(backend));
        json.Int("pivots", pivots ? 1 : 0);
        json.Int("answers_identical", overlay_identical ? 1 : 0);
        json.Int("live_objects", static_cast<int64_t>(db->NumLiveObjects()));
        json.Int("delta_objects",
                 static_cast<int64_t>(db->NumDeltaObjects()));
        json.Int("tombstones", static_cast<int64_t>(db->NumTombstones()));
        json.Int("dist_computations",
                 static_cast<int64_t>(overlay_stats.dist_computations));
        json.Int("random_page_reads",
                 static_cast<int64_t>(overlay_stats.random_page_reads));
        json.Int("seq_page_reads",
                 static_cast<int64_t>(overlay_stats.seq_page_reads));
      }
      ok = ok && overlay_identical;

      // Section 2: compact, then compare against a fresh build of the
      // final object set — answers and query cost must both match.
      WallTimer compact_timer;
      if (Status s = db->Compact(); !s.ok()) {
        std::fprintf(stderr, "compact failed: %s\n", s.ToString().c_str());
        return 1;
      }
      const double compact_ms = compact_timer.ElapsedMillis();
      const Dataset& final_set = *db->CurrentVersion()->base_dataset;
      auto fresh = OpenMutateDb(final_set, backend, pivots);

      db->ResetAll();
      fresh->ResetAll();
      bool answers_identical = true;
      for (size_t i = 0; i < probes.size(); ++i) {
        const Vec& p = probes.object(static_cast<ObjectId>(i));
        const Query q{static_cast<QueryId>(1000 + i), p, QueryType::Knn(k)};
        auto mutated = db->SimilarityQuery(q);
        auto rebuilt = fresh->SimilarityQuery(q);
        if (!mutated.ok() || !rebuilt.ok()) {
          std::fprintf(stderr, "quiesced query failed\n");
          return 1;
        }
        answers_identical =
            answers_identical && Identical(*mutated, *rebuilt);
      }
      const bool counts_identical = db->stats().dist_computations ==
                                    fresh->stats().dist_computations;
      std::printf("%-12s pivots=%-3s quiesced answers=%s dists=%llu/%llu "
                  "(compact %.1fms)  %s\n",
                  BackendKindName(backend).c_str(), pivots ? "on" : "off",
                  answers_identical ? "same" : "DIFF",
                  static_cast<unsigned long long>(
                      db->stats().dist_computations),
                  static_cast<unsigned long long>(
                      fresh->stats().dist_computations),
                  compact_ms,
                  answers_identical && counts_identical ? "OK" : "FAIL");
      if (json.enabled()) {
        json.BeginRecord("micro_mutate");
        json.Str("section", "quiesced");
        json.Str("backend", BackendKindName(backend));
        json.Int("pivots", pivots ? 1 : 0);
        json.Int("answers_identical", answers_identical ? 1 : 0);
        json.Int("counts_identical", counts_identical ? 1 : 0);
        json.Int("live_objects", static_cast<int64_t>(db->NumLiveObjects()));
        json.Int("dist_computations",
                 static_cast<int64_t>(db->stats().dist_computations));
        json.Int("dist_computations_fresh",
                 static_cast<int64_t>(fresh->stats().dist_computations));
      }
      ok = ok && answers_identical && counts_identical;
    }
  }

  if (!ok) {
    std::fprintf(stderr, "\nmicro_mutate: FAILED (see above)\n");
    return 1;
  }
  std::printf("\nmicro_mutate: all checks passed\n");
  return 0;
}
