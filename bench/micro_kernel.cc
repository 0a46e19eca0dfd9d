// Micro-benchmark of the batched distance kernels (Metric::BatchDistance)
// and the PageKernel execution path.
//
// Section 1 — kernel throughput: per metric and dimension, distance
// evaluations per second through the scalar virtual-call loop vs. one
// batched call over a contiguous row block. The batched kernels must be
// bit-identical to the scalar path (checked here; any mismatch fails the
// run), so the speed-up comes purely from breaking the FP dependence chain
// across rows and dropping the per-object virtual dispatch.
//
// Section 2 — engine equivalence: the multiple-query engine with the
// batched kernel vs. the scalar reference mode (use_batched_kernel=false,
// the pre-kernel loop) on a seeded workload. Answer sets and the paper's
// cost counters (dist_computations, triangle_avoided) must be identical;
// the run exits non-zero otherwise, which is what the contract_kernel test
// asserts.

#include "bench/bench_common.h"

using namespace msq;
using namespace msq::bench;

namespace {

struct NamedMetric {
  std::string name;
  std::shared_ptr<const Metric> metric;
};

std::vector<NamedMetric> KernelMetrics(size_t dim) {
  std::vector<double> weights(dim);
  for (size_t d = 0; d < dim; ++d) {
    weights[d] = 0.5 + 0.01 * static_cast<double>(d);
  }
  auto weighted = WeightedEuclideanMetric::Make(std::move(weights));
  auto minkowski = MinkowskiMetric::Make(3.0);
  return {
      {"euclidean", std::make_shared<EuclideanMetric>()},
      {"weighted_euclidean", std::make_shared<WeightedEuclideanMetric>(
                                 std::move(weighted).value())},
      {"manhattan", std::make_shared<ManhattanMetric>()},
      {"chebyshev", std::make_shared<ChebyshevMetric>()},
      {"minkowski_p3",
       std::make_shared<MinkowskiMetric>(std::move(minkowski).value())},
  };
}

/// One throughput measurement; returns false on a bit-equality violation.
bool BenchOneKernel(const NamedMetric& nm, size_t dim, size_t rows,
                    size_t reps, BenchJsonWriter* json) {
  Rng rng(1234 + dim);
  Vec q(dim);
  for (auto& x : q) x = static_cast<Scalar>(rng.NextDouble());
  std::vector<Vec> objects(rows, Vec(dim));
  std::vector<Scalar> packed(rows * dim);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      const auto v = static_cast<Scalar>(rng.NextDouble());
      objects[i][d] = v;
      packed[i * dim + d] = v;
    }
  }
  const std::vector<Scalar> tiles = MakeVecBlockTiles(packed.data(), dim, rows);
  const VecBlock block{packed.data(), dim, rows, tiles.data()};
  const Metric& metric = *nm.metric;

  // Bit-equality check first (also warms the caches).
  std::vector<double> batched(rows);
  metric.BatchDistance(q, block, batched);
  for (size_t i = 0; i < rows; ++i) {
    const double scalar = metric.Distance(q, objects[i]);
    if (scalar != batched[i]) {
      std::fprintf(stderr,
                   "FAIL: %s dim=%zu row=%zu: batched %.17g != scalar %.17g\n",
                   nm.name.c_str(), dim, i, batched[i], scalar);
      return false;
    }
  }

  double sink = 0.0;
  WallTimer scalar_timer;
  for (size_t r = 0; r < reps; ++r) {
    for (size_t i = 0; i < rows; ++i) {
      sink += metric.Distance(q, objects[i]);
    }
  }
  const double scalar_ms = scalar_timer.ElapsedMillis();

  WallTimer batched_timer;
  for (size_t r = 0; r < reps; ++r) {
    metric.BatchDistance(q, block, batched);
    sink += batched[r % rows];
  }
  const double batched_ms = batched_timer.ElapsedMillis();

  const double total = static_cast<double>(rows) * static_cast<double>(reps);
  const double scalar_mps = total / (scalar_ms * 1e3);   // M dists / s
  const double batched_mps = total / (batched_ms * 1e3);
  const double speedup = scalar_ms / batched_ms;
  std::printf("%-20s %4zu  %10.1f  %10.1f  %6.2fx   (sink %.3g)\n",
              nm.name.c_str(), dim, scalar_mps, batched_mps, speedup, sink);
  if (json != nullptr) {
    json->BeginRecord("micro_kernel");
    json->Str("section", "throughput");
    json->Str("metric", nm.name);
    json->Int("dim", static_cast<int64_t>(dim));
    json->Int("rows", static_cast<int64_t>(rows));
    json->Num("scalar_mdists_per_s", scalar_mps);
    json->Num("batched_mdists_per_s", batched_mps);
    json->Num("speedup", speedup);
    json->Int("bit_identical", 1);
  }
  return true;
}

/// Runs one workload block-wise on `db` and returns all answer sets.
StatusOr<std::vector<AnswerSet>> RunAll(MetricDatabase* db, const Workload& w,
                                        size_t m) {
  db->ResetAll();
  std::vector<AnswerSet> all;
  for (size_t block = 0; block < w.queries.size(); block += m) {
    const size_t end = std::min(w.queries.size(), block + m);
    std::vector<Query> batch;
    for (size_t i = block; i < end; ++i) {
      batch.push_back(db->MakeObjectKnnQuery(w.queries[i], w.k));
    }
    auto got = db->MultipleSimilarityQueryAll(batch);
    if (!got.ok()) return got.status();
    for (auto& a : *got) all.push_back(std::move(a));
  }
  return all;
}

bool SameAnswers(const std::vector<AnswerSet>& a,
                 const std::vector<AnswerSet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].id != b[i][j].id || a[i][j].distance != b[i][j].distance) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Define("rows", "4096", "objects per throughput block");
  flags.Define("reps", "200", "repetitions per throughput measurement");
  flags.Define("dims", "4,16,64", "dimensionalities to sweep");
  flags.Define("n", "20000", "equivalence-workload database size");
  flags.Define("num_queries", "48", "equivalence-workload query count");
  flags.Define("m_values", "1,16", "batch widths for the equivalence check");
  flags.Define("json", "", "write one JSON record per row to this file");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::printf("%s\n", s.message().c_str());
    return s.IsNotFound() ? 0 : 1;
  }
  const size_t rows = static_cast<size_t>(flags.GetInt("rows"));
  const size_t reps = static_cast<size_t>(flags.GetInt("reps"));
  BenchJsonWriter json(flags.GetString("json"));
  bool ok = true;

  std::printf("=== batched distance kernels: M dists/s, scalar vs batched "
              "===\n");
  std::printf("%-20s %4s  %10s  %10s  %7s\n", "metric", "dim", "scalar",
              "batched", "speedup");
  for (int64_t dim : flags.GetIntList("dims")) {
    for (const NamedMetric& nm : KernelMetrics(static_cast<size_t>(dim))) {
      ok = BenchOneKernel(nm, static_cast<size_t>(dim), rows, reps, &json) &&
           ok;
    }
  }

  std::printf("\n=== engine equivalence: batched kernel vs scalar reference "
              "===\n");
  Workload w = MakeAstroWorkload(static_cast<size_t>(flags.GetInt("n")),
                                 static_cast<size_t>(
                                     flags.GetInt("num_queries")));
  for (BackendKind backend : {BackendKind::kLinearScan, BackendKind::kXTree}) {
    for (int64_t m : flags.GetIntList("m_values")) {
      auto batched_db = OpenBenchDb(w, backend);
      auto scalar_db = OpenBenchDb(w, backend);
      // OpenBenchDb has no kernel knob; rebuild the scalar oracle directly.
      {
        DatabaseOptions options;
        options.backend = backend;
        options.xtree_dynamic_build = true;
        options.multi.max_batch_size = 256;
        options.multi.buffer_capacity = 1024;
        options.multi.use_batched_kernel = false;
        auto db = MetricDatabase::Open(w.dataset, BenchMetric(), options);
        if (!db.ok()) {
          std::fprintf(stderr, "open failed: %s\n",
                       db.status().ToString().c_str());
          return 1;
        }
        scalar_db = std::move(db).value();
      }
      auto batched = RunAll(batched_db.get(), w, static_cast<size_t>(m));
      auto scalar = RunAll(scalar_db.get(), w, static_cast<size_t>(m));
      if (!batched.ok() || !scalar.ok()) {
        std::fprintf(stderr, "equivalence run failed\n");
        return 1;
      }
      const QueryStats& bs = batched_db->stats();
      const QueryStats& ss = scalar_db->stats();
      const bool answers_equal = SameAnswers(*batched, *scalar);
      const bool counts_equal =
          bs.dist_computations == ss.dist_computations &&
          bs.triangle_avoided == ss.triangle_avoided;
      std::printf("%-12s m=%-3lld answers=%s dists=%llu/%llu avoided=%llu/%llu"
                  " batches=%llu spec=%llu  %s\n",
                  BackendKindName(backend).c_str(),
                  static_cast<long long>(m), answers_equal ? "same" : "DIFF",
                  static_cast<unsigned long long>(bs.dist_computations),
                  static_cast<unsigned long long>(ss.dist_computations),
                  static_cast<unsigned long long>(bs.triangle_avoided),
                  static_cast<unsigned long long>(ss.triangle_avoided),
                  static_cast<unsigned long long>(bs.kernel_batches),
                  static_cast<unsigned long long>(bs.kernel_speculative_dists),
                  answers_equal && counts_equal ? "OK" : "FAIL");
      if (json.enabled()) {
        json.BeginRecord("micro_kernel");
        json.Str("section", "equivalence");
        json.Str("backend", BackendKindName(backend));
        json.Int("m", m);
        json.Int("answers_identical", answers_equal ? 1 : 0);
        json.Int("counts_identical", counts_equal ? 1 : 0);
        json.Int("dist_computations",
                 static_cast<int64_t>(bs.dist_computations));
        json.Int("kernel_batches", static_cast<int64_t>(bs.kernel_batches));
        json.Int("kernel_batched_dists",
                 static_cast<int64_t>(bs.kernel_batched_dists));
        json.Int("kernel_speculative_dists",
                 static_cast<int64_t>(bs.kernel_speculative_dists));
      }
      ok = ok && answers_equal && counts_equal;
    }
  }

  if (!ok) {
    std::fprintf(stderr, "\nmicro_kernel: FAILED (see above)\n");
    return 1;
  }
  std::printf("\nmicro_kernel: all checks passed\n");
  return 0;
}
