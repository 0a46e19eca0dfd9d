// Shared machinery of the figure-reproduction benches: the two evaluation
// workloads of Sec. 6 (random simultaneous-classification queries on the
// astronomy surrogate; dependent manual-exploration queries on the image
// surrogate), block execution of a query stream at batch width m, and
// row printing.

#ifndef MSQ_BENCH_BENCH_COMMON_H_
#define MSQ_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "msq/msq.h"

namespace msq::bench {

/// A dataset plus the query-object stream to run against it.
struct Workload {
  std::string name;
  Dataset dataset;
  size_t k = 10;          // kNN cardinality (paper: 10 astro, 20 image)
  std::vector<ObjectId> queries;
};

inline std::shared_ptr<const Metric> BenchMetric() {
  return std::make_shared<EuclideanMetric>();
}

/// Astronomy workload (Sec. 6): M random objects, one kNN query each —
/// independent queries (simultaneous classification).
inline Workload MakeAstroWorkload(size_t n, size_t num_queries,
                                  uint64_t seed = 42) {
  Workload w;
  w.name = "astro(20-d)";
  TychoLikeOptions options;
  options.n = n;
  options.seed = seed;
  w.dataset = MakeTychoLikeDataset(options);
  w.k = 10;
  Rng rng(seed + 1);
  for (uint64_t id : rng.SampleWithoutReplacement(n, num_queries)) {
    w.queries.push_back(static_cast<ObjectId>(id));
  }
  return w;
}

/// Image workload (Sec. 6): dependent queries generated by the concurrent-
/// user exploration simulation, de-duplicated to `num_queries` distinct
/// query objects (a multiple-query batch must not repeat a query id; the
/// stream's spatial dependence is what matters).
inline Workload MakeImageWorkload(size_t n, size_t num_queries,
                                  uint64_t seed = 97) {
  Workload w;
  w.name = "image(64-d)";
  ImageHistogramOptions options;
  options.n = n;
  options.seed = seed;
  w.dataset = MakeImageHistogramDataset(options);
  w.k = 20;

  // Generate the exploration stream on a scratch database (generation
  // cost is not part of any measurement).
  DatabaseOptions scratch;
  scratch.backend = BackendKind::kLinearScan;
  scratch.multi.max_batch_size = 512;
  auto db = MetricDatabase::Open(w.dataset, BenchMetric(), scratch);
  if (!db.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  std::unordered_set<ObjectId> seen;
  uint64_t round_seed = seed + 1;
  while (w.queries.size() < num_queries) {
    ExplorationSimParams sim;
    sim.num_users = 5;
    sim.k = w.k;
    sim.num_rounds = 3;
    sim.seed = round_seed++;
    auto stream = GenerateExplorationQueryStream(db->get(), sim);
    if (!stream.ok()) {
      std::fprintf(stderr, "workload generation failed: %s\n",
                   stream.status().ToString().c_str());
      std::exit(1);
    }
    for (ObjectId id : *stream) {
      if (w.queries.size() >= num_queries) break;
      if (seen.insert(id).second) w.queries.push_back(id);
    }
  }
  return w;
}

/// Opens a database over a workload's dataset with the given backend.
inline std::unique_ptr<MetricDatabase> OpenBenchDb(const Workload& w,
                                                   BackendKind backend,
                                                   size_t max_batch = 256) {
  DatabaseOptions options;
  options.backend = backend;
  // The paper's X-tree is a dynamic index built by insertion; bulk loading
  // would give it unrealistically tight pages at m=1.
  options.xtree_dynamic_build = true;
  options.multi.max_batch_size = std::max<size_t>(max_batch, 256);
  options.multi.buffer_capacity = 4 * options.multi.max_batch_size;
  auto db = MetricDatabase::Open(w.dataset, BenchMetric(), options);
  if (!db.ok()) {
    std::fprintf(stderr, "open(%s) failed: %s\n",
                 BackendKindName(backend).c_str(),
                 db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(db).value();
}

/// Per-configuration measurement: averages are per similarity query.
struct RunResult {
  size_t num_queries = 0;
  QueryStats stats;
  double io_ms_per_query = 0.0;
  double cpu_ms_per_query = 0.0;
  double total_ms_per_query = 0.0;
  double pages_per_query = 0.0;
  double dists_per_query = 0.0;
  double wall_ms = 0.0;
};

/// Executes the workload's queries in consecutive blocks of m multiple
/// similarity queries (m == 1 uses the plain single-query operation with
/// no cross-query buffering — the paper's baseline). The database is cold-
/// started first.
inline RunResult RunBlocks(MetricDatabase* db, const Workload& w, size_t m) {
  db->ResetAll();
  WallTimer timer;
  if (m <= 1) {
    for (ObjectId id : w.queries) {
      auto got = db->SimilarityQuery(db->MakeObjectKnnQuery(id, w.k));
      if (!got.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     got.status().ToString().c_str());
        std::exit(1);
      }
    }
  } else {
    for (size_t block = 0; block < w.queries.size(); block += m) {
      const size_t end = std::min(w.queries.size(), block + m);
      std::vector<Query> batch;
      batch.reserve(end - block);
      for (size_t i = block; i < end; ++i) {
        batch.push_back(db->MakeObjectKnnQuery(w.queries[i], w.k));
      }
      auto got = db->MultipleSimilarityQueryAll(batch);
      if (!got.ok()) {
        std::fprintf(stderr, "multiple query failed: %s\n",
                     got.status().ToString().c_str());
        std::exit(1);
      }
    }
  }
  RunResult r;
  r.wall_ms = timer.ElapsedMillis();
  r.num_queries = w.queries.size();
  r.stats = db->stats();
  const double q = static_cast<double>(r.num_queries);
  const CostModel& model = db->cost_model();
  r.io_ms_per_query = r.stats.IoMillis(model) / q;
  r.cpu_ms_per_query = r.stats.CpuMillis(model, w.dataset.dim()) / q;
  r.total_ms_per_query = r.io_ms_per_query + r.cpu_ms_per_query;
  r.pages_per_query = static_cast<double>(r.stats.TotalPageReads()) / q;
  r.dists_per_query =
      static_cast<double>(r.stats.TotalDistComputations()) / q;
  return r;
}

/// Standard flag set of the figure benches.
inline Flags FigureFlags() {
  Flags flags;
  flags.Define("n_astro", "250000", "astronomy surrogate size");
  flags.Define("n_image", "30000", "image surrogate size");
  flags.Define("num_queries", "200", "similarity queries per configuration");
  flags.Define("m_values", "1,10,20,40,50,100",
               "multiple-query batch widths to sweep");
  flags.Define("json", "",
               "write one JSON record per configuration to this file");
  return flags;
}

/// Minimal JSON string escaping (quotes, backslash, control characters).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Machine-readable twin of a bench's printed table: one flat JSON object
/// per configuration, written as a JSON array at destruction (or on an
/// explicit Write()). Constructed from the `json=` flag; an empty path
/// disables the writer and every call becomes a no-op.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string path) : path_(std::move(path)) {}
  ~BenchJsonWriter() { Write(); }

  BenchJsonWriter(const BenchJsonWriter&) = delete;
  BenchJsonWriter& operator=(const BenchJsonWriter&) = delete;

  bool enabled() const { return !path_.empty(); }

  /// Opens a new record; subsequent fields attach to it.
  void BeginRecord(const std::string& bench) {
    if (!enabled()) return;
    records_.emplace_back();
    Str("bench", bench);
  }
  void Str(const std::string& key, const std::string& value) {
    Raw(key, "\"" + JsonEscape(value) + "\"");
  }
  void Int(const std::string& key, int64_t value) {
    Raw(key, std::to_string(value));
  }
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    // JSON has no NaN/Inf literals.
    Raw(key, std::isfinite(value) ? buf : "null");
  }

  /// The measurement fields every block-execution bench shares: modeled
  /// costs, wall time, and the QueryStats counters.
  void AddRunResult(const RunResult& r) {
    Int("num_queries", static_cast<int64_t>(r.num_queries));
    Num("io_ms_per_query", r.io_ms_per_query);
    Num("cpu_ms_per_query", r.cpu_ms_per_query);
    Num("total_ms_per_query", r.total_ms_per_query);
    Num("pages_per_query", r.pages_per_query);
    Num("dists_per_query", r.dists_per_query);
    Num("wall_ms", r.wall_ms);
    AddQueryStats(r.stats);
  }

  /// Every QueryStats counter of one run, keyed by its member name.
  void AddQueryStats(const QueryStats& stats) {
    for (const QueryStatsCounter& c : kQueryStatsCounters) {
      Int(c.name, static_cast<int64_t>(stats.*c.member));
    }
  }

  /// Writes the array (idempotent; the destructor calls it too).
  Status Write() {
    if (!enabled() || written_) return Status::OK();
    std::string out = "[\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      out += "  {";
      for (size_t f = 0; f < records_[i].size(); ++f) {
        if (f > 0) out += ", ";
        out += "\"" + JsonEscape(records_[i][f].first) +
               "\": " + records_[i][f].second;
      }
      out += i + 1 < records_.size() ? "},\n" : "}\n";
    }
    out += "]\n";
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path_.c_str());
      return Status::IOError("cannot open " + path_);
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    written_ = true;
    return Status::OK();
  }

 private:
  void Raw(const std::string& key, std::string rendered) {
    if (!enabled() || records_.empty()) return;
    records_.back().emplace_back(key, std::move(rendered));
  }

  std::string path_;
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
  bool written_ = false;
};

inline void PrintHeader(const std::string& title, const std::string& value) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-12s %-12s %6s  %12s\n", "workload", "backend", "m",
              value.c_str());
}

}  // namespace msq::bench

#endif  // MSQ_BENCH_BENCH_COMMON_H_
