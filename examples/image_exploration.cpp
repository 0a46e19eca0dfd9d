// Manual data exploration of an image database by concurrent users
// (Sec. 3.2 / Sec. 6): each user navigates from image to similar images;
// the DBMS prefetches the k-nearest neighbors of every currently displayed
// answer as ONE multiple similarity query, so the next click is (mostly)
// answered from the buffer. Queries here are *highly dependent* — the
// workload where incremental evaluation shines.
//
//   ./image_exploration [n=20000] [users=5] [k=20] [rounds=3]

#include <cstdio>

#include "msq/msq.h"

int main(int argc, char** argv) {
  msq::Flags flags;
  flags.Define("n", "20000", "number of images");
  flags.Define("users", "5", "concurrent users (c)");
  flags.Define("k", "20", "answers per query; batch width is c*k");
  flags.Define("rounds", "3", "navigation rounds");
  flags.Define("backend", "linear_scan",
               "linear_scan | xtree | mtree | va_file");
  if (msq::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::printf("%s\n", s.message().c_str());
    return s.IsNotFound() ? 0 : 1;
  }

  // 64-d color histograms from ~40 image genres (the paper's image DB
  // surrogate), compared with the Euclidean metric as in Sec. 6.
  msq::ImageHistogramOptions gen;
  gen.n = static_cast<size_t>(flags.GetInt("n"));
  msq::Dataset images = msq::MakeImageHistogramDataset(gen);
  auto metric = std::make_shared<msq::EuclideanMetric>();

  msq::DatabaseOptions options;
  const std::string backend = flags.GetString("backend");
  options.backend = backend == "xtree"   ? msq::BackendKind::kXTree
                    : backend == "mtree" ? msq::BackendKind::kMTree
                    : backend == "va_file" ? msq::BackendKind::kVaFile
                                           : msq::BackendKind::kLinearScan;
  options.multi.max_batch_size = 400;  // hold a whole c*k prefetch round
  auto opened = msq::MetricDatabase::Open(std::move(images), metric, options);
  if (!opened.ok()) {
    std::printf("open failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(opened).value();
  std::printf("image database: %zu histograms (%zu-d), backend=%s\n",
              db->dataset().size(), db->dataset().dim(),
              db->backend().Name().c_str());

  msq::ExplorationSimParams params;
  params.num_users = static_cast<size_t>(flags.GetInt("users"));
  params.k = static_cast<size_t>(flags.GetInt("k"));
  params.num_rounds = static_cast<size_t>(flags.GetInt("rounds"));
  params.seed = 77;

  // Single-query baseline: every prefetch is issued on its own.
  params.use_multiple = false;
  db->ResetAll();
  auto single = msq::RunExplorationSim(db.get(), params);
  if (!single.ok()) {
    std::printf("simulation failed: %s\n",
                single.status().ToString().c_str());
    return 1;
  }
  const double single_ms = db->ModeledTotalMillis();
  const msq::QueryStats single_stats = db->stats();

  // Multiple-query form: each round is batches of m = c*k queries.
  params.use_multiple = true;
  db->ResetAll();
  auto multi = msq::RunExplorationSim(db.get(), params);
  if (!multi.ok()) {
    std::printf("simulation failed: %s\n", multi.status().ToString().c_str());
    return 1;
  }
  const double multi_ms = db->ModeledTotalMillis();

  std::printf("\n%zu users x %zu rounds, k=%zu -> %zu similarity queries\n",
              params.num_users, params.num_rounds, params.k,
              multi->queries_issued);
  const bool identical = single->final_positions == multi->final_positions;
  std::printf("identical navigation in both modes: %s\n",
              identical ? "yes" : "NO (bug!)");
  std::printf("\nsingle queries  : %10.1f ms modeled  (%llu page reads, %llu distances)\n",
              single_ms,
              static_cast<unsigned long long>(single_stats.TotalPageReads()),
              static_cast<unsigned long long>(
                  single_stats.TotalDistComputations()));
  std::printf("multiple queries: %10.1f ms modeled  (%llu page reads, %llu distances, %llu avoided)\n",
              multi_ms,
              static_cast<unsigned long long>(db->stats().TotalPageReads()),
              static_cast<unsigned long long>(
                  db->stats().TotalDistComputations()),
              static_cast<unsigned long long>(db->stats().triangle_avoided));
  std::printf("speed-up        : %10.1fx\n",
              multi_ms > 0 ? single_ms / multi_ms : 0.0);

  std::printf("\nusers ended on images: ");
  for (msq::ObjectId id : multi->final_positions) std::printf("%u ", id);
  std::printf("\n");
  return identical ? 0 : 1;
}
