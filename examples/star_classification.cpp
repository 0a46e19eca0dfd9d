// Simultaneous classification of a set of objects (Sec. 3.2 / Sec. 6):
// every night a telescope delivers a batch of new star observations; each
// is assigned a spectral class by a k-nearest-neighbor classifier. The
// queries are independent, so the workload is exactly the "blocks of m
// multiple similarity queries" setting of Sec. 5.
//
//   ./star_classification [n=60000] [to_classify=200] [k=10] [m=50]

#include <cstdio>

#include "msq/msq.h"

int main(int argc, char** argv) {
  msq::Flags flags;
  flags.Define("n", "60000", "catalogue size");
  flags.Define("to_classify", "200", "new observations per night");
  flags.Define("k", "10", "voting neighbors");
  flags.Define("m", "50", "multiple-query batch width");
  flags.Define("backend", "xtree", "linear_scan | xtree | mtree | va_file");
  if (msq::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::printf("%s\n", s.message().c_str());
    return s.IsNotFound() ? 0 : 1;
  }

  // The Tycho-like astronomy surrogate: 20-d feature vectors with
  // spectral-class labels.
  msq::TychoLikeOptions gen;
  gen.n = static_cast<size_t>(flags.GetInt("n"));
  msq::Dataset catalogue = msq::MakeTychoLikeDataset(gen);
  auto metric = std::make_shared<msq::EuclideanMetric>();

  msq::DatabaseOptions options;
  const std::string backend = flags.GetString("backend");
  options.backend = backend == "linear_scan" ? msq::BackendKind::kLinearScan
                    : backend == "mtree"     ? msq::BackendKind::kMTree
                    : backend == "va_file"   ? msq::BackendKind::kVaFile
                                             : msq::BackendKind::kXTree;
  auto opened = msq::MetricDatabase::Open(std::move(catalogue), metric,
                                          options);
  if (!opened.ok()) {
    std::printf("open failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(opened).value();
  std::printf("catalogue: %zu stars, %zu-d features, backend=%s\n",
              db->dataset().size(), db->dataset().dim(),
              db->backend().Name().c_str());

  // Tonight's observations: a random sample whose labels we pretend not to
  // know, then compare predictions against the ground truth.
  msq::Rng rng(2026);
  std::vector<msq::ObjectId> tonight;
  const size_t count = static_cast<size_t>(flags.GetInt("to_classify"));
  for (uint64_t id :
       rng.SampleWithoutReplacement(db->dataset().size(), count)) {
    tonight.push_back(static_cast<msq::ObjectId>(id));
  }

  msq::KnnClassifierParams params;
  params.k = static_cast<size_t>(flags.GetInt("k"));
  params.batch_size = static_cast<size_t>(flags.GetInt("m"));

  // Single-query baseline.
  params.use_multiple = false;
  db->ResetAll();
  msq::WallTimer single_timer;
  auto single = msq::ClassifyObjects(db.get(), tonight, params);
  if (!single.ok()) {
    std::printf("classification failed: %s\n",
                single.status().ToString().c_str());
    return 1;
  }
  const double single_modeled = db->ModeledTotalMillis();
  const double single_wall = single_timer.ElapsedMillis();

  // Multiple-query form.
  params.use_multiple = true;
  db->ResetAll();
  msq::WallTimer multi_timer;
  auto multi = msq::ClassifyObjects(db.get(), tonight, params);
  if (!multi.ok()) {
    std::printf("classification failed: %s\n",
                multi.status().ToString().c_str());
    return 1;
  }
  const double multi_modeled = db->ModeledTotalMillis();
  const double multi_wall = multi_timer.ElapsedMillis();

  std::printf("\nclassified %zu stars with %zu-NN voting:\n", tonight.size(),
              params.k);
  std::printf("  accuracy (vs. generator class): %.1f%%\n",
              100.0 * multi->accuracy);
  std::printf("  predictions identical in both modes: %s\n",
              single->predicted == multi->predicted ? "yes" : "NO (bug!)");
  const std::string multi_header = "multi (m=" + flags.GetString("m") + ")";
  std::printf("\n%-28s %14s %14s\n", "", "single queries",
              multi_header.c_str());
  std::printf("%-28s %11.1f ms %11.1f ms\n", "modeled cost (1998 disk/CPU)",
              single_modeled, multi_modeled);
  std::printf("%-28s %11.1f ms %11.1f ms\n", "wall clock (this machine)",
              single_wall, multi_wall);
  std::printf("%-28s %14s %13.1fx\n", "modeled speed-up", "",
              multi_modeled > 0 ? single_modeled / multi_modeled : 0.0);
  return single->predicted == multi->predicted ? 0 : 1;
}
