// Density-based clustering with DBSCAN on top of the
// ExploreNeighborhoods(Multiple) scheme (Sec. 3.2): every core object's
// Eps-neighborhood spawns the next round of range queries — dependent
// queries that the multiple similarity query answers from shared pages.
//
//   ./dbscan_clustering [n=15000] [dim=8] [clusters=10] [eps=0.08] [min_pts=6]

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "msq/msq.h"

int main(int argc, char** argv) {
  msq::Flags flags;
  flags.Define("n", "15000", "database size");
  flags.Define("dim", "8", "dimensionality");
  flags.Define("clusters", "10", "generated clusters");
  flags.Define("eps", "0.08", "DBSCAN Eps");
  flags.Define("min_pts", "6", "DBSCAN MinPts");
  flags.Define("m", "64", "multiple-query batch width");
  flags.Define("backend", "xtree", "linear_scan | xtree | mtree | va_file");
  if (msq::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::printf("%s\n", s.message().c_str());
    return s.IsNotFound() ? 0 : 1;
  }

  msq::Dataset data = msq::MakeGaussianClustersDataset(
      static_cast<size_t>(flags.GetInt("n")),
      static_cast<size_t>(flags.GetInt("dim")),
      static_cast<size_t>(flags.GetInt("clusters")),
      /*stddev=*/0.02, /*seed=*/1234);
  auto metric = std::make_shared<msq::EuclideanMetric>();

  msq::DatabaseOptions options;
  const std::string backend = flags.GetString("backend");
  options.backend = backend == "linear_scan" ? msq::BackendKind::kLinearScan
                    : backend == "mtree"     ? msq::BackendKind::kMTree
                    : backend == "va_file"   ? msq::BackendKind::kVaFile
                                             : msq::BackendKind::kXTree;
  auto opened = msq::MetricDatabase::Open(std::move(data), metric, options);
  if (!opened.ok()) {
    std::printf("open failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(opened).value();
  std::printf("database: %zu objects (%zu-d), backend=%s\n",
              db->dataset().size(), db->dataset().dim(),
              db->backend().Name().c_str());

  msq::DbscanParams params;
  params.eps = flags.GetDouble("eps");
  params.min_pts = static_cast<size_t>(flags.GetInt("min_pts"));
  params.batch_size = static_cast<size_t>(flags.GetInt("m"));

  // Baseline: the classic one-range-query-at-a-time DBSCAN (Figure 2).
  params.use_multiple = false;
  db->ResetAll();
  auto single = msq::RunDbscan(db.get(), params);
  if (!single.ok()) {
    std::printf("dbscan failed: %s\n", single.status().ToString().c_str());
    return 1;
  }
  const double single_ms = db->ModeledTotalMillis();

  // The transformed algorithm (Figure 3) with multiple similarity queries.
  params.use_multiple = true;
  db->ResetAll();
  auto multi = msq::RunDbscan(db.get(), params);
  if (!multi.ok()) {
    std::printf("dbscan failed: %s\n", multi.status().ToString().c_str());
    return 1;
  }
  const double multi_ms = db->ModeledTotalMillis();

  std::printf("\nDBSCAN(eps=%.3f, min_pts=%zu): %zu clusters\n", params.eps,
              params.min_pts, multi->num_clusters);
  std::printf("identical clustering in both modes: %s\n",
              single->cluster_of == multi->cluster_of ? "yes" : "NO (bug!)");

  std::map<int32_t, size_t> sizes;
  for (int32_t c : multi->cluster_of) ++sizes[c];
  std::printf("cluster sizes:");
  for (const auto& [cluster, size] : sizes) {
    if (cluster == msq::kDbscanNoise) continue;
    std::printf(" #%d:%zu", cluster, size);
  }
  std::printf("  noise:%zu\n", sizes.count(msq::kDbscanNoise)
                                   ? sizes[msq::kDbscanNoise]
                                   : 0);

  std::printf("\nsingle-query DBSCAN  : %10.1f ms modeled\n", single_ms);
  std::printf("multiple-query DBSCAN: %10.1f ms modeled (batch m=%zu)\n",
              multi_ms, params.batch_size);
  std::printf("speed-up             : %10.1fx\n",
              multi_ms > 0 ? single_ms / multi_ms : 0.0);

  // Bonus: the OPTICS cluster ordering generalizes DBSCAN — one run, any
  // extraction radius <= the generating eps.
  msq::OpticsParams optics_params;
  optics_params.eps = 4.0 * params.eps;
  optics_params.min_pts = params.min_pts;
  optics_params.batch_size = params.batch_size;
  db->ResetAll();
  auto optics = msq::RunOptics(db.get(), optics_params);
  if (!optics.ok()) {
    std::printf("optics failed: %s\n", optics.status().ToString().c_str());
    return 1;
  }
  std::printf("\nOPTICS ordering (generating eps=%.3f, %.1f ms modeled):\n",
              optics_params.eps, db->ModeledTotalMillis());
  for (double eps_prime :
       {0.5 * params.eps, params.eps, 2.0 * params.eps}) {
    const std::vector<int32_t> extracted =
        optics->ExtractClustering(eps_prime);
    std::set<int32_t> ids;
    for (int32_t c : extracted) {
      if (c >= 0) ids.insert(c);
    }
    std::printf("  extract at eps'=%.3f -> %zu clusters\n", eps_prime,
                ids.size());
  }
  return single->cluster_of == multi->cluster_of ? 0 : 1;
}
