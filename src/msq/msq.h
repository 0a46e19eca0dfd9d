// Umbrella header of the msq library: multiple similarity queries for
// mining in metric databases (reproduction of Braunmüller, Ester, Kriegel,
// Sander, ICDE 2000).
//
// Typical usage:
//
//   msq::Dataset data = msq::MakeTychoLikeDataset({});
//   auto metric = std::make_shared<msq::EuclideanMetric>();
//   msq::DatabaseOptions options;
//   options.backend = msq::BackendKind::kXTree;
//   auto db = msq::MetricDatabase::Open(std::move(data), metric, options);
//
//   std::vector<msq::Query> batch;
//   for (msq::ObjectId id : interesting_objects)
//     batch.push_back((*db)->MakeObjectKnnQuery(id, 10));
//   auto answers = (*db)->MultipleSimilarityQueryAll(batch);

#ifndef MSQ_MSQ_H_
#define MSQ_MSQ_H_

#include "common/flags.h"        // IWYU pragma: export
#include "common/rng.h"          // IWYU pragma: export
#include "common/stats.h"        // IWYU pragma: export
#include "common/status.h"      // IWYU pragma: export
#include "common/timer.h"        // IWYU pragma: export
#include "core/answer_buffer.h"  // IWYU pragma: export
#include "core/answer_list.h"    // IWYU pragma: export
#include "core/avoidance.h"      // IWYU pragma: export
#include "core/backend.h"        // IWYU pragma: export
#include "core/database.h"       // IWYU pragma: export
#include "core/distance_matrix.h"  // IWYU pragma: export
#include "core/multi_cursor.h"   // IWYU pragma: export
#include "core/multi_query.h"    // IWYU pragma: export
#include "core/pivot_table.h"    // IWYU pragma: export
#include "core/planner.h"        // IWYU pragma: export
#include "core/query.h"          // IWYU pragma: export
#include "core/single_query.h"   // IWYU pragma: export
#include "dataset/dataset.h"     // IWYU pragma: export
#include "dataset/generators.h"  // IWYU pragma: export
#include "dist/builtin_metrics.h"  // IWYU pragma: export
#include "dist/counting_metric.h"  // IWYU pragma: export
#include "dist/discrete_metrics.h"  // IWYU pragma: export
#include "dist/edit_distance.h"  // IWYU pragma: export
#include "dist/metric.h"         // IWYU pragma: export
#include "dist/vector.h"         // IWYU pragma: export
#include "mining/association.h"  // IWYU pragma: export
#include "mining/dbscan.h"       // IWYU pragma: export
#include "mining/exploration_sim.h"  // IWYU pragma: export
#include "mining/explore.h"      // IWYU pragma: export
#include "mining/knn_classifier.h"  // IWYU pragma: export
#include "mining/knn_graph.h"    // IWYU pragma: export
#include "mining/optics.h"       // IWYU pragma: export
#include "mining/proximity.h"    // IWYU pragma: export
#include "mining/similarity_join.h"  // IWYU pragma: export
#include "mining/trend.h"        // IWYU pragma: export
#include "load/workload.h"       // IWYU pragma: export
#include "mtree/mtree.h"         // IWYU pragma: export
#include "obs/attribution.h"     // IWYU pragma: export
#include "obs/metrics.h"         // IWYU pragma: export
#include "obs/sink.h"            // IWYU pragma: export
#include "obs/trace.h"           // IWYU pragma: export
#include "obs/window.h"          // IWYU pragma: export
#include "robust/fault_injector.h"  // IWYU pragma: export
#include "parallel/cluster.h"    // IWYU pragma: export
#include "parallel/decluster.h"  // IWYU pragma: export
#include "parallel/thread_pool.h"  // IWYU pragma: export
#include "scan/linear_scan.h"    // IWYU pragma: export
#include "service/batch_scheduler.h"  // IWYU pragma: export
#include "storage/fs_util.h"     // IWYU pragma: export
#include "storage/page_file.h"   // IWYU pragma: export
#include "storage/wal.h"         // IWYU pragma: export
#include "scan/va_file.h"        // IWYU pragma: export
#include "xtree/xtree.h"         // IWYU pragma: export

#endif  // MSQ_MSQ_H_
