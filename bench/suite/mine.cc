// mine: simultaneous kNN classification (ClassifyObjects) at the paper's
// m = 100 on the clustered 64-d image surrogate, one closed-loop client.
//
// The database is an in-memory linear scan without pivots, so all time
// goes to `core` and `dist`; none to `service`, `parallel` or real I/O.
// Scheduler and storage changes must leave it unchanged, and kernel or
// avoidance changes show here first.

#include <map>

#include "workloads.h"

namespace msq::suite {
namespace {

constexpr size_t kK = 20;
constexpr size_t kBatch = 100;
constexpr size_t kWarmupObjects = 200;
constexpr size_t kProbes = 64;

/// The classifier's rule: majority label of the k nearest neighbors other
/// than the object itself, ties toward the smaller label.
int32_t OracleLabel(const Metric& metric, const Dataset& dataset,
                    const std::vector<LiveObject>& all, ObjectId self) {
  std::map<int32_t, size_t> votes;
  for (const Neighbor& nb :
       BruteForceKnn(metric, all, dataset.object(self), kK + 1)) {
    if (nb.id != self) ++votes[dataset.label(nb.id)];
  }
  int32_t best = kNoLabel;
  size_t best_count = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_count) {
      best = label;
      best_count = count;
    }
  }
  return best;
}

}  // namespace

PassResult RunMine(const Config& cfg, SpanLog* spans) {
  PassResult out;
  std::shared_ptr<const TimedEuclidean> timed;
  const std::shared_ptr<const Metric> metric =
      WorkloadMetric(spans != nullptr, &timed);
  const size_t n = cfg.smoke ? 3000 : 30000;

  std::unique_ptr<MetricDatabase> db;
  SpeedReference speed;
  double setup_s = 0.0;
  Status built = SetUpRepeated(
      cfg.setups,
      [&]() -> Status {
        db.reset();
        ImageHistogramOptions gen;
        gen.n = n;
        gen.seed = cfg.seed * 1000 + 97;
        DatabaseOptions options;
        options.backend = BackendKind::kLinearScan;
        options.multi.max_batch_size = kBatch;
        auto opened = MetricDatabase::Open(MakeImageHistogramDataset(gen),
                                           metric, options);
        if (!opened.ok()) return opened.status();
        db = std::move(opened).value();
        return Status::OK();
      },
      &speed, &setup_s);
  if (!built.ok()) {
    out.error = "mine set-up failed: " + built.ToString();
    return out;
  }
  const Dataset& dataset = db->dataset();
  const std::vector<LiveObject> all = AllObjects(dataset);
  Rng rng(cfg.seed * 1000 + 11);
  const std::vector<uint64_t> order = rng.SampleWithoutReplacement(n, n);

  // --- correctness gates ---------------------------------------------------
  {
    std::vector<Query> probes;
    for (size_t i = 0; i < kProbes; ++i) {
      probes.push_back(db->MakeObjectKnnQuery(
          static_cast<ObjectId>(order[n - 1 - i]), kK));
    }
    auto got = db->MultipleSimilarityQueryAll(probes);
    if (!got.ok()) {
      out.error = "mine probes failed: " + got.status().ToString();
      return out;
    }
    for (size_t i = 0; i < probes.size(); ++i) {
      const AnswerSet want =
          BruteForceKnn(*metric, all, probes[i].point, kK);
      if (std::string diff = CompareAnswers((*got)[i], want); !diff.empty()) {
        out.error = "mine probe " + std::to_string(i) + ": " + diff;
        return out;
      }
    }
  }
  db->ResetAll();
  KnnClassifierParams params;
  params.k = kK;
  params.batch_size = kBatch;
  const size_t warmup = cfg.smoke ? kBatch : kWarmupObjects;
  {
    const std::vector<ObjectId> objects(order.begin(), order.begin() + warmup);
    auto got = ClassifyObjects(db.get(), objects, params);
    if (!got.ok()) {
      out.error = "mine warm-up failed: " + got.status().ToString();
      return out;
    }
    size_t correct = 0;
    for (size_t i = 0; i < objects.size(); ++i) {
      const int32_t want = OracleLabel(*metric, dataset, all, objects[i]);
      if (got->predicted[i] != want) {
        out.error = "mine object " + std::to_string(objects[i]) +
                    " classified " + std::to_string(got->predicted[i]) +
                    ", oracle " + std::to_string(want);
        return out;
      }
      correct += want == dataset.label(objects[i]) ? 1 : 0;
    }
    const double oracle_accuracy = static_cast<double>(correct) /
                                   static_cast<double>(objects.size());
    if (got->accuracy != oracle_accuracy) {
      out.error = "mine accuracy " + std::to_string(got->accuracy) +
                  ", oracle " + std::to_string(oracle_accuracy);
      return out;
    }
  }

  // --- measured: closed loop of m = 100 classification calls --------------
  db->ResetStats();
  const TimedEuclidean::Totals dist_before =
      timed ? timed->Sum() : TimedEuclidean::Totals{};
  const double seconds = cfg.smoke ? 0.5 : cfg.seconds;
  // Blocks of `order` after the warm-up objects and before the probed ones,
  // cycled if the time allows more: a block comes back only after every
  // other one, far beyond the engine's answer-buffer capacity.
  const size_t blocks = (n - kProbes - warmup) / kBatch;
  std::vector<double> call_ms;  // at the nominal host speed
  double raw_ms = 0.0;
  size_t classified = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  for (size_t call = 0; MillisBetween(start, now) < seconds * 1e3; ++call) {
    const size_t first = warmup + (call % blocks) * kBatch;
    const std::vector<ObjectId> objects(order.begin() + first,
                                        order.begin() + first + kBatch);
    speed.MaybeSample();
    const Clock::time_point call_start = Clock::now();
    auto got = ClassifyObjects(db.get(), objects, params);
    now = Clock::now();
    ++out.attempted;
    if (!got.ok()) {
      ++out.failed;
      continue;
    }
    classified += objects.size();
    raw_ms += MillisBetween(call_start, now);
    call_ms.push_back(speed.Scale(MillisBetween(call_start, now)));
    if (spans != nullptr) {
      spans->Record("core.read_batch", spans->NewId(), 0, call_ms.size(),
                    call_start, now);
    }
  }

  if (spans != nullptr) {
    AddEngineLayers(db->stats(), raw_ms * 1e3, timed->Sum() - dist_before,
                    &out.layers);
    double cold_us = 0.0, warm_us = 0.0;
    if (Status st = ProbeBlockReads(db.get(), &cold_us, &warm_us); !st.ok()) {
      out.error = "mine block-read probe failed: " + st.ToString();
      return out;
    }
    out.layers.push_back({"storage.read_block_cold_us", "us", cold_us});
    out.layers.push_back({"storage.read_block_warm_us", "us", warm_us});
  }

  double scaled_ms = 0.0;
  for (double ms : call_ms) scaled_ms += ms;
  const double ops_per_s = Ratio(static_cast<double>(classified) * 1e3,
                                 scaled_ms);
  out.end_to_end = {{"setup_s", "s", setup_s},
                    {"ops_per_s", "1/s", ops_per_s},
                    {"p50_ms", "ms", Percentile(call_ms, 50)},
                    {"tail_ms", "ms", Percentile(call_ms, 90)}};
  out.primary_cost = Ratio(1.0, ops_per_s);
  std::printf("mine: %zu objects in %zu calls of m=%zu; as measured %.1f "
              "objects/s\n",
              classified, call_ms.size(), kBatch,
              Ratio(static_cast<double>(classified) * 1e3, raw_ms));
  return out;
}

}  // namespace msq::suite
