// ingest: one closed-loop client alternating batch reads with durable
// writes on a database reopened from its page-store file, WAL on.
//
// Each round is one MultipleSimilarityQueryAll batch of kNN queries and
// then as many writes, half Inserts of perturbed objects and half Deletes
// of live objects, so the live count stays put. Auto-checkpoints fold the
// overlay every few seconds. A change that speeds reads but slows the WAL,
// the checkpoints or the overlay shows here. Single client: a concurrent
// reader breaks checkpoints today (README, "Defects found while sizing").

#include <filesystem>

#include "workloads.h"

namespace msq::suite {
namespace {

constexpr size_t kReadsPerRound = 32;
constexpr size_t kWritesPerRound = 32;
constexpr size_t kK = 10;
constexpr size_t kProbes = 64;
constexpr uint64_t kCheckpointWalBytes = 128 * 1024;

DatabaseOptions IngestOptions() {
  DatabaseOptions options;
  options.backend = BackendKind::kLinearScan;
  options.durability.wal_enabled = true;
  options.durability.wal_fsync_policy = WalFsyncPolicy::kEveryN;
  options.durability.wal_fsync_every_n = 32;
  options.durability.auto_checkpoint_wal_bytes = kCheckpointWalBytes;
  return options;
}

}  // namespace

PassResult RunIngest(const Config& cfg, SpanLog* spans) {
  PassResult out;
  std::shared_ptr<const TimedEuclidean> timed;
  const std::shared_ptr<const Metric> metric =
      WorkloadMetric(spans != nullptr, &timed);
  const size_t n = cfg.smoke ? 2000 : 20000;
  const std::string dir = cfg.work_dir + "/ingest";
  const std::string path = dir + "/ingest.msq";
  const DatabaseOptions options = IngestOptions();

  Dataset dataset;
  std::unique_ptr<MetricDatabase> db;
  SpeedReference speed;
  double setup_s = 0.0;
  Status built = SetUpRepeated(
      cfg.setups,
      [&]() -> Status {
        db.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        std::filesystem::create_directories(dir, ec);
        if (ec) return Status::IOError("cannot create " + dir);
        TychoLikeOptions gen;
        gen.n = n;
        gen.seed = cfg.seed * 1000 + 43;
        dataset = MakeTychoLikeDataset(gen);
        auto fresh = MetricDatabase::Open(dataset, metric, options);
        if (!fresh.ok()) return fresh.status();
        if (Status st = (*fresh)->Save(path); !st.ok()) return st;
        fresh->reset();
        auto reopened = MetricDatabase::Open(path, options, metric);
        if (!reopened.ok()) return reopened.status();
        db = std::move(reopened).value();
        return Status::OK();
      },
      &speed, &setup_s);
  if (!built.ok()) {
    out.error = "ingest set-up failed: " + built.ToString();
    return out;
  }

  // --- measured: rounds of one read batch and a burst of writes ------------
  Rng rng(cfg.seed * 1000 + 13);
  // At the nominal host speed, except the per-layer checkpoint times.
  std::vector<double> read_ms, write_ms, round_ms, checkpoint_ms;
  double raw_ms = 0.0;
  uint64_t wal_bytes = 0, wal_user_bytes = 0, user_bytes = 0;
  uint64_t rewrite_bytes = 0;
  const size_t dim = dataset.dim();
  const TimedEuclidean::Totals dist_before =
      timed ? timed->Sum() : TimedEuclidean::Totals{};
  const double seconds = cfg.smoke ? 0.5 : cfg.seconds;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  uint64_t rounds = 0;
  while (MillisBetween(start, now) < seconds * 1e3 ||
         (cfg.smoke && checkpoint_ms.empty())) {
    speed.MaybeSample();
    const uint64_t round_span = spans ? spans->NewId() : 0;
    const Clock::time_point round_start = Clock::now();
    std::vector<Query> batch;
    for (size_t i = 0; i < kReadsPerRound; ++i) {
      batch.push_back(db->MakeKnnQuery(
          dataset.object(static_cast<ObjectId>(rng.NextIndex(n))), kK));
    }
    auto got = db->MultipleSimilarityQueryAll(batch);
    const Clock::time_point read_end = Clock::now();
    out.attempted += kReadsPerRound;
    if (!got.ok()) out.failed += kReadsPerRound;
    read_ms.push_back(speed.Scale(MillisBetween(round_start, read_end)));
    if (spans != nullptr) {
      spans->Record("core.read_batch", spans->NewId(), round_span, rounds,
                    round_start, read_end);
    }
    for (size_t w = 0; w < kWritesPerRound; ++w) {
      const bool insert = w % 2 == 0;
      Vec point;
      ObjectId victim = 0;
      if (insert) {
        const ObjectId like = static_cast<ObjectId>(rng.NextIndex(n));
        point = dataset.object(like);
        for (Scalar& x : point) {
          x += static_cast<Scalar>(0.01 * rng.NextGaussian());
        }
      } else {
        const std::shared_ptr<const LiveVersion> v = db->CurrentVersion();
        do {
          victim = static_cast<ObjectId>(rng.NextIndex(v->total_objects()));
        } while (v->tombstoned(victim));
      }
      const uint64_t wal_before = db->WalSizeBytes();
      const Clock::time_point write_start = Clock::now();
      const Status st = insert ? db->Insert(std::move(point)).status()
                               : db->Delete(victim);
      const Clock::time_point write_end = Clock::now();
      const uint64_t wal_after = db->WalSizeBytes();
      ++out.attempted;
      if (!st.ok()) ++out.failed;
      const uint64_t user = insert ? dim * sizeof(Scalar) + sizeof(int32_t)
                                   : sizeof(uint64_t);
      user_bytes += user;
      write_ms.push_back(speed.Scale(MillisBetween(write_start, write_end)));
      const uint64_t write_span = spans ? spans->NewId() : 0;
      if (wal_after < wal_before) {
        // The write tripped the auto-checkpoint: the WAL was folded into a
        // fresh store file.
        checkpoint_ms.push_back(MillisBetween(write_start, write_end));
        std::error_code ec;
        rewrite_bytes += std::filesystem::file_size(path, ec);
        if (spans != nullptr) {
          spans->Record("storage.checkpoint", spans->NewId(), write_span,
                        rounds, write_start, write_end);
        }
      } else {
        wal_bytes += wal_after - wal_before;
        wal_user_bytes += user;
      }
      if (spans != nullptr) {
        spans->Record("core.write", write_span, round_span, rounds,
                      write_start, write_end);
      }
    }
    now = Clock::now();
    raw_ms += MillisBetween(round_start, now);
    round_ms.push_back(speed.Scale(MillisBetween(round_start, now)));
    if (spans != nullptr) {
      spans->Record("load.request", round_span, 0, rounds, round_start,
                    now);
    }
    ++rounds;
  }
  const QueryStats read_stats = db->stats();

  // --- correctness gates: live set before close, recovery after ------------
  const std::shared_ptr<const LiveVersion> version = db->CurrentVersion();
  const std::vector<LiveObject> live = LiveObjects(*version);
  std::vector<Query> probes;
  for (size_t i = 0; i < kProbes; ++i) {
    probes.push_back(db->MakeKnnQuery(
        dataset.object(static_cast<ObjectId>(rng.NextIndex(n))), kK));
  }
  auto before = db->MultipleSimilarityQueryAll(probes);
  if (!before.ok()) {
    out.error = "ingest probes failed: " + before.status().ToString();
    return out;
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    const AnswerSet want = BruteForceKnn(*metric, live, probes[i].point, kK);
    if (std::string diff = CompareAnswers((*before)[i], want); !diff.empty()) {
      out.error = "ingest probe " + std::to_string(i) + ": " + diff;
      return out;
    }
  }
  const size_t live_count = db->NumLiveObjects();
  db.reset();
  const Clock::time_point recover_start = Clock::now();
  auto reopened = MetricDatabase::Open(path, options, metric);
  const Clock::time_point recover_end = Clock::now();
  if (!reopened.ok()) {
    out.error = "ingest reopen failed: " + reopened.status().ToString();
    return out;
  }
  db = std::move(reopened).value();
  if (spans != nullptr) {
    spans->Record("storage.recover", spans->NewId(), 0, rounds,
                  recover_start, recover_end);
  }
  if (db->NumLiveObjects() != live_count) {
    out.error = "ingest reopened with " +
                std::to_string(db->NumLiveObjects()) + " live objects, had " +
                std::to_string(live_count);
    return out;
  }
  auto after = db->MultipleSimilarityQueryAll(probes);
  if (!after.ok()) {
    out.error = "ingest probes after reopen failed: " +
                after.status().ToString();
    return out;
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    if (std::string diff = CompareAnswers((*after)[i], (*before)[i]);
        !diff.empty()) {
      out.error = "ingest probe " + std::to_string(i) + " after reopen: " +
                  diff;
      return out;
    }
  }

  if (spans != nullptr) {
    std::vector<Value>& L = out.layers;
    AddEngineLayers(read_stats, raw_ms * 1e3, timed->Sum() - dist_before,
                    &L);
    L.push_back({"storage.wal_bytes_per_user_byte", "share",
                 Ratio(static_cast<double>(wal_bytes),
                       static_cast<double>(wal_user_bytes))});
    L.push_back({"storage.checkpoints", "count",
                 static_cast<double>(checkpoint_ms.size())});
    L.push_back({"storage.checkpoint_p50_ms", "ms",
                 Percentile(checkpoint_ms, 50)});
    L.push_back({"storage.checkpoint_max_ms", "ms",
                 Percentile(checkpoint_ms, 100)});
    L.push_back({"storage.rewrite_bytes_per_user_byte", "share",
                 Ratio(static_cast<double>(rewrite_bytes),
                       static_cast<double>(user_bytes))});
    L.push_back({"storage.recover_ms", "ms",
                 MillisBetween(recover_start, recover_end)});
    double cold_us = 0.0, warm_us = 0.0;
    if (Status st = ProbeBlockReads(db.get(), &cold_us, &warm_us); !st.ok()) {
      out.error = "ingest block-read probe failed: " + st.ToString();
      return out;
    }
    L.push_back({"storage.read_block_cold_us", "us", cold_us});
    L.push_back({"storage.read_block_warm_us", "us", warm_us});
  }

  double scaled_ms = 0.0;
  for (double ms : round_ms) scaled_ms += ms;
  const double ops =
      static_cast<double>(rounds * (kReadsPerRound + kWritesPerRound));
  const double ops_per_s = Ratio(ops * 1e3, scaled_ms);
  out.end_to_end = {{"setup_s", "s", setup_s},
                    {"ops_per_s", "1/s", ops_per_s},
                    {"p50_ms", "ms", Percentile(write_ms, 50)},
                    {"tail_ms", "ms", Percentile(write_ms, 99)}};
  out.primary_cost = Ratio(1.0, ops_per_s);
  std::printf(
      "ingest: %llu rounds, %zu checkpoints; as measured %.1f ops/s; read "
      "p50 %.3f ms, write p999 %.4f ms\n",
      static_cast<unsigned long long>(rounds), checkpoint_ms.size(),
      Ratio(ops * 1e3, raw_ms), Percentile(read_ms, 50),
      Percentile(write_ms, 99.9));
  return out;
}

}  // namespace msq::suite
