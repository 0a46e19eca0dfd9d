// serve: kNN traffic from two tenants through the BatchScheduler onto a
// replicated SharedNothingCluster over page-store files, threads on.
//
// The only workload through `service`, `parallel` and the store's pread
// path, with a working set ten times each replica's buffer pool. An open
// loop at a fixed rate well below saturation: the latency metrics, and
// whether the system keeps up.

#include <filesystem>
#include <unordered_map>

#include "open_loop.h"
#include "workloads.h"

namespace msq::suite {
namespace {

constexpr size_t kServers = 4;
constexpr size_t kReplication = 2;
constexpr size_t kMaxBatch = 32;
constexpr auto kFlushDeadline = std::chrono::microseconds(2000);
constexpr size_t kMaxPending = 4096;
/// About a third of the rate at which a 4-core host in its nominal state
/// stops keeping up with deadline-flushed batches, so that the latency
/// stays clear of that cliff even while a shared host runs at half speed.
constexpr double kFixedQps = 500.0;
constexpr size_t kProbes = 64;

std::vector<load::TenantSpec> Tenants() {
  load::TenantSpec interactive;
  interactive.name = "interactive";
  interactive.weight = 0.7;
  interactive.k = 10;
  interactive.zipf_s = 0.9;
  load::TenantSpec analytics = interactive;
  analytics.name = "analytics";
  analytics.weight = 0.3;
  analytics.k = 40;
  return {interactive, analytics};
}

/// Submissions not yet picked up by an executor, by query id: how the
/// traced pass learns each request's Submit-to-executor-start wait and the
/// span a batch execution descends from. The scheduler does not say which
/// batch carries which submission, so a query submitted again between its
/// batch's flush and that batch's start is charged to the earlier batch.
class SubmitLedger {
 public:
  struct Entry {
    Clock::time_point submitted;
    uint64_t req = 0;
    uint64_t service_span = 0;
  };

  void Add(QueryId id, const Entry& entry) {
    std::lock_guard<std::mutex> lock(mu_);
    waiting_[id].push_back(entry);
  }

  /// Removes every entry of the batch's ids submitted before `start`,
  /// appending their waits to `waits_ms`; returns the oldest entry.
  Entry Start(const std::vector<Query>& batch, Clock::time_point start,
              std::vector<double>* waits_ms) {
    Entry oldest{start, 0, 0};
    std::lock_guard<std::mutex> lock(mu_);
    for (const Query& q : batch) {
      auto it = waiting_.find(q.id);
      if (it == waiting_.end()) continue;
      std::vector<Entry>& entries = it->second;
      size_t kept = 0;
      for (const Entry& e : entries) {
        if (e.submitted > start) {
          entries[kept++] = e;
          continue;
        }
        waits_ms->push_back(MillisBetween(e.submitted, start));
        if (e.submitted <= oldest.submitted) oldest = e;
      }
      entries.resize(kept);
      if (entries.empty()) waiting_.erase(it);
    }
    return oldest;
  }

 private:
  std::mutex mu_;
  std::unordered_map<QueryId, std::vector<Entry>> waiting_;
};

/// What the traced pass's executor wrapper saw, written from pool threads.
struct ExecLog {
  std::mutex mu;
  std::vector<double> exec_ms;
  std::vector<double> queue_wait_ms;
  uint64_t queries = 0;
};

uint64_t CounterValue(const std::string& name,
                      const std::string& labels = "") {
  return obs::MetricsRegistry::Global()->GetCounter(name, "", labels)->Value();
}

std::chrono::milliseconds Millis(double seconds) {
  return std::chrono::milliseconds(static_cast<int64_t>(seconds * 1e3));
}

}  // namespace

PassResult RunServe(const Config& cfg, SpanLog* spans) {
  PassResult out;
  std::shared_ptr<const TimedEuclidean> timed;
  const std::shared_ptr<const Metric> metric =
      WorkloadMetric(spans != nullptr, &timed);
  const size_t n = cfg.smoke ? 2000 : 20000;
  const std::string store_dir = cfg.work_dir + "/serve";

  // One pool serves the scheduler's batches and the cluster's partitions.
  ThreadPool pool(std::min<size_t>(4, ThreadPool::DefaultThreadCount()));
  Dataset dataset;
  std::unique_ptr<SharedNothingCluster> cluster;
  // Only the set-up, closed-loop CPU work, is stated at the nominal speed.
  SpeedReference speed;
  double setup_s = 0.0;
  Status built = SetUpRepeated(
      cfg.setups,
      [&]() -> Status {
        cluster.reset();
        std::error_code ec;
        std::filesystem::remove_all(store_dir, ec);
        std::filesystem::create_directories(store_dir, ec);
        if (ec) return Status::IOError("cannot create " + store_dir);
        TychoLikeOptions gen;
        gen.n = n;
        gen.seed = cfg.seed * 1000 + 41;
        dataset = MakeTychoLikeDataset(gen);
        ClusterOptions copts;
        copts.num_servers = kServers;
        copts.replication_factor = kReplication;
        copts.server_options.backend = BackendKind::kXTree;
        copts.server_options.buffer_fraction = 0.10;
        copts.use_threads = true;
        copts.shared_pool = &pool;
        copts.seed = cfg.seed * 1000 + 5;
        copts.store_dir = store_dir;
        auto created = SharedNothingCluster::Create(dataset, metric, copts);
        if (!created.ok()) return created.status();
        cluster = std::move(created).value();
        return Status::OK();
      },
      &speed, &setup_s);
  if (!built.ok()) {
    out.error = "serve set-up failed: " + built.ToString();
    return out;
  }

  SubmitLedger ledger;
  ExecLog exec_log;
  BatchSchedulerOptions sopts;
  sopts.max_batch_size = kMaxBatch;
  sopts.flush_deadline = kFlushDeadline;
  sopts.max_pending = kMaxPending;
  sopts.executor = [&](const std::vector<Query>& queries, QueryStats* stats) {
    if (spans == nullptr) return cluster->ExecuteBatch(queries, stats);
    const Clock::time_point start = Clock::now();
    std::vector<double> waits;
    const SubmitLedger::Entry oldest = ledger.Start(queries, start, &waits);
    auto result = cluster->ExecuteBatch(queries, stats);
    const Clock::time_point end = Clock::now();
    spans->Record("parallel.execute_batch", spans->NewId(),
                  oldest.service_span, oldest.req, start, end);
    std::lock_guard<std::mutex> lock(exec_log.mu);
    exec_log.exec_ms.push_back(MillisBetween(start, end));
    exec_log.queue_wait_ms.insert(exec_log.queue_wait_ms.end(), waits.begin(),
                                  waits.end());
    exec_log.queries += queries.size();
    return result;
  };
  AggregateStats agg;
  BatchScheduler scheduler(nullptr, &pool, sopts, &agg);

  // --- correctness gate: probes through the whole serving path -----------
  {
    Rng rng(cfg.seed * 1000 + 7);
    const std::vector<LiveObject> all = AllObjects(dataset);
    std::vector<Query> probes;
    std::vector<AnswerFuture> futures;
    for (uint64_t object : rng.SampleWithoutReplacement(n, kProbes)) {
      Query q;
      // A tenant index of its own, so probe ids never meet load ids.
      q.id = (QueryId{2} << load::LoadGenerator::kTenantIdShift) | object;
      q.point = dataset.object(static_cast<ObjectId>(object));
      q.type = QueryType::Knn(probes.size() % 2 == 0 ? 10 : 40);
      probes.push_back(q);
      futures.push_back(scheduler.Submit(q));
    }
    for (size_t i = 0; i < probes.size(); ++i) {
      StatusOr<AnswerSet> got = futures[i].get();
      if (!got.ok()) {
        out.error = "serve probe failed: " + got.status().ToString();
        return out;
      }
      const AnswerSet want = BruteForceKnn(*metric, all, probes[i].point,
                                           probes[i].type.cardinality);
      if (std::string diff = CompareAnswers(*got, want); !diff.empty()) {
        out.error = "serve probe " + std::to_string(i) + ": " + diff;
        return out;
      }
    }
  }

  OpenLoop::Hook on_submit, on_complete;
  if (spans != nullptr) {
    on_submit = [&](Request& r) {
      r.request_span = spans->NewId();
      r.service_span = spans->NewId();
      ledger.Add(r.id, {r.submitted, r.seq, r.service_span});
    };
    on_complete = [&](Request& r) {
      spans->Record("load.request", r.request_span, 0, r.seq, r.scheduled,
                    r.done);
      spans->Record("service.submit_to_answer", r.service_span,
                    r.request_span, r.seq, r.submitted, r.done);
    };
  }
  OpenLoop loop(
      &scheduler, Tenants(), n, cfg.seed,
      [&](const load::TenantSpec& tenant, uint64_t object) {
        Query q;
        q.point = dataset.object(static_cast<ObjectId>(object));
        q.type = QueryType::Knn(tenant.k);
        return q;
      },
      on_submit, on_complete);

  loop.Run(kFixedQps, Millis(cfg.smoke ? 0.2 : 1.0));

  // --- fixed rate: the latency metrics and every per-layer number --------
  obs::MetricsRegistry::Global()->ResetValues();
  agg.Reset();
  {
    std::lock_guard<std::mutex> lock(exec_log.mu);
    exec_log.exec_ms.clear();
    exec_log.queue_wait_ms.clear();
    exec_log.queries = 0;
  }
  const TimedEuclidean::Totals dist_before =
      timed ? timed->Sum() : TimedEuclidean::Totals{};
  const PhaseResult fixed = loop.Run(kFixedQps, Millis(cfg.seconds));
  const double fixed_wall_us = (fixed.schedule_ms + fixed.drain_ms) * 1e3;
  const std::vector<double> latencies = fixed.LatenciesMs();

  if (spans != nullptr) {
    const QueryStats stats = agg.Snapshot();
    const double busy_us =
        static_cast<double>(CounterValue("msq_pool_busy_micros_total"));
    auto flushes = [](const char* reason) {
      return static_cast<double>(
          CounterValue("msq_scheduler_flushes_total",
                       std::string("reason=\"") + reason + "\""));
    };
    const double all_flushes = flushes("size") + flushes("deadline") +
                               flushes("explicit") + flushes("drain");
    std::lock_guard<std::mutex> lock(exec_log.mu);
    double exec_total_ms = 0.0;
    for (double v : exec_log.exec_ms) exec_total_ms += v;
    std::vector<Value>& L = out.layers;
    L.push_back({"load.gen_lag_p99_ms", "ms", Percentile(fixed.LagsMs(), 99)});
    L.push_back({"service.batch_size_mean", "count",
                 Ratio(static_cast<double>(exec_log.queries),
                       static_cast<double>(exec_log.exec_ms.size()))});
    L.push_back({"service.queue_wait_p99_ms", "ms",
                 Percentile(exec_log.queue_wait_ms, 99)});
    L.push_back(
        {"service.coalesced_share", "share",
         Ratio(static_cast<double>(
                   CounterValue("msq_scheduler_coalesced_total")),
               static_cast<double>(
                   CounterValue("msq_scheduler_submitted_total")))});
    L.push_back({"service.deadline_flush_share", "share",
                 Ratio(flushes("deadline"), all_flushes)});
    L.push_back({"parallel.exec_p50_ms", "ms",
                 Percentile(exec_log.exec_ms, 50)});
    L.push_back({"parallel.exec_p99_ms", "ms",
                 Percentile(exec_log.exec_ms, 99)});
    L.push_back({"parallel.exec_us_per_query", "us",
                 Ratio(exec_total_ms * 1e3,
                       static_cast<double>(exec_log.queries))});
    L.push_back({"parallel.pool_busy_share", "share",
                 Ratio(busy_us, static_cast<double>(pool.num_threads()) *
                                    fixed_wall_us)});
    L.push_back({"parallel.skew_p99_ms", "ms",
                 obs::MetricsRegistry::Global()
                         ->GetHistogram("msq_cluster_skew_micros",
                                        obs::LatencyBoundariesMicros())
                         ->Percentile(99) /
                     1e3});
    L.push_back({"parallel.lock_wait_share", "share",
                 Ratio(stats.attr_lock_wait_micros, busy_us)});
    AddEngineLayers(stats, busy_us, timed->Sum() - dist_before, &L);
  }

  out.attempted = fixed.requests.size();
  out.failed = fixed.requests.size() - fixed.ok();
  for (const Request& r : fixed.requests) {
    if (r.ok && r.answer_size != r.k) {
      out.error = "serve request " + std::to_string(r.seq) + " got " +
                  std::to_string(r.answer_size) + " neighbors, asked " +
                  std::to_string(r.k);
      return out;
    }
  }

  if (spans != nullptr) {
    double cold_us = 0.0, warm_us = 0.0;
    if (Status st =
            ProbeBlockReads(&cluster->replica(0, 0), &cold_us, &warm_us);
        !st.ok()) {
      out.error = "serve block-read probe failed: " + st.ToString();
      return out;
    }
    out.layers.push_back({"storage.read_block_cold_us", "us", cold_us});
    out.layers.push_back({"storage.read_block_warm_us", "us", warm_us});
  }

  const double p50 = Percentile(latencies, 50);
  out.end_to_end = {
      {"setup_s", "s", setup_s},
      {"ops_per_s", "1/s", Ratio(static_cast<double>(fixed.ok()) * 1e3,
                                 fixed.schedule_ms + fixed.drain_ms)},
      {"p50_ms", "ms", p50},
      {"tail_ms", "ms", Percentile(latencies, 90)}};
  out.primary_cost = p50;
  std::printf("serve: %zu answers at %.0f q/s, p99 %.3f ms, p999 %.3f ms, "
              "generator lag p99 %.3f ms, drain %.1f ms\n",
              latencies.size(), kFixedQps, Percentile(latencies, 99),
              Percentile(latencies, 99.9), Percentile(fixed.LagsMs(), 99),
              fixed.drain_ms);
  return out;
}

}  // namespace msq::suite
