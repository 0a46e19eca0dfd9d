// End-to-end load harness with tail-latency attribution.
//
// Builds a replicated SharedNothingCluster over persisted single-file
// stores (so page misses are real preads and injected faults hit real
// I/O), fronts it with the BatchScheduler, and drives it with the
// open-loop multi-tenant workload of src/load — optionally under chaos
// (per-read fault/latency-spike rates plus a periodic whole-server
// crash/restore cycle). While the run is live, a SnapshotReporter dumps
// the registry as Prometheus text and JSON lines every report_every_s.
//
// After the drain the harness prints and (with json=) records:
//   - throughput and completion counts (ok / shed / rejected / failed),
//   - exact p50/p99/p999 end-to-end latency (coordinated-omission aware:
//     measured from each query's *scheduled* Poisson arrival),
//   - per-component p99 from msq_latency_component_seconds (queue wait,
//     dispatch, lock wait, matrix build, page I/O, kernel, engine other,
//     retry, merge),
//   - the attribution-vs-e2e mismatch: across all batches, how far the
//     summed per-query component times disagree with measured end-to-end
//     execution latency. The harness *fails* (exit 1) when the mismatch
//     exceeds mismatch_tolerance_pct, when nothing completed, or when any
//     component histogram stayed empty — that is the CI gate.
//
// The cluster runs use_threads=false: attributed component times are wall
// times, and only sequential execution keeps them additive so the ≤5%
// check is meaningful (threads would double-count wall time).

#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "msq/msq.h"

namespace msq {
namespace {

StatusOr<BackendKind> ParseBackend(const std::string& name) {
  if (name == "linear") return BackendKind::kLinearScan;
  if (name == "xtree") return BackendKind::kXTree;
  if (name == "mtree") return BackendKind::kMTree;
  if (name == "vafile") return BackendKind::kVaFile;
  return Status::InvalidArgument("unknown backend: " + name);
}

/// Periodically crashes and restores one server (round-robin) so failover
/// and retry attribution show up in the latency tail.
class ChaosMonkey {
 public:
  ChaosMonkey(std::vector<std::shared_ptr<robust::FaultInjector>> injectors,
              std::chrono::milliseconds period,
              std::chrono::milliseconds down_time)
      : injectors_(std::move(injectors)),
        period_(period),
        down_time_(down_time) {}

  void Start() {
    if (injectors_.empty() || period_.count() <= 0) return;
    thread_ = std::thread([this] { Loop(); });
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    for (auto& inj : injectors_) inj->Restore();
  }

  uint64_t crashes() const { return crashes_.load(); }
  bool chaos_active() const { return down_.load(); }

 private:
  bool SleepFor(std::chrono::milliseconds d) {
    std::unique_lock<std::mutex> lk(mu_);
    return !cv_.wait_for(lk, d, [this] { return stop_; });
  }

  void Loop() {
    size_t victim = 0;
    for (;;) {
      if (!SleepFor(period_)) return;
      robust::FaultInjector* inj = injectors_[victim % injectors_.size()].get();
      inj->Crash();
      down_.store(true);
      crashes_.fetch_add(1);
      const bool keep_going = SleepFor(down_time_);
      inj->Restore();
      down_.store(false);
      if (!keep_going) return;
      ++victim;
    }
  }

  std::vector<std::shared_ptr<robust::FaultInjector>> injectors_;
  const std::chrono::milliseconds period_, down_time_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
  std::atomic<uint64_t> crashes_{0};
  std::atomic<bool> down_{false};
};

/// Running aggregate of the attribution-vs-e2e agreement, fed from the
/// scheduler's attribution hook (executing pool threads).
class MismatchTracker {
 public:
  void Record(const obs::BatchAttribution& attr) {
    std::lock_guard<std::mutex> lk(mu_);
    ++batches_;
    // Per-batch comparison: every query in the batch lives through the
    // whole execution, so per-query e2e (from its own queue wait) sums to
    // queue_wait_total + batch_size * (dispatch..merge stages).
    e2e_micros_ += attr.e2e_micros;
    attributed_micros_ += attr.AttributedMicros();
  }

  double MismatchPct() const {
    std::lock_guard<std::mutex> lk(mu_);
    if (e2e_micros_ <= 0.0) return 0.0;
    return 100.0 * std::abs(attributed_micros_ - e2e_micros_) / e2e_micros_;
  }
  uint64_t batches() const {
    std::lock_guard<std::mutex> lk(mu_);
    return batches_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t batches_ = 0;
  double e2e_micros_ = 0.0;
  double attributed_micros_ = 0.0;
};

int Main(int argc, char** argv) {
  Flags flags;
  flags.Define("backend", "linear", "linear | xtree | mtree | vafile");
  flags.Define("n", "20000", "dataset size (astronomy surrogate)");
  flags.Define("servers", "4", "cluster servers");
  flags.Define("replication", "2", "replicas per partition");
  flags.Define("qps", "400", "aggregate target arrival rate");
  flags.Define("duration_s", "10", "load duration in seconds");
  flags.Define("producers", "2", "open-loop producer threads");
  flags.Define("waiters", "2", "completion-drain threads");
  flags.Define("tenants", "interactive:0.7:10,analytics:0.3:40",
               "tenant mix as name:weight:k[,...]");
  flags.Define("zipf_s", "0.9", "Zipf exponent of query-object popularity");
  flags.Define("batch", "32", "scheduler max batch size");
  flags.Define("flush_us", "2000", "scheduler flush deadline (us)");
  flags.Define("max_pending", "4096", "scheduler shedding bound (0 = off)");
  flags.Define("window_s", "10", "sliding latency-window horizon (s)");
  flags.Define("chaos", "true", "enable fault injection + crash cycle");
  flags.Define("fault_rate", "0.002", "per-page-read IOError probability");
  flags.Define("spike_rate", "0.01", "per-page-read latency-spike prob.");
  flags.Define("spike_us", "300", "latency spike duration (us)");
  flags.Define("crash_period_ms", "2500", "time between server crashes");
  flags.Define("crash_down_ms", "600", "how long a crashed server is down");
  flags.Define("retries", "2", "cluster retry budget per attempt");
  flags.Define("report_every_s", "1", "snapshot reporter interval (s)");
  flags.Define("prom_out", "", "periodic Prometheus text dump path");
  flags.Define("json_lines", "", "periodic JSON-lines path (- = stdout)");
  flags.Define("metrics_dump", "", "final Prometheus text dump path");
  flags.Define("trace_out", "", "Chrome trace output path");
  flags.Define("json", "", "write the summary record to this file");
  flags.Define("seed", "1", "workload seed");
  flags.Define("store_dir", "",
               "replica store directory (empty = temp dir, removed on exit)");
  flags.Define("mismatch_tolerance_pct", "5",
               "max |attributed - e2e| / e2e, in percent");
  Status parsed = flags.Parse(argc, argv);
  if (parsed.IsNotFound()) return 0;
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }

  auto backend = ParseBackend(flags.GetString("backend"));
  if (!backend.ok()) {
    std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
    return 2;
  }
  const size_t n = static_cast<size_t>(flags.GetInt("n"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const bool chaos = flags.GetBool("chaos");

  // Fresh registry state (the process-global one) for a clean run.
  obs::MetricsRegistry::Global()->ResetValues();
  const bool tracing = !flags.GetString("trace_out").empty();
  if (tracing) obs::Tracer::Global()->Enable();

  // --- dataset + replicated cluster over persisted stores --------------
  std::printf("building %zu-object dataset + %" PRId64 "x%" PRId64
              " replicated cluster (%s)...\n",
              n, flags.GetInt("servers"), flags.GetInt("replication"),
              flags.GetString("backend").c_str());
  TychoLikeOptions gen;
  gen.n = n;
  gen.seed = seed + 41;
  const Dataset dataset = MakeTychoLikeDataset(gen);

  std::string store_dir = flags.GetString("store_dir");
  bool remove_store = false;
  if (store_dir.empty()) {
    store_dir = (std::filesystem::temp_directory_path() /
                 ("msq_load_" + std::to_string(::getpid())))
                    .string();
    remove_store = true;
  }
  std::error_code ec;
  std::filesystem::create_directories(store_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create store_dir %s: %s\n",
                 store_dir.c_str(), ec.message().c_str());
    return 2;
  }

  ClusterOptions copts;
  copts.num_servers = static_cast<size_t>(flags.GetInt("servers"));
  copts.replication_factor = static_cast<size_t>(flags.GetInt("replication"));
  copts.server_options.backend = *backend;
  copts.server_options.multi.max_batch_size =
      std::max<size_t>(static_cast<size_t>(flags.GetInt("batch")), 32);
  // Attribution needs sequential per-partition execution: attributed
  // component times are wall times and must stay additive (see header).
  copts.use_threads = false;
  copts.seed = seed + 5;
  copts.retry.max_retries = static_cast<int>(flags.GetInt("retries"));
  copts.retry.initial_backoff = std::chrono::microseconds(100);
  copts.breaker.failure_threshold = 3;
  copts.breaker.open_cooldown = std::chrono::milliseconds(200);
  copts.store_dir = store_dir;
  std::vector<std::shared_ptr<robust::FaultInjector>> injectors;
  if (chaos) {
    for (size_t s = 0; s < copts.num_servers; ++s) {
      robust::FaultPlan plan;
      plan.seed = seed * 1009 + s;
      plan.page_read_fault_rate = flags.GetDouble("fault_rate");
      plan.latency_spike_rate = flags.GetDouble("spike_rate");
      plan.latency_spike =
          std::chrono::microseconds(flags.GetInt("spike_us"));
      injectors.push_back(std::make_shared<robust::FaultInjector>(plan));
    }
    copts.server_faults = injectors;
  }
  auto cluster =
      SharedNothingCluster::Create(dataset, bench::BenchMetric(), copts);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster create failed: %s\n",
                 cluster.status().ToString().c_str());
    return 2;
  }
  SharedNothingCluster* cl = cluster->get();

  // --- scheduler with attribution + windowed latency --------------------
  MismatchTracker mismatch;
  ThreadPool pool(2);
  BatchSchedulerOptions sopts;
  sopts.max_batch_size = static_cast<size_t>(flags.GetInt("batch"));
  sopts.flush_deadline = std::chrono::microseconds(flags.GetInt("flush_us"));
  sopts.max_pending = static_cast<size_t>(flags.GetInt("max_pending"));
  sopts.latency_window_seconds = flags.GetDouble("window_s");
  sopts.executor = [cl](const std::vector<Query>& queries, QueryStats* stats) {
    return cl->ExecuteBatch(queries, stats);
  };
  sopts.admission_check = [cl] { return cl->QuorumStatus(); };
  sopts.attribution_hook = [&mismatch](const obs::BatchAttribution& attr) {
    mismatch.Record(attr);
  };
  AggregateStats agg;
  BatchScheduler scheduler(nullptr, &pool, sopts, &agg);

  // --- periodic reporter -------------------------------------------------
  ChaosMonkey monkey(injectors,
                     std::chrono::milliseconds(flags.GetInt("crash_period_ms")),
                     std::chrono::milliseconds(flags.GetInt("crash_down_ms")));
  std::FILE* json_lines = nullptr;
  bool close_json_lines = false;
  const std::string json_lines_path = flags.GetString("json_lines");
  if (json_lines_path == "-") {
    json_lines = stdout;
  } else if (!json_lines_path.empty()) {
    json_lines = std::fopen(json_lines_path.c_str(), "wb");
    close_json_lines = json_lines != nullptr;
  }
  obs::SnapshotReporterOptions ropts;
  ropts.interval =
      std::chrono::milliseconds(1000 * std::max<int64_t>(
                                            flags.GetInt("report_every_s"), 1));
  ropts.prometheus_path = flags.GetString("prom_out");
  ropts.json_stream = json_lines;
  obs::SnapshotReporter reporter(
      obs::MetricsRegistry::Global(), ropts, [&] {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"submitted\": %" PRIu64 ", \"batches\": %" PRIu64
                      ", \"crashes\": %" PRIu64 ", \"chaos_active\": %s",
                      scheduler.queries_submitted(), mismatch.batches(),
                      monkey.crashes(),
                      monkey.chaos_active() ? "true" : "false");
        return std::string(buf);
      });
  if (!ropts.prometheus_path.empty() || json_lines != nullptr)
    reporter.Start();

  // --- run the load ------------------------------------------------------
  load::LoadOptions lopts;
  lopts.target_qps = flags.GetDouble("qps");
  lopts.duration = std::chrono::milliseconds(
      static_cast<int64_t>(1000 * flags.GetDouble("duration_s")));
  lopts.num_producers = static_cast<size_t>(flags.GetInt("producers"));
  lopts.num_waiters = static_cast<size_t>(flags.GetInt("waiters"));
  lopts.seed = seed;
  lopts.num_objects = n;
  const double zipf_s = flags.GetDouble("zipf_s");
  for (const std::string& spec_str : [&] {
         std::vector<std::string> parts;
         const std::string all = flags.GetString("tenants");
         size_t pos = 0;
         while (pos <= all.size()) {
           const size_t comma = all.find(',', pos);
           if (comma == std::string::npos) {
             parts.push_back(all.substr(pos));
             break;
           }
           parts.push_back(all.substr(pos, comma - pos));
           pos = comma + 1;
         }
         return parts;
       }()) {
    // name:weight:k
    load::TenantSpec spec;
    spec.zipf_s = zipf_s;
    const size_t c1 = spec_str.find(':');
    if (c1 == std::string::npos) {
      spec.name = spec_str;
    } else {
      spec.name = spec_str.substr(0, c1);
      const size_t c2 = spec_str.find(':', c1 + 1);
      spec.weight = std::atof(spec_str.substr(c1 + 1, c2 - c1 - 1).c_str());
      if (c2 != std::string::npos)
        spec.k = static_cast<size_t>(std::atoi(spec_str.substr(c2 + 1).c_str()));
    }
    if (!spec.name.empty()) lopts.tenants.push_back(std::move(spec));
  }

  // Query points come from the *global* dataset (cluster answer ids are
  // global), sampled by the tenant's Zipf popularity.
  load::LoadGenerator generator(
      &scheduler, lopts,
      [&dataset](const load::TenantSpec& tenant, uint64_t object_id) {
        Query q;
        q.point = dataset.object(
            static_cast<ObjectId>(object_id % dataset.size()));
        q.type = QueryType::Knn(tenant.k);
        return q;
      });

  std::printf("running %.1fs of %.0f qps open-loop load (chaos=%s)...\n",
              flags.GetDouble("duration_s"), lopts.target_qps,
              chaos ? "on" : "off");
  monkey.Start();
  WallTimer run_timer;
  load::LoadResult result = generator.Run();
  scheduler.Drain();
  const double run_wall_s = run_timer.ElapsedMicros() / 1e6;
  monkey.Stop();
  reporter.TickNow();
  reporter.Stop();
  if (close_json_lines) std::fclose(json_lines);

  // --- report ------------------------------------------------------------
  const double p50_ms = result.LatencyPercentileMicros(50) / 1e3;
  const double p99_ms = result.LatencyPercentileMicros(99) / 1e3;
  const double p999_ms = result.LatencyPercentileMicros(99.9) / 1e3;
  const double mismatch_pct = mismatch.MismatchPct();
  const double tolerance = flags.GetDouble("mismatch_tolerance_pct");

  std::printf("\n=== load harness (%s, chaos=%s) ===\n",
              flags.GetString("backend").c_str(), chaos ? "on" : "off");
  std::printf("wall          %.2f s (load %.2f s)\n", run_wall_s,
              result.wall_seconds);
  std::printf("submitted     %" PRIu64 "\n", result.submitted);
  std::printf("ok            %" PRIu64 "  (%.1f qps)\n", result.ok,
              result.achieved_qps());
  std::printf("shed          %" PRIu64 "\n", result.shed);
  std::printf("rejected      %" PRIu64 "\n", result.rejected);
  std::printf("failed        %" PRIu64 "\n", result.failed);
  std::printf("coalesced     %" PRIu64 "\n", scheduler.queries_coalesced());
  std::printf("batches       %" PRIu64 "\n", scheduler.batches_executed());
  std::printf("crashes       %" PRIu64 "  failovers %" PRIu64
              "  retries %" PRIu64 "\n",
              monkey.crashes(), cl->failovers(), cl->retries_attempted());
  std::printf("latency (from scheduled arrival)  p50 %.2f ms  p99 %.2f ms  "
              "p999 %.2f ms\n",
              p50_ms, p99_ms, p999_ms);
  for (const load::TenantResult& tr : result.tenants) {
    std::printf("  tenant %-12s submitted %8" PRIu64 "  ok %8" PRIu64
                "  shed %6" PRIu64 "  failed %6" PRIu64 "\n",
                tr.name.c_str(), tr.submitted, tr.ok, tr.shed, tr.failed);
  }

  // Per-component p99 out of the registry's attribution histograms.
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();
  std::printf("attribution (p99 per batch, ms):\n");
  std::vector<std::pair<std::string, double>> comp_p99;
  for (size_t c = 0; c < obs::kNumLatencyComponents; ++c) {
    const char* comp_name =
        obs::LatencyComponentName(static_cast<obs::LatencyComponent>(c));
    obs::Histogram* h = reg->GetHistogram(
        "msq_latency_component_seconds", obs::LatencySecondsBoundaries(), "",
        std::string("component=\"") + comp_name + "\"");
    const auto snap = h->Snap();
    const double p99_comp_ms = snap.Percentile(99) * 1e3;
    comp_p99.emplace_back(comp_name, p99_comp_ms);
    std::printf("  %-12s count %8" PRIu64 "  p99 %9.3f ms\n", comp_name,
                snap.count, p99_comp_ms);
  }
  std::printf("attribution mismatch  %.2f%% (tolerance %.1f%%) over %" PRIu64
              " batches\n",
              mismatch_pct, tolerance, mismatch.batches());

  if (!flags.GetString("metrics_dump").empty()) {
    const std::string text = reg->RenderPrometheusText();
    std::FILE* f = std::fopen(flags.GetString("metrics_dump").c_str(), "wb");
    if (f != nullptr) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    }
  }
  if (tracing) {
    Status st = obs::Tracer::Global()->WriteChromeTrace(
        flags.GetString("trace_out"));
    if (!st.ok())
      std::fprintf(stderr, "trace export failed: %s\n", st.ToString().c_str());
  }

  bench::BenchJsonWriter json(flags.GetString("json"));
  json.BeginRecord("load_harness");
  json.Str("backend", flags.GetString("backend"));
  json.Int("n", static_cast<int64_t>(n));
  json.Int("servers", flags.GetInt("servers"));
  json.Int("replication", flags.GetInt("replication"));
  json.Num("target_qps", lopts.target_qps);
  json.Num("duration_s", flags.GetDouble("duration_s"));
  json.Int("chaos", chaos ? 1 : 0);
  json.Num("fault_rate", flags.GetDouble("fault_rate"));
  json.Num("spike_rate", flags.GetDouble("spike_rate"));
  json.Num("wall_s", run_wall_s);
  json.Int("submitted", static_cast<int64_t>(result.submitted));
  json.Int("ok", static_cast<int64_t>(result.ok));
  json.Int("shed", static_cast<int64_t>(result.shed));
  json.Int("rejected", static_cast<int64_t>(result.rejected));
  json.Int("failed", static_cast<int64_t>(result.failed));
  json.Num("achieved_qps", result.achieved_qps());
  json.Int("coalesced", static_cast<int64_t>(scheduler.queries_coalesced()));
  json.Int("batches", static_cast<int64_t>(scheduler.batches_executed()));
  json.Int("crashes", static_cast<int64_t>(monkey.crashes()));
  json.Int("failovers", static_cast<int64_t>(cl->failovers()));
  json.Int("retries", static_cast<int64_t>(cl->retries_attempted()));
  json.Num("p50_ms", p50_ms);
  json.Num("p99_ms", p99_ms);
  json.Num("p999_ms", p999_ms);
  for (const auto& [comp_name, value] : comp_p99)
    json.Num("comp_p99_ms_" + comp_name, value);
  json.Num("attribution_mismatch_pct", mismatch_pct);
  Status wrote = json.Write();

  if (remove_store) std::filesystem::remove_all(store_dir, ec);

  // --- the gate ----------------------------------------------------------
  int rc = 0;
  if (!wrote.ok()) rc = 1;
  if (result.ok == 0) {
    std::fprintf(stderr, "FAIL: no queries completed\n");
    rc = 1;
  }
  if (mismatch.batches() == 0) {
    std::fprintf(stderr, "FAIL: no batch attribution recorded\n");
    rc = 1;
  }
  if (mismatch_pct > tolerance) {
    std::fprintf(stderr,
                 "FAIL: attributed component times disagree with measured "
                 "e2e latency by %.2f%% (> %.1f%%)\n",
                 mismatch_pct, tolerance);
    rc = 1;
  }
  for (const auto& [comp_name, value] : comp_p99) {
    (void)value;
    obs::Histogram* h = reg->GetHistogram(
        "msq_latency_component_seconds", obs::LatencySecondsBoundaries(), "",
        std::string("component=\"") + comp_name + "\"");
    if (h->Count() == 0) {
      std::fprintf(stderr, "FAIL: component %s never observed\n",
                   comp_name.c_str());
      rc = 1;
    }
  }
  std::printf("%s\n", rc == 0 ? "PASS" : "FAIL");
  return rc;
}

}  // namespace
}  // namespace msq

int main(int argc, char** argv) { return msq::Main(argc, argv); }
