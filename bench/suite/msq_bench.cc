// msq_bench: the benchmark program. Runs one workload (or all three) and
// prints, as its last line per workload, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With trace=0 the metrics are the end-to-end ones, measured untraced.
// With trace=1 the workload runs untraced and then traced in this process,
// and the metrics are the per-layer ones, including the tracing overhead;
// the traced pass's spans go to trace_out as a Chrome trace.
//
// A failed correctness gate prints the reason to stderr, no result, and
// exits 1.
//
//   msq_bench workload=serve seed=1 seconds=30 trace=0

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <span>

#include "workloads.h"

namespace msq::suite {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"p50_ms", "ms"},
    {"tail_ms", "ms"},
};

constexpr MetricSpec kLayers[] = {
    {"load.gen_lag_p99_ms", "ms"},
    {"service.batch_size_mean", "count"},
    {"service.queue_wait_p99_ms", "ms"},
    {"service.coalesced_share", "share"},
    {"service.deadline_flush_share", "share"},
    {"parallel.exec_p50_ms", "ms"},
    {"parallel.exec_p99_ms", "ms"},
    {"parallel.exec_us_per_query", "us"},
    {"parallel.pool_busy_share", "share"},
    {"parallel.skew_p99_ms", "ms"},
    {"parallel.lock_wait_share", "share"},
    {"core.dists_per_query", "count"},
    {"core.avoided_share", "share"},
    {"core.triangle_tries_per_query", "count"},
    {"core.matrix_share", "share"},
    {"core.speculative_share", "share"},
    {"core.window_us_per_query", "us"},
    {"dist.rows_per_call", "count"},
    {"dist.ns_per_row", "ns"},
    {"dist.busy_share", "share"},
    {"storage.page_reads_per_query", "count"},
    {"storage.buffer_hit_ratio", "share"},
    {"storage.page_io_share", "share"},
    {"storage.read_block_cold_us", "us"},
    {"storage.read_block_warm_us", "us"},
    {"storage.wal_bytes_per_user_byte", "share"},
    {"storage.checkpoints", "count"},
    {"storage.checkpoint_p50_ms", "ms"},
    {"storage.checkpoint_max_ms", "ms"},
    {"storage.rewrite_bytes_per_user_byte", "share"},
    {"storage.recover_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

using WorkloadFn = PassResult (*)(const Config&, SpanLog*);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> workloads = {
      {"serve", &RunServe}, {"mine", &RunMine}, {"ingest", &RunIngest}};
  return workloads;
}

/// Renders the result line with `specs` in order; a metric the workload
/// did not report (a layer it does not use) is 0. A reported name outside
/// `specs` is a bug in this program.
StatusOr<std::string> ResultLine(const PassResult& r,
                                 std::span<const MetricSpec> specs,
                                 const std::vector<Value>& values) {
  std::map<std::string, double> by_name;
  for (const Value& v : values) by_name[v.name] = v.value;
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (const MetricSpec& spec : specs) {
    auto it = by_name.find(spec.name);
    const double value = it == by_name.end() ? 0.0 : it->second;
    if (it != by_name.end()) by_name.erase(it);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  &spec == specs.data() ? "" : ", ", spec.name, value,
                  spec.unit);
    line += buf;
  }
  if (!by_name.empty()) {
    return Status::Internal("unlisted metric " + by_name.begin()->first);
  }
  return line + "}}";
}

int Fail(const std::string& what, const std::string& why) {
  std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), why.c_str());
  return 1;
}

/// Prints the result line of `r`, the last line of a successful run.
int PrintResult(const std::string& name, const PassResult& r,
                std::span<const MetricSpec> specs,
                const std::vector<Value>& values) {
  StatusOr<std::string> line = ResultLine(r, specs, values);
  if (!line.ok()) return Fail(name, line.status().ToString());
  std::printf("%s\n", line->c_str());
  std::fflush(stdout);
  return 0;
}

int RunOne(const std::string& name, WorkloadFn fn, const Config& cfg,
           bool trace, const std::string& trace_out) {
  std::printf("== %s (seed %" PRIu64 ", %.1f s%s) ==\n", name.c_str(),
              cfg.seed, cfg.seconds, trace ? ", traced" : "");
  std::fflush(stdout);
  const PassResult result = fn(cfg, nullptr);
  if (!result.error.empty()) return Fail(name, result.error);
  if (!trace) return PrintResult(name, result, kEndToEnd, result.end_to_end);

  SpanLog spans;
  PassResult traced = fn(cfg, &spans);
  if (!traced.error.empty()) return Fail(name + " (traced)", traced.error);
  traced.layers.push_back(
      {"obs.trace_overhead_pct", "%",
       100.0 * (Ratio(traced.primary_cost, result.primary_cost) - 1.0)});
  if (!trace_out.empty()) {
    if (Status st = spans.WriteChromeTrace(trace_out); !st.ok()) {
      return Fail(name, st.ToString());
    }
    std::printf("%zu spans written to %s\n", spans.size(), trace_out.c_str());
  }
  return PrintResult(name, traced, kLayers, traced.layers);
}

int Main(int argc, char** argv) {
  Flags flags;
  flags.Define("workload", "all", "serve | mine | ingest | all");
  flags.Define("seed", "1", "derives every dataset, sample and schedule");
  flags.Define("seconds", "30", "measured time of one pass");
  flags.Define("trace", "0", "1: untraced then traced pass, per-layer metrics");
  flags.Define("scale", "full", "full | smoke (tiny sizes, gates only)");
  flags.Define("work_dir", ".msq_bench_work",
               "directory for page stores and WAL files (removed at exit)");
  flags.Define("trace_out", "", "Chrome trace of the traced pass ('' = none)");
  Status parsed = flags.Parse(argc, argv);
  if (parsed.IsNotFound()) return 0;
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  const std::string workload = flags.GetString("workload");
  const std::string scale = flags.GetString("scale");
  Config cfg;
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  cfg.seconds = flags.GetDouble("seconds");
  cfg.smoke = scale == "smoke";
  if (cfg.smoke) cfg.setups = 1;
  if ((workload != "all" && Workloads().count(workload) == 0) ||
      (scale != "full" && scale != "smoke") || cfg.seed == 0 ||
      !(cfg.seconds > 0.0)) {
    std::fprintf(stderr, "bad arguments\n%s",
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  cfg.work_dir =
      flags.GetString("work_dir") + "/run" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", cfg.work_dir.c_str());
    return 2;
  }

  int rc = 0;
  for (const auto& [name, fn] : Workloads()) {
    if (workload != "all" && workload != name) continue;
    std::string trace_out = flags.GetString("trace_out");
    if (!trace_out.empty() && workload == "all") trace_out += "." + name;
    rc = RunOne(name, fn, cfg, flags.GetInt("trace") != 0, trace_out);
    if (rc != 0) break;
  }
  std::filesystem::remove_all(cfg.work_dir, ec);
  return rc;
}

}  // namespace
}  // namespace msq::suite

int main(int argc, char** argv) { return msq::suite::Main(argc, argv); }
