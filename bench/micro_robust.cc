// Micro-benchmarks and scenario checks of the robustness layer.
//
// Section 1 (google-benchmark): the acceptance check is that a quiescent
// FaultInjector — wrapped but with every hazard rate at zero — adds
// nothing measurable to ExecuteAll (same standard the observability
// layer's null-sink row meets). Also times the injector's per-page
// decision itself and a deadline-armed batch, so regressions in either
// hot path show up in isolation.
//
// Section 2 (failover scenario): a 4-server replicated cluster loses one
// server (crash_server=) mid-workload. For each replication factor the run
// reports completeness (surviving partitions), bit-identity against the
// fault-free reference and failover/re-issue counts — and *enforces* the
// failover contract: with r >= 2 a single crash must leave the answers
// complete and bit-identical (exit non-zero otherwise), with r = 1 exactly
// the crashed server's partition must be reported missing, and after
// Restore() the cluster must serve complete answers again. The
// contract_failover test runs this section once per crashed server and
// pins every record's counts exactly against the committed
// bench/BENCH_failover.json baseline.
//
// Flags are key=value (json=..., r_values=...); --benchmark_* arguments
// pass through to google-benchmark. run_bench=0 skips section 1.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "core/database.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "parallel/cluster.h"
#include "robust/fault_injector.h"

namespace msq {
namespace {

StatusOr<std::unique_ptr<MetricDatabase>> OpenInjectorDb(
    std::shared_ptr<robust::FaultInjector> injector) {
  TychoLikeOptions gen;
  gen.n = 4000;
  gen.seed = 3;
  DatabaseOptions options;
  options.backend = BackendKind::kLinearScan;
  options.fault_injector = std::move(injector);
  return MetricDatabase::Open(MakeTychoLikeDataset(gen),
                              std::make_shared<EuclideanMetric>(), options);
}

/// ExecuteAll with the backend unwrapped (0), wrapped in a quiescent
/// injector (1), and wrapped with per-query deadlines armed but generous
/// (2). Rows 0 and 1 must match: an idle injector is a pointer hop plus
/// one mutexed check per page read, nothing per object.
void BM_ExecuteAllFaultWrap(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  std::shared_ptr<robust::FaultInjector> injector;
  if (mode != 0) {
    injector = std::make_shared<robust::FaultInjector>(robust::FaultPlan{});
  }
  auto db = OpenInjectorDb(injector);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }

  const size_t m = 32;
  for (auto _ : state) {
    state.PauseTiming();
    (*db)->ResetAll();
    std::vector<Query> batch;
    batch.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      Query q = (*db)->MakeObjectKnnQuery(static_cast<ObjectId>(i * 97 % 4000),
                                          10);
      if (mode == 2) {
        q.deadline = std::chrono::steady_clock::now() +
                     std::chrono::seconds(60);  // armed, never fires
      }
      batch.push_back(std::move(q));
    }
    state.ResumeTiming();
    auto got = (*db)->MultipleSimilarityQueryAll(batch);
    benchmark::DoNotOptimize(got);
  }
  static const char* const kLabels[] = {"faults=unwrapped", "faults=quiescent",
                                        "faults=quiescent+deadline"};
  state.SetLabel(kLabels[mode]);
}
BENCHMARK(BM_ExecuteAllFaultWrap)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// The injector's own per-page decision with no hazards configured: the
/// cost every wrapped page read pays even when nothing can fire.
void BM_InjectorDecisionQuiescent(benchmark::State& state) {
  robust::FaultInjector injector{robust::FaultPlan{}};
  PageId page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.OnPageRead(page++).ok());
  }
}
BENCHMARK(BM_InjectorDecisionQuiescent);

/// The decision with both probabilistic hazards armed (rates tiny so the
/// benchmark loop stays on the common no-fault path but pays the draws).
void BM_InjectorDecisionArmed(benchmark::State& state) {
  robust::FaultPlan plan;
  plan.page_read_fault_rate = 1e-9;
  plan.latency_spike_rate = 1e-9;
  robust::FaultInjector injector{plan};
  PageId page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.OnPageRead(page++).ok());
  }
}
BENCHMARK(BM_InjectorDecisionArmed);

// ---------------------------------------------------------------------
// Failover scenario
// ---------------------------------------------------------------------

/// Fixed-seed query batch; the vectors depend only on the index, so two
/// batches with different id bases are answer-identical.
std::vector<Query> ScenarioQueries(const Dataset& ds, size_t num_queries,
                                   size_t k, uint64_t id_base) {
  std::vector<Query> queries;
  queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back(Query{id_base + i,
                            ds.object(static_cast<ObjectId>(
                                (i * 131) % ds.size())),
                            QueryType::Knn(k)});
  }
  return queries;
}

bool BitIdentical(const std::vector<AnswerSet>& a,
                  const std::vector<AnswerSet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].distance != b[q][i].distance) {
        return false;
      }
    }
  }
  return true;
}

StatusOr<std::unique_ptr<SharedNothingCluster>> OpenScenarioCluster(
    const Dataset& dataset, size_t servers, size_t replication_factor,
    std::vector<std::shared_ptr<robust::FaultInjector>> injectors) {
  ClusterOptions options;
  options.num_servers = servers;
  options.replication_factor = replication_factor;
  options.strategy = DeclusterStrategy::kRoundRobin;
  options.server_options.backend = BackendKind::kLinearScan;
  options.metrics = nullptr;  // measured run: no instrument overhead
  options.server_faults = std::move(injectors);
  return SharedNothingCluster::Create(
      dataset, std::make_shared<EuclideanMetric>(), options);
}

/// One replication factor: fault-free reference, single-server crash,
/// restore. Returns false on any contract violation.
bool RunFailoverOnce(const Dataset& dataset, size_t servers,
                     size_t crash_server, size_t r, size_t num_queries,
                     size_t k, bench::BenchJsonWriter* json) {
  const std::vector<Query> queries =
      ScenarioQueries(dataset, num_queries, k, /*id_base=*/9000);

  // Fault-free reference on its own cluster, so the crashed run's breaker
  // and buffer state cannot leak into the baseline.
  auto reference = OpenScenarioCluster(dataset, servers, r, {});
  if (!reference.ok()) {
    std::fprintf(stderr, "reference cluster: %s\n",
                 reference.status().ToString().c_str());
    return false;
  }
  auto expected = (*reference)->ExecuteMultipleAll(queries);
  if (!expected.ok()) {
    std::fprintf(stderr, "fault-free run: %s\n",
                 expected.status().ToString().c_str());
    return false;
  }

  std::vector<std::shared_ptr<robust::FaultInjector>> injectors;
  robust::FaultPlan plan;
  plan.metrics = nullptr;
  for (size_t i = 0; i < servers; ++i) {
    injectors.push_back(std::make_shared<robust::FaultInjector>(plan));
  }
  auto cluster = OpenScenarioCluster(dataset, servers, r, injectors);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().ToString().c_str());
    return false;
  }

  injectors[crash_server]->Crash();
  auto got = (*cluster)->ExecuteMultipleAllPartial(queries);
  if (!got.ok()) {
    std::fprintf(stderr, "crashed run: %s\n", got.status().ToString().c_str());
    return false;
  }
  const bool complete = got->missing_servers.empty();
  const bool bit_identical = complete && BitIdentical(got->answers, *expected);
  const double completeness =
      static_cast<double>(servers - got->missing_servers.size()) /
      static_cast<double>(servers);

  // Server back: a fresh batch (new query ids, same vectors) must be
  // complete and bit-identical again without any replica re-issue.
  injectors[crash_server]->Restore();
  auto restored = (*cluster)->ExecuteMultipleAllPartial(
      ScenarioQueries(dataset, num_queries, k, /*id_base=*/9500));
  const bool restored_complete = restored.ok() &&
                                 restored->missing_servers.empty() &&
                                 BitIdentical(restored->answers, *expected);

  std::printf("r=%zu crash=%zu  complete=%d bit_identical=%d missing=%zu  "
              "failovers=%llu reissues=%llu restored=%d\n",
              r, crash_server, complete ? 1 : 0, bit_identical ? 1 : 0,
              got->missing_servers.size(),
              static_cast<unsigned long long>(got->failovers),
              static_cast<unsigned long long>(got->replica_reissues),
              restored_complete ? 1 : 0);

  if (json != nullptr && json->enabled()) {
    json->BeginRecord("micro_robust");
    json->Str("section", "failover");
    json->Int("servers", static_cast<int64_t>(servers));
    json->Int("crash_server", static_cast<int64_t>(crash_server));
    json->Int("replication_factor", static_cast<int64_t>(r));
    json->Int("num_queries", static_cast<int64_t>(num_queries));
    json->Int("k", static_cast<int64_t>(k));
    json->Int("complete", complete ? 1 : 0);
    json->Int("bit_identical", bit_identical ? 1 : 0);
    json->Int("missing_partitions",
              static_cast<int64_t>(got->missing_servers.size()));
    json->Int("failovers", static_cast<int64_t>(got->failovers));
    json->Int("replica_reissues",
              static_cast<int64_t>(got->replica_reissues));
    json->Int("restored_complete", restored_complete ? 1 : 0);
    json->Num("completeness", completeness);
  }

  // The failover contract this binary enforces (CI runs it as a check,
  // not just a measurement).
  bool ok = true;
  if (r >= 2) {
    if (!complete || !bit_identical) {
      std::fprintf(stderr,
                   "FAIL r=%zu: single crash must yield complete, "
                   "bit-identical answers\n", r);
      ok = false;
    }
    if (got->failovers < 1 || got->replica_reissues < 1) {
      std::fprintf(stderr,
                   "FAIL r=%zu: expected at least one failover/re-issue\n", r);
      ok = false;
    }
  } else {
    if (got->missing_servers != std::vector<size_t>{crash_server}) {
      std::fprintf(stderr,
                   "FAIL r=1: exactly the crashed server's partition must be "
                   "missing\n");
      ok = false;
    }
  }
  if (!restored_complete) {
    std::fprintf(stderr,
                 "FAIL r=%zu: restored server must serve complete answers\n",
                 r);
    ok = false;
  }
  return ok;
}

int RunFailoverScenario(const Flags& flags, bench::BenchJsonWriter* json) {
  const auto servers = static_cast<size_t>(flags.GetInt("servers"));
  const auto crash_server = static_cast<size_t>(flags.GetInt("crash_server"));
  const auto num_queries = static_cast<size_t>(flags.GetInt("num_queries"));
  const auto k = static_cast<size_t>(flags.GetInt("k"));
  if (crash_server >= servers) {
    std::fprintf(stderr, "crash_server must be < servers\n");
    return 1;
  }

  TychoLikeOptions gen;
  gen.n = static_cast<size_t>(flags.GetInt("n"));
  gen.seed = 3;
  const Dataset dataset = MakeTychoLikeDataset(gen);

  std::printf("\n=== failover: crash server %zu of %zu mid-workload ===\n",
              crash_server, servers);
  bool ok = true;
  for (int64_t r : flags.GetIntList("r_values")) {
    if (r < 1 || static_cast<size_t>(r) > servers) {
      std::fprintf(stderr, "replication factor %lld out of range\n",
                   static_cast<long long>(r));
      return 1;
    }
    ok = RunFailoverOnce(dataset, servers, crash_server,
                         static_cast<size_t>(r), num_queries, k, json) &&
         ok;
  }
  if (!ok) {
    std::fprintf(stderr, "\nmicro_robust: failover contract VIOLATED\n");
    return 1;
  }
  std::printf("failover contract holds for every replication factor\n");
  return 0;
}

}  // namespace
}  // namespace msq

int main(int argc, char** argv) {
  // Split key=value scenario flags from --benchmark_* pass-throughs.
  std::vector<char*> bench_args{argv[0]};
  std::vector<char*> flag_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      bench_args.push_back(argv[i]);
    } else {
      flag_args.push_back(argv[i]);
    }
  }

  msq::Flags flags;
  flags.Define("servers", "4", "cluster size of the failover scenario");
  flags.Define("crash_server", "1", "which server the scenario crashes");
  flags.Define("r_values", "1,2,3", "replication factors to sweep");
  flags.Define("n", "4000", "scenario dataset size");
  flags.Define("num_queries", "16", "queries per scenario batch");
  flags.Define("k", "10", "neighbors per query");
  flags.Define("run_bench", "1",
               "also run the google-benchmark injector rows");
  flags.Define("json", "", "write one JSON record per scenario row");
  int flag_argc = static_cast<int>(flag_args.size());
  if (msq::Status s = flags.Parse(flag_argc, flag_args.data()); !s.ok()) {
    std::printf("%s\n", s.message().c_str());
    return s.IsNotFound() ? 0 : 1;
  }

  if (flags.GetBool("run_bench")) {
    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }

  msq::bench::BenchJsonWriter json(flags.GetString("json"));
  return msq::RunFailoverScenario(flags, &json);
}
