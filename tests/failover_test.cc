// Tests of replicated declustering and automatic failover: chained replica
// placement, bit-identical answers under single-server loss, the per-server
// circuit breaker (trip, skip, half-open probe, close), quorum reporting,
// the per-server attempt counts of ExecuteMultipleAllPartial, and the
// concurrent-batches-vs-flapping-server stress the TSan CI job runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "parallel/cluster.h"
#include "parallel/decluster.h"
#include "parallel/thread_pool.h"
#include "robust/fault_injector.h"
#include "service/batch_scheduler.h"
#include "tests/test_util.h"

namespace msq {
namespace {

using testing::BruteForceQuery;
using testing::SameAnswers;

// ---------------------------------------------------------------------
// Replica placement
// ---------------------------------------------------------------------

TEST(FailoverPlacementTest, ChainedPlacementUsesDistinctConsecutiveServers) {
  auto got = PlaceReplicas(6, 6, 3);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 6u);
  for (size_t p = 0; p < 6; ++p) {
    ASSERT_EQ((*got)[p].size(), 3u);
    EXPECT_EQ((*got)[p][0], p) << "entry 0 must be the primary";
    std::set<size_t> distinct((*got)[p].begin(), (*got)[p].end());
    EXPECT_EQ(distinct.size(), 3u) << "replicas of partition " << p
                                   << " must land on distinct servers";
    for (size_t j = 0; j < 3; ++j) EXPECT_EQ((*got)[p][j], (p + j) % 6);
  }
  // With one partition per server, every server hosts exactly r partitions
  // — losing one server spreads its load over the next r-1 in the chain.
  std::vector<size_t> hosted(6, 0);
  for (const auto& replicas : *got) {
    for (size_t server : replicas) ++hosted[server];
  }
  for (size_t server = 0; server < 6; ++server) EXPECT_EQ(hosted[server], 3u);
}

TEST(FailoverPlacementTest, RejectsDegenerateArguments) {
  EXPECT_TRUE(PlaceReplicas(0, 4, 1).status().IsInvalidArgument());
  EXPECT_TRUE(PlaceReplicas(4, 0, 1).status().IsInvalidArgument());
  EXPECT_TRUE(PlaceReplicas(4, 4, 0).status().IsInvalidArgument());
  EXPECT_TRUE(PlaceReplicas(4, 4, 5).status().IsInvalidArgument());
  // r == s is the full-replication boundary and is legal.
  EXPECT_TRUE(PlaceReplicas(4, 4, 4).ok());
}

// ---------------------------------------------------------------------
// Cluster failover
// ---------------------------------------------------------------------

struct FailoverFixture {
  Dataset dataset;
  std::shared_ptr<const Metric> metric;
  std::vector<std::shared_ptr<robust::FaultInjector>> injectors;
  std::unique_ptr<SharedNothingCluster> cluster;
};

struct FailoverConfig {
  size_t servers = 4;
  size_t replication_factor = 2;
  ClusterRetryPolicy retry;
  CircuitBreakerOptions breaker;
  const obs::MetricsSink* metrics = nullptr;
  /// Run partitions on this pool instead of a cluster-owned one.
  ThreadPool* shared_pool = nullptr;
};

FailoverFixture MakeReplicatedCluster(uint64_t seed,
                                      const FailoverConfig& cfg = {}) {
  FailoverFixture fx;
  fx.dataset = MakeUniformDataset(800, 4, seed);
  fx.metric = std::make_shared<EuclideanMetric>();
  ClusterOptions options;
  options.num_servers = cfg.servers;
  options.replication_factor = cfg.replication_factor;
  options.strategy = DeclusterStrategy::kRoundRobin;
  options.server_options.backend = BackendKind::kLinearScan;
  options.server_options.page_size_bytes = 2048;
  options.retry = cfg.retry;
  options.breaker = cfg.breaker;
  options.metrics = cfg.metrics;
  options.shared_pool = cfg.shared_pool;
  robust::FaultPlan plan;
  plan.metrics = nullptr;
  for (size_t i = 0; i < cfg.servers; ++i) {
    fx.injectors.push_back(std::make_shared<robust::FaultInjector>(plan));
  }
  options.server_faults = fx.injectors;
  auto cluster = SharedNothingCluster::Create(fx.dataset, fx.metric, options);
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  fx.cluster = std::move(cluster).value();
  return fx;
}

std::vector<Query> FailoverQueries(const Dataset& ds, uint64_t id_base = 700) {
  std::vector<Query> queries;
  for (uint64_t i = 0; i < 6; ++i) {
    queries.push_back(Query{id_base + i,
                            ds.object(static_cast<ObjectId>(i * 13)),
                            i % 2 == 0 ? QueryType::Knn(5)
                                       : QueryType::Range(0.25)});
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

// The acceptance bar of the failover layer: replication_factor = 2, any
// single server crashed, and ExecuteMultipleAll still returns ok() with
// answers bit-identical to the fault-free run; the partial surface shows
// no missing partition and the failover counter fired.
TEST(FailoverClusterTest, SingleCrashYieldsBitIdenticalAnswers) {
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(&registry, nullptr);

  FailoverFixture reference = MakeReplicatedCluster(2101);
  const std::vector<Query> queries = FailoverQueries(reference.dataset);
  auto expected = reference.cluster->ExecuteMultipleAll(queries);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (size_t crashed = 0; crashed < 4; ++crashed) {
    FailoverConfig cfg;
    cfg.metrics = &sink;
    FailoverFixture fx = MakeReplicatedCluster(2101, cfg);
    fx.injectors[crashed]->Crash();

    auto got = fx.cluster->ExecuteMultipleAll(queries);
    ASSERT_TRUE(got.ok())
        << "crashed " << crashed << ": " << got.status().ToString();
    EXPECT_TRUE(BitIdentical(*got, *expected)) << "crashed " << crashed;
    EXPECT_GE(fx.cluster->failovers(), 1u);

    // Fresh queries so the partial call does real work instead of serving
    // buffered answers.
    auto partial =
        fx.cluster->ExecuteMultipleAllPartial(FailoverQueries(
            fx.dataset, 800 + 10 * crashed));
    ASSERT_TRUE(partial.ok());
    EXPECT_TRUE(partial->missing_servers.empty())
        << "crashed " << crashed << ": failover must leave no partition lost";
    EXPECT_GE(partial->failovers, 1u);
    EXPECT_GE(partial->replica_reissues, 1u);
  }
  EXPECT_GE(
      registry.GetCounter("msq_cluster_failovers_total")->Value(), 4u);
  EXPECT_GE(
      registry.GetCounter("msq_cluster_replica_reissues_total")->Value(), 4u);
}

// Chained placement, r = 2: partition p lives on servers p and p+1, so
// crashing servers 1 and 2 kills both replicas of partition 1 — true
// quorum loss. The strict path names the lost partition; the partial path
// serves the survivors and reports exactly that partition missing.
TEST(FailoverClusterTest, AllReplicasDownNamesLostPartitions) {
  FailoverFixture fx = MakeReplicatedCluster(2103);
  const std::vector<Query> queries = FailoverQueries(fx.dataset);
  fx.injectors[1]->Crash();
  fx.injectors[2]->Crash();

  auto strict = fx.cluster->ExecuteMultipleAll(queries);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsUnavailable()) << strict.status().ToString();
  const std::string& msg = strict.status().message();
  EXPECT_NE(msg.find("1 of 4 servers failed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("server 1"), std::string::npos) << msg;

  auto partial = fx.cluster->ExecuteMultipleAllPartial(queries);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->missing_servers, (std::vector<size_t>{1}));

  // Oracle: the merged answers are exact over the surviving partitions.
  std::vector<Vec> surviving;
  std::vector<ObjectId> surviving_global;
  for (size_t p = 0; p < 4; ++p) {
    if (p == 1) continue;
    for (ObjectId global : fx.cluster->partitions()[p]) {
      surviving.push_back(fx.dataset.object(global));
      surviving_global.push_back(global);
    }
  }
  Dataset surviving_ds(fx.dataset.dim(), surviving);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    AnswerSet expected = BruteForceQuery(surviving_ds, *fx.metric, queries[qi]);
    for (Neighbor& nb : expected) nb.id = surviving_global[nb.id];
    std::sort(expected.begin(), expected.end());
    EXPECT_TRUE(SameAnswers(partial->answers[qi], expected)) << "query " << qi;
  }
}

// Satellite: a server that succeeded only after transient-fault retries is
// invisible in server_status (OK) but visible in server_attempts.
TEST(FailoverClusterTest, AttemptsExposeRetriedSuccess) {
  FailoverConfig cfg;
  cfg.retry.max_retries = 2;
  FailoverFixture fx = MakeReplicatedCluster(2105, cfg);
  const std::vector<Query> queries = FailoverQueries(fx.dataset);
  fx.injectors[2]->FailNextPageReads(1);

  auto got = fx.cluster->ExecuteMultipleAllPartial(queries);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->missing_servers.empty());
  ASSERT_EQ(got->server_attempts.size(), 4u);
  ASSERT_EQ(got->server_status.size(), 4u);
  // The retried server: OK status, but the extra attempt is on record.
  EXPECT_TRUE(got->server_status[2].ok());
  EXPECT_EQ(got->server_attempts[2], 2);
  // Healthy servers ran their primary partition exactly once.
  EXPECT_EQ(got->server_attempts[0], 1);
  EXPECT_EQ(got->server_attempts[1], 1);
  EXPECT_EQ(got->server_attempts[3], 1);
  EXPECT_EQ(got->failovers, 0u);
  EXPECT_EQ(got->replica_reissues, 0u);
  EXPECT_EQ(fx.cluster->retries_attempted(), 1u);
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

// Two consecutive failed calls trip the breaker; with the cooldown still
// running, later calls skip the server outright (zero attempts) and serve
// its partitions from replicas.
TEST(FailoverBreakerTest, OpensAfterConsecutiveFailuresAndSkips) {
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(&registry, nullptr);
  FailoverConfig cfg;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.open_cooldown = std::chrono::minutes(10);
  cfg.metrics = &sink;
  FailoverFixture fx = MakeReplicatedCluster(2107, cfg);
  fx.injectors[0]->Crash();

  for (int call = 0; call < 2; ++call) {
    auto got = fx.cluster->ExecuteMultipleAllPartial(
        FailoverQueries(fx.dataset, 700 + 10 * call));
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->missing_servers.empty()) << "call " << call;
    EXPECT_EQ(got->server_attempts[0], 1) << "call " << call;
  }
  EXPECT_EQ(fx.cluster->breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(registry
                .GetGauge("msq_cluster_breaker_state", "", "server=\"0\"")
                ->Value(),
            static_cast<int64_t>(BreakerState::kOpen));

  // Third call: the open breaker refuses server 0 before any I/O — its
  // partition goes straight to the replica.
  auto got = fx.cluster->ExecuteMultipleAllPartial(
      FailoverQueries(fx.dataset, 760));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->missing_servers.empty());
  EXPECT_EQ(got->server_attempts[0], 0);
  EXPECT_GE(got->replica_reissues, 1u);
  // Breaker-skip is not a new server loss: no failover event this call.
  EXPECT_EQ(got->failovers, 0u);
}

// With the cooldown elapsed (zero here), the next call admits exactly one
// probe. Against a still-down server the probe fails and re-opens the
// breaker; after Restore() the probe succeeds and closes it.
TEST(FailoverBreakerTest, HalfOpenProbeReopensThenClosesAfterRestore) {
  FailoverConfig cfg;
  cfg.breaker.failure_threshold = 1;
  cfg.breaker.open_cooldown = std::chrono::microseconds(0);
  FailoverFixture fx = MakeReplicatedCluster(2109, cfg);
  fx.injectors[0]->Crash();

  auto first = fx.cluster->ExecuteMultipleAllPartial(
      FailoverQueries(fx.dataset, 700));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->missing_servers.empty());
  EXPECT_EQ(fx.cluster->breaker_state(0), BreakerState::kOpen);

  // Probe against the still-down server: fails, breaker re-opens.
  auto second = fx.cluster->ExecuteMultipleAllPartial(
      FailoverQueries(fx.dataset, 710));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->missing_servers.empty());
  EXPECT_EQ(second->server_attempts[0], 1);
  EXPECT_EQ(fx.cluster->breaker_state(0), BreakerState::kOpen);

  fx.injectors[0]->Restore();
  auto third = fx.cluster->ExecuteMultipleAllPartial(
      FailoverQueries(fx.dataset, 720));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->missing_servers.empty());
  EXPECT_EQ(fx.cluster->breaker_state(0), BreakerState::kClosed);

  // Healthy again: the next call runs its primary partition normally.
  auto fourth = fx.cluster->ExecuteMultipleAllPartial(
      FailoverQueries(fx.dataset, 730));
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth->server_attempts[0], 1);
  EXPECT_EQ(fourth->replica_reissues, 0u);
}

// ---------------------------------------------------------------------
// Quorum
// ---------------------------------------------------------------------

// Unreplicated cluster, breaker open with a long cooldown: partition 0 has
// no admissible replica, so quorum is lost and QuorumStatus names it —
// the signal BatchSchedulerOptions::admission_check turns into load
// shedding.
TEST(FailoverQuorumTest, LostPartitionDropsQuorum) {
  FailoverConfig cfg;
  cfg.replication_factor = 1;
  cfg.breaker.failure_threshold = 1;
  cfg.breaker.open_cooldown = std::chrono::minutes(10);
  FailoverFixture fx = MakeReplicatedCluster(2111, cfg);
  EXPECT_TRUE(fx.cluster->HasQuorum());

  fx.injectors[0]->Crash();
  auto got = fx.cluster->ExecuteMultipleAllPartial(
      FailoverQueries(fx.dataset));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->missing_servers, (std::vector<size_t>{0}));

  EXPECT_FALSE(fx.cluster->HasQuorum());
  Status quorum = fx.cluster->QuorumStatus();
  EXPECT_TRUE(quorum.IsResourceExhausted()) << quorum.ToString();
  EXPECT_NE(quorum.message().find("partition(s) 0"), std::string::npos)
      << quorum.message();
}

TEST(FailoverQuorumTest, ReplicationKeepsQuorumThroughOneOpenBreaker) {
  FailoverConfig cfg;
  cfg.breaker.failure_threshold = 1;
  cfg.breaker.open_cooldown = std::chrono::minutes(10);
  FailoverFixture fx = MakeReplicatedCluster(2113, cfg);
  fx.injectors[0]->Crash();
  ASSERT_TRUE(
      fx.cluster->ExecuteMultipleAllPartial(FailoverQueries(fx.dataset)).ok());
  EXPECT_EQ(fx.cluster->breaker_state(0), BreakerState::kOpen);
  // Every partition still has a live replica: quorum holds.
  EXPECT_TRUE(fx.cluster->HasQuorum());
}

// ---------------------------------------------------------------------
// Concurrency stress (runs under TSan in CI)
// ---------------------------------------------------------------------

// Four producer threads hammer one replicated cluster while a flapper
// toggles server 1 between crashed and restored. Every partition keeps a
// never-failing replica, so every call must return complete answers
// bit-identical to the fault-free reference — no double-issued partition,
// no deadlock, no torn breaker state. TSan watches the rest.
TEST(FailoverStressTest, ConcurrentBatchesAgainstFlappingServer) {
  FailoverConfig cfg;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.open_cooldown = std::chrono::microseconds(0);
  cfg.retry.max_retries = 1;
  FailoverFixture fx = MakeReplicatedCluster(2115, cfg);

  FailoverFixture reference = MakeReplicatedCluster(2115);
  constexpr int kProducers = 4;
  constexpr int kCallsPerProducer = 10;
  std::vector<std::vector<Query>> batches;
  std::vector<std::vector<AnswerSet>> expected;
  for (int p = 0; p < kProducers; ++p) {
    batches.push_back(
        FailoverQueries(fx.dataset, 3000 + 100 * static_cast<uint64_t>(p)));
    auto got = reference.cluster->ExecuteMultipleAll(batches.back());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    expected.push_back(std::move(got).value());
  }

  std::atomic<bool> stop{false};
  std::thread flapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      fx.injectors[1]->Crash();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      fx.injectors[1]->Restore();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::atomic<int> failures{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int call = 0; call < kCallsPerProducer; ++call) {
        auto got = fx.cluster->ExecuteMultipleAllPartial(batches[p]);
        if (!got.ok() || !got->missing_servers.empty() ||
            !BitIdentical(got->answers, expected[p])) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  flapper.join();
  EXPECT_EQ(failures.load(), 0);

  // Second input, chaos under load the way serving runs: the producers
  // submit the same queries one at a time through a BatchScheduler that
  // shares its pool with the threaded cluster and sheds on lost quorum,
  // while a chaos thread crashes and restores servers round-robin. The
  // next crash waits until the restored server's breaker admits work
  // again and every execution that met the crash or routed around the
  // server has returned, so no batch finds both replicas of a partition
  // down.
  ThreadPool pool(4, nullptr);
  FailoverConfig served_cfg = cfg;
  served_cfg.shared_pool = &pool;
  FailoverFixture served = MakeReplicatedCluster(2115, served_cfg);
  // Chaos phase, bumped whenever the chaos thread waits for running
  // executions. Each execution holds the phase it started in until it
  // returns.
  std::mutex phase_mu;
  std::condition_variable phase_cv;
  int phase = 0;
  std::multiset<int> running;
  BatchSchedulerOptions sopts;
  sopts.max_batch_size = 8;
  sopts.flush_deadline = std::chrono::microseconds(500);
  sopts.metrics = nullptr;
  sopts.executor = [&](const std::vector<Query>& queries, QueryStats* stats) {
    std::multiset<int>::iterator started;
    {
      std::lock_guard<std::mutex> lock(phase_mu);
      started = running.insert(phase);
    }
    auto result = served.cluster->ExecuteBatch(queries, stats);
    {
      std::lock_guard<std::mutex> lock(phase_mu);
      running.erase(started);
    }
    phase_cv.notify_all();
    return result;
  };
  sopts.admission_check = [&served] { return served.cluster->QuorumStatus(); };
  BatchScheduler scheduler(nullptr, &pool, sopts);

  // Bumps the phase and waits out every execution that started before.
  auto wait_for_running = [&] {
    std::unique_lock<std::mutex> lock(phase_mu);
    ++phase;
    phase_cv.wait(lock, [&] {
      return stop.load(std::memory_order_relaxed) || running.empty() ||
             *running.begin() == phase;
    });
  };
  std::atomic<int> crashes{0};
  stop.store(false, std::memory_order_relaxed);
  std::thread chaos([&] {
    for (size_t victim = 0; !stop.load(std::memory_order_relaxed);
         victim = (victim + 1) % served.injectors.size()) {
      served.injectors[victim]->Crash();
      crashes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      served.injectors[victim]->Restore();
      // First no execution that met the crash may be left to trip the
      // breaker late; then the breaker must be closed; then no execution
      // that routed around the server may still be running.
      wait_for_running();
      while (!stop.load(std::memory_order_relaxed) &&
             served.cluster->breaker_state(victim) != BreakerState::kClosed) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      wait_for_running();
    }
  });

  // Each call resubmits the producer's queries under fresh ids, so the
  // engines read pages again instead of answering from their buffers.
  // Producers keep going until every server has been crashed at least once.
  const int min_crashes = static_cast<int>(served.injectors.size());
  std::atomic<int> served_failures{0};
  producers.clear();
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t call = 0;
           call < 1000 && (call < kCallsPerProducer ||
                           crashes.load(std::memory_order_relaxed) <
                               min_crashes);
           ++call) {
        std::vector<AnswerFuture> futures;
        for (Query q : batches[p]) {
          q.id += 1000 * (call + 1);
          futures.push_back(scheduler.Submit(std::move(q)));
        }
        for (size_t i = 0; i < futures.size(); ++i) {
          StatusOr<AnswerSet> got = futures[i].get();
          if (!got.ok() || !BitIdentical({*got}, {expected[p][i]})) {
            served_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  {
    std::lock_guard<std::mutex> lock(phase_mu);
    stop.store(true, std::memory_order_relaxed);
  }
  phase_cv.notify_all();
  chaos.join();
  scheduler.Drain();
  EXPECT_EQ(served_failures.load(), 0);
  EXPECT_GE(crashes.load(), min_crashes);
  EXPECT_GT(served.cluster->failovers(), 0u);
}

// ---------------------------------------------------------------------
// ExecuteBatch (the BatchScheduler executor adapter)
// ---------------------------------------------------------------------

TEST(FailoverClusterTest, ExecuteBatchMatchesExecuteMultipleAll) {
  FailoverFixture fx = MakeReplicatedCluster(2401);
  const std::vector<Query> queries = FailoverQueries(fx.dataset);

  auto expected = fx.cluster->ExecuteMultipleAll(queries);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Fresh ids, same definitions: the engines' answer buffers are keyed by
  // QueryId, so reusing ids would answer from the buffer without touching
  // storage (and without charging any engine work).
  QueryStats stats;
  std::vector<Query> fresh = FailoverQueries(fx.dataset, 760);
  auto got = fx.cluster->ExecuteBatch(fresh, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(BitIdentical(got->answers, *expected));
  ASSERT_EQ(got->statuses.size(), fresh.size());
  for (const Status& s : got->statuses) EXPECT_TRUE(s.ok());
  // The call's attribution surfaced: real engine work was charged, and
  // the coordinator-side merge time is nonzero.
  EXPECT_GT(stats.dist_computations, 0u);
  EXPECT_GT(stats.attr_merge_micros, 0.0);
}

TEST(FailoverClusterTest, ExecuteBatchSurvivesCrashAndChargesRetry) {
  FailoverConfig cfg;
  cfg.retry.max_retries = 1;
  FailoverFixture fx = MakeReplicatedCluster(2403, cfg);
  const std::vector<Query> queries = FailoverQueries(fx.dataset);

  auto expected = fx.cluster->ExecuteBatch(queries, nullptr);
  ASSERT_TRUE(expected.ok());

  fx.injectors[1]->Crash();
  // Fresh ids so the crashed server actually has to read pages (buffered
  // answers would satisfy the repeat without touching storage).
  std::vector<Query> fresh = FailoverQueries(fx.dataset, 760);
  QueryStats stats;
  auto got = fx.cluster->ExecuteBatch(fresh, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(BitIdentical(got->answers, expected->answers));
  for (const Status& s : got->statuses) EXPECT_TRUE(s.ok());
  // The crashed server's failed attempt billed its unproductive wall time
  // to the retry component.
  EXPECT_GT(stats.attr_retry_micros, 0.0);
}

TEST(FailoverClusterTest, ExecuteBatchQuorumLossFailsEveryQueryStatus) {
  FailoverFixture fx = MakeReplicatedCluster(2405);
  const std::vector<Query> queries = FailoverQueries(fx.dataset);
  // replication_factor = 2: partitions 1's replicas live on servers 1, 2.
  fx.injectors[1]->Crash();
  fx.injectors[2]->Crash();
  auto got = fx.cluster->ExecuteBatch(queries, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->statuses.size(), queries.size());
  for (const Status& s : got->statuses) {
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
    EXPECT_NE(s.message().find("partition"), std::string::npos);
  }
}

}  // namespace
}  // namespace msq
