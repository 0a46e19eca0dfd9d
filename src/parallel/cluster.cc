#include "parallel/cluster.h"

#include <algorithm>
#include <functional>
#include <string>
#include <thread>

#include "common/timer.h"
#include "robust/fault_injector.h"

namespace msq {

namespace {

using Clock = std::chrono::steady_clock;

/// Rebuilds a Status with the same code but an aggregated message (the
/// (code, message) constructor is private by design).
Status WithCode(Status::Code code, std::string msg) {
  switch (code) {
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(msg));
    case Status::Code::kIOError:
      return Status::IOError(std::move(msg));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(msg));
    case Status::Code::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case Status::Code::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case Status::Code::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case Status::Code::kInternal:
    case Status::Code::kOk:
      break;
  }
  return Status::Internal(std::move(msg));
}

/// One status naming every lost partition: "2 of 4 servers failed:
/// server 1: <msg>; server 3: <msg>". Partition p's primary is server p,
/// so the historical "server" wording stays accurate — with replication
/// an entry means *every* replica of that partition failed. The code is
/// the first failure's (ties broken by partition index, deterministic).
Status AggregateFailures(const std::vector<Status>& status) {
  size_t failed = 0;
  std::string detail;
  Status::Code code = Status::Code::kOk;
  for (size_t i = 0; i < status.size(); ++i) {
    if (status[i].ok()) continue;
    if (failed == 0) {
      code = status[i].code();
    } else {
      detail += "; ";
    }
    ++failed;
    detail += "server " + std::to_string(i) + ": " + status[i].message();
  }
  if (failed == 0) return Status::OK();
  return WithCode(code, std::to_string(failed) + " of " +
                            std::to_string(status.size()) +
                            " servers failed: " + detail);
}

}  // namespace

std::string BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<SharedNothingCluster>> SharedNothingCluster::Create(
    const Dataset& dataset, std::shared_ptr<const Metric> metric,
    const ClusterOptions& options) {
  auto partitions = DeclusterDataset(dataset, options.num_servers,
                                     options.strategy, options.seed);
  if (!partitions.ok()) return partitions.status();

  auto cluster = std::unique_ptr<SharedNothingCluster>(
      new SharedNothingCluster());
  cluster->partitions_ = std::move(partitions).value();
  cluster->num_servers_ = options.num_servers;
  cluster->replication_factor_ = options.replication_factor;
  cluster->dim_ = dataset.dim();

  auto placement =
      PlaceReplicas(cluster->partitions_.size(), options.num_servers,
                    options.replication_factor);
  if (!placement.ok()) return placement.status();
  cluster->placement_ = std::move(placement).value();

  // One complete database organization per (partition, replica). Every
  // replica of a partition is built over the same subset with the same
  // options, so its local answers are bit-identical to the primary's —
  // the property that makes failover invisible in the merged result. The
  // fault injector of the *hosting* server wraps each replica, so a crash
  // takes down the whole server (all partitions stored there) at once.
  cluster->replicas_.resize(cluster->partitions_.size());
  for (size_t p = 0; p < cluster->partitions_.size(); ++p) {
    for (size_t j = 0; j < cluster->placement_[p].size(); ++j) {
      const size_t host = cluster->placement_[p][j];
      std::shared_ptr<robust::FaultInjector> injector;
      if (host < options.server_faults.size()) {
        injector = options.server_faults[host];
      }
      StatusOr<std::unique_ptr<MetricDatabase>> db =
          Status::Internal("replica not built");
      if (options.store_dir.empty()) {
        DatabaseOptions server_options = options.server_options;
        server_options.fault_injector = std::move(injector);
        db = MetricDatabase::Open(dataset.Subset(cluster->partitions_[p]),
                                  metric, server_options);
      } else {
        // Store-backed replica: build fault-free, persist, reopen from the
        // file with the injector attached — page misses become real preads
        // and injected faults hit a real I/O path.
        DatabaseOptions build_options = options.server_options;
        build_options.fault_injector = nullptr;
        auto built = MetricDatabase::Open(
            dataset.Subset(cluster->partitions_[p]), metric, build_options);
        if (!built.ok()) return built.status();
        const std::string path = options.store_dir + "/part" +
                                 std::to_string(p) + "_rep" +
                                 std::to_string(j) + ".msq";
        if (Status saved = built.value()->Save(path); !saved.ok()) {
          return saved;
        }
        DatabaseOptions runtime = options.server_options;
        runtime.fault_injector = std::move(injector);
        db = MetricDatabase::Open(path, runtime, metric);
      }
      if (!db.ok()) return db.status();
      cluster->replicas_[p].push_back(
          Replica{std::move(db).value(), std::make_unique<std::mutex>()});
    }
  }
  cluster->health_.reserve(options.num_servers);
  for (size_t i = 0; i < options.num_servers; ++i) {
    cluster->health_.push_back(std::make_unique<ServerHealth>());
  }

  cluster->retry_ = options.retry;
  cluster->breaker_ = options.breaker;
  if (options.use_threads) {
    if (options.shared_pool != nullptr) {
      cluster->pool_ = options.shared_pool;
    } else {
      cluster->owned_pool_ =
          std::make_unique<ThreadPool>(options.num_servers, options.metrics);
      cluster->pool_ = cluster->owned_pool_.get();
    }
  }
  if (options.metrics != nullptr) {
    cluster->tracer_ = options.metrics->tracer();
    if (obs::MetricsRegistry* reg = options.metrics->registry()) {
      cluster->server_micros_ = reg->GetHistogram(
          "msq_cluster_server_micros", obs::LatencyBoundariesMicros(),
          "Wall time of one server's local execution of a batch");
      cluster->skew_micros_ = reg->GetHistogram(
          "msq_cluster_skew_micros", obs::LatencyBoundariesMicros(),
          "Straggler skew per call: slowest minus fastest server wall time "
          "(the makespan gap of Sec. 5.3's max-cost model)");
      cluster->retries_total_ = reg->GetCounter(
          "msq_cluster_retries_total",
          "Transient server failures retried by the coordinator");
      cluster->failovers_total_ = reg->GetCounter(
          "msq_cluster_failovers_total",
          "Servers that failed past their retry budget and had their "
          "partitions re-issued to replicas");
      cluster->reissues_total_ = reg->GetCounter(
          "msq_cluster_replica_reissues_total",
          "Partition executions issued to a non-primary replica (after a "
          "failure, or skipping an open breaker)");
      const std::string breaker_help =
          "Circuit-breaker state per server (0 closed, 1 open, 2 half-open)";
      cluster->breaker_gauges_.reserve(options.num_servers);
      for (size_t i = 0; i < options.num_servers; ++i) {
        cluster->breaker_gauges_.push_back(
            reg->GetGauge("msq_cluster_breaker_state", breaker_help,
                          "server=\"" + std::to_string(i) + "\""));
      }
    }
  }
  return cluster;
}

void SharedNothingCluster::SetBreakerGauge(size_t server, BreakerState state) {
  if (server < breaker_gauges_.size()) {
    breaker_gauges_[server]->Set(static_cast<int64_t>(state));
  }
}

bool SharedNothingCluster::AdmitServer(size_t server) {
  if (breaker_.failure_threshold <= 0) return true;  // breaker disabled
  ServerHealth& h = *health_[server];
  std::lock_guard<std::mutex> lock(h.mu);
  switch (h.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (std::chrono::steady_clock::now() - h.opened_at <
          breaker_.open_cooldown) {
        return false;
      }
      // Cooldown over: admit exactly one probe (half-open).
      h.state = BreakerState::kHalfOpen;
      h.probe_inflight = true;
      SetBreakerGauge(server, h.state);
      return true;
    case BreakerState::kHalfOpen:
      if (h.probe_inflight) return false;
      h.probe_inflight = true;
      return true;
  }
  return true;
}

void SharedNothingCluster::RecordServerResult(
    size_t server, bool ok, std::chrono::steady_clock::time_point end) {
  if (breaker_.failure_threshold <= 0) return;
  ServerHealth& h = *health_[server];
  std::lock_guard<std::mutex> lock(h.mu);
  if (ok) {
    h.last_success_end = std::max(h.last_success_end, end);
    h.consecutive_failures = 0;
    if (h.state != BreakerState::kClosed) {
      // A successful probe (or a success racing the trip) closes the
      // breaker: the server is healthy again.
      h.state = BreakerState::kClosed;
      h.probe_inflight = false;
      SetBreakerGauge(server, h.state);
    }
    return;
  }
  // The server has answered since this attempt failed (a batch that met
  // a crash before Restore() finished after another batch's success), so
  // the failure says nothing about its health now.
  if (end < h.last_success_end) return;
  ++h.consecutive_failures;
  if (h.state == BreakerState::kHalfOpen) {
    // The probe failed: back to open, restart the cooldown.
    h.state = BreakerState::kOpen;
    h.opened_at = std::chrono::steady_clock::now();
    h.probe_inflight = false;
    SetBreakerGauge(server, h.state);
  } else if (h.state == BreakerState::kClosed &&
             h.consecutive_failures >= breaker_.failure_threshold) {
    h.state = BreakerState::kOpen;
    h.opened_at = std::chrono::steady_clock::now();
    SetBreakerGauge(server, h.state);
  }
}

bool SharedNothingCluster::ServerAdmissible(size_t server) const {
  if (breaker_.failure_threshold <= 0) return true;
  const ServerHealth& h = *health_[server];
  std::lock_guard<std::mutex> lock(h.mu);
  switch (h.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      return std::chrono::steady_clock::now() - h.opened_at >=
             breaker_.open_cooldown;
    case BreakerState::kHalfOpen:
      return !h.probe_inflight;
  }
  return true;
}

BreakerState SharedNothingCluster::breaker_state(size_t server) const {
  const ServerHealth& h = *health_[server];
  std::lock_guard<std::mutex> lock(h.mu);
  return h.state;
}

Status SharedNothingCluster::QuorumStatus() const {
  std::string lost;
  size_t n_lost = 0;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    bool admissible = false;
    for (size_t server : placement_[p]) {
      if (ServerAdmissible(server)) {
        admissible = true;
        break;
      }
    }
    if (!admissible) {
      if (n_lost++ > 0) lost += ", ";
      lost += std::to_string(p);
    }
  }
  if (n_lost == 0) return Status::OK();
  return Status::ResourceExhausted(
      "quorum lost: no admissible replica for partition(s) " + lost + " (" +
      std::to_string(n_lost) + " of " + std::to_string(partitions_.size()) +
      ")");
}

StatusOr<std::vector<AnswerSet>> SharedNothingCluster::ExecuteReplica(
    size_t partition, size_t replica_idx, const std::vector<Query>& queries,
    int* attempts, QueryStats* stats_out) {
  Replica& rep = replicas_[partition][replica_idx];
  // The engines are single-threaded; concurrent batches line up per
  // replica (different replicas — even of the same partition — proceed in
  // parallel). The wait is attributed as lock_wait.
  WallTimer lock_timer;
  std::lock_guard<std::mutex> lock(*rep.mu);
  QueryStats local;
  local.attr_lock_wait_micros += lock_timer.ElapsedMicros();
  const QueryStats before_call = rep.db->stats();

  // One execution attempt. A failed attempt bills nothing to the database
  // stats beyond its completed windows ("failed call bills nothing"), so
  // the *unattributed tail* of a failed attempt — its wall time minus what
  // its completed windows already charged — is attributed to retry: time
  // lost to faults, not useful work.
  auto attempt_once = [&]() {
    const QueryStats before = rep.db->stats();
    WallTimer timer;
    ++*attempts;
    auto got = rep.db->MultipleSimilarityQueryAll(queries);
    if (!got.ok()) {
      const QueryStats billed = rep.db->stats() - before;
      local.attr_retry_micros +=
          std::max(0.0, timer.ElapsedMicros() - billed.attr_window_micros);
    }
    return got;
  };

  auto got = attempt_once();
  // Retry only transient failures (IOError: a flaky page read). A crashed
  // server fails deterministically (kUnavailable) — retrying it could only
  // waste the budget, so the failover layer routes around it instead;
  // other codes (validation, deadline) are deterministic too.
  auto backoff = retry_.initial_backoff;
  for (int attempt = 0;
       attempt < retry_.max_retries && !got.ok() && got.status().IsIOError();
       ++attempt) {
    retries_attempted_.fetch_add(1, std::memory_order_relaxed);
    if (retries_total_ != nullptr) retries_total_->Increment();
    if (backoff.count() > 0) {
      WallTimer backoff_timer;
      std::this_thread::sleep_for(backoff);
      local.attr_retry_micros += backoff_timer.ElapsedMicros();
      backoff *= 2;
    }
    got = attempt_once();
  }
  if (stats_out != nullptr) {
    local += rep.db->stats() - before_call;
    *stats_out += local;
  }
  return got;
}

void SharedNothingCluster::RunPartitions(const std::vector<Query>& queries,
                                         CallOutcome* out) {
  const size_t num_partitions = partitions_.size();
  const size_t r = replication_factor_;
  out->partition_answers.assign(num_partitions, {});
  out->partition_status.assign(num_partitions, Status::OK());
  out->server_status.assign(num_servers_, Status::OK());
  out->server_attempts.assign(num_servers_, 0);

  obs::ScopedSpan execute_span(tracer_, "cluster.execute", "cluster");
  execute_span.AddArg("servers", static_cast<double>(num_servers_));
  execute_span.AddArg("replication", static_cast<double>(r));
  execute_span.AddArg("m", static_cast<double>(queries.size()));

  // Round-based failover: each round issues at most one attempt per
  // pending partition (on its most-preferred admissible replica), waits
  // for the whole round, then advances failed partitions to their next
  // replica. next_try[p] never decreases and is bounded by r, so the loop
  // terminates after at most r rounds; the barrier guarantees a partition
  // is never in flight on two replicas at once.
  std::vector<size_t> next_try(num_partitions, 0);
  std::vector<char> done(num_partitions, 0);
  std::vector<char> failed_over(num_servers_, 0);
  std::vector<Status> last_error(num_partitions, Status::OK());

  struct Attempt {
    size_t partition;
    size_t replica_idx;
    size_t server;
    int attempts = 0;
    Clock::time_point start{}, end{};
    QueryStats stats{};  // attempt-local; merged post-barrier
    StatusOr<std::vector<AnswerSet>> result =
        Status::Internal("attempt not executed");
    double wall_micros() const { return MicrosBetween(start, end); }
  };

  for (;;) {
    // Select this round's assignments, in partition order (deterministic:
    // breaker admission — including the single half-open probe slot — is
    // claimed sequentially here, never from worker threads).
    std::vector<Attempt> round;
    for (size_t p = 0; p < num_partitions; ++p) {
      if (done[p]) continue;
      bool scheduled = false;
      while (next_try[p] < r) {
        const size_t j = next_try[p];
        const size_t server = placement_[p][j];
        if (AdmitServer(server)) {
          round.push_back(Attempt{.partition = p, .replica_idx = j,
                                  .server = server});
          scheduled = true;
          break;
        }
        ++next_try[p];  // breaker refused: skip to the next replica
      }
      if (!scheduled) {
        // Every replica failed or was refused: the partition is lost for
        // this call.
        done[p] = 1;
        out->partition_status[p] =
            last_error[p].ok()
                ? Status::Unavailable(
                      "all " + std::to_string(r) + " replicas of partition " +
                      std::to_string(p) + " refused by circuit breaker")
                : last_error[p];
      }
    }
    if (round.empty()) break;

    auto run_attempt = [&](Attempt& a) {
      obs::ScopedSpan server_span(tracer_, "cluster.server", "cluster");
      server_span.AddArg("server", static_cast<double>(a.server));
      server_span.AddArg("partition", static_cast<double>(a.partition));
      server_span.AddArg("replica", static_cast<double>(a.replica_idx));
      a.start = Clock::now();
      a.result = ExecuteReplica(a.partition, a.replica_idx, queries,
                                &a.attempts, &a.stats);
      a.end = Clock::now();
    };
    // An attempt on the critical path counts in full: its time outside
    // the lock wait, retries and engine windows (the engine's per-window
    // metric publication, stats snapshots) is engine time, so it lands in
    // the engine_other component.
    auto add_to_path = [&](const Attempt& a) {
      QueryStats& path = out->critical_path.stats;
      path += a.stats;
      path.attr_window_micros += std::max(
          0.0, a.wall_micros() - a.stats.attr_lock_wait_micros -
                   a.stats.attr_retry_micros - a.stats.attr_window_micros);
    };
    if (pool_ != nullptr) {
      const Clock::time_point round_start = Clock::now();
      std::vector<std::function<void()>> tasks;
      tasks.reserve(round.size());
      for (Attempt& a : round) {
        tasks.push_back([&run_attempt, &a] { run_attempt(a); });
      }
      pool_->RunAll(std::move(tasks));
      // The round lasted until its last attempt ended, so only that
      // attempt is on the critical path; the rest of the round is the
      // pool's queueing before it started and the barrier's wake-up after.
      const Attempt& last = *std::max_element(
          round.begin(), round.end(),
          [](const Attempt& a, const Attempt& b) { return a.end < b.end; });
      add_to_path(last);
      out->critical_path.dispatch_micros +=
          MicrosBetween(round_start, Clock::now()) - last.wall_micros();
    } else {
      for (Attempt& a : round) {
        run_attempt(a);
        add_to_path(a);
      }
    }

    // Post-barrier bookkeeping, again in partition order so breaker
    // trips, counters and statuses are deterministic.
    for (Attempt& a : round) {
      out->server_attempts[a.server] += a.attempts;
      out->stats += a.stats;
      if (a.replica_idx > 0) {
        ++out->replica_reissues;
        if (reissues_total_ != nullptr) reissues_total_->Increment();
      }
      if (a.result.ok()) {
        RecordServerResult(a.server, true, a.end);
        done[a.partition] = 1;
        out->partition_status[a.partition] = Status::OK();
        out->partition_answers[a.partition] = std::move(a.result).value();
        out->server_status[a.server] = Status::OK();
      } else {
        RecordServerResult(a.server, false, a.end);
        out->server_status[a.server] = a.result.status();
        last_error[a.partition] = a.result.status();
        ++next_try[a.partition];
        if (next_try[a.partition] < r && !failed_over[a.server]) {
          // The server failed past its retry budget and this partition
          // has a replica left: a failover event (counted once per server
          // per call, however many partitions it hosted).
          failed_over[a.server] = 1;
          ++out->failovers;
          failovers_.fetch_add(1, std::memory_order_relaxed);
          if (failovers_total_ != nullptr) failovers_total_->Increment();
        }
      }
    }
    if (server_micros_ != nullptr) {
      for (const Attempt& a : round) server_micros_->Observe(a.wall_micros());
      double lo = round.front().wall_micros(), hi = lo;
      for (const Attempt& a : round) {
        lo = std::min(lo, a.wall_micros());
        hi = std::max(hi, a.wall_micros());
      }
      skew_micros_->Observe(hi - lo);
    }
  }
}

std::vector<AnswerSet> SharedNothingCluster::MergePartitions(
    const std::vector<Query>& queries,
    const std::vector<std::vector<AnswerSet>>& partition_answers,
    const std::vector<Status>& partition_status) const {
  // Merge: translate local object ids to global ids, combine in
  // (distance, global id) order and re-apply the query type's bounds —
  // the global kNN set is contained in the union of the local kNN sets.
  // Because every replica of a partition holds a bit-identical database,
  // the merge result does not depend on *which* replica served each
  // partition. Lost partitions contribute nothing.
  std::vector<AnswerSet> merged(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    AnswerSet all;
    for (size_t p = 0; p < partitions_.size(); ++p) {
      if (!partition_status[p].ok()) continue;
      for (const Neighbor& nb : partition_answers[p][q]) {
        all.push_back({partitions_[p][nb.id], nb.distance});
      }
    }
    std::sort(all.begin(), all.end());
    const QueryType& type = queries[q].type;
    if (type.Adaptive() && all.size() > type.cardinality) {
      all.resize(type.cardinality);
    }
    merged[q] = std::move(all);
  }
  return merged;
}

StatusOr<std::vector<AnswerSet>> SharedNothingCluster::ExecuteMultipleAll(
    const std::vector<Query>& queries) {
  CallOutcome out;
  RunPartitions(queries, &out);

  if (!std::all_of(out.partition_status.begin(), out.partition_status.end(),
                   [](const Status& st) { return st.ok(); })) {
    return AggregateFailures(out.partition_status);
  }
  return MergePartitions(queries, out.partition_answers, out.partition_status);
}

StatusOr<ClusterBatchResult> SharedNothingCluster::ExecuteMultipleAllPartial(
    const std::vector<Query>& queries) {
  CallOutcome out;
  RunPartitions(queries, &out);
  ClusterBatchResult result;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    if (!out.partition_status[p].ok()) result.missing_servers.push_back(p);
  }
  WallTimer merge_timer;
  result.answers =
      MergePartitions(queries, out.partition_answers, out.partition_status);
  const double merge_micros = merge_timer.ElapsedMicros();
  out.stats.attr_merge_micros += merge_micros;
  out.critical_path.stats.attr_merge_micros += merge_micros;
  result.server_status = std::move(out.server_status);
  result.server_attempts = std::move(out.server_attempts);
  result.failovers = out.failovers;
  result.replica_reissues = out.replica_reissues;
  result.stats = out.stats;
  result.critical_path = out.critical_path;
  return result;
}

StatusOr<BatchResult> SharedNothingCluster::ExecuteBatch(
    const std::vector<Query>& queries, QueryStats* stats) {
  auto got = ExecuteMultipleAllPartial(queries);
  if (!got.ok()) return got.status();
  BatchResult result;
  result.answers = std::move(got.value().answers);
  if (got.value().missing_servers.empty()) {
    result.statuses.assign(queries.size(), Status::OK());
  } else {
    // Quorum loss: the merged answers are incomplete for *every* query (a
    // missing partition may hold true nearest neighbors of any of them),
    // so every query fails with the same explicit status.
    std::string lost;
    for (size_t p : got.value().missing_servers) {
      if (!lost.empty()) lost += ", ";
      lost += std::to_string(p);
    }
    result.statuses.assign(
        queries.size(),
        Status::Unavailable("partition(s) " + lost +
                            " lost (all replicas down); answers incomplete"));
  }
  if (stats != nullptr) *stats += got.value().stats;
  result.critical_path = got.value().critical_path;
  return result;
}

std::vector<QueryStats> SharedNothingCluster::ServerStats() const {
  std::vector<QueryStats> stats(num_servers_);
  for (size_t p = 0; p < partitions_.size(); ++p) {
    for (size_t j = 0; j < placement_[p].size(); ++j) {
      stats[placement_[p][j]] += replicas_[p][j].db->stats();
    }
  }
  return stats;
}

double SharedNothingCluster::ModeledElapsedMillis() const {
  std::vector<double> per_server(num_servers_, 0.0);
  for (size_t p = 0; p < partitions_.size(); ++p) {
    for (size_t j = 0; j < placement_[p].size(); ++j) {
      per_server[placement_[p][j]] += replicas_[p][j].db->ModeledTotalMillis();
    }
  }
  double max_ms = 0.0;
  for (double ms : per_server) max_ms = std::max(max_ms, ms);
  return max_ms;
}

double SharedNothingCluster::ModeledTotalWorkMillis() const {
  double sum = 0.0;
  for (const auto& partition : replicas_) {
    for (const Replica& rep : partition) sum += rep.db->ModeledTotalMillis();
  }
  return sum;
}

void SharedNothingCluster::ResetAll() {
  for (const auto& partition : replicas_) {
    for (const Replica& rep : partition) rep.db->ResetAll();
  }
}

}  // namespace msq
