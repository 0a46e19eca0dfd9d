#include "service/batch_scheduler.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msq {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             now - start)
      .count();
}

}  // namespace

BatchScheduler::BatchScheduler(MultiQueryEngine* engine, ThreadPool* pool,
                               const BatchSchedulerOptions& options,
                               AggregateStats* stats_sink)
    : engine_(engine),
      pool_(pool),
      options_(options),
      stats_sink_(stats_sink) {
  // A flushed batch must be admissible by the engine in one call. With a
  // custom executor there may be no engine; the executor bounds itself.
  if (engine_ != nullptr) {
    options_.max_batch_size = std::clamp<size_t>(
        options_.max_batch_size, 1, engine_->options().max_batch_size);
  } else {
    options_.max_batch_size = std::max<size_t>(options_.max_batch_size, 1);
  }
  // Lanes that carry an SLO are fixed by the options, so their completion
  // rings can be set up once here; completions on other lanes are never
  // sampled.
  auto register_lane = [this](const TenantOptions& t) {
    if (t.slo_p99.count() <= 0) return;
    LaneSlo& lane = lane_slos_[t.lane];
    if (lane.slo.count() <= 0 || t.slo_p99 < lane.slo) lane.slo = t.slo_p99;
    lane.ring.resize(kSloWindow, 0.0);
  };
  register_lane(options_.default_tenant);
  for (const auto& [name, tenant] : options_.tenants) register_lane(tenant);
  if (options_.metrics != nullptr) {
    tracer_ = options_.metrics->tracer();
    if (obs::MetricsRegistry* reg = options_.metrics->registry()) {
      registry_ = reg;
      queue_depth_ = reg->GetGauge("msq_scheduler_queue_depth",
                                   "Distinct queries pending admission");
      inflight_gauge_ =
          reg->GetGauge("msq_scheduler_inflight_batches",
                        "Batches handed to the pool and not yet fulfilled");
      submitted_total_ = reg->GetCounter("msq_scheduler_submitted_total",
                                         "Queries submitted to the scheduler");
      coalesced_total_ = reg->GetCounter(
          "msq_scheduler_coalesced_total",
          "Submissions answered by an already-pending identical query");
      rejected_total_ = reg->GetCounter(
          "msq_scheduler_rejected_total",
          "Submissions rejected: shutdown, invalid query, or id conflict");
      shed_total_ = reg->GetCounter(
          "msq_scheduler_shed_total",
          "New queries shed by the max_pending overload bound");
      slo_shed_total_ = reg->GetCounter(
          "msq_scheduler_slo_shed_total",
          "Lower-priority queries shed while a higher-priority lane ran "
          "over its p99 SLO");
      static const char* const kReasonLabels[4] = {
          "reason=\"size\"", "reason=\"deadline\"", "reason=\"explicit\"",
          "reason=\"drain\""};
      for (int r = 0; r < 4; ++r) {
        flush_reason_counters_[r] =
            reg->GetCounter("msq_scheduler_flushes_total",
                            "Batches flushed, by trigger", kReasonLabels[r]);
      }
      admission_wait_micros_ = reg->GetHistogram(
          "msq_scheduler_admission_wait_micros",
          obs::LatencyBoundariesMicros(),
          "Per-query wait between Submit() and the batch flush");
      latency_micros_ = reg->GetHistogram(
          "msq_scheduler_latency_micros", obs::LatencyBoundariesMicros(),
          "Per-query end-to-end latency: Submit() to future fulfilment");
      batch_size_ =
          reg->GetHistogram("msq_scheduler_batch_size", obs::SizeBoundaries(),
                            "Distinct queries per flushed batch");
      for (size_t c = 0; c < obs::kNumLatencyComponents; ++c) {
        component_seconds_[c] = reg->GetHistogram(
            "msq_latency_component_seconds", obs::LatencySecondsBoundaries(),
            "Per-query end-to-end latency share of one serving stage",
            std::string("component=\"") +
                obs::LatencyComponentName(
                    static_cast<obs::LatencyComponent>(c)) +
                "\"");
      }
      if (options_.latency_window_seconds > 0) {
        latency_window_ = reg->GetSlidingHistogram(
            "msq_scheduler_latency_window_micros",
            obs::LatencyBoundariesMicros(),
            std::chrono::seconds(std::max<int64_t>(
                1,
                static_cast<int64_t>(options_.latency_window_seconds + 0.5))),
            "Per-query end-to-end latency over the sliding window");
      }
    }
  }
  deadline_thread_ = std::thread([this] { DeadlineLoop(); });
}

BatchScheduler::~BatchScheduler() { Shutdown(); }

AnswerFuture BatchScheduler::Submit(Query query) {
  return Submit(std::move(query), std::string());
}

const TenantOptions& BatchScheduler::TenantPolicy(
    const std::string& tenant) const {
  auto it = options_.tenants.find(tenant);
  return it == options_.tenants.end() ? options_.default_tenant : it->second;
}

bool BatchScheduler::SloPressureLocked(int lane) const {
  for (const auto& [slo_lane, state] : lane_slos_) {
    if (slo_lane >= lane) break;  // std::map: lanes ascend, priority falls
    if (state.slo.count() <= 0) continue;
    if (state.count < std::max<size_t>(1, options_.slo_min_samples)) continue;
    // p99 of the ring's valid prefix; <=128 doubles, so the copy +
    // nth_element under mu_ is cheap even on the submit path.
    std::vector<double> samples(state.ring.begin(),
                                state.ring.begin() + state.count);
    const size_t idx =
        static_cast<size_t>(static_cast<double>(samples.size() - 1) * 0.99);
    std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
    if (samples[idx] > static_cast<double>(state.slo.count())) return true;
  }
  return false;
}

AnswerFuture BatchScheduler::Submit(Query query, const std::string& tenant) {
  std::promise<StatusOr<AnswerSet>> promise;
  AnswerFuture future = promise.get_future();
  std::lock_guard<std::mutex> lock(mu_);
  // queries_submitted_ counts *admitted* work only — it is incremented
  // after every rejection/shed branch below, so throughput metrics are not
  // inflated by submissions that never entered the pipeline.
  if (shutdown_) {
    ++queries_rejected_;
    if (rejected_total_ != nullptr) rejected_total_->Increment();
    promise.set_value(Status::ResourceExhausted("BatchScheduler is shut down"));
    return future;
  }
  if (query.point.empty()) {
    // Failing the one bad submission here keeps it from poisoning the
    // whole batch inside the engine.
    ++queries_rejected_;
    if (rejected_total_ != nullptr) rejected_total_->Increment();
    promise.set_value(Status::InvalidArgument("query point is empty"));
    return future;
  }
  if (engine_ == nullptr && !options_.executor) {
    ++queries_rejected_;
    if (rejected_total_ != nullptr) rejected_total_->Increment();
    promise.set_value(Status::InvalidArgument(
        "BatchScheduler has neither an engine nor an executor"));
    return future;
  }
  auto it = pending_index_.find(TenantKey{tenant, query.id});
  if (it != pending_index_.end()) {
    Pending& entry = pending_[it->second];
    if (SameDefinition(entry.query, query)) {
      // Coalescing is allowed even at the overload bound: the batch does
      // not grow, so this submission adds no queue pressure. The tighter
      // of the two deadlines wins (a coalesced waiter must not loosen the
      // promise made to an earlier one).
      entry.query.deadline = std::min(entry.query.deadline, query.deadline);
      entry.promises.push_back(std::move(promise));
      ++queries_submitted_;
      ++queries_coalesced_;
      if (submitted_total_ != nullptr) submitted_total_->Increment();
      if (coalesced_total_ != nullptr) coalesced_total_->Increment();
      return future;
    }
    ++queries_rejected_;
    if (rejected_total_ != nullptr) rejected_total_->Increment();
    promise.set_value(Status::InvalidArgument(
        "query id " + std::to_string(query.id) +
        " is already pending with a different definition"));
    return future;
  }
  if (options_.max_pending > 0 &&
      pending_.size() + inflight_queries_ >= options_.max_pending) {
    ++queries_shed_;
    if (shed_total_ != nullptr) shed_total_->Increment();
    promise.set_value(Status::ResourceExhausted(
        "scheduler overloaded: " +
        std::to_string(pending_.size() + inflight_queries_) +
        " queries in flight (max_pending=" +
        std::to_string(options_.max_pending) + ")"));
    return future;
  }
  const TenantOptions& policy = TenantPolicy(tenant);
  if (policy.max_pending > 0) {
    auto load = tenant_load_.find(tenant);
    if (load != tenant_load_.end() && load->second >= policy.max_pending) {
      // The tenant's own quota, not the scheduler's: other tenants keep
      // being admitted while this one is shed back to its budget.
      ++queries_shed_;
      ++tenant_shed_counts_[tenant];
      if (shed_total_ != nullptr) shed_total_->Increment();
      if (registry_ != nullptr) {
        registry_
            ->GetCounter("msq_scheduler_tenant_shed_total",
                         "New queries shed by a tenant's own quota",
                         "tenant=\"" + tenant + "\"")
            ->Increment();
      }
      promise.set_value(Status::ResourceExhausted(
          "tenant \"" + tenant + "\" overloaded: " +
          std::to_string(load->second) + " queries in flight (max_pending=" +
          std::to_string(policy.max_pending) + ")"));
      return future;
    }
  }
  if (!lane_slos_.empty() && SloPressureLocked(policy.lane)) {
    // Some higher-priority lane promised a p99 and is currently missing
    // it: new lower-priority work is what we can still refuse.
    ++queries_shed_;
    ++queries_shed_slo_;
    if (shed_total_ != nullptr) shed_total_->Increment();
    if (slo_shed_total_ != nullptr) slo_shed_total_->Increment();
    promise.set_value(Status::ResourceExhausted(
        "shed: a higher-priority lane is over its p99 SLO (tenant \"" +
        tenant + "\", lane " + std::to_string(policy.lane) + ")"));
    return future;
  }
  if (options_.admission_check) {
    // Backend-health gate (e.g. a cluster that lost quorum): shed new work
    // the backend could only answer partially, with the gate's own status.
    Status admitted = options_.admission_check();
    if (!admitted.ok()) {
      ++queries_shed_;
      if (shed_total_ != nullptr) shed_total_->Increment();
      promise.set_value(std::move(admitted));
      return future;
    }
  }
  ++queries_submitted_;
  if (submitted_total_ != nullptr) submitted_total_->Increment();
  if (pending_.empty()) {
    // A batch just opened: the deadline thread must re-arm from its first
    // (oldest) entry.
    deadline_cv_.notify_all();
  }
  pending_index_.emplace(TenantKey{tenant, query.id}, pending_.size());
  ++tenant_load_[tenant];
  Pending entry;
  entry.query = std::move(query);
  entry.promises.push_back(std::move(promise));
  entry.submit_time = std::chrono::steady_clock::now();
  entry.tenant = tenant;
  entry.lane = policy.lane;
  pending_.push_back(std::move(entry));
  if (queue_depth_ != nullptr) queue_depth_->Add(1);
  if (pending_.size() >= options_.max_batch_size) {
    FlushLocked(FlushReason::kSize);
  } else if (options_.flush_deadline.count() <= 0) {
    // A zero deadline means "already overdue" — charge it to the deadline
    // trigger, not the size trigger.
    FlushLocked(FlushReason::kDeadline);
  }
  return future;
}

void BatchScheduler::FlushLocked(FlushReason reason) {
  if (pending_.empty()) return;
  const auto flush_time = std::chrono::steady_clock::now();
  switch (reason) {
    case FlushReason::kSize:
      ++flush_counts_.size;
      break;
    case FlushReason::kDeadline:
      ++flush_counts_.deadline;
      break;
    case FlushReason::kExplicit:
      ++flush_counts_.explicit_flush;
      break;
    case FlushReason::kDrain:
      ++flush_counts_.drain;
      break;
  }
  if (obs::Counter* c = flush_reason_counters_[static_cast<int>(reason)]) {
    c->Increment();
  }
  // One batch per lane (highest priority — lowest lane number — first, so
  // it reaches the pool queue first), each bounded by max_batch_size and
  // never holding the same QueryId twice: the same id submitted by two
  // tenants is two distinct queries, and the engine's duplicate-id
  // validation must never see them side by side. The stable sort keeps
  // submission order within a lane.
  std::stable_sort(
      pending_.begin(), pending_.end(),
      [](const Pending& a, const Pending& b) { return a.lane < b.lane; });
  size_t begin = 0;
  while (begin < pending_.size()) {
    std::vector<QueryId> batch_ids;
    size_t end = begin;
    while (end < pending_.size() && end - begin < options_.max_batch_size &&
           pending_[end].lane == pending_[begin].lane &&
           std::find(batch_ids.begin(), batch_ids.end(),
                     pending_[end].query.id) == batch_ids.end()) {
      batch_ids.push_back(pending_[end].query.id);
      ++end;
    }
    auto batch = std::make_shared<std::vector<Pending>>();
    batch->reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      batch->push_back(std::move(pending_[i]));
    }
    begin = end;
    DispatchLocked(std::move(batch), flush_time);
  }
  pending_.clear();
  pending_index_.clear();
}

void BatchScheduler::DispatchLocked(
    std::shared_ptr<std::vector<Pending>> batch,
    std::chrono::steady_clock::time_point flush_time) {
  if (batch_size_ != nullptr) {
    batch_size_->Observe(static_cast<double>(batch->size()));
  }
  if (admission_wait_micros_ != nullptr) {
    for (const Pending& entry : *batch) {
      admission_wait_micros_->Observe(
          MicrosSince(entry.submit_time, flush_time));
    }
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    // Retro-record the admission window of this batch: it started when the
    // oldest entry was submitted and ends now.
    obs::TraceEvent event;
    event.name = "scheduler.admission_wait";
    event.category = "scheduler";
    event.dur_micros = MicrosSince(batch->front().submit_time, flush_time);
    event.ts_micros = tracer_->NowMicros() - event.dur_micros;
    event.tid = obs::Tracer::CurrentThreadId();
    event.arg_keys[0] = "m";
    event.arg_values[0] = static_cast<double>(batch->size());
    tracer_->Record(event);
  }
  ++inflight_batches_;
  inflight_queries_ += batch->size();
  if (queue_depth_ != nullptr) queue_depth_->Sub(batch->size());
  if (inflight_gauge_ != nullptr) inflight_gauge_->Add(1);
  pool_->Submit([this, batch, flush_time] {
    const auto task_start = std::chrono::steady_clock::now();
    std::vector<Query> queries;
    queries.reserve(batch->size());
    for (const Pending& entry : *batch) queries.push_back(entry.query);

    // Stats go to a private QueryStats first and into the shared sink in
    // one merge, so concurrent batches never write the same counter.
    QueryStats batch_stats;
    auto result = [&]() -> StatusOr<BatchResult> {
      if (options_.executor) {
        // A custom executor (e.g. a replicated cluster) serializes itself.
        obs::ScopedSpan batch_span(tracer_, "scheduler.batch", "scheduler");
        batch_span.AddArg("m", static_cast<double>(batch->size()));
        return options_.executor(queries, &batch_stats);
      }
      // The engine is single-threaded; batches racing for it line up here,
      // and the wait is charged as the lock_wait latency component.
      WallTimer lock_timer;
      std::lock_guard<std::mutex> engine_lock(engine_mu_);
      batch_stats.attr_lock_wait_micros += lock_timer.ElapsedMicros();
      obs::ScopedSpan batch_span(tracer_, "scheduler.batch", "scheduler");
      batch_span.AddArg("m", static_cast<double>(batch->size()));
      return engine_->ExecuteAllPartial(queries, &batch_stats);
    }();
    if (stats_sink_ != nullptr) stats_sink_->Add(batch_stats);

    // End-to-end latency is measured to execution completion (not to
    // promise fulfilment below: waiter wake-up is the client's time).
    const auto done_time = std::chrono::steady_clock::now();
    RecordAttribution(*batch, batch_stats, flush_time, task_start, done_time);

    {
      obs::ScopedSpan fulfil_span(tracer_, "scheduler.fulfil", "scheduler");
      for (size_t i = 0; i < batch->size(); ++i) {
        if (latency_micros_ != nullptr) {
          latency_micros_->Observe(
              MicrosSince((*batch)[i].submit_time, done_time));
        }
        for (std::promise<StatusOr<AnswerSet>>& p : (*batch)[i].promises) {
          if (!result.ok()) {
            // A batch-level failure (validation: the engine refused the
            // whole batch) fails every waiter with the batch's status.
            p.set_value(result.status());
          } else if (!result->statuses[i].ok()) {
            // A per-query failure (deadline expiry, exhausted page reads)
            // fails only this query's waiters; its batchmates are served.
            p.set_value(result->statuses[i]);
          } else {
            p.set_value(result->answers[i]);
          }
        }
      }
    }
    if (inflight_gauge_ != nullptr) inflight_gauge_->Sub(1);
    // Notify under the lock: once the waiter observes inflight == 0 the
    // scheduler may be destroyed, so nothing may touch *this afterwards.
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_batches_;
    inflight_queries_ -= batch->size();
    for (const Pending& entry : *batch) {
      // Release the tenant's quota slot and, if the entry's lane carries
      // an SLO, record its end-to-end latency in the lane's ring — the
      // window SloPressureLocked judges future admissions by.
      auto load = tenant_load_.find(entry.tenant);
      if (load != tenant_load_.end() && --load->second == 0) {
        tenant_load_.erase(load);
      }
      auto lane = lane_slos_.find(entry.lane);
      if (lane != lane_slos_.end()) {
        LaneSlo& state = lane->second;
        state.ring[state.next] = MicrosSince(entry.submit_time, done_time);
        state.next = (state.next + 1) % state.ring.size();
        if (state.count < state.ring.size()) ++state.count;
      }
    }
    ++batches_executed_;
    done_cv_.notify_all();
  });
}

void BatchScheduler::RecordAttribution(
    const std::vector<Pending>& batch, const QueryStats& batch_stats,
    std::chrono::steady_clock::time_point flush_time,
    std::chrono::steady_clock::time_point task_start,
    std::chrono::steady_clock::time_point done_time) {
  const bool export_components = component_seconds_[0] != nullptr;
  if (!export_components && latency_window_ == nullptr &&
      !options_.attribution_hook) {
    return;
  }
  using LC = obs::LatencyComponent;
  obs::BatchAttribution attrib;
  attrib.batch_size = batch.size();
  for (const Pending& entry : batch) {
    attrib.component(LC::kQueueWait) +=
        MicrosSince(entry.submit_time, flush_time);
    attrib.e2e_micros += MicrosSince(entry.submit_time, done_time);
  }
  attrib.component(LC::kDispatch) = MicrosSince(flush_time, task_start);
  attrib.component(LC::kLockWait) = batch_stats.attr_lock_wait_micros;
  attrib.component(LC::kMatrixBuild) = batch_stats.attr_matrix_micros;
  attrib.component(LC::kPageIo) = batch_stats.attr_page_io_micros;
  attrib.component(LC::kKernel) = batch_stats.attr_kernel_micros;
  // The one residual component: engine window time not covered by the
  // independently-measured stages (candidate filtering, heap maintenance,
  // buffer bookkeeping). Clamped — timer nesting can make the parts
  // fractionally exceed the whole.
  attrib.component(LC::kEngineOther) =
      std::max(0.0, batch_stats.attr_window_micros -
                        batch_stats.attr_matrix_micros -
                        batch_stats.attr_page_io_micros -
                        batch_stats.attr_kernel_micros);
  attrib.component(LC::kRetry) = batch_stats.attr_retry_micros;
  attrib.component(LC::kMerge) = batch_stats.attr_merge_micros;

  if (export_components) {
    // Every query of the batch experienced the batch-level stages in full;
    // queue wait is per-query.
    for (const Pending& entry : batch) {
      component_seconds_[static_cast<size_t>(LC::kQueueWait)]->Observe(
          MicrosSince(entry.submit_time, flush_time) * 1e-6);
    }
    for (size_t c = 1; c < obs::kNumLatencyComponents; ++c) {
      const double seconds = attrib.component_micros[c] * 1e-6;
      for (size_t i = 0; i < batch.size(); ++i) {
        component_seconds_[c]->Observe(seconds);
      }
    }
  }
  if (latency_window_ != nullptr) {
    for (const Pending& entry : batch) {
      latency_window_->Observe(MicrosSince(entry.submit_time, done_time));
    }
  }
  if (options_.attribution_hook) options_.attribution_hook(attrib);
}

void BatchScheduler::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked(FlushReason::kExplicit);
}

void BatchScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  FlushLocked(FlushReason::kDrain);
  done_cv_.wait(lock,
                [this] { return pending_.empty() && inflight_batches_ == 0; });
}

void BatchScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    FlushLocked(FlushReason::kDrain);
  }
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_deadline_thread_ = true;
  }
  deadline_cv_.notify_all();
  if (deadline_thread_.joinable()) deadline_thread_.join();
}

void BatchScheduler::DeadlineLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_deadline_thread_) {
    if (pending_.empty() || options_.flush_deadline.count() <= 0) {
      deadline_cv_.wait(lock);
      continue;
    }
    // Arm from the *oldest pending* submission. pending_.front() is always
    // the oldest entry of the open batch: a flush clears the whole vector,
    // so later submissions can never precede the front. Re-reading it every
    // iteration (instead of caching a batch-open timestamp) keeps the timer
    // correct across size/explicit flushes that happen while we wait.
    const auto deadline = pending_.front().submit_time +
                          options_.flush_deadline;
    if (deadline_cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        !pending_.empty() &&
        std::chrono::steady_clock::now() >=
            pending_.front().submit_time + options_.flush_deadline) {
      FlushLocked(FlushReason::kDeadline);
    }
  }
}

size_t BatchScheduler::pending_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

uint64_t BatchScheduler::queries_submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_submitted_;
}

uint64_t BatchScheduler::queries_coalesced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_coalesced_;
}

uint64_t BatchScheduler::queries_rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_rejected_;
}

uint64_t BatchScheduler::queries_shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_shed_;
}

uint64_t BatchScheduler::queries_shed_tenant(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_shed_counts_.find(tenant);
  return it == tenant_shed_counts_.end() ? 0 : it->second;
}

uint64_t BatchScheduler::queries_shed_slo() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_shed_slo_;
}

uint64_t BatchScheduler::batches_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_executed_;
}

FlushCounts BatchScheduler::flush_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flush_counts_;
}

}  // namespace msq
