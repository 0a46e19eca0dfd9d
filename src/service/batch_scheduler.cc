#include "service/batch_scheduler.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msq {

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
  if (options_.metrics != nullptr) {
    tracer_ = options_.metrics->tracer();
    if (obs::MetricsRegistry* reg = options_.metrics->registry()) {
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
    }
  }
  deadline_thread_ = std::thread([this] { DeadlineLoop(); });
}

BatchScheduler::~BatchScheduler() { Shutdown(); }

AnswerFuture BatchScheduler::Submit(Query query) {
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
  auto it = pending_index_.find(query.id);
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
  pending_index_.emplace(query.id, pending_.size());
  Pending entry;
  entry.query = std::move(query);
  entry.promises.push_back(std::move(promise));
  entry.submit_time = std::chrono::steady_clock::now();
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
  auto batch = std::make_shared<std::vector<Pending>>(std::move(pending_));
  pending_.clear();
  pending_index_.clear();
  DispatchLocked(std::move(batch), flush_time);
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
          MicrosBetween(entry.submit_time, flush_time));
    }
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    // Retro-record the admission window of this batch: it started when the
    // oldest entry was submitted and ends now.
    obs::TraceEvent event;
    event.name = "scheduler.admission_wait";
    event.category = "scheduler";
    event.dur_micros = MicrosBetween(batch->front().submit_time, flush_time);
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
    // An executor that ran parts of the batch in parallel reports the
    // path the batch waited along; its summed stats would count the
    // overlapping parts once each.
    const CriticalPath* path = result.ok() && result->critical_path
                                   ? &*result->critical_path
                                   : nullptr;
    RecordAttribution(*batch, path != nullptr ? path->stats : batch_stats,
                      path != nullptr ? path->dispatch_micros : 0.0,
                      flush_time, task_start);

    {
      obs::ScopedSpan fulfil_span(tracer_, "scheduler.fulfil", "scheduler");
      for (size_t i = 0; i < batch->size(); ++i) {
        const double e2e_micros =
            MicrosBetween((*batch)[i].submit_time, done_time);
        if (latency_micros_ != nullptr) latency_micros_->Observe(e2e_micros);
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
    ++batches_executed_;
    done_cv_.notify_all();
  });
}

void BatchScheduler::RecordAttribution(
    const std::vector<Pending>& batch, const QueryStats& attr,
    double executor_dispatch_micros,
    std::chrono::steady_clock::time_point flush_time,
    std::chrono::steady_clock::time_point task_start) {
  if (component_seconds_[0] == nullptr) return;
  using LC = obs::LatencyComponent;
  // The batch-level stages, each lived through in full by every query of
  // the batch (that is what batching means for latency).
  double micros[obs::kNumLatencyComponents] = {};
  auto component = [&micros](LC c) -> double& {
    return micros[static_cast<size_t>(c)];
  };
  component(LC::kDispatch) =
      MicrosBetween(flush_time, task_start) + executor_dispatch_micros;
  component(LC::kLockWait) = attr.attr_lock_wait_micros;
  component(LC::kMatrixBuild) = attr.attr_matrix_micros;
  component(LC::kPageIo) = attr.attr_page_io_micros;
  component(LC::kKernel) = attr.attr_kernel_micros;
  // The one residual component: engine time not covered by the
  // independently-measured stages (candidate filtering, heap maintenance,
  // buffer bookkeeping; on a cluster's critical path also the attempt's
  // time outside its windows). Clamped — timer nesting can make the parts
  // fractionally exceed the whole.
  component(LC::kEngineOther) =
      std::max(0.0, attr.attr_window_micros - attr.attr_matrix_micros -
                        attr.attr_page_io_micros - attr.attr_kernel_micros);
  component(LC::kRetry) = attr.attr_retry_micros;
  component(LC::kMerge) = attr.attr_merge_micros;

  // Queue wait is the one per-query stage.
  for (const Pending& entry : batch) {
    component_seconds_[static_cast<size_t>(LC::kQueueWait)]->Observe(
        MicrosBetween(entry.submit_time, flush_time) * 1e-6);
  }
  for (size_t c = 1; c < obs::kNumLatencyComponents; ++c) {
    for (size_t i = 0; i < batch.size(); ++i) {
      component_seconds_[c]->Observe(micros[c] * 1e-6);
    }
  }
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

uint64_t BatchScheduler::batches_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_executed_;
}

FlushCounts BatchScheduler::flush_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flush_counts_;
}

}  // namespace msq
