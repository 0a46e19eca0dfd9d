#include "open_loop.h"

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

namespace msq::suite {
namespace {

/// Asks the kernel for a 100 us scheduling slice for the calling thread
/// (the EEVDF request size of Linux 6.12+, set through sched_setattr).
/// The client's threads wake for microseconds at a time; with the default
/// slice a waking producer waits out the busy server threads' slices, and
/// its generator lag then measures the CPU scheduler instead of the
/// client. Older kernels accept and ignore the request.
void RequestShortSlice() {
  struct {
    uint32_t size;
    uint32_t policy;
    uint64_t flags;
    int32_t nice;
    uint32_t priority;
    uint64_t runtime_ns;
    uint64_t deadline_ns;
    uint64_t period_ns;
  } attr{};
  attr.size = sizeof(attr);
  attr.policy = SCHED_OTHER;
  attr.runtime_ns = 100'000;
  static std::atomic<bool> warned{false};
  if (syscall(SYS_sched_setattr, 0, &attr, 0) != 0 && !warned.exchange(true)) {
    std::fprintf(stderr, "note: short client slice unavailable\n");
  }
}

struct Outstanding {
  Request request;
  AnswerFuture future;
};

/// Unbounded hand-off from the producer to the waiter: the producer must
/// never block on the system under test.
class Handoff {
 public:
  void Push(Outstanding item) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back(std::move(item));
    cv_.notify_one();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_one();
  }
  /// Moves every queued item into `out`, blocking while nothing is queued
  /// if `block`. False once closed and empty.
  bool Take(std::vector<Outstanding>* out, bool block) {
    std::unique_lock<std::mutex> lock(mu_);
    if (block) cv_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return !closed_;
    for (Outstanding& item : items_) out->push_back(std::move(item));
    items_.clear();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Outstanding> items_;
  bool closed_ = false;
};

}  // namespace

uint64_t PhaseResult::ok() const {
  uint64_t n = 0;
  for (const Request& r : requests) n += r.ok ? 1 : 0;
  return n;
}

std::vector<double> PhaseResult::LatenciesMs() const {
  std::vector<double> out;
  out.reserve(requests.size());
  for (const Request& r : requests) {
    if (r.ok) out.push_back(MillisBetween(r.scheduled, r.done));
  }
  return out;
}

std::vector<double> PhaseResult::LagsMs() const {
  std::vector<double> out;
  out.reserve(requests.size());
  for (const Request& r : requests) {
    out.push_back(MillisBetween(r.scheduled, r.submitted));
  }
  return out;
}

OpenLoop::OpenLoop(BatchScheduler* scheduler,
                   std::vector<load::TenantSpec> tenants, size_t num_objects,
                   uint64_t seed, QueryFactory factory, Hook on_submit,
                   Hook on_complete)
    : scheduler_(scheduler),
      mix_(std::move(tenants)),
      seed_(seed),
      factory_(std::move(factory)),
      on_submit_(std::move(on_submit)),
      on_complete_(std::move(on_complete)) {
  // The same per-tenant popularity curves LoadGenerator draws.
  for (size_t t = 0; t < mix_.size(); ++t) {
    samplers_.emplace_back(std::max<size_t>(num_objects, 1),
                           mix_.tenant(t).zipf_s, seed_ * 7919 + t);
  }
}

PhaseResult OpenLoop::Run(double rate_qps,
                          std::chrono::milliseconds duration) {
  const uint64_t phase = phase_++;
  PhaseResult result;
  Handoff handoff;

  std::thread waiter([&] {
    RequestShortSlice();
    std::vector<Outstanding> live;
    for (;;) {
      if (!handoff.Take(&live, /*block=*/live.empty()) && live.empty()) break;
      if (live.empty()) continue;
      // Block on the oldest for a moment, then sweep everything: answers
      // of concurrently executing batches arrive out of order.
      live.front().future.wait_for(std::chrono::microseconds(50));
      for (size_t i = 0; i < live.size();) {
        if (live[i].future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        Request& r = live[i].request;
        r.done = Clock::now();
        StatusOr<AnswerSet> answer = live[i].future.get();
        r.ok = answer.ok();
        r.answer_size = answer.ok() ? answer->size() : 0;
        if (on_complete_) on_complete_(r);
        result.requests.push_back(r);
        live[i] = std::move(live.back());
        live.pop_back();
      }
    }
  });

  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + duration;
  std::thread producer([&] {
    RequestShortSlice();
    load::PoissonArrivals arrivals(rate_qps, seed_ * 31 + phase);
    Rng rng(seed_ * 131 + phase);
    for (Clock::time_point next = start + arrivals.NextGap(); next < end;
         next += arrivals.NextGap()) {
      std::this_thread::sleep_until(next);  // no-op once behind schedule
      const size_t tenant = mix_.PickIndex(rng);
      const load::TenantSpec& spec = mix_.tenant(tenant);
      const uint64_t object = samplers_[tenant].Sample(rng);
      Query query = factory_(spec, object);
      query.id = (static_cast<QueryId>(tenant)
                  << load::LoadGenerator::kTenantIdShift) |
                 static_cast<QueryId>(object);
      Request r;
      r.seq = next_seq_++;
      r.id = query.id;
      r.k = spec.k;
      r.scheduled = next;
      r.submitted = Clock::now();
      if (on_submit_) on_submit_(r);
      AnswerFuture future = scheduler_->Submit(std::move(query));
      handoff.Push(Outstanding{r, std::move(future)});
    }
    handoff.Close();
  });

  producer.join();
  waiter.join();
  Clock::time_point last = end;
  for (const Request& r : result.requests) last = std::max(last, r.done);
  result.schedule_ms = MillisBetween(start, end);
  result.drain_ms = MillisBetween(end, last);
  return result;
}

}  // namespace msq::suite
