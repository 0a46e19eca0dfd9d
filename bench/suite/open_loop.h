// The serve workload's open-loop client.
//
// One producer thread submits kNN queries to a BatchScheduler on a seeded
// Poisson schedule, whether or not earlier ones have been answered; one
// waiter thread collects the answers. It draws traffic exactly as
// load::LoadGenerator does — PoissonArrivals, one ZipfSampler per tenant,
// TenantMix, and query ids (tenant << 40) | object — but also records what
// LoadGenerator does not expose: each request's generator lag (actual
// minus scheduled submit time), its exact completion instant, and how long
// each phase took to drain after its last arrival.
//
// Latency is measured from the *scheduled* arrival, so a stall is charged
// to every request it delays.
//
// The waiter blocks on the oldest outstanding request with a short timeout
// and sweeps the rest, so an answer that arrives out of order is stamped
// when it arrives, not when the requests before it complete.

#ifndef MSQ_BENCH_SUITE_OPEN_LOOP_H_
#define MSQ_BENCH_SUITE_OPEN_LOOP_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "suite.h"

namespace msq::suite {

/// One submission and what became of it.
struct Request {
  uint64_t seq = 0;
  QueryId id = 0;
  size_t k = 0;
  Clock::time_point scheduled{}, submitted{}, done{};
  bool ok = false;
  size_t answer_size = 0;
  /// Span ids, assigned by the traced pass's submit hook (0 untraced).
  uint64_t request_span = 0, service_span = 0;
};

struct PhaseResult {
  /// In completion order.
  std::vector<Request> requests;
  /// First scheduled arrival to the end of the schedule.
  double schedule_ms = 0.0;
  /// From the end of the schedule to the last answer (0 when everything
  /// was answered before the schedule ended).
  double drain_ms = 0.0;

  uint64_t ok() const;
  /// Scheduled arrival to answer, of the OK requests, in ms.
  std::vector<double> LatenciesMs() const;
  /// Submit time minus scheduled arrival, of every request, in ms.
  std::vector<double> LagsMs() const;
};

class OpenLoop {
 public:
  /// Builds the query of one arrival (point and type; the id is assigned).
  using QueryFactory =
      std::function<Query(const load::TenantSpec& tenant, uint64_t object)>;
  /// Called on the producer thread right before Submit / on the waiter
  /// thread once the answer is in.
  using Hook = std::function<void(Request&)>;

  OpenLoop(BatchScheduler* scheduler, std::vector<load::TenantSpec> tenants,
           size_t num_objects, uint64_t seed, QueryFactory factory,
           Hook on_submit = nullptr, Hook on_complete = nullptr);

  /// Runs `duration` of Poisson arrivals at `rate_qps` and waits for every
  /// answer. Each call continues the seeded sequence of phases.
  PhaseResult Run(double rate_qps, std::chrono::milliseconds duration);

 private:

  BatchScheduler* scheduler_;
  load::TenantMix mix_;
  std::vector<load::ZipfSampler> samplers_;
  const uint64_t seed_;
  QueryFactory factory_;
  Hook on_submit_, on_complete_;
  uint64_t phase_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace msq::suite

#endif  // MSQ_BENCH_SUITE_OPEN_LOOP_H_
