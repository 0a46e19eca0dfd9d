// Workload modeling for open-loop load (bench/suite/open_loop.h).
//
// The traffic shape follows the "web application" setting of the
// exploratory-query literature (see PAPERS.md): queries arrive as a
// Poisson process (open loop — arrivals do not wait for completions, so
// an overloaded system builds a backlog instead of silently throttling
// the measurement), object popularity is Zipf-skewed (a few hot query
// objects dominate, which is what makes the scheduler's coalescing and
// the engine's answer buffer earn their keep), and the stream is a
// weighted mix of tenants that differ in k and skew.
//
// Everything is seeded and deterministic given (seed, rate, duration) up
// to OS scheduling of the arrival threads.

#ifndef MSQ_LOAD_WORKLOAD_H_
#define MSQ_LOAD_WORKLOAD_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace msq::load {

/// One tenant of the multi-tenant mix.
struct TenantSpec {
  std::string name = "default";
  /// Share of the arrival stream (relative; normalized over the mix).
  double weight = 1.0;
  /// kNN cardinality of this tenant's queries.
  size_t k = 10;
  /// Zipf exponent of its query-object popularity (0 = uniform).
  double zipf_s = 0.9;
};

/// Zipf(s) sampler over object ranks [0, n): P(rank r) ∝ 1/(r+1)^s.
/// Ranks are mapped to object ids through a seeded shuffle, so the hot
/// objects are spread across the id space (and hence across cluster
/// partitions) instead of clustering at id 0.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed);

  /// One object id, using the caller's (per-thread) rng.
  uint64_t Sample(Rng& rng) const;

  size_t n() const { return perm_.size(); }

 private:
  std::vector<double> cdf_;      // cumulative rank probabilities
  std::vector<uint64_t> perm_;   // rank -> object id
};

/// Seeded Poisson arrival process: exponential inter-arrival gaps at
/// `rate_per_second`.
class PoissonArrivals {
 public:
  PoissonArrivals(double rate_per_second, uint64_t seed);

  /// Next inter-arrival gap.
  std::chrono::nanoseconds NextGap();

 private:
  double mean_nanos_;
  Rng rng_;
};

/// The id scheme of a tenant-scoped query stream: (tenant_index <<
/// kTenantIdShift) | object_id. A popular object re-queried within one
/// tenant reuses its id, so those submissions coalesce in the scheduler or
/// hit the engine's answer buffer (the web-workload effect the paper's
/// buffering targets); two tenants never collide on an id, even when they
/// query the same object with different k. (Named for the generator that
/// first assigned these ids; bench/suite spells the constant this way.)
struct LoadGenerator {
  static constexpr int kTenantIdShift = 40;
};

/// Weighted tenant mix. Weights are normalized at construction; an empty
/// spec list becomes one default tenant.
class TenantMix {
 public:
  explicit TenantMix(std::vector<TenantSpec> tenants);

  size_t PickIndex(Rng& rng) const;
  const TenantSpec& tenant(size_t i) const { return tenants_[i]; }
  size_t size() const { return tenants_.size(); }

 private:
  std::vector<TenantSpec> tenants_;
  std::vector<double> cumulative_;  // normalized cumulative weights
};

}  // namespace msq::load

#endif  // MSQ_LOAD_WORKLOAD_H_
