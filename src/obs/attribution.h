// Latency attribution: decomposing end-to-end query latency into stages.
//
// The question an operator asks is "*why* did p99 move", so every executed
// batch reports how its wall-clock latency splits across the serving
// pipeline. The component set mirrors the paper's cost structure: matrix
// build is the m(m-1)/2 CPU setup term of Sec. 5.2, page I/O and kernel
// time are the I/O and CPU cost dimensions of Sec. 1 (now measured, not
// modeled), and queue wait / lock wait / retry / merge are the serving and
// replication layers this repo added on top.
//
// Accounting contract: a query's attributed latency is its own queue wait
// plus the batch-level components of the batch it executed in (every query
// of a batch experiences the full batch execution — that is what batching
// means for latency). When a cluster runs a batch's partitions in
// parallel, the batch-level components follow its critical path, as
// Sec. 5.3 prices a declustered batch by its slowest server: per round,
// the attempt that finished last, with the rest of the round charged to
// dispatch. Exactly one component, kEngineOther, is a residual (engine
// time not covered by matrix/I/O/kernel, clamped at zero); the others are
// measured at their own stage boundaries. The exported components must sum
// to within 5% of exported end-to-end latency
// (BatchSchedulerTest.AttributionFollowsTheCriticalPathWithThreadsOn):
// summing the overlapped partitions instead overstates it by over half,
// and a stage left unmeasured shows up as a shortfall.

#ifndef MSQ_OBS_ATTRIBUTION_H_
#define MSQ_OBS_ATTRIBUTION_H_

#include <cstddef>
#include <vector>

namespace msq::obs {

/// Stages of a query's end-to-end latency. Values name the `component`
/// label of the msq_latency_component_seconds histogram family.
enum class LatencyComponent {
  kQueueWait = 0,   ///< Submit() to batch flush (admission + coalescing)
  kDispatch,        ///< pool queueing: flush to task start, and inside a
                    ///< parallel executor's rounds (cluster fan-out)
  kLockWait,        ///< serialization on the engine / replica databases
  kMatrixBuild,     ///< query-distance matrix setup (Sec. 5.2)
  kPageIo,          ///< page reads: real preads, spikes, buffer misses
  kKernel,          ///< distance-kernel page processing
  kEngineOther,     ///< residual engine time (heap ops, filtering,
                    ///< per-window metric publication)
  kRetry,           ///< failed attempts' unbilled tails + retry backoff
  kMerge,           ///< cluster-side merge of per-partition answers
};

inline constexpr size_t kNumLatencyComponents = 9;

/// Stable label of one component, e.g. "queue_wait".
const char* LatencyComponentName(LatencyComponent c);

/// Bucket boundaries for msq_latency_component_seconds: 1 us .. ~16.8 s in
/// seconds, doubling (the standard latency ladder, unit-converted).
std::vector<double> LatencySecondsBoundaries();

}  // namespace msq::obs

#endif  // MSQ_OBS_ATTRIBUTION_H_
