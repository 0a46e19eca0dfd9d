// Sliding-window histogram: tail latencies over the last N seconds.
//
// The cumulative Histogram answers "what was p99 since process start" —
// useless for watching a live load test, where a 10-minute-old latency
// spike must age out of the percentile. SlidingWindowHistogram keeps a
// small ring of per-epoch slots (window / num_slots wide each); Observe()
// lands the sample in the slot of the current epoch, lazily resetting the
// slot the first time a new epoch touches it, and Snap() merges the slots
// that are still inside the window into one Histogram::Snapshot, so all
// the existing percentile machinery (and the Prometheus renderer) applies
// unchanged.
//
// Concurrency: everything is atomics — no mutex on the observe path. Slot
// rotation uses a CAS to a kRotating sentinel so exactly one writer clears
// a recycled slot, after the writers still adding to it have finished,
// while others spin (bounded: an add and a clear are a handful of atomic
// operations). Two benign races are accepted and documented: a sample
// racing the rotation of its own slot may be dropped (always whole:
// bucket, count and sum together), and a sample whose timestamp is older
// than the whole ring is dropped. Both only matter within one slot width of a
// boundary.

#ifndef MSQ_OBS_WINDOW_H_
#define MSQ_OBS_WINDOW_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace msq::obs {

class SlidingWindowHistogram {
 public:
  /// `boundaries` as for Histogram (inclusive finite upper bounds, one
  /// implicit +Inf bucket). `window` is the reporting horizon; Snap()
  /// covers between `window - window/num_slots` and `window` of history
  /// depending on where in the current slot "now" falls.
  SlidingWindowHistogram(std::vector<double> boundaries,
                         std::chrono::seconds window, size_t num_slots = 8);

  SlidingWindowHistogram(const SlidingWindowHistogram&) = delete;
  SlidingWindowHistogram& operator=(const SlidingWindowHistogram&) = delete;

  /// Records `value` at the current wall (steady) time. Lock-free.
  void Observe(double value);

  /// Merged snapshot of the slots still inside the window, as of now.
  Histogram::Snapshot Snap() const;

  /// Deterministic variants for tests: the caller supplies "now" as
  /// microseconds on the histogram's own clock (0 = construction time).
  /// Negative timestamps are invalid and ignored.
  void ObserveAtMicros(double value, int64_t now_micros);
  Histogram::Snapshot SnapAtMicros(int64_t now_micros) const;

  /// Forgets every recorded sample (slots become never-used again).
  void Reset();

  int64_t slot_width_micros() const { return slot_width_micros_; }
  size_t num_slots() const { return slots_.size(); }
  const std::vector<double>& boundaries() const { return boundaries_; }

 private:
  struct Slot {
    // kNeverUsed when empty since construction/Reset, kRotating while one
    // writer clears it for reuse, else the epoch whose samples it holds.
    std::atomic<int64_t> epoch{kNeverUsed};
    // Writers between their epoch check and their last add; a clear
    // waits for zero.
    std::atomic<uint32_t> writers{0};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_bits{0};
    std::vector<std::atomic<uint64_t>> buckets;  // boundaries.size() + 1
  };

  static constexpr int64_t kNeverUsed = -1;
  static constexpr int64_t kRotating = -2;

  int64_t NowMicros() const;

  std::vector<double> boundaries_;
  int64_t slot_width_micros_;
  std::vector<Slot> slots_;
  std::chrono::steady_clock::time_point origin_;
};

}  // namespace msq::obs

#endif  // MSQ_OBS_WINDOW_H_
