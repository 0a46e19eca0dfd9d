#include "obs/window.h"

#include <algorithm>
#include <bit>
#include <thread>

namespace msq::obs {

SlidingWindowHistogram::SlidingWindowHistogram(std::vector<double> boundaries,
                                              std::chrono::seconds window,
                                              size_t num_slots)
    : boundaries_(std::move(boundaries)),
      slots_(std::max<size_t>(num_slots, 1)),
      origin_(std::chrono::steady_clock::now()) {
  const int64_t window_micros = std::max<int64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(window).count(),
      1);
  slot_width_micros_ =
      std::max<int64_t>(window_micros / static_cast<int64_t>(slots_.size()), 1);
  for (Slot& slot : slots_) {
    slot.buckets = std::vector<std::atomic<uint64_t>>(boundaries_.size() + 1);
  }
}

int64_t SlidingWindowHistogram::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void SlidingWindowHistogram::Observe(double value) {
  ObserveAtMicros(value, NowMicros());
}

Histogram::Snapshot SlidingWindowHistogram::Snap() const {
  return SnapAtMicros(NowMicros());
}

void SlidingWindowHistogram::ObserveAtMicros(double value, int64_t now_micros) {
  if (now_micros < 0) return;
  const int64_t epoch = now_micros / slot_width_micros_;
  Slot& slot = slots_[static_cast<size_t>(epoch) % slots_.size()];

  // Claim the slot for `epoch`, recycling it if it still holds an older
  // epoch. Exactly one writer performs the clear (CAS to kRotating); the
  // others spin until the new epoch is published. A writer holds a
  // `writers` reference from its epoch check to its last add, and the
  // clear waits for those to drain, so a sample is never split across a
  // clear (bucket and count kept, sum lost). The reference is taken
  // before the epoch is read and the rotator reads `writers` after its
  // CAS, both seq_cst: one of the two always sees the other.
  for (;;) {
    slot.writers.fetch_add(1, std::memory_order_seq_cst);
    int64_t cur = slot.epoch.load(std::memory_order_seq_cst);
    if (cur == epoch) break;
    slot.writers.fetch_sub(1, std::memory_order_release);
    if (cur == kRotating) {
      std::this_thread::yield();
      continue;
    }
    if (cur > epoch) return;  // sample older than the whole ring: dropped
    if (slot.epoch.compare_exchange_weak(cur, kRotating,
                                         std::memory_order_seq_cst)) {
      while (slot.writers.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
      for (std::atomic<uint64_t>& b : slot.buckets) {
        b.store(0, std::memory_order_relaxed);
      }
      slot.count.store(0, std::memory_order_relaxed);
      slot.sum_bits.store(0, std::memory_order_relaxed);
      slot.epoch.store(epoch, std::memory_order_release);
    }
  }

  const auto it =
      std::lower_bound(boundaries_.begin(), boundaries_.end(), value);
  const size_t bucket = static_cast<size_t>(it - boundaries_.begin());
  slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  slot.count.fetch_add(1, std::memory_order_relaxed);
  uint64_t old_bits = slot.sum_bits.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t new_bits =
        std::bit_cast<uint64_t>(std::bit_cast<double>(old_bits) + value);
    if (slot.sum_bits.compare_exchange_weak(old_bits, new_bits,
                                            std::memory_order_relaxed)) {
      break;
    }
  }
  slot.writers.fetch_sub(1, std::memory_order_release);
}

Histogram::Snapshot SlidingWindowHistogram::SnapAtMicros(
    int64_t now_micros) const {
  Histogram::Snapshot snap;
  snap.boundaries = boundaries_;
  snap.counts.assign(boundaries_.size() + 1, 0);
  if (now_micros < 0) return snap;
  const int64_t epoch = now_micros / slot_width_micros_;
  const int64_t oldest = epoch - static_cast<int64_t>(slots_.size()) + 1;
  for (const Slot& slot : slots_) {
    const int64_t e = slot.epoch.load(std::memory_order_acquire);
    // e < 0 covers kNeverUsed/kRotating even when `oldest` is negative
    // (first revolution of the ring).
    if (e < 0 || e < oldest || e > epoch) continue;
    for (size_t i = 0; i < snap.counts.size(); ++i) {
      snap.counts[i] += slot.buckets[i].load(std::memory_order_relaxed);
    }
    snap.count += slot.count.load(std::memory_order_relaxed);
    snap.sum +=
        std::bit_cast<double>(slot.sum_bits.load(std::memory_order_relaxed));
  }
  return snap;
}

void SlidingWindowHistogram::Reset() {
  for (Slot& slot : slots_) {
    slot.epoch.store(kNeverUsed, std::memory_order_release);
  }
}

}  // namespace msq::obs
