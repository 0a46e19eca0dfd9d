// Deterministic fault injection for the serving stack.
//
// The simulated storage of the stock backends (storage/disk_model.h) cannot
// fail, which leaves every error path in the engines, the scheduler and the
// cluster untested in practice. This module supplies the missing failures
// *deterministically*: a seeded FaultInjector decides — from the seed and
// the sequence of page reads alone — which reads fail, which reads stall,
// and whether the whole "server" is down. Two runs with the same seed and
// the same workload inject exactly the same faults, so fault-tolerance
// tests assert exact outcomes instead of sleeping and hoping.
//
// FaultInjectingBackend wraps any QueryBackend; the engines reach it only
// through the one page read, QueryBackend::ReadPageBlockChecked, so a
// backend without the decorator pays nothing.

#ifndef MSQ_ROBUST_FAULT_INJECTOR_H_
#define MSQ_ROBUST_FAULT_INJECTOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/backend.h"
#include "obs/sink.h"

namespace msq::robust {

/// What to inject, and how often. Rates are probabilities in [0, 1] drawn
/// per page read from the injector's seeded Rng; scripted faults
/// (Crash / FailNextPageReads) need no rates and are fully deterministic.
struct FaultPlan {
  uint64_t seed = 1;
  /// Probability that a page read fails with IOError (transient: the same
  /// page can succeed on retry).
  double page_read_fault_rate = 0.0;
  /// Probability that a page read is delayed by `latency_spike` (the read
  /// still succeeds). Models a slow disk / noisy neighbor, and gives
  /// deadline tests something real to exceed.
  double latency_spike_rate = 0.0;
  std::chrono::microseconds latency_spike{0};
  /// nullptr disables the msq_fault_injected_total counters.
  const obs::MetricsSink* metrics = obs::MetricsSink::Default();
};

/// Seeded fault source shared by one simulated server. Thread-safe: the
/// scheduler's engine thread and test threads may flip Crash()/Restore()
/// while reads are in flight.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  /// Marks the server down: every subsequent page read fails with
  /// kUnavailable until Restore(). Idempotent. Unlike the transient
  /// IOError hazards, a crash is deterministic — retry policies skip it
  /// and the cluster fails over to a replica instead.
  void Crash();
  void Restore();
  bool crashed() const;

  /// Schedules a deterministic mid-batch crash: the next `n` page reads
  /// succeed, then the server crashes (read n+1 and everything after fail
  /// with kUnavailable until Restore()). Models a server dying *between*
  /// two page reads of an in-flight batch; n = 0 crashes on the next read.
  /// Re-arming replaces any previously scheduled crash.
  void CrashAfterPageReads(int n);

  /// Scripts the next `n` page reads (across all threads) to fail with a
  /// transient IOError; the faults consume themselves, so read n+1
  /// succeeds. Additive with any pending scripted failures.
  void FailNextPageReads(int n);

  // --- write-side faults (DESIGN §14) -----------------------------------
  // The durability layer routes every pwrite, fsync and rename of
  // PageFile / Wal / checkpoint through OnWrite/OnFsync/OnRename, so a
  // crash can be scheduled at *any* write offset of the save / checkpoint
  // / WAL-append sequence — the kill-at-every-offset recovery matrix
  // enumerates them via write_ops().

  /// Schedules a deterministic crash mid-write-sequence: the next `n`
  /// write ops (pwrites and renames) succeed, then op n+1 fails with
  /// kUnavailable — after laying down at most `torn_bytes` of its payload
  /// (a short/torn pwrite; pass a sector multiple for sector-granular
  /// tears, 0 for nothing reaching the disk). Everything after, reads
  /// included, fails until Restore(). Re-arming replaces any previously
  /// scheduled write crash.
  void CrashAfterWriteOps(int n, size_t torn_bytes = 0);

  /// Scripts the next `n` fsyncs to fail with IOError. The file object
  /// the failure lands on poisons itself (fsyncgate) — that part is the
  /// file's job, not the injector's.
  void FailNextFsyncs(int n);

  /// Hook for one positioned write. On a scheduled crash, caps
  /// `*allowed` to the torn-byte budget and returns kUnavailable.
  Status OnWrite(uint64_t offset, size_t length, size_t* allowed);
  /// Hook for one fsync.
  Status OnFsync();
  /// Hook for one atomic rename (counts as a write op in the crash
  /// schedule: the pre-rename boundary is a distinct crash point).
  Status OnRename();

  /// Write ops (pwrites + renames) observed so far — the matrix runs the
  /// sequence once cleanly to learn its length, then crashes at every k.
  uint64_t write_ops() const;

  /// The decorator's hook: decides the fate of one page read. Returns OK
  /// (possibly after sleeping out a latency spike), kUnavailable (crashed
  /// server) or kIOError (transient fault). Check order: scheduled crash,
  /// crash, scripted failure, probabilistic failure, latency spike.
  Status OnPageRead(PageId page);

  // --- introspection ---------------------------------------------------
  uint64_t faults_injected() const;
  uint64_t spikes_injected() const;

 private:
  const FaultPlan plan_;

  mutable std::mutex mu_;
  Rng rng_;                 // guarded by mu_
  bool crashed_ = false;    // guarded by mu_
  int crash_after_ = -1;    // guarded by mu_; < 0 = no crash scheduled
  int fail_next_ = 0;       // guarded by mu_
  int write_crash_after_ = -1;    // guarded by mu_; < 0 = unarmed
  size_t torn_bytes_ = 0;         // guarded by mu_
  int fail_next_fsyncs_ = 0;      // guarded by mu_
  uint64_t write_ops_ = 0;        // guarded by mu_
  uint64_t faults_injected_ = 0;  // guarded by mu_
  uint64_t spikes_injected_ = 0;  // guarded by mu_

  // Resolved once at construction; null when plan_.metrics is null.
  obs::Counter* crash_faults_ = nullptr;
  obs::Counter* read_faults_ = nullptr;
  obs::Counter* latency_faults_ = nullptr;
  obs::Counter* write_faults_ = nullptr;
  obs::Counter* fsync_faults_ = nullptr;
};

/// QueryBackend decorator routing every checked page read through a
/// FaultInjector. All other operations delegate unchanged; with the
/// injector quiescent (no crash, zero rates, nothing scripted) the wrapped
/// backend answers queries identically to the bare one (bench/micro_robust
/// verifies the overhead is a mutex acquisition per page read).
class FaultInjectingBackend : public QueryBackend {
 public:
  /// Takes over the wrapped backend's lifetime.
  FaultInjectingBackend(std::unique_ptr<QueryBackend> inner,
                        std::shared_ptr<FaultInjector> injector);

  std::string Name() const override { return inner_->Name() + "+faults"; }
  std::unique_ptr<CandidateStream> OpenStream(const Query& query,
                                              QueryStats* stats) override {
    return inner_->OpenStream(query, stats);
  }
  double PageMinDist(PageId page, const Query& q, QueryStats* stats) override {
    return inner_->PageMinDist(page, q, stats);
  }
  Status ReadPageBlockChecked(PageId page, QueryStats* stats,
                              PageBlock* out) override;
  size_t NumDataPages() const override { return inner_->NumDataPages(); }
  size_t NumObjects() const override { return inner_->NumObjects(); }
  const Vec& ObjectVec(ObjectId id) const override {
    return inner_->ObjectVec(id);
  }
  void ResetIoState() override { inner_->ResetIoState(); }
  void NoteFailedRead(QueryStats* stats) override {
    inner_->NoteFailedRead(stats);
  }
  void SetMetricsSink(const obs::MetricsSink* sink) override {
    inner_->SetMetricsSink(sink);
  }
  void AttachPivots(std::shared_ptr<const PivotTable> pivots) override {
    inner_->AttachPivots(std::move(pivots));
  }
  DataLayout* MutableLayout() override { return inner_->MutableLayout(); }
  Status SaveIndex(std::ostream& out) override {
    return inner_->SaveIndex(out);
  }

  FaultInjector* injector() const { return injector_.get(); }

 private:
  std::unique_ptr<QueryBackend> inner_;
  std::shared_ptr<FaultInjector> injector_;
};

}  // namespace msq::robust

#endif  // MSQ_ROBUST_FAULT_INJECTOR_H_
