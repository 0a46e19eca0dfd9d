#include "robust/fault_injector.h"

#include <algorithm>
#include <thread>

namespace msq::robust {

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), rng_(plan.seed) {
  if (plan_.metrics != nullptr && plan_.metrics->registry() != nullptr) {
    obs::MetricsRegistry* reg = plan_.metrics->registry();
    const std::string help = "Faults injected by robust::FaultInjector";
    crash_faults_ =
        reg->GetCounter("msq_fault_injected_total", help, "kind=\"crash\"");
    read_faults_ =
        reg->GetCounter("msq_fault_injected_total", help, "kind=\"page_read\"");
    latency_faults_ =
        reg->GetCounter("msq_fault_injected_total", help, "kind=\"latency\"");
    write_faults_ =
        reg->GetCounter("msq_fault_injected_total", help, "kind=\"write\"");
    fsync_faults_ =
        reg->GetCounter("msq_fault_injected_total", help, "kind=\"fsync\"");
  }
}

void FaultInjector::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
}

void FaultInjector::Restore() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = false;
  crash_after_ = -1;
  write_crash_after_ = -1;
  torn_bytes_ = 0;
}

void FaultInjector::CrashAfterPageReads(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_after_ = n;
}

bool FaultInjector::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

void FaultInjector::FailNextPageReads(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_next_ += n;
}

Status FaultInjector::OnPageRead(PageId page) {
  bool spike = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crash_after_ == 0) {
      // The scheduled mid-batch crash fires *between* reads: the previous
      // read completed normally, this one finds the server gone.
      crashed_ = true;
      crash_after_ = -1;
    }
    if (crashed_) {
      ++faults_injected_;
      if (crash_faults_ != nullptr) crash_faults_->Increment();
      return Status::Unavailable("server down: page " + std::to_string(page) +
                                 " unreachable");
    }
    if (fail_next_ > 0) {
      --fail_next_;
      ++faults_injected_;
      if (read_faults_ != nullptr) read_faults_->Increment();
      return Status::IOError("injected transient fault reading page " +
                             std::to_string(page));
    }
    // One Rng draw per configured probabilistic hazard, in a fixed order,
    // so the fault schedule is a pure function of (seed, read sequence).
    if (plan_.page_read_fault_rate > 0.0 &&
        rng_.NextDouble() < plan_.page_read_fault_rate) {
      ++faults_injected_;
      if (read_faults_ != nullptr) read_faults_->Increment();
      return Status::IOError("injected transient fault reading page " +
                             std::to_string(page));
    }
    if (plan_.latency_spike_rate > 0.0 &&
        rng_.NextDouble() < plan_.latency_spike_rate) {
      ++spikes_injected_;
      if (latency_faults_ != nullptr) latency_faults_->Increment();
      spike = true;
    }
    // The read succeeds: one step closer to a scheduled crash.
    if (crash_after_ > 0) --crash_after_;
  }
  // Sleep outside the lock: a stalled read must not block other threads'
  // fault decisions (or Crash()/Restore() from a test driver).
  if (spike && plan_.latency_spike.count() > 0) {
    std::this_thread::sleep_for(plan_.latency_spike);
  }
  return Status::OK();
}

void FaultInjector::CrashAfterWriteOps(int n, size_t torn_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  write_crash_after_ = n;
  torn_bytes_ = torn_bytes;
}

void FaultInjector::FailNextFsyncs(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_next_fsyncs_ += n;
}

Status FaultInjector::OnWrite(uint64_t offset, size_t length,
                              size_t* allowed) {
  std::lock_guard<std::mutex> lock(mu_);
  ++write_ops_;
  if (write_crash_after_ == 0) {
    // The power cut lands *inside* this pwrite: at most torn_bytes_ of
    // its payload reach the platter, then the machine is gone.
    crashed_ = true;
    write_crash_after_ = -1;
    *allowed = std::min(torn_bytes_, length);
    ++faults_injected_;
    if (write_faults_ != nullptr) write_faults_->Increment();
    return Status::Unavailable(
        "server crashed during write at offset " + std::to_string(offset));
  }
  if (crashed_) {
    ++faults_injected_;
    if (crash_faults_ != nullptr) crash_faults_->Increment();
    *allowed = 0;
    return Status::Unavailable("server down: write at offset " +
                               std::to_string(offset) + " unreachable");
  }
  if (write_crash_after_ > 0) --write_crash_after_;
  return Status::OK();
}

Status FaultInjector::OnFsync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) {
    ++faults_injected_;
    if (crash_faults_ != nullptr) crash_faults_->Increment();
    return Status::Unavailable("server down: fsync unreachable");
  }
  if (fail_next_fsyncs_ > 0) {
    --fail_next_fsyncs_;
    ++faults_injected_;
    if (fsync_faults_ != nullptr) fsync_faults_->Increment();
    return Status::IOError("injected fsync failure");
  }
  return Status::OK();
}

Status FaultInjector::OnRename() {
  size_t allowed = 0;
  return OnWrite(/*offset=*/0, /*length=*/0, &allowed);
}

uint64_t FaultInjector::write_ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_ops_;
}

uint64_t FaultInjector::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_injected_;
}

uint64_t FaultInjector::spikes_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spikes_injected_;
}

FaultInjectingBackend::FaultInjectingBackend(
    std::unique_ptr<QueryBackend> inner,
    std::shared_ptr<FaultInjector> injector)
    : inner_(std::move(inner)), injector_(std::move(injector)) {}

Status FaultInjectingBackend::ReadPageBlockChecked(PageId page,
                                                   QueryStats* stats,
                                                   PageBlock* out) {
  Status st = injector_->OnPageRead(page);
  if (!st.ok()) {
    // The seek was attempted: charge it, and leave the simulated head
    // position unknown so the next successful read is a random access.
    inner_->NoteFailedRead(stats);
    return st;
  }
  return inner_->ReadPageBlockChecked(page, stats, out);
}

}  // namespace msq::robust
