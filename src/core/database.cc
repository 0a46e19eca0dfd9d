#include "core/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>

#include "common/serialize.h"
#include "core/single_query.h"
#include "dist/builtin_metrics.h"
#include "robust/fault_injector.h"
#include "storage/fs_util.h"
#include "storage/page_file.h"

namespace msq {

namespace {

// Database metadata blob ("meta" object of the page store). Version 2
// appends the checkpoint nonce (DESIGN §14); version-1 files (pre-WAL)
// stay readable.
constexpr uint32_t kDbMetaTag = 0x4d535142;  // "MSQB"
constexpr uint32_t kDbMetaVersionV1 = 1;
constexpr uint32_t kDbMetaVersion = 2;

/// Fresh checkpoint nonce: random, never zero (0 means "no nonce").
/// thread_local: std::random_device is not required to be thread-safe, and
/// two MetricDatabase instances checkpointing concurrently hold only their
/// own writer_mu_.
uint64_t GenerateCheckpointNonce() {
  thread_local std::random_device entropy;
  const uint64_t mixed =
      (static_cast<uint64_t>(entropy()) << 32) ^ entropy() ^
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
  return mixed == 0 ? 1 : mixed;
}

/// Deterministic stand-in nonce for version-1 files, derived from the
/// stored meta extent's CRC and the file's block count: stable across
/// opens of the same file, different after any rewrite — exactly the
/// properties WAL staleness detection needs.
uint64_t LegacyNonceFor(const PageFile& store) {
  auto it = store.objects().find("meta");
  const uint64_t crc = it == store.objects().end() ? 0 : it->second.crc;
  const uint64_t mixed = (crc << 24) ^ store.num_blocks();
  return mixed == 0 ? 1 : mixed;
}

const std::string kWalSuffix = ".wal";
const std::string kTmpSuffix = ".tmp";

/// Builds the base backend for `dataset` — the switch Open and Compact
/// share — and applies the fault-injection wrap, so a compacted base has
/// exactly the wiring of a freshly opened one.
StatusOr<std::unique_ptr<QueryBackend>> BuildBaseBackend(
    const std::shared_ptr<const Dataset>& dataset,
    const std::shared_ptr<const Metric>& metric,
    const DatabaseOptions& options) {
  std::unique_ptr<QueryBackend> backend;
  switch (options.backend) {
    case BackendKind::kLinearScan: {
      LinearScanOptions scan_options;
      scan_options.page_size_bytes = options.page_size_bytes;
      scan_options.buffer_fraction = options.buffer_fraction;
      auto built = LinearScanBackend::Build(dataset, scan_options);
      if (!built.ok()) return built.status();
      backend = std::move(built).value();
      break;
    }
    case BackendKind::kXTree: {
      XTreeOptions xtree_options = options.xtree;
      xtree_options.page_size_bytes = options.page_size_bytes;
      xtree_options.buffer_fraction = options.buffer_fraction;
      auto built = options.xtree_dynamic_build
                       ? XTreeBackend::BuildByInsertion(dataset, metric,
                                                        xtree_options)
                       : XTreeBackend::BulkLoad(dataset, metric, xtree_options);
      if (!built.ok()) return built.status();
      backend = std::move(built).value();
      break;
    }
    case BackendKind::kMTree: {
      MTreeOptions mtree_options = options.mtree;
      mtree_options.page_size_bytes = options.page_size_bytes;
      mtree_options.buffer_fraction = options.buffer_fraction;
      auto built = MTreeBackend::Build(dataset, metric, mtree_options);
      if (!built.ok()) return built.status();
      backend = std::move(built).value();
      break;
    }
    case BackendKind::kVaFile: {
      VaFileOptions va_options = options.va_file;
      va_options.page_size_bytes = options.page_size_bytes;
      va_options.buffer_fraction = options.buffer_fraction;
      auto built = VaFileBackend::Build(dataset, metric, va_options);
      if (!built.ok()) return built.status();
      backend = std::move(built).value();
      break;
    }
  }
  if (options.fault_injector != nullptr) {
    backend = std::make_unique<robust::FaultInjectingBackend>(
        std::move(backend), options.fault_injector);
  }
  return backend;
}

}  // namespace

std::string BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kLinearScan:
      return "linear_scan";
    case BackendKind::kXTree:
      return "xtree";
    case BackendKind::kMTree:
      return "mtree";
    case BackendKind::kVaFile:
      return "va_file";
  }
  return "unknown";
}

MetricDatabase::MetricDatabase(std::shared_ptr<const Dataset> dataset,
                               std::shared_ptr<const Metric> metric,
                               DatabaseOptions options)
    : dataset_(std::move(dataset)),
      metric_(std::move(metric)),
      options_(std::move(options)),
      // Fresh query ids live above the ObjectId range so that object
      // queries (id == object id) never collide with them.
      next_query_id_(static_cast<QueryId>(1) << 32) {}

StatusOr<std::unique_ptr<MetricDatabase>> MetricDatabase::Open(
    Dataset dataset, std::shared_ptr<const Metric> metric,
    const DatabaseOptions& options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (metric == nullptr) {
    return Status::InvalidArgument("metric is null");
  }
  auto shared = std::make_shared<Dataset>(std::move(dataset));
  auto db = std::unique_ptr<MetricDatabase>(
      new MetricDatabase(shared, metric, options));

  auto built = BuildBaseBackend(shared, metric, options);
  if (!built.ok()) return built.status();
  db->WireEngine(std::move(built).value());
  if (options.pivots.enabled) {
    auto table = PivotTable::Build(*shared, *metric, options.pivots.table);
    if (!table.ok()) return table.status();
    db->ArmPivots(std::shared_ptr<const PivotTable>(std::move(table).value()));
  }
  return db;
}

void MetricDatabase::ArmPivots(std::shared_ptr<const PivotTable> table) {
  // MutableBackend::AttachPivots publishes the table into the current
  // version (generation unchanged: pre-query wiring) and forwards it to
  // the base for its index-side structures.
  engine_->AttachPivots(table);
  backend_->AttachPivots(std::move(table));
}

void MetricDatabase::WireEngine(std::unique_ptr<QueryBackend> base) {
  auto overlay = std::make_unique<MutableBackend>(
      std::shared_ptr<QueryBackend>(std::move(base)), dataset_);
  overlay_ = overlay.get();
  backend_ = std::move(overlay);
  engine_ = std::make_unique<MultiQueryEngine>(backend_.get(), metric_,
                                               options_.multi);
  // The storage side (buffer pool) shares the engine's observability sink.
  backend_->SetMetricsSink(options_.multi.metrics);
  if (options_.multi.metrics != nullptr &&
      options_.multi.metrics->registry() != nullptr) {
    obs::MetricsRegistry* reg = options_.multi.metrics->registry();
    mutation_metrics_.inserts =
        reg->GetCounter("msq_inserts_total", "Objects inserted");
    mutation_metrics_.deletes =
        reg->GetCounter("msq_deletes_total", "Objects tombstoned");
    mutation_metrics_.compactions =
        reg->GetCounter("msq_compactions_total", "Overlay compactions");
    mutation_metrics_.checkpoints = reg->GetCounter(
        "msq_checkpoints_total", "Atomic checkpoints (WAL truncations)");
    mutation_metrics_.recoveries = reg->GetCounter(
        "msq_recoveries_total", "Opens that replayed a non-empty WAL");
    mutation_metrics_.wal_replayed =
        reg->GetCounter("msq_wal_replayed_records_total",
                        "WAL records replayed during recovery");
    mutation_metrics_.tombstones_live =
        reg->GetGauge("msq_tombstones_live", "Tombstones awaiting compaction");
    mutation_metrics_.delta_objects =
        reg->GetGauge("msq_delta_objects", "Delta-segment objects");
    mutation_metrics_.epoch_reclaim_lag = reg->GetGauge(
        "msq_epoch_reclaim_lag",
        "Epochs between the oldest unreclaimed version and the current epoch");
  }
}

void MetricDatabase::PublishMutationGauges(const LiveVersion& v) {
  if (mutation_metrics_.tombstones_live != nullptr) {
    mutation_metrics_.tombstones_live->Set(
        static_cast<int64_t>(v.tomb_count));
    mutation_metrics_.delta_objects->Set(
        static_cast<int64_t>(v.delta.size()));
    mutation_metrics_.epoch_reclaim_lag->Set(
        static_cast<int64_t>(overlay_->epochs().ReclaimLagEpochs()));
  }
}

void MetricDatabase::BeginRead(ReadSession* session) {
  session->guard = overlay_->epochs().Pin();
  session->version = overlay_->Current();
  session->overlay = overlay_;
  overlay_->InstallActive(session->version);
  if (session->version->generation != engine_generation_) {
    // The version moved under the engine: buffered partial answers may
    // cite tombstoned objects and delta pseudo-pages change composition
    // as the delta grows, so all buffered state is invalid. Unmutated
    // databases never take this branch.
    engine_->Reset();
    engine_->AttachPivots(session->version->pivots);
    engine_generation_ = session->version->generation;
  }
}

std::shared_ptr<const LiveVersion> MetricDatabase::CurrentVersion() const {
  return overlay_->Current();
}

StatusOr<ObjectId> MetricDatabase::Insert(Vec point, int32_t label) {
  if (point.size() != dataset_->dim()) {
    return Status::InvalidArgument("inserted object has dimension " +
                                   std::to_string(point.size()) +
                                   ", database has " +
                                   std::to_string(dataset_->dim()));
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const LiveVersion> cur = overlay_->Current();
  if (cur->total_objects() + 1 >= static_cast<size_t>(kInvalidObjectId)) {
    return Status::ResourceExhausted("object id space exhausted");
  }
  // Log before publish: a mutation the WAL could not make durable is
  // rejected outright instead of living only in memory.
  MSQ_RETURN_IF_ERROR(LogMutationLocked(WalRecord::Insert(point, label)));
  auto next = std::make_shared<LiveVersion>(*cur);
  const ObjectId id = static_cast<ObjectId>(next->total_objects());
  if (next->pivots != nullptr) {
    // Maintain, don't rebuild: one appended row keeps the filter
    // bit-correct for the new object (PivotTable::WithAppendedRow).
    next->pivots = next->pivots->WithAppendedRow(point, *metric_);
  }
  next->delta.PushBack(std::move(point));
  next->delta_labels.PushBack(label);
  ++next->generation;
  PublishMutationGauges(*next);
  overlay_->Publish(std::move(next));
  if (mutation_metrics_.inserts != nullptr) {
    mutation_metrics_.inserts->Increment();
  }
  if (MaybeAutoCheckpointLocked()) {
    // The auto-checkpoint folded the overlay and renumbered survivors.
    // The object just inserted is last in insertion order, so its
    // post-fold id is the highest live one — return that, not the stale
    // pre-fold id.
    return static_cast<ObjectId>(overlay_->Current()->total_objects() - 1);
  }
  return id;
}

Status MetricDatabase::Delete(ObjectId id) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const LiveVersion> cur = overlay_->Current();
  if (static_cast<size_t>(id) >= cur->total_objects()) {
    return Status::InvalidArgument("object id out of range");
  }
  if (cur->tombstoned(id)) {
    return Status::InvalidArgument("object is already deleted");
  }
  if (cur->live_objects() == 1) {
    return Status::InvalidArgument("cannot delete the last live object");
  }
  MSQ_RETURN_IF_ERROR(LogMutationLocked(WalRecord::Delete(id)));
  auto next = std::make_shared<LiveVersion>(*cur);
  while (next->tombstones.size() <= static_cast<size_t>(id)) {
    next->tombstones.PushBack(0);
  }
  next->tombstones.Set(id, 1);
  ++next->tomb_count;
  ++next->generation;
  PublishMutationGauges(*next);
  overlay_->Publish(std::move(next));
  if (mutation_metrics_.deletes != nullptr) {
    mutation_metrics_.deletes->Increment();
  }
  MaybeAutoCheckpointLocked();
  return Status::OK();
}

Status MetricDatabase::Compact() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // A compaction renumbers survivors, but recovery replays the whole WAL
  // against the pre-compaction checkpoint — a Delete logged after a bare
  // in-memory fold would tombstone the wrong object after a crash. With
  // durability armed, fold through a full checkpoint instead: the
  // renumbered base lands on disk under a fresh nonce and the old log is
  // retired before any post-compaction record can reference the new id
  // space. (Also heals a detached WAL, like any checkpoint.)
  if (wal_ != nullptr ||
      (options_.durability.wal_enabled && !bound_path_.empty())) {
    return CheckpointLocked();
  }
  return CompactLocked();
}

Status MetricDatabase::CompactLocked() {
  std::shared_ptr<const LiveVersion> cur = overlay_->Current();
  if (!cur->has_overlay()) return Status::OK();

  // Survivors in base order, then insertion order: the id mapping after a
  // compaction is "position among survivors".
  std::vector<Vec> objects;
  std::vector<int32_t> labels;
  objects.reserve(cur->live_objects());
  bool want_labels = cur->base_dataset->has_labels();
  for (size_t i = 0; i < cur->delta.size() && !want_labels; ++i) {
    want_labels = cur->delta_labels[i] != kNoLabel;
  }
  for (size_t id = 0; id < cur->base_n; ++id) {
    if (cur->tombstoned(id)) continue;
    objects.push_back(cur->base_dataset->object(static_cast<ObjectId>(id)));
    if (want_labels) {
      labels.push_back(cur->base_dataset->label(static_cast<ObjectId>(id)));
    }
  }
  for (size_t i = 0; i < cur->delta.size(); ++i) {
    if (cur->tombstoned(cur->base_n + i)) continue;
    objects.push_back(cur->delta[i]);
    if (want_labels) labels.push_back(cur->delta_labels[i]);
  }
  if (objects.empty()) {
    return Status::Internal("no live objects to compact");
  }
  Dataset compacted(dataset_->dim(), std::move(objects));
  if (want_labels) compacted.set_labels(std::move(labels));
  auto shared = std::make_shared<Dataset>(std::move(compacted));

  auto built = BuildBaseBackend(shared, metric_, options_);
  if (!built.ok()) return built.status();
  std::shared_ptr<QueryBackend> base(std::move(built).value());

  std::shared_ptr<const PivotTable> pivots;
  if (cur->pivots != nullptr) {
    // Re-selected over the survivor set with the configured options —
    // exactly what a fresh build of the same objects would arm, which is
    // what the quiesced-equality guarantee promises.
    auto table = PivotTable::Build(*shared, *metric_, options_.pivots.table);
    if (!table.ok()) return table.status();
    pivots = std::shared_ptr<const PivotTable>(std::move(table).value());
    base->AttachPivots(pivots);
  }
  base->SetMetricsSink(overlay_->metrics_sink());

  auto next = std::make_shared<LiveVersion>();
  next->base_n = shared->size();
  const size_t base_pages = std::max<size_t>(1, base->NumDataPages());
  next->delta_page_cap =
      std::max<size_t>(1, (next->base_n + base_pages - 1) / base_pages);
  next->base = std::move(base);
  next->base_dataset = shared;
  next->pivots = std::move(pivots);
  next->generation = cur->generation + 1;
  PublishMutationGauges(*next);
  overlay_->Publish(std::move(next));
  if (mutation_metrics_.compactions != nullptr) {
    mutation_metrics_.compactions->Increment();
    mutation_metrics_.epoch_reclaim_lag->Set(
        static_cast<int64_t>(overlay_->epochs().ReclaimLagEpochs()));
  }
  return Status::OK();
}

Status MetricDatabase::Save(const std::string& path) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // A mutated database compacts first: the page store persists bases, not
  // overlays, and the compacted base is storeless even when the previous
  // base came from a store — so a reopened database can be mutated and
  // saved to a new path.
  const bool had_overlay = overlay_->Current()->has_overlay();
  MSQ_RETURN_IF_ERROR(CompactLocked());
  bool rename_attempted = false;
  Status saved = SaveLocked(path, &rename_attempted);
  if (!saved.ok()) {
    if (wal_ != nullptr &&
        (had_overlay || (rename_attempted && path == bound_path_))) {
      // Either the fold just renumbered ids under the attached log, or
      // the failed save targeted this log's own checkpoint and its rename
      // may already have landed with a new nonce. Records appended from
      // here would diverge from what recovery replays, so detach the log:
      // mutations fail loudly (Unavailable) until a successful
      // Checkpoint() rebinds.
      wal_.reset();
    }
    return saved;
  }
  return BindDurabilityLocked(path);
}

Status MetricDatabase::WriteStoreLocked(const std::string& tmp_path,
                                        uint64_t nonce) {
  // The writer's own snapshot, never backend_: the overlay resolves that
  // through the snapshot a concurrent reader installed, which may still
  // hold a superseded base.
  std::shared_ptr<const LiveVersion> cur = overlay_->Current();
  const Dataset& data = *cur->base_dataset;
  DataLayout* layout = cur->base->MutableLayout();
  if (layout == nullptr) {
    return Status::NotSupported("backend has no persistable data layout");
  }
  if (layout->has_store()) {
    return Status::NotSupported(
        "database is already backed by a page store; re-saving a reopened "
        "database is not supported");
  }
  auto created = PageFile::Create(tmp_path);
  if (!created.ok()) return created.status();
  std::unique_ptr<PageFile> store = std::move(created).value();
  if (options_.fault_injector != nullptr) {
    std::shared_ptr<robust::FaultInjector> inj = options_.fault_injector;
    store->SetWriteFaultHook(
        [inj](uint64_t offset, size_t length, size_t* allowed) {
          return inj->OnWrite(offset, length, allowed);
        });
    store->SetFsyncFaultHook([inj] { return inj->OnFsync(); });
  }
  // Data pages first: a sequential scan of the reopened database walks the
  // file front to back.
  MSQ_RETURN_IF_ERROR(layout->SaveToStore(store.get()));
  std::ostringstream index;
  MSQ_RETURN_IF_ERROR(cur->base->SaveIndex(index));
  MSQ_RETURN_IF_ERROR(store->PutObject("index", index.str()));
  if (data.has_labels()) {
    std::ostringstream labels;
    MSQ_RETURN_IF_ERROR(WriteVector(labels, data.labels()));
    MSQ_RETURN_IF_ERROR(store->PutObject("labels", labels.str()));
  }
  if (cur->pivots != nullptr) {
    // The pivot table is part of the database: a reopened file filters
    // with exactly the pivots (and counters) the saved one did. Presence
    // of the "pivots" object is the arming flag — stores without pivots
    // stay readable as before.
    std::ostringstream pivots;
    MSQ_RETURN_IF_ERROR(cur->pivots->SaveTo(pivots));
    MSQ_RETURN_IF_ERROR(store->PutObject("pivots", pivots.str()));
  }
  std::ostringstream meta;
  MSQ_RETURN_IF_ERROR(WriteU32(meta, kDbMetaTag));
  MSQ_RETURN_IF_ERROR(WriteU32(meta, kDbMetaVersion));
  MSQ_RETURN_IF_ERROR(
      WriteU32(meta, static_cast<uint32_t>(options_.backend)));
  MSQ_RETURN_IF_ERROR(WriteString(meta, metric_->Name()));
  MSQ_RETURN_IF_ERROR(WriteU32(meta, static_cast<uint32_t>(data.dim())));
  MSQ_RETURN_IF_ERROR(WriteU64(meta, data.size()));
  MSQ_RETURN_IF_ERROR(WriteU64(meta, options_.page_size_bytes));
  MSQ_RETURN_IF_ERROR(WriteF64(meta, options_.buffer_fraction));
  MSQ_RETURN_IF_ERROR(WriteU32(meta, options_.xtree_dynamic_build ? 1 : 0));
  MSQ_RETURN_IF_ERROR(WriteU64(meta, nonce));
  MSQ_RETURN_IF_ERROR(store->PutObject("meta", meta.str()));
  MSQ_RETURN_IF_ERROR(store->Sync());
  return store->Close();
}

Status MetricDatabase::SaveLocked(const std::string& path,
                                  bool* rename_attempted) {
  // Write-to-temp → fsync → rename → fsync(dir): the only mutation of
  // `path` itself is the atomic rename, so a crash anywhere in this
  // sequence leaves either the previous file or the new one — never a
  // truncated or half-written store.
  if (rename_attempted != nullptr) *rename_attempted = false;
  const uint64_t nonce = GenerateCheckpointNonce();
  const std::string tmp = path + kTmpSuffix;
  Status st = WriteStoreLocked(tmp, nonce);
  if (st.ok() && options_.fault_injector != nullptr) {
    st = options_.fault_injector->OnRename();
  }
  if (st.ok()) {
    // From here on a failure (e.g. the directory fsync, which runs after
    // the rename is visible) no longer implies the old file survived —
    // callers must treat the new nonce as possibly durable.
    if (rename_attempted != nullptr) *rename_attempted = true;
    st = DurableRename(tmp, path);
  }
  if (!st.ok()) {
    RemoveFileIfExists(tmp);
    return st;
  }
  checkpoint_nonce_ = nonce;
  return Status::OK();
}

Status MetricDatabase::BindDurabilityLocked(const std::string& path) {
  bound_path_ = path;
  wal_.reset();  // a WAL bound to a previous path is folded or stale
  if (!options_.durability.wal_enabled) {
    // No log to keep in sync: drop any leftover one (a stale WAL would be
    // discarded by nonce anyway; removing it keeps the directory clean).
    RemoveFileIfExists(path + kWalSuffix);
    return Status::OK();
  }
  Wal::Options wal_options;
  wal_options.fsync_policy = options_.durability.wal_fsync_policy;
  wal_options.fsync_every_n = options_.durability.wal_fsync_every_n;
  wal_options.metrics = options_.multi.metrics;
  if (options_.fault_injector != nullptr) {
    std::shared_ptr<robust::FaultInjector> inj = options_.fault_injector;
    wal_options.write_fault_hook =
        [inj](uint64_t offset, size_t length, size_t* allowed) {
          return inj->OnWrite(offset, length, allowed);
        };
    wal_options.fsync_fault_hook = [inj] { return inj->OnFsync(); };
  }
  // The nonce is fresh, so whatever sits at `<path>.wal` is stale by
  // definition and OpenForAppend resets it to an empty log.
  WalReplayResult replay;
  auto wal = Wal::OpenForAppend(path + kWalSuffix, checkpoint_nonce_,
                                wal_options, &replay);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).value();
  return Status::OK();
}

Status MetricDatabase::Checkpoint() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return CheckpointLocked();
}

Status MetricDatabase::CheckpointLocked() {
  if (bound_path_.empty()) {
    return Status::InvalidArgument(
        "Checkpoint() requires a file-bound database (Save or Open(path) "
        "first)");
  }
  std::shared_ptr<const LiveVersion> cur = overlay_->Current();
  const bool wal_dirty = wal_ != nullptr && wal_->records_appended() > 0;
  if (!cur->has_overlay() && !wal_dirty) {
    // Nothing to fold. Heal a detached WAL handle (a previous checkpoint
    // failed mid-save or mid-swap) by writing a *fresh* checkpoint: the
    // in-memory state may have diverged from checkpoint+log — a published
    // fold whose save then faulted leaves the on-disk log holding records
    // in the pre-fold id space — so rebinding the old log as-is could
    // replay records against the wrong id space after a later crash.
    if (options_.durability.wal_enabled && wal_ == nullptr) {
      MSQ_RETURN_IF_ERROR(SaveLocked(bound_path_));
      if (mutation_metrics_.checkpoints != nullptr) {
        mutation_metrics_.checkpoints->Increment();
      }
      return BindDurabilityLocked(bound_path_);
    }
    return Status::OK();
  }
  const bool had_overlay = cur->has_overlay();
  MSQ_RETURN_IF_ERROR(CompactLocked());
  bool rename_attempted = false;
  Status saved = SaveLocked(bound_path_, &rename_attempted);
  if (!saved.ok()) {
    if (wal_ != nullptr && (had_overlay || rename_attempted)) {
      // SaveLocked can fail *after* its rename landed (the directory
      // fsync runs once the rename is already visible): the on-disk
      // checkpoint may then carry the new nonce while wal_ still frames
      // the old one, so an Append that succeeds from here would be
      // silently discarded as stale by recovery. And even without the
      // rename, the fold above renumbered ids under the attached log.
      // Detach it: mutations fail loudly (Unavailable) until a successful
      // Checkpoint() rebinds.
      wal_.reset();
    }
    return saved;
  }
  // Checkpoint is durable from here on: even if the WAL swap below fails,
  // recovery discards the now-stale log by nonce.
  if (mutation_metrics_.checkpoints != nullptr) {
    mutation_metrics_.checkpoints->Increment();
  }
  return BindDurabilityLocked(bound_path_);
}

Status MetricDatabase::LogMutationLocked(const WalRecord& record) {
  if (wal_ != nullptr) return wal_->Append(record);
  if (options_.durability.wal_enabled && !bound_path_.empty()) {
    // Durability is armed but the log is gone (failed WAL swap): accepting
    // the mutation would make it silently undurable.
    return Status::Unavailable(
        "mutation WAL unavailable; run Checkpoint() or reopen the database");
  }
  return Status::OK();
}

bool MetricDatabase::MaybeAutoCheckpointLocked() {
  if (wal_ == nullptr || bound_path_.empty()) return false;
  const DatabaseOptions::DurabilityOptions& d = options_.durability;
  bool trigger = false;
  if (d.auto_checkpoint_wal_bytes > 0 &&
      wal_->size_bytes() >= d.auto_checkpoint_wal_bytes) {
    trigger = true;
  }
  if (!trigger && d.auto_checkpoint_tombstone_ratio > 0.0) {
    std::shared_ptr<const LiveVersion> cur = overlay_->Current();
    if (cur->total_objects() > 0 &&
        static_cast<double>(cur->tomb_count) /
                static_cast<double>(cur->total_objects()) >=
            d.auto_checkpoint_tombstone_ratio) {
      trigger = true;
    }
  }
  if (!trigger) return false;
  // Best-effort: the mutation that tripped the threshold is already
  // durable in the WAL, so a failed fold loses nothing — the next
  // mutation retries.
  const uint64_t gen_before = overlay_->Current()->generation;
  Status st = CheckpointLocked();
  if (!st.ok()) {
    std::fprintf(stderr, "msq: warning: auto-checkpoint of %s failed: %s\n",
                 bound_path_.c_str(), st.ToString().c_str());
  }
  // Even a failed checkpoint may have published its compaction before the
  // save faulted: report the renumbering whenever the version moved, so
  // Insert can hand back a post-fold id.
  return overlay_->Current()->generation != gen_before;
}

StatusOr<std::unique_ptr<MetricDatabase>> MetricDatabase::Open(
    const std::string& path, const DatabaseOptions& runtime,
    std::shared_ptr<const Metric> metric) {
  auto opened = PageFile::Open(path);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<PageFile> store = std::move(opened).value();

  std::string meta_bytes;
  MSQ_RETURN_IF_ERROR(store->GetObject("meta", &meta_bytes));
  std::istringstream meta(meta_bytes);
  MSQ_RETURN_IF_ERROR(ExpectTag(meta, kDbMetaTag, "database metadata"));
  uint32_t version = 0;
  MSQ_RETURN_IF_ERROR(ReadU32(meta, &version));
  if (version != kDbMetaVersionV1 && version != kDbMetaVersion) {
    return Status::NotSupported("unsupported database format version " +
                                std::to_string(version));
  }
  uint32_t backend_raw = 0, dim = 0, dynamic_build = 0;
  uint64_t n = 0, page_size = 0, checkpoint_nonce = 0;
  double buffer_fraction = 0.0;
  std::string metric_name;
  MSQ_RETURN_IF_ERROR(ReadU32(meta, &backend_raw));
  MSQ_RETURN_IF_ERROR(ReadString(meta, &metric_name));
  MSQ_RETURN_IF_ERROR(ReadU32(meta, &dim));
  MSQ_RETURN_IF_ERROR(ReadU64(meta, &n));
  MSQ_RETURN_IF_ERROR(ReadU64(meta, &page_size));
  MSQ_RETURN_IF_ERROR(ReadF64(meta, &buffer_fraction));
  MSQ_RETURN_IF_ERROR(ReadU32(meta, &dynamic_build));
  if (version >= kDbMetaVersion) {
    MSQ_RETURN_IF_ERROR(ReadU64(meta, &checkpoint_nonce));
  }
  if (meta.peek() != std::istringstream::traits_type::eof()) {
    return Status::Corruption("trailing bytes after database metadata");
  }
  if (version == kDbMetaVersionV1) {
    // Pre-WAL file: synthesize a stable nonce so staleness detection
    // still works against any log that might sit next to it.
    checkpoint_nonce = LegacyNonceFor(*store);
  }
  if (backend_raw > static_cast<uint32_t>(BackendKind::kVaFile) ||
      dim == 0 || n == 0 || page_size == 0 || buffer_fraction < 0.0 ||
      !(buffer_fraction <= 1.0)) {
    return Status::Corruption("database metadata out of bounds");
  }
  const BackendKind kind = static_cast<BackendKind>(backend_raw);

  if (metric == nullptr) {
    auto made = MetricFromName(metric_name);
    if (!made.ok()) return made.status();
    metric = std::move(made).value();
  } else if (metric->Name() != metric_name) {
    return Status::InvalidArgument("supplied metric \"" + metric->Name() +
                                   "\" does not match the stored metric \"" +
                                   metric_name + "\"");
  }

  // Rebuild the dataset from the stored data pages.
  size_t stored_dim = 0;
  std::vector<Vec> objects;
  MSQ_RETURN_IF_ERROR(
      DataLayout::LoadStoredObjects(*store, &stored_dim, &objects));
  if (stored_dim != dim || objects.size() != n) {
    return Status::Corruption("stored pages disagree with database metadata");
  }
  Dataset dataset(dim, std::move(objects));
  if (store->HasObject("labels")) {
    std::string label_bytes;
    MSQ_RETURN_IF_ERROR(store->GetObject("labels", &label_bytes));
    std::istringstream labels_in(label_bytes);
    std::vector<int32_t> labels;
    MSQ_RETURN_IF_ERROR(ReadVector(labels_in, &labels));
    if (labels.size() != n ||
        labels_in.peek() != std::istringstream::traits_type::eof()) {
      return Status::Corruption("stored labels disagree with the dataset");
    }
    dataset.set_labels(std::move(labels));
  }

  // Structural options come from the file; runtime knobs from the caller.
  DatabaseOptions options = runtime;
  options.backend = kind;
  options.page_size_bytes = static_cast<size_t>(page_size);
  options.buffer_fraction = buffer_fraction;
  options.xtree_dynamic_build = dynamic_build != 0;

  auto shared = std::make_shared<Dataset>(std::move(dataset));
  auto db = std::unique_ptr<MetricDatabase>(
      new MetricDatabase(shared, metric, options));

  std::string index_bytes;
  MSQ_RETURN_IF_ERROR(store->GetObject("index", &index_bytes));
  std::istringstream index(index_bytes);
  std::unique_ptr<QueryBackend> base;
  switch (kind) {
    case BackendKind::kLinearScan: {
      auto loaded = LinearScanBackend::LoadIndex(index, shared);
      if (!loaded.ok()) return loaded.status();
      base = std::move(loaded).value();
      break;
    }
    case BackendKind::kXTree: {
      XTreeOptions xtree_options = options.xtree;
      xtree_options.page_size_bytes = options.page_size_bytes;
      xtree_options.buffer_fraction = options.buffer_fraction;
      auto loaded = XTreeBackend::LoadFrom(index, shared, metric,
                                           xtree_options);
      if (!loaded.ok()) return loaded.status();
      base = std::move(loaded).value();
      break;
    }
    case BackendKind::kMTree: {
      MTreeOptions mtree_options = options.mtree;
      mtree_options.page_size_bytes = options.page_size_bytes;
      mtree_options.buffer_fraction = options.buffer_fraction;
      auto loaded = MTreeBackend::LoadFrom(index, shared, metric,
                                           mtree_options);
      if (!loaded.ok()) return loaded.status();
      base = std::move(loaded).value();
      break;
    }
    case BackendKind::kVaFile: {
      auto loaded = VaFileBackend::LoadIndex(index, shared, metric);
      if (!loaded.ok()) return loaded.status();
      base = std::move(loaded).value();
      break;
    }
  }

  // Restore (or rebuild) the pivot layer before the store handle moves
  // into the layout. Stored pivots win: the reopened database filters with
  // exactly the table the saved one did. Without a stored table, a
  // runtime-enabled configuration builds a fresh one from the
  // reconstructed dataset.
  std::shared_ptr<const PivotTable> pivot_table;
  if (store->HasObject("pivots")) {
    std::string pivot_bytes;
    MSQ_RETURN_IF_ERROR(store->GetObject("pivots", &pivot_bytes));
    std::istringstream pivots_in(pivot_bytes);
    auto loaded = PivotTable::LoadFrom(pivots_in, *shared, *metric);
    if (!loaded.ok()) return loaded.status();
    pivot_table = std::move(loaded).value();
  } else if (options.pivots.enabled) {
    auto built = PivotTable::Build(*shared, *metric, options.pivots.table);
    if (!built.ok()) return built.status();
    pivot_table = std::move(built).value();
  }

  // Route page reads through the file (LoadIndex/LoadFrom rebuilt the page
  // map the store's directory was written against).
  DataLayout* layout = base->MutableLayout();
  if (layout == nullptr) {
    return Status::Internal("reopened backend has no data layout");
  }
  MSQ_RETURN_IF_ERROR(layout->AttachStore(std::move(store)));
  if (options.fault_injector != nullptr) {
    base = std::make_unique<robust::FaultInjectingBackend>(
        std::move(base), options.fault_injector);
  }
  db->WireEngine(std::move(base));
  if (pivot_table != nullptr) db->ArmPivots(std::move(pivot_table));

  // --- crash recovery (DESIGN §14) --------------------------------------
  // Replay any WAL next to the checkpoint through the ordinary mutation
  // path, so the recovered overlay is bit-identical to the pre-crash one.
  // The replay runs before the database is bound to the path: the
  // mutations must not be re-logged while they are read back.
  const std::string wal_path = path + kWalSuffix;
  WalReplayResult replay;
  std::unique_ptr<Wal> wal;
  if (options.durability.wal_enabled) {
    Wal::Options wal_options;
    wal_options.fsync_policy = options.durability.wal_fsync_policy;
    wal_options.fsync_every_n = options.durability.wal_fsync_every_n;
    wal_options.metrics = options.multi.metrics;
    if (options.fault_injector != nullptr) {
      std::shared_ptr<robust::FaultInjector> inj = options.fault_injector;
      wal_options.write_fault_hook =
          [inj](uint64_t offset, size_t length, size_t* allowed) {
            return inj->OnWrite(offset, length, allowed);
          };
      wal_options.fsync_fault_hook = [inj] { return inj->OnFsync(); };
    }
    auto opened_wal = Wal::OpenForAppend(wal_path, checkpoint_nonce,
                                         wal_options, &replay);
    if (!opened_wal.ok()) return opened_wal.status();
    wal = std::move(opened_wal).value();
  } else if (FileExists(wal_path)) {
    // Durability off, but the file crashed with a log: recover read-only.
    MSQ_RETURN_IF_ERROR(Wal::Scan(wal_path, checkpoint_nonce, &replay));
  }
  for (WalRecord& record : replay.records) {
    Status applied = Status::OK();
    switch (record.type) {
      case WalRecord::Type::kInsert:
        applied = db->Insert(std::move(record.point), record.label).status();
        break;
      case WalRecord::Type::kDelete:
        applied = db->Delete(static_cast<ObjectId>(record.id));
        break;
    }
    if (!applied.ok()) {
      return Status::Corruption("wal replay failed: " + applied.ToString());
    }
  }
  db->recovery_.recovered = !replay.records.empty();
  db->recovery_.replayed_records = replay.records.size();
  db->recovery_.wal_tail_truncated = replay.tail_truncated;
  db->recovery_.wal_stale_discarded = replay.stale_discarded;
  if (db->recovery_.recovered) {
    if (db->mutation_metrics_.recoveries != nullptr) {
      db->mutation_metrics_.recoveries->Increment();
      db->mutation_metrics_.wal_replayed->Add(replay.records.size());
    }
  }
  db->bound_path_ = path;
  db->checkpoint_nonce_ = checkpoint_nonce;
  db->wal_ = std::move(wal);
  return db;
}

Query MetricDatabase::MakeRangeQuery(Vec point, double eps) {
  return Query{next_query_id_++, std::move(point), QueryType::Range(eps)};
}

Query MetricDatabase::MakeKnnQuery(Vec point, size_t k) {
  return Query{next_query_id_++, std::move(point), QueryType::Knn(k)};
}

Query MetricDatabase::MakeBoundedKnnQuery(Vec point, size_t k, double eps) {
  return Query{next_query_id_++, std::move(point),
               QueryType::BoundedKnn(k, eps)};
}

Query MetricDatabase::MakeObjectQuery(ObjectId id,
                                      const QueryType& type) const {
  // Through the backend, so delta-tier (inserted) objects resolve too.
  return Query{static_cast<QueryId>(id), backend_->ObjectVec(id), type};
}

Query MetricDatabase::MakeObjectKnnQuery(ObjectId id, size_t k) const {
  return MakeObjectQuery(id, QueryType::Knn(k));
}

Query MetricDatabase::MakeObjectRangeQuery(ObjectId id, double eps) const {
  return MakeObjectQuery(id, QueryType::Range(eps));
}

StatusOr<AnswerSet> MetricDatabase::SimilarityQuery(const Query& query) {
  ReadSession session;
  BeginRead(&session);
  CountingMetric counted(metric_);
  // The single-query engine does not publish metrics itself (the multiple-
  // query engine does); bridge its stats delta to the registry here so
  // both operations export through the same pipeline.
  const QueryStats before = stats_;
  const obs::MetricsSink* sink = options_.multi.metrics;
  obs::ScopedSpan span(sink != nullptr ? sink->tracer() : nullptr,
                       "engine.single_query", "engine");
  auto result =
      ExecuteSingleQuery(backend_.get(), counted, query, &stats_,
                         session.version->pivots.get());
  if (span.active()) {
    span.AddArg("dists",
                static_cast<double>(stats_.dist_computations -
                                    before.dist_computations));
    span.AddArg("pages", static_cast<double>(stats_.TotalPageReads() -
                                             before.TotalPageReads()));
  }
  if (sink != nullptr) {
    sink->PublishQueryStats(stats_ - before);
  }
  return result;
}

StatusOr<MultiQueryResult> MetricDatabase::MultipleSimilarityQuery(
    const std::vector<Query>& queries) {
  ReadSession session;
  BeginRead(&session);
  return engine_->Execute(queries, &stats_);
}

StatusOr<std::vector<AnswerSet>> MetricDatabase::MultipleSimilarityQueryAll(
    const std::vector<Query>& queries) {
  ReadSession session;
  BeginRead(&session);
  return engine_->ExecuteAll(queries, &stats_);
}

StatusOr<BatchResult> MetricDatabase::MultipleSimilarityQueryAllPartial(
    const std::vector<Query>& queries) {
  ReadSession session;
  BeginRead(&session);
  return engine_->ExecuteAllPartial(queries, &stats_);
}

void MetricDatabase::ResetAll() {
  ResetStats();
  engine_->Reset();
  backend_->ResetIoState();
}

}  // namespace msq
