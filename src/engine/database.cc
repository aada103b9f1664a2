#include "engine/database.h"

#include <algorithm>
#include <chrono>

#include "obs/trace_ring.h"
#include "page/faulty_device.h"
#include "wal/faulty_log_storage.h"
#include "wal/log_record.h"

namespace btrim {

Database::Database(DatabaseOptions options)
    : options_(options),
      buffer_cache_(options.buffer_cache_frames),
      imrs_allocator_(options.imrs_cache_bytes),
      txn_manager_(&lock_manager_) {}

Database::~Database() { StopBackground(); }

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  auto db = std::unique_ptr<Database>(new Database(options));
  Status s = db->Init();
  if (!s.ok()) return s;
  return db;
}

Status Database::Init() {
  // File id 0 is reserved (null RID); occupy the slot.
  devices_.push_back(nullptr);

  // Effective durability policy: in-memory storage is volatile, so syncing
  // is pointless.
  DurabilityOptions durability = options_.durability;
  if (options_.in_memory) {
    durability.policy = DurabilityPolicy::kNoSync;
  }

  // Logs. With a fault plan, each storage is wrapped in a FaultyLogStorage
  // decorator so the plan can script append/sync failures and crashes.
  auto wrap_log = [this](std::unique_ptr<LogStorage> storage,
                         const char* target) -> std::unique_ptr<LogStorage> {
    if (options_.fault_plan == nullptr) return storage;
    return std::make_unique<FaultyLogStorage>(std::move(storage),
                                              options_.fault_plan, target);
  };
  if (options_.in_memory) {
    syslogs_ = std::make_unique<Log>(
        wrap_log(std::make_unique<MemLogStorage>(), "syslogs"));
    sysimrslogs_ = std::make_unique<Log>(
        wrap_log(std::make_unique<MemLogStorage>(), "sysimrslogs"));
  } else {
    Result<std::unique_ptr<FileLogStorage>> sys =
        FileLogStorage::Open(options_.data_dir + "/syslogs.wal");
    if (!sys.ok()) return sys.status();
    Result<std::unique_ptr<FileLogStorage>> imrs =
        FileLogStorage::Open(options_.data_dir + "/sysimrslogs.wal");
    if (!imrs.ok()) return imrs.status();
    syslogs_ = std::make_unique<Log>(wrap_log(std::move(*sys), "syslogs"));
    sysimrslogs_ =
        std::make_unique<Log>(wrap_log(std::move(*imrs), "sysimrslogs"));
  }
  syslogs_committer_ =
      std::make_unique<GroupCommitter>(syslogs_.get(), durability);
  sysimrslogs_committer_ =
      std::make_unique<GroupCommitter>(sysimrslogs_.get(), durability);

  // Cold-columnar store. Its segment file is append-only framed storage, so
  // it reuses the LogStorage abstraction (and the faulty decorator, so the
  // torture harness can tear cold flushes too).
  cold_ = std::make_unique<ColdStore>(options_.cold_segment_rows);
  if (options_.in_memory) {
    cold_->AttachStorage(
        wrap_log(std::make_unique<MemLogStorage>(), "coldstore"));
  } else {
    Result<std::unique_ptr<FileLogStorage>> seg =
        FileLogStorage::Open(options_.data_dir + "/coldstore.seg");
    if (!seg.ok()) return seg.status();
    cold_->AttachStorage(wrap_log(std::move(*seg), "coldstore"));
  }

  // IMRS.
  imrs_ = std::make_unique<ImrsStore>(&imrs_allocator_, &rid_map_);

  // Shared background worker pool: pack-cycle fan-out, GC shard drains, and
  // recovery replay shards all run on it (one knob set, one set of
  // threads). <= 1 workers means a no-thread pool whose RunTasks executes
  // inline on the caller.
  background_pool_ = std::make_unique<ThreadPool>(options_.pack_workers);

  // ILM (needs `this` as PackClient).
  ilm_ = std::make_unique<IlmManager>(options_.ilm, &imrs_allocator_, this);
  ilm_->SetThreadPool(background_pool_.get());

  // GC, wired to ILM queues and the page-store purge transaction.
  GcHooks hooks;
  hooks.enqueue_to_ilm_queue = [this](ImrsRow* row) { ilm_->EnqueueRow(row); };
  hooks.unlink_from_ilm_queue = [this](ImrsRow* row) { ilm_->UnlinkRow(row); };
  hooks.purge_page_store_home = [this](ImrsRow* row) {
    return PurgePageStoreHome(row);
  };
  hooks.on_freed = [this](uint32_t table_id, uint32_t partition_id,
                          int64_t bytes, int64_t rows) {
    PartitionState* part = ilm_->FindPartition(table_id, partition_id);
    if (part != nullptr) {
      part->metrics.imrs_bytes.Sub(bytes);
      part->metrics.imrs_rows.Sub(rows);
    }
  };
  gc_ = std::make_unique<ImrsGc>(imrs_.get(), std::move(hooks));
  gc_->SetThreadPool(background_pool_.get());

  // Observability: every subsystem above registers its counters into the
  // unified registry; the sampler snapshots it on demand.
  BTRIM_RETURN_IF_ERROR(RegisterAllMetrics());
  sampler_ = std::make_unique<obs::TimeSeriesSampler>(&metrics_registry_,
                                                      /*capacity=*/512);
  return Status::OK();
}

Status Database::RegisterAllMetrics() {
  obs::MetricsRegistry* r = &metrics_registry_;
  const obs::MetricLabels engine{"engine", "", "", ""};
  BTRIM_RETURN_IF_ERROR(r->RegisterCounter("engine.imrs_ops", engine,
                                           &imrs_ops_));
  BTRIM_RETURN_IF_ERROR(r->RegisterCounter("engine.page_ops", engine,
                                           &page_ops_));
  BTRIM_RETURN_IF_ERROR(syslogs_->RegisterMetrics(r, "syslogs"));
  BTRIM_RETURN_IF_ERROR(sysimrslogs_->RegisterMetrics(r, "sysimrslogs"));
  BTRIM_RETURN_IF_ERROR(syslogs_committer_->RegisterMetrics(r, "syslogs"));
  BTRIM_RETURN_IF_ERROR(
      sysimrslogs_committer_->RegisterMetrics(r, "sysimrslogs"));
  BTRIM_RETURN_IF_ERROR(buffer_cache_.RegisterMetrics(r, "page"));
  BTRIM_RETURN_IF_ERROR(lock_manager_.RegisterMetrics(r, "txn"));
  BTRIM_RETURN_IF_ERROR(txn_manager_.RegisterMetrics(r, "txn"));
  BTRIM_RETURN_IF_ERROR(gc_->RegisterMetrics(r, "imrs"));
  BTRIM_RETURN_IF_ERROR(rid_map_.RegisterMetrics(r, "imrs"));
  BTRIM_RETURN_IF_ERROR(imrs_allocator_.RegisterMetrics(r, "imrs"));
  BTRIM_RETURN_IF_ERROR(ilm_->RegisterMetrics(r));
  BTRIM_RETURN_IF_ERROR(cold_->RegisterMetrics(r, "cold"));
  if (options_.fault_plan != nullptr) {
    const obs::MetricLabels fault{"fault", "", "", ""};
    const FaultPlan* plan = options_.fault_plan.get();
    BTRIM_RETURN_IF_ERROR(r->RegisterCounter("fault.errors_injected", fault,
                                             plan->errors_injected()));
    BTRIM_RETURN_IF_ERROR(
        r->RegisterCounter("fault.torn_writes", fault, plan->torn_writes()));
  }
  const obs::MetricLabels ckpt{"checkpoint", "", "", ""};
  BTRIM_RETURN_IF_ERROR(r->RegisterCounter("checkpoint.completed", ckpt,
                                           &ckpt_.completed));
  BTRIM_RETURN_IF_ERROR(r->RegisterCounter("checkpoint.snapshot_rows", ckpt,
                                           &ckpt_.snapshot_rows));
  BTRIM_RETURN_IF_ERROR(r->RegisterCounter("checkpoint.stashed_rows", ckpt,
                                           &ckpt_.stashed_rows));
  BTRIM_RETURN_IF_ERROR(r->RegisterGaugeFn(
      "checkpoint.last_pause_us", ckpt,
      [this] { return ckpt_.last_pause_us.load(std::memory_order_relaxed); }));
  BTRIM_RETURN_IF_ERROR(r->RegisterGaugeFn(
      "checkpoint.max_pause_us", ckpt,
      [this] { return ckpt_.max_pause_us.load(std::memory_order_relaxed); }));
  BTRIM_RETURN_IF_ERROR(r->RegisterGaugeFn(
      "checkpoint.last_total_us", ckpt,
      [this] { return ckpt_.last_total_us.load(std::memory_order_relaxed); }));
  const obs::MetricLabels pool{"pool", "", "", ""};
  BTRIM_RETURN_IF_ERROR(r->RegisterCounter("pool.tasks_executed", pool,
                                           background_pool_->tasks_executed()));
  BTRIM_RETURN_IF_ERROR(r->RegisterGaugeFn("pool.queue_depth", pool, [this] {
    return background_pool_->QueueDepth();
  }));
  BTRIM_RETURN_IF_ERROR(r->RegisterGaugeFn("pool.workers", pool, [this] {
    return static_cast<int64_t>(background_pool_->worker_count());
  }));
  BTRIM_RETURN_IF_ERROR(r->RegisterHistogram(
      "pool.queue_wait_us", pool, background_pool_->queue_wait_histogram()));
  return Status::OK();
}

Result<uint16_t> Database::NewFile(const std::string& hint) {
  MutexGuard guard(file_mu_);
  const uint16_t file_id = static_cast<uint16_t>(devices_.size());
  std::unique_ptr<Device> device;
  if (options_.in_memory) {
    device = std::make_unique<MemDevice>(options_.device_latency_micros);
  } else {
    Result<std::unique_ptr<FileDevice>> fd = FileDevice::Open(
        options_.data_dir + "/" + hint + "." + std::to_string(file_id) +
        ".dat");
    if (!fd.ok()) return fd.status();
    device = std::move(*fd);
  }
  if (options_.fault_plan != nullptr) {
    device = std::make_unique<FaultyDevice>(
        std::move(device), options_.fault_plan,
        hint + "." + std::to_string(file_id));
  }
  BTRIM_RETURN_IF_ERROR(device->RegisterMetrics(
      &metrics_registry_,
      obs::MetricLabels{"page", hint + "." + std::to_string(file_id), "", ""}));
  buffer_cache_.AttachDevice(file_id, device.get());
  devices_.push_back(std::move(device));
  return file_id;
}

Result<Table*> Database::CreateTable(TableOptions options) {
  if (options.primary_key.empty()) {
    return Status::InvalidArgument("table needs a primary key");
  }
  if (options.num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  if (options.schema.num_columns() > kMaxColumns) {
    return Status::InvalidArgument("schema wider than kMaxColumns");
  }
  if (!options.range_bounds.empty()) {
    if (options.partition_column < 0) {
      return Status::InvalidArgument(
          "range partitioning needs a partition column");
    }
    if (!std::is_sorted(options.range_bounds.begin(),
                        options.range_bounds.end())) {
      return Status::InvalidArgument("range bounds must be ascending");
    }
    options.num_partitions =
        static_cast<int>(options.range_bounds.size()) + 1;
  }

  auto table = std::make_unique<Table>();
  {
    RwSpinLockWriteGuard guard(catalog_mu_);
    table->id_ = static_cast<uint32_t>(tables_.size() + 1);
  }
  table->name_ = options.name;
  table->schema_ = options.schema;
  table->use_hash_index_ = options.use_hash_index;
  table->partition_column_ = options.partition_column;
  table->range_bounds_ = options.range_bounds;
  table->pk_encoder_ =
      std::make_unique<KeyEncoder>(&table->schema_, options.primary_key);
  auto place = [&](int col) {
    if (col >= 0) table->placement_columns_ |= uint64_t{1} << col;
  };
  for (int col : options.primary_key) place(col);
  for (const IndexDef& def : options.secondary_indexes) {
    for (int col : def.key_columns) place(col);
  }
  place(options.partition_column);

  // Slots per page: worst-case record size + one slot entry each.
  const size_t max_record = table->schema_.MaxRecordSize();
  const size_t usable = kPageSize - 16;
  if (max_record + 4 > usable) {
    return Status::InvalidArgument("record too large for a page");
  }
  const uint16_t slots_per_page =
      static_cast<uint16_t>(usable / (max_record + 4));

  // Primary index. Each tree's counters join the registry under its table
  // + index name, and its retired pages drain on the GC cadence via a
  // reclaim hook (trees live as long as the Database, so the raw pointer
  // capture is safe).
  Result<uint16_t> pk_file = NewFile(options.name + ".pk");
  if (!pk_file.ok()) return pk_file.status();
  table->primary_ =
      std::make_unique<BTree>(*pk_file, &buffer_cache_, /*unique=*/true);
  BTRIM_RETURN_IF_ERROR(table->primary_->Create());
  BTRIM_RETURN_IF_ERROR(table->primary_->RegisterMetrics(
      &metrics_registry_, obs::MetricLabels{"index", options.name, "pk", ""}));
  gc_->AddReclaimHook(
      [tree = table->primary_.get()] { return tree->DrainRetired(); });
  if (table->hash_index() != nullptr) {
    BTRIM_RETURN_IF_ERROR(table->hash_index()->RegisterMetrics(
        &metrics_registry_,
        obs::MetricLabels{"index", options.name, "hash", ""}));
  }

  // Secondary indexes.
  for (const IndexDef& def : options.secondary_indexes) {
    Result<uint16_t> file = NewFile(options.name + "." + def.name);
    if (!file.ok()) return file.status();
    SecondaryIndex sec;
    sec.def = def;
    sec.encoder = std::make_unique<KeyEncoder>(&table->schema_,
                                               def.key_columns);
    // Non-unique entries get a RID suffix; the tree itself is "unique" over
    // the suffixed key.
    sec.tree = std::make_unique<BTree>(*file, &buffer_cache_,
                                       /*unique=*/def.unique);
    BTRIM_RETURN_IF_ERROR(sec.tree->Create());
    BTRIM_RETURN_IF_ERROR(sec.tree->RegisterMetrics(
        &metrics_registry_,
        obs::MetricLabels{"index", options.name, def.name, ""}));
    gc_->AddReclaimHook(
        [tree = sec.tree.get()] { return tree->DrainRetired(); });
    table->secondaries_.push_back(std::move(sec));
  }

  // Partitions.
  table->partitions_.resize(static_cast<size_t>(options.num_partitions));
  for (int p = 0; p < options.num_partitions; ++p) {
    Result<uint16_t> file =
        NewFile(options.name + ".heap" + std::to_string(p));
    if (!file.ok()) return file.status();
    TablePartition& part = table->partitions_[p];
    part.id = static_cast<uint32_t>(p);
    part.heap = std::make_unique<HeapFile>(*file, &buffer_cache_,
                                           slots_per_page);
    rid_map_.SetSlotsPerPage(*file, slots_per_page);
    part.ilm = ilm_->RegisterPartition(
        table->id_, part.id,
        options.name + "/" + std::to_string(p));
    part.ilm->pinned.store(options.pin_in_imrs, std::memory_order_relaxed);
    BTRIM_RETURN_IF_ERROR(part.ilm->RegisterMetrics(&metrics_registry_));
    table->partition_by_file_[*file] = static_cast<size_t>(p);
  }

  // Cold store needs the schema to column-split this table's records (the
  // Table object is heap-owned by the catalog, so the pointer is stable).
  cold_->RegisterTable(table->id_, &table->schema_);

  Table* raw = table.get();
  {
    RwSpinLockWriteGuard guard(catalog_mu_);
    for (size_t p = 0; p < raw->partitions_.size(); ++p) {
      part_by_file_[raw->partitions_[p].heap->file_id()] = {raw, p};
    }
    tables_by_name_[raw->name_] = raw;
    tables_.push_back(std::move(table));
  }
  return raw;
}

Table* Database::GetTable(const std::string& name) const {
  RwSpinLockReadGuard guard(catalog_mu_);
  auto it = tables_by_name_.find(name);
  return it == tables_by_name_.end() ? nullptr : it->second;
}

Table* Database::GetTable(uint32_t table_id) const {
  RwSpinLockReadGuard guard(catalog_mu_);
  if (table_id == 0 || table_id > tables_.size()) return nullptr;
  return tables_[table_id - 1].get();
}

std::vector<Table*> Database::Tables() const {
  RwSpinLockReadGuard guard(catalog_mu_);
  std::vector<Table*> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t.get());
  return out;
}

Status Database::WriteCommitRecords(Transaction* txn, uint64_t cts) {
  // Both logs route through their GroupCommitter: this call returns once the
  // records are durable per the configured policy, possibly having ridden in
  // a batch with other committers' groups (one device sync for all of them).
  // CommitGroup copies the bytes, so one buffer per thread serves every
  // commit.
  thread_local std::string group;
  group.clear();
  int64_t records = 0;
  for (const WriteIntent& w : txn->write_set()) {
    // The redo image is the version the write added: the row data of an
    // insert or update, the final payload a delete marker carries.
    LogRecord rec;
    Slice image = w.version != nullptr ? w.version->payload() : Slice();
    switch (w.kind) {
      case IntentKind::kImrsInsert:
        rec.type = LogRecordType::kImrsInsert;
        rec.source = static_cast<uint8_t>(w.row->source);
        break;
      case IntentKind::kImrsUpdate:
        rec.type = LogRecordType::kImrsUpdate;
        break;
      case IntentKind::kImrsDelete:
        rec.type = LogRecordType::kImrsDelete;
        break;
      case IntentKind::kImrsPack:
        rec.type = LogRecordType::kImrsPack;
        break;
      default:
        continue;  // page-store and index writes are not in this log
    }
    rec.txn_id = txn->id();
    rec.table_id = w.partition->table_id;
    rec.partition_id = w.partition->partition_id;
    rec.rid = w.rid;
    const bool is_delete = w.kind == IntentKind::kImrsDelete;
    AppendLogRecord(&group, rec, is_delete ? image : Slice(),
                    is_delete ? Slice() : image);
    ++records;
  }
  LogRecord commit;
  commit.txn_id = txn->id();
  commit.cts = cts;
  if (records > 0) {
    commit.type = LogRecordType::kImrsCommit;
    // Cross-log atomicity: a transaction that also touched the page store
    // must not have its IMRS group replayed unless its syslogs commit made
    // it to disk too — otherwise a crash between the two syncs below would
    // apply a kImrsPack (row leaves the IMRS) while the page-store insert
    // it points at is undone as a loser, losing the row entirely. The flag
    // rides in the commit record's spare `source` byte; recovery arbitrates
    // flagged groups against the syslogs winner set (see recovery.cc).
    commit.source = txn->has_pagestore_changes() ? 1 : 0;
    AppendLogRecord(&group, commit);
    BTRIM_RETURN_IF_ERROR(
        sysimrslogs_committer_->CommitGroup(Slice(group), records + 1));
  }
  if (txn->has_pagestore_changes()) {
    commit.type = LogRecordType::kPsCommit;
    commit.source = 0;
    group.clear();
    AppendLogRecord(&group, commit);
    BTRIM_RETURN_IF_ERROR(syslogs_committer_->CommitGroup(Slice(group), 1));
  }
  return Status::OK();
}

Status Database::Commit(Transaction* txn) {
  // Runs after the commit timestamp is assigned and before any lock is
  // released, so the write set is applied (or, when the logs refuse the
  // commit, rolled back) while its rows are still locked.
  return txn_manager_.Commit(txn, [this](Transaction* t, uint64_t cts) {
    Status s = WriteCommitRecords(t, cts);
    if (s.ok()) {
      ApplyWriteSet(t, cts);
    } else {
      RollBackWriteSet(t);
    }
    return s;
  });
}

Status Database::Abort(Transaction* txn) {
  if (txn->state() == TxnState::kActive && txn->has_pagestore_changes()) {
    LogRecord rec;
    rec.type = LogRecordType::kPsAbort;
    rec.txn_id = txn->id();
    Status s = syslogs_->AppendRecord(rec);
    (void)s;  // abort proceeds regardless; recovery treats it as a loser
  }
  RollBackWriteSet(txn);  // empty once the transaction has finished
  return txn_manager_.Abort(txn);
}

void Database::StartBackground() {
  bool expected = false;
  if (!background_running_.compare_exchange_strong(expected, true)) return;

  // One thread each: ticks and passes serialize on ilm_tick_mu_ /
  // gc_pass_mu_, so more drivers would only queue there. Parallelism comes
  // from the worker pool they fan out to.
  auto loop = [this](void (Database::*step)()) {
    while (background_running_.load(std::memory_order_relaxed)) {
      (this->*step)();
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.background_interval_us));
    }
  };
  background_threads_.emplace_back(loop, &Database::RunIlmTickOnce);
  background_threads_.emplace_back(loop, &Database::RunGcOnce);
}

void Database::StopBackground() {
  if (!background_running_.exchange(false)) return;
  for (auto& t : background_threads_) {
    if (t.joinable()) t.join();
  }
  background_threads_.clear();
}

void Database::RunGcOnce() {
  MutexGuard pass(gc_pass_mu_);
  gc_->RunOnce(txn_manager_.OldestActiveSnapshot(), Now());
}

void Database::RunIlmTickOnce() {
  {
    MutexGuard tick(ilm_tick_mu_);
    ilm_->BackgroundTick(Now());
  }
  ParanoidValidate();
}

PackBatchOutcome Database::PackBatch(PartitionState* partition,
                                     const std::vector<ImrsRow*>& batch,
                                     std::vector<ImrsRow*>* requeue) {
  PackBatchOutcome outcome;
  Table* table = GetTable(partition->table_id);
  if (table == nullptr) {
    for (ImrsRow* row : batch) requeue->push_back(row);
    return outcome;
  }

  std::unique_ptr<Transaction> txn = Begin();
  int64_t released = 0;
  int64_t rows_moved = 0;

  // Phase 1: stage heap placements. Each row's page-store image is written
  // (undoably) and its log record serialized into one per-batch buffer; the
  // IMRS side is untouched until the whole buffer is on the log, so a batch
  // whose append fails can roll every placement back.
  struct Staged {
    ImrsRow* row;
    TablePartition* tpart;
    std::string payload;
    LogRecordType type;
    std::string before;  // prior heap image, for kPsUpdate undo
    bool cold = false;           // placement targets the cold store
    bool had_heap_home = false;  // cold path deleted a stale heap home
  };
  std::vector<Staged> staged;
  staged.reserve(batch.size());
  std::string log_buf;
  int64_t log_records = 0;
  bool stop = false;

  for (ImrsRow* row : batch) {
    if (stop) {
      // Storage rejected a write: stop touching it and hand the rest of the
      // batch back untouched. The pack subsystem backs off.
      requeue->push_back(row);
      continue;
    }
    // Rows arrive holding the kRowReclaimBusy claim (taken at queue pop);
    // requeued rows keep it — the pack subsystem re-links them before
    // releasing — while dropped rows release it here.
    if (row->HasFlag(kRowPurged) || row->HasFlag(kRowPacked)) {
      row->ClearFlag(kRowReclaimBusy);
      continue;
    }

    // Conditional lock: never block user DMLs (Sec. VII.B).
    if (!txn->TryAcquireLock(row->rid.Encode(), LockMode::kExclusive).ok()) {
      requeue->push_back(row);
      continue;
    }
    if (rid_map_.Lookup(row->rid) != row) {  // raced with removal
      row->ClearFlag(kRowReclaimBusy);
      continue;
    }

    RowVersion* latest = ImrsStore::LatestCommitted(row);
    if (latest == nullptr) {
      requeue->push_back(row);
      continue;
    }
    if (latest->is_delete) {
      // Dead row awaiting GC purge; leave it to GC (it is off the queue).
      row->ClearFlag(kRowReclaimBusy);
      continue;
    }

    TablePartition* tpart = table->PartitionForRid(row->rid);
    if (tpart == nullptr) {
      row->ClearFlag(kRowReclaimBusy);
      continue;
    }

    Staged st;
    st.row = row;
    st.tpart = tpart;
    st.payload = latest->payload().ToString();

    // Move the latest image to the page store: logged insert (no home yet)
    // or logged update (stale home image). With cold_columnar, the target
    // is the cold store instead: any stale heap home is deleted (logged)
    // first — a rid has at most one home, and redo in log order must
    // converge on the cold one — and the kColdPlace carries the superseded
    // cold image as its before-image so loser undo can re-place it. The
    // cold store itself is only touched in phase 3, after the batch log
    // append succeeds, so there is nothing to roll back on log failure.
    LogRecord rec;
    rec.txn_id = txn->id();
    rec.table_id = table->id();
    rec.partition_id = partition->partition_id;
    rec.rid = row->rid.Encode();
    Status ps;
    if (options_.cold_columnar) {
      st.cold = true;
      if (tpart->heap->Exists(row->rid)) {
        ps = tpart->heap->Read(row->rid, &st.before);
        if (ps.ok()) {
          ps = tpart->heap->Delete(row->rid);
          if (ps.ok()) {
            st.had_heap_home = true;
            LogRecord del = rec;
            del.type = LogRecordType::kPsDelete;
            AppendLogRecord(&log_buf, del, st.before, Slice());
            ++log_records;
          }
        }
      }
      if (ps.ok()) {
        rec.type = LogRecordType::kColdPlace;
        std::string prior;
        if (cold_->ReadRow(row->rid, &prior).ok()) {
          rec.before = std::move(prior);
        }
        rec.after = st.payload;
      }
    } else if (tpart->heap->Exists(row->rid)) {
      ps = tpart->heap->Read(row->rid, &st.before);
      if (ps.ok()) {
        rec.type = LogRecordType::kPsUpdate;
        rec.before = st.before;
        rec.after = st.payload;
        ps = tpart->heap->Update(row->rid, st.payload);
      }
    } else {
      rec.type = LogRecordType::kPsInsert;
      rec.after = st.payload;
      ps = tpart->heap->Place(row->rid, st.payload);
    }
    if (!ps.ok()) {
      requeue->push_back(row);
      if (ps.IsIOError()) {
        outcome.io_error = true;
        stop = true;
      }
      continue;
    }
    st.type = rec.type;
    AppendLogRecord(&log_buf, rec);
    ++log_records;
    staged.push_back(std::move(st));
  }

  // Phase 2: one batched syslogs append covers every staged placement
  // (per-worker batching — one log write per pack batch, not per row).
  if (!staged.empty()) {
    Status ls = syslogs_->AppendGroup(Slice(log_buf), log_records);
    if (!ls.ok()) {
      // Unlogged heap changes: roll every placement back (reverse order) so
      // no page image gets ahead of the log, then requeue. The failure
      // poisoned syslogs; the pack subsystem backs off.
      for (auto it = staged.rbegin(); it != staged.rend(); ++it) {
        Status undo;
        if (it->cold) {
          // Cold store untouched in phase 1; just restore any deleted
          // heap home.
          if (it->had_heap_home) {
            undo = it->tpart->heap->Place(it->row->rid, Slice(it->before));
          }
        } else {
          undo = it->type == LogRecordType::kPsUpdate
                     ? it->tpart->heap->Update(it->row->rid,
                                               Slice(it->before))
                     : it->tpart->heap->Delete(it->row->rid);
        }
        (void)undo;  // heap ops are in-memory here; the page stays dirty
        requeue->push_back(it->row);
      }
      staged.clear();
      outcome.io_error = true;
    } else {
      txn->MarkPageStoreChange();
    }
  }

  // Phase 3: the placements are logged — remove each row from the IMRS:
  // logged delete in sysimrslogs (kImrsPack), RID-map + hash index removal,
  // deferred memory release.
  for (const Staged& st : staged) {
    ImrsRow* row = st.row;
    if (st.cold) {
      // Apply the logged cold placement. On failure (the segment file
      // rejected an auto-seal append) the row stays IMRS-resident: restore
      // the heap home the in-memory state expects and requeue. The log
      // disagrees with memory then, but crash replay redoes delete+place,
      // which is self-consistent.
      Status cs = cold_->Place(partition->table_id, partition->partition_id,
                               row->rid, Slice(st.payload));
      if (!cs.ok()) {
        // Place stages the row (builder + rid index) before the triggered
        // seal, and a failed seal keeps the staged rows — erase the cold
        // entry so the restored heap home is the rid's only home again
        // (ValidateLocked rejects dual homes).
        cold_->Erase(row->rid);
        if (st.had_heap_home) {
          Status rs = st.tpart->heap->Place(row->rid, Slice(st.before));
          (void)rs;
        }
        requeue->push_back(row);
        outcome.io_error = true;
        continue;
      }
    }
    txn->AddIntent({.kind = IntentKind::kImrsPack,
                    .rid = row->rid.Encode(),
                    .partition = partition});

    // CoW hook: an in-flight overlapped checkpoint may not have reached
    // this row's RID-map slot yet — stash its snapshot-visible pre-image
    // before the erase makes the walk miss it (checkpoint.cc).
    StashCheckpointPreImage(row);
    row->SetFlag(kRowPacked);
    rid_map_.Erase(row->rid);
    if (table->hash_index() != nullptr) {
      table->hash_index()->Erase(
          table->pk_encoder().KeyForRecord(Slice(st.payload)));
    }

    const int64_t footprint = ImrsStore::RowFootprint(row);
    const uint64_t now = Now();
    for (RowVersion* v = row->latest.load(std::memory_order_acquire);
         v != nullptr; v = v->older.load(std::memory_order_relaxed)) {
      gc_->DeferFree(v, now);
    }
    gc_->DeferFree(row, now);
    row->ClearFlag(kRowReclaimBusy);

    partition->metrics.imrs_bytes.Sub(footprint);
    partition->metrics.imrs_rows.Sub(1);
    released += footprint;
    ++rows_moved;
  }

  Status s = Commit(txn.get());
  if (!s.ok()) {
    // Commit hook failure aborts the transaction. In memory this is safe:
    // the moved rows' images live in the (dirty) heap pages. Across a
    // crash it is also safe: the kImrsCommit group carries the
    // has-page-store-changes flag, so recovery drops it unless the syslogs
    // commit made it down too, and the rows simply stay IMRS-resident
    // (see recovery.cc). Surface the failure as an I/O cycle so the pack
    // subsystem backs off.
    if (s.IsIOError()) outcome.io_error = true;
    outcome.bytes_released = released;
    return outcome;
  }
  (void)rows_moved;
  outcome.bytes_released = released;
  return outcome;
}

Result<int64_t> Database::PrewarmTable(Table* table) {
  int64_t warmed = 0;
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    TablePartition& part = table->partition(p);

    // Collect candidate RIDs first (ScanAll holds page latches; the cache
    // inserts below take row locks and must not nest inside them).
    std::vector<std::pair<Rid, std::string>> candidates;
    Status s = part.heap->ScanAll([&](Rid rid, Slice payload) {
      if (rid_map_.Lookup(rid) == nullptr) {
        candidates.emplace_back(rid, payload.ToString());
      }
      return true;
    });
    BTRIM_RETURN_IF_ERROR(s);

    size_t i = 0;
    while (i < candidates.size()) {
      std::unique_ptr<Transaction> txn = Begin();
      Status batch_status = Status::OK();
      const size_t batch_end = std::min(i + 128, candidates.size());
      for (; i < batch_end; ++i) {
        const auto& [rid, payload] = candidates[i];
        if (!txn->TryAcquireLock(rid.Encode(), LockMode::kExclusive).ok()) {
          continue;  // busy row: skip, a later access will cache it
        }
        if (rid_map_.Lookup(rid) != nullptr) continue;  // raced in already
        const std::string pk =
            table->pk_encoder().KeyForRecord(Slice(payload));
        Status ins = InsertToImrs(txn.get(), table, &part, rid,
                                  Slice(payload), Slice(pk),
                                  RowSource::kCached);
        if (ins.IsNoSpace()) {
          batch_status = ins;  // cache full: stop warming entirely
          break;
        }
        if (ins.ok()) ++warmed;
      }
      BTRIM_RETURN_IF_ERROR(Commit(txn.get()));
      if (batch_status.IsNoSpace()) return warmed;
    }
  }
  return warmed;
}

bool Database::PurgePageStoreHome(ImrsRow* row) {
  Table* table = GetTable(row->table_id);
  if (table == nullptr) {
    StashCheckpointPreImage(row);  // every true return leads to a GC purge
    return true;
  }
  TablePartition* tpart = table->PartitionForRid(row->rid);
  if (tpart == nullptr) {
    StashCheckpointPreImage(row);
    return true;
  }

  std::unique_ptr<Transaction> txn = Begin();
  if (!txn->TryAcquireLock(row->rid.Encode(), LockMode::kExclusive).ok()) {
    Status s = Abort(txn.get());
    (void)s;
    return false;
  }

  // The delete marker carries the final payload so index keys can be
  // reconstructed here.
  RowVersion* marker = ImrsStore::LatestCommitted(row);
  if (marker != nullptr && marker->is_delete && marker->data_size > 0) {
    const std::string payload = marker->payload().ToString();
    const std::string pk = table->pk_encoder().KeyForRecord(Slice(payload));
    RemoveIndexEntries(table, Slice(payload), Slice(pk), row->rid);
    if (table->hash_index() != nullptr) {
      table->hash_index()->Erase(pk);
    }
  }

  if (tpart->heap->Exists(row->rid)) {
    std::string before;
    if (tpart->heap->Read(row->rid, &before).ok()) {
      if (!LogPageStoreWrite(txn.get(), LogRecordType::kPsDelete, tpart,
                             row->rid, before, Slice())
               .ok()) {
        // Unloggable delete: leave the heap home in place and retry the
        // purge later; deleting it unlogged would resurrect the row after
        // a crash once the tombstone that masks it is purged.
        Status as = Abort(txn.get());
        (void)as;
        return false;
      }
      Status ds = tpart->heap->Delete(row->rid);
      (void)ds;
    }
  } else if (cold_->Exists(row->rid)) {
    // Cold-columnar home: same unloggable-abort discipline as the heap
    // branch — an unlogged erase would resurrect the row after a crash
    // once the masking tombstone is purged.
    std::string before;
    if (cold_->ReadRow(row->rid, &before).ok()) {
      if (!LogPageStoreWrite(txn.get(), LogRecordType::kColdErase, tpart,
                             row->rid, before, Slice())
               .ok()) {
        Status as = Abort(txn.get());
        (void)as;
        return false;
      }
      cold_->Erase(row->rid);
    }
  }
  Status s = Commit(txn.get());
  (void)s;  // either way is crash-consistent: kPsDelete is undone if loser
  // Returning true tells GC to purge the row from the IMRS. If an
  // overlapped checkpoint is mid-walk, its snapshot must keep the tombstone:
  // the kPsDelete just committed may still be a loser after a crash (commit
  // record not yet durable), and then only the snapshotted tombstone masks
  // the resurrected page-store home (checkpoint.cc).
  StashCheckpointPreImage(row);
  return true;
}

}  // namespace btrim
