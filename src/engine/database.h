#ifndef BTRIM_ENGINE_DATABASE_H_
#define BTRIM_ENGINE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc/fragment_allocator.h"
#include "cold/cold_store.h"
#include "common/fault_plan.h"
#include "common/mutex.h"
#include "common/spinlock.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "engine/table.h"
#include "ilm/ilm_manager.h"
#include "imrs/gc.h"
#include "imrs/rid_map.h"
#include "imrs/store.h"
#include "obs/metrics_registry.h"
#include "obs/time_series_sampler.h"
#include "page/buffer_cache.h"
#include "txn/transaction.h"
#include "wal/group_commit.h"
#include "wal/log.h"

namespace btrim {

/// Construction-time options for a Database.
struct DatabaseOptions {
  /// Buffer cache frames (8 KiB each).
  size_t buffer_cache_frames = 4096;

  /// IMRS fragment cache logical capacity.
  size_t imrs_cache_bytes = 256ull << 20;

  /// ILM tunables (see IlmConfig). `ilm.ilm_enabled = false` reproduces the
  /// paper's ILM_OFF setup.
  IlmConfig ilm;

  /// In-memory devices/logs (fast, volatile) versus file-backed under
  /// `data_dir` (durable across restarts).
  bool in_memory = true;
  std::string data_dir;

  /// Commit durability policy and group-commit tuning (file-backed mode
  /// only; in-memory databases are volatile by construction, so the
  /// effective policy there is always kNoSync).
  DurabilityOptions durability;

  /// Artificial device latency per page I/O (simulated disk; 0 = off).
  uint32_t device_latency_micros = 0;

  /// Sleep between iterations of the two background threads StartBackground
  /// runs: one ILM tick thread (TSF/tuning/pack) and one GC thread.
  int64_t background_interval_us = 500;

  /// Size of the shared background worker pool that pack cycles fan their
  /// per-partition drains out to, GC passes drain their RID shards on, and
  /// Recover() replays its RID-hash shards on (16 shards, matching GC).
  /// <= 1 keeps all three serial (every cycle, pass and replay shard runs
  /// inline on its driver thread, in shard order — the deterministic
  /// baseline the parallel paths are checked against).
  int pack_workers = 1;

  /// Lock wait budget before timeout-abort (deadlock resolution).
  int64_t lock_timeout_ms = 1000;

  /// Columnar cold storage (DESIGN.md Sec. 15). When set, Pack relocates
  /// cold rows into compressed column-grouped segments (src/cold/) instead
  /// of the slotted-page heap; point accesses, GC, checkpoints, and
  /// recovery resolve cold-columnar homes transparently. Off, the cold
  /// store still exists (its metrics read zero) but Pack targets the heap.
  bool cold_columnar = false;

  /// Rows per cold segment before the staging builder seals (per table
  /// partition). Checkpoints seal early regardless.
  size_t cold_segment_rows = 4096;

  /// Seeded fault-injection plan (tests / torture harness). When set, every
  /// device and log storage the database creates is wrapped in its faulty
  /// decorator (FaultyDevice / FaultyLogStorage) driven by this plan, so
  /// I/O errors, torn writes, and simulated crashes can be scripted
  /// deterministically. Null (the default) means no wrapping and zero
  /// overhead.
  std::shared_ptr<FaultPlan> fault_plan;
};

/// One visible row handed out by Database::ScanIndex.
struct ScanRow {
  Rid rid;
  std::string payload;
  bool from_imrs = false;
};

/// Analytical scan configuration (Database::ScanTable).
struct HtapScanOptions {
  /// Projected column indexes. Cold segments only decode (and count toward
  /// bytes-scanned) the listed columns. Empty = all columns.
  std::vector<size_t> columns;
};

/// One row surfaced by Database::ScanTable. Column accessors are valid only
/// inside the visitor callback: the row either points into an immutable
/// cold segment (columnar access, no materialization) or at a row-codec
/// record (IMRS version / staged cold row / heap slot).
struct HtapRow {
  Rid rid;

  int64_t Int(size_t col) const {
    return seg != nullptr ? seg->IntAt(col, seg_row) : view->GetInt(col);
  }
  double Double(size_t col) const {
    return seg != nullptr ? seg->DoubleAt(col, seg_row)
                          : view->GetDouble(col);
  }
  Slice Str(size_t col) const {
    return seg != nullptr ? seg->StringAt(col, seg_row)
                          : view->GetString(col);
  }

  // Backing storage (set by the scan; treat as opaque).
  const ColdSegment* seg = nullptr;
  uint32_t seg_row = 0;
  const RecordView* view = nullptr;
};

/// Where ScanTable's rows came from and what it cost.
struct HtapScanStats {
  int64_t rows_emitted = 0;
  int64_t rows_from_imrs = 0;
  int64_t rows_from_cold = 0;    ///< sealed segments + staged builder rows
  int64_t rows_from_heap = 0;
  int64_t rows_skipped = 0;      ///< dead segment rows / invisible versions
  int64_t bytes_scanned_cold = 0;  ///< encoded bytes of projected columns
};

/// What the invariant checker visited (src/engine/validate.cc).
struct ValidateReport {
  int64_t rows_checked = 0;       ///< live RID-map entries visited
  int64_t versions_checked = 0;   ///< version-chain links walked
  int64_t queued_rows = 0;        ///< rows found across all ILM queues
  int64_t partitions_checked = 0;
  int64_t page_homes_checked = 0; ///< page-store slot existence probes
  /// False when the gauge phase was skipped because foreground transactions
  /// were running (tolerant validation only compares gauges when provably
  /// no transaction overlapped the walk).
  bool gauges_checked = false;
};

/// The BTrim hybrid storage engine (paper Sec. II).
///
/// Owns the page-store substrate (devices, buffer cache, heap files,
/// B+Trees), the IMRS (fragment allocator, RID-map, versioned row store,
/// GC), the dual transaction logs, the transaction manager, and the ILM
/// machinery (monitor, tuner, TSF, Pack). The DML API is row-oriented and
/// transparently resolves each RID to whichever store currently holds the
/// row's truth.
///
/// Consistency model: IMRS-resident rows get timestamp-based snapshot
/// isolation through in-memory versioning; page-store-resident rows are
/// protected by strict two-phase row locking (read-committed or better).
/// Writers always lock exclusively to commit, so write-write conflicts are
/// impossible in either store.
class Database : public PackClient {
 public:
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// --- schema -----------------------------------------------------------

  Result<Table*> CreateTable(TableOptions options);
  Table* GetTable(const std::string& name) const;
  Table* GetTable(uint32_t table_id) const;
  std::vector<Table*> Tables() const;

  /// --- transactions ------------------------------------------------------

  std::unique_ptr<Transaction> Begin() { return txn_manager_.Begin(); }
  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);

  /// --- DML (access methods, Sec. II/IV/VII) -------------------------------

  /// Inserts an encoded record. The row's RID is pre-allocated from the
  /// partition heap; storage (IMRS vs page store) follows ILM rules.
  Status Insert(Transaction* txn, Table* table, Slice record);

  /// Point select by primary key. Sets `*out` to the visible payload.
  Status SelectByKey(Transaction* txn, Table* table, Slice pk,
                     std::string* out);

  /// Point update by primary key: `mutator` receives the current payload
  /// and rewrites it (must not change key columns).
  Status Update(Transaction* txn, Table* table, Slice pk,
                const std::function<void(std::string*)>& mutator);

  /// Point delete by primary key.
  Status Delete(Transaction* txn, Table* table, Slice pk);

  /// Range scan over an index (`index_no` = -1 for the primary, else the
  /// secondary index position): hands the rows visible to `txn` with
  /// lower <= key < upper (empty upper = to the end) to `visitor` in key
  /// order until it returns false or `limit` (0 = no limit) visible rows
  /// were visited. The reused ScanRow is valid only during the call.
  Status ScanIndex(Transaction* txn, Table* table, int index_no, Slice lower,
                   Slice upper, size_t limit,
                   const std::function<bool(const ScanRow&)>& visitor);
  /// Collecting form: appends the visible rows to `*out`.
  Status ScanIndex(Transaction* txn, Table* table, int index_no, Slice lower,
                   Slice upper, size_t limit, std::vector<ScanRow>* out);

  /// --- analytical scan (scan.cc; DESIGN.md Sec. 15) ------------------------
  ///
  /// Full-table scan merging both stores under one snapshot: cold columnar
  /// segments and staged cold rows are read lock-free (immutable data +
  /// liveness re-check against the rid index), IMRS rows at the
  /// transaction's begin timestamp, and remaining heap rows as committed
  /// reads. Every live row is visited exactly once; rows the IMRS masks are
  /// served from their visible IMRS version, not their cold/heap home.
  /// Projection pushdown: with `options.columns` set, sealed segments only
  /// count the projected columns toward bytes-scanned (and only those are
  /// meaningful to access on cold-backed rows). The visitor returns false
  /// to stop early.
  Status ScanTable(Transaction* txn, Table* table,
                   const HtapScanOptions& options,
                   const std::function<bool(const HtapRow&)>& visitor,
                   HtapScanStats* stats = nullptr);

  /// --- background / lifecycle ----------------------------------------------

  /// Starts the ILM tick thread and the GC thread. Idempotent.
  void StartBackground();
  /// Stops and joins background threads. Idempotent; called by destructor.
  void StopBackground();

  /// Runs one synchronous GC pass (tests / deterministic experiments).
  void RunGcOnce();
  /// Runs one synchronous ILM background tick (TSF/tuning/pack).
  void RunIlmTickOnce();

  /// Overlapped consistent-snapshot checkpoint (DESIGN.md Sec. 14).
  ///
  /// The only foreground stall is the begin barrier: a brief
  /// PauseNewTransactions drain that turns the snapshot epoch into a clean
  /// cut (every commit with cts <= epoch is fully applied in memory).
  /// Everything after — the RID-map snapshot walk, chunked snapshot-row
  /// appends to sysimrslogs, buffer-cache flush, device syncs — runs with
  /// commits, pack, and GC proceeding concurrently. The snapshot epoch is
  /// pinned into the GC horizon for the duration, and pack stashes the
  /// snapshot-visible pre-image of any row it evicts mid-walk into a side
  /// buffer the checkpointer drains before writing the end record.
  ///
  /// It is also what bounds both logs: it rolls them over before the begin
  /// barrier and, once its end pair is durable, drops what precedes that.
  Status Checkpoint();

  /// Rebuilds page store, IMRS, and all indexes from the two logs. Call on
  /// a freshly opened database after re-creating the tables (the catalog is
  /// not persisted). Existing in-memory state must be empty.
  Status Recover();

  /// Pre-warms the IMRS with every page-store-resident row of `table`
  /// (the paper's Sec. X "pre-warmed IMRS caches"): rows are cached as if
  /// point-selected, in batched system transactions. Rows whose locks are
  /// held, or that no longer fit (NoSpace), are skipped. Returns the number
  /// of rows brought in.
  Result<int64_t> PrewarmTable(Table* table);

  /// Cross-structure invariant checker (src/engine/validate.cc): verifies
  /// RID-map <-> IMRS version chains <-> page-store slots <-> ILM queue
  /// membership <-> partition byte/row counters. Requires quiescence
  /// (returns Busy while transactions are active); excludes pack cycles and
  /// GC passes via their serialization mutexes, so a checkpoint in flight
  /// does not block validation and vice versa. Returns Corruption with a
  /// description of the first violation.
  ///
  /// Built with -DBTRIM_PARANOID_CHECKS=ON, the engine also runs a tolerant
  /// variant after every pack cycle (no foreground pause, uncommitted heads
  /// allowed) and aborts the process on violation.
  Status ValidateInvariants(ValidateReport* report = nullptr);

  /// --- introspection ---------------------------------------------------------

  /// The unified metrics registry every subsystem of this database is
  /// registered into: the engine's one stats surface (DESIGN.md Sec. 10).
  /// Read a counter with metrics_registry()->Sum("pack.rows_packed").
  obs::MetricsRegistry* metrics_registry() const { return &metrics_registry_; }

  /// The registry's time-series sampler. It samples on demand only: callers
  /// SampleNow at transaction-count windows or on their own clock.
  obs::TimeSeriesSampler* metrics_sampler() const { return sampler_.get(); }

  /// Full metrics export in the stable JSON schema
  /// {name, type, value|buckets, labels{subsystem,table,partition}}.
  std::string DumpMetricsJson() const { return metrics_registry_.ToJson(); }
  IlmManager* ilm() { return ilm_.get(); }
  ThreadPool* background_pool() { return background_pool_.get(); }
  TransactionManager* txn_manager() { return &txn_manager_; }
  BufferCache* buffer_cache() { return &buffer_cache_; }
  FragmentAllocator* imrs_allocator() { return &imrs_allocator_; }
  ImrsGc* gc() { return gc_.get(); }
  RidMap* rid_map() { return &rid_map_; }
  Log* syslogs() { return syslogs_.get(); }
  Log* sysimrslogs() { return sysimrslogs_.get(); }
  ColdStore* cold() { return cold_.get(); }
  const ColdStore* cold() const { return cold_.get(); }
  GroupCommitter* syslogs_committer() { return syslogs_committer_.get(); }
  GroupCommitter* sysimrslogs_committer() {
    return sysimrslogs_committer_.get();
  }
  const DatabaseOptions& options() const { return options_; }

  /// Commit-timestamp "now" (the ILM time axis).
  uint64_t Now() const { return txn_manager_.CurrentTimestamp(); }

  /// --- PackClient --------------------------------------------------------------

  PackBatchOutcome PackBatch(PartitionState* partition,
                             const std::vector<ImrsRow*>& batch,
                             std::vector<ImrsRow*>* requeue) override;

 private:
  explicit Database(DatabaseOptions options);

  Status Init();

  /// Registers every subsystem's counters into metrics_registry_ (end of
  /// Init, once all subsystems exist). Partitions register in CreateTable.
  Status RegisterAllMetrics();

  /// Creates a device for a new file id and attaches it to the cache.
  Result<uint16_t> NewFile(const std::string& hint);

  /// Durability step run inside TransactionManager::Commit: encodes the
  /// IMRS intents of the write set as one sysimrslogs group and appends the
  /// commit record of each log the transaction changed.
  Status WriteCommitRecords(Transaction* txn, uint64_t cts);

  /// --- write set (access.cc; DESIGN.md Sec. 7) ----------------------------

  /// Finishes every write at commit, in order: stamps IMRS versions and
  /// hands their rows to GC, drops the index entries of deleted page-store
  /// and cold rows. Runs after the durability step, before lock release.
  void ApplyWriteSet(Transaction* txn, uint64_t cts);

  /// Undoes every write in reverse order. Runs before lock release, at
  /// abort and when the durability step fails.
  void RollBackWriteSet(Transaction* txn);

  /// --- DML internals (access.cc) -----------------------------------------

  struct Located {
    ImrsRow* row = nullptr;  // non-null when the IMRS holds the truth
    Rid rid;
    TablePartition* part = nullptr;
  };

  /// Resolves a primary key to a location (hash index -> BTree -> RID-map).
  Status LocateByKey(Table* table, Slice pk, Located* loc);

  /// Reads the visible version of a located row into *out (IMRS: snapshot
  /// read; page store: lock-based committed read). Used by select/scan.
  /// `*from_imrs` reports which store served the read.
  Status ReadVisible(Transaction* txn, Table* table, const Located& loc,
                     std::string* out, bool* from_imrs);

  /// WAL: logs one page-store or cold-store change to syslogs (redo-undo)
  /// before it is made, and marks the transaction as a page-store writer.
  Status LogPageStoreWrite(Transaction* txn, LogRecordType type,
                           TablePartition* part, Rid rid, Slice before,
                           Slice after);

  Status InsertIndexEntries(Transaction* txn, Table* table, Slice record,
                            Slice pk, Rid rid);
  void RemoveIndexEntries(Table* table, Slice record, Slice pk, Rid rid);

  Status InsertToImrs(Transaction* txn, Table* table, TablePartition* part,
                      Rid rid, Slice record, Slice pk, RowSource source);
  Status InsertToPageStore(Transaction* txn, TablePartition* part, Rid rid,
                           Slice record);

  Status UpdateImrsRow(Transaction* txn, TablePartition* part, ImrsRow* row,
                       const std::function<void(std::string*)>& mutator);
  Status UpdatePageStoreRow(Transaction* txn, Table* table,
                            TablePartition* part, Rid rid, Slice pk,
                            const std::function<void(std::string*)>& mutator);

  /// Tries to cache a page-store row read by point access into the IMRS
  /// (Sec. IV "selects can also bring rows"). Best effort.
  void MaybeCacheOnSelect(Transaction* txn, Table* table, TablePartition* part,
                          Rid rid, Slice pk, Slice payload);

  /// GC hook: delete the page-store home of a dead IMRS row in a system
  /// transaction. Returns false when the row lock is unavailable.
  bool PurgePageStoreHome(ImrsRow* row);

  /// --- invariant checking (validate.cc) -----------------------------------

  /// Body of ValidateInvariants. Caller holds ilm_tick_mu_ and gc_pass_mu_
  /// (which exclude pack and GC: every pack runs inside a tick, every GC
  /// pass inside a pass), and has the foreground paused unless `tolerant`
  /// is set. Tolerant mode accepts transient states a concurrent foreground
  /// can produce (uncommitted chain heads, in-flight queue membership) and
  /// skips the partition gauge cross-check.
  Status ValidateLocked(ValidateReport* report, bool tolerant)
      BTRIM_REQUIRES(ilm_tick_mu_, gc_pass_mu_);

  /// Paranoid-build hook run after each pack cycle: validates tolerantly
  /// under try-locked tick/pass mutexes (never pausing the foreground),
  /// aborts on corruption. No-op unless compiled with BTRIM_PARANOID_CHECKS.
  void ParanoidValidate();

  /// --- overlapped checkpoint (checkpoint.cc) -------------------------------

  /// Pack's CoW hook: called (before the RID-map erase) for every row pack
  /// is about to evict from the IMRS. If a checkpoint is active and the row
  /// has a version visible at the snapshot epoch, its pre-image is
  /// serialized into the checkpoint side buffer so the snapshot walk cannot
  /// miss it. Cheap no-op (one relaxed load) when no checkpoint runs.
  void StashCheckpointPreImage(ImrsRow* row);

  /// Serializes the snapshot-visible version of `row` (live or tombstone)
  /// as a kImrsSnapshotRow/Del record into `dst`. Returns false when the
  /// row has no committed version at `snapshot_ts` (born later, or fully
  /// uncommitted) — such rows are outside the snapshot.
  bool AppendSnapshotRecord(ImrsRow* row, uint64_t snapshot_ts,
                            std::string* dst);

  /// --- members ------------------------------------------------------------

  DatabaseOptions options_;

  // Page store.
  BufferCache buffer_cache_;
  std::vector<std::unique_ptr<Device>> devices_;  // index = file_id
  Mutex file_mu_{LockRank::kFilePool, "engine.file_pool"};

  // IMRS.
  FragmentAllocator imrs_allocator_;
  RidMap rid_map_;
  std::unique_ptr<ImrsStore> imrs_;
  std::unique_ptr<ImrsGc> gc_;

  // Transactions & logs. Each log gets its own committer so a syslogs batch
  // sync never serializes behind a sysimrslogs one (the two devices pipeline).
  LockManager lock_manager_;
  TransactionManager txn_manager_;
  std::unique_ptr<Log> syslogs_;
  std::unique_ptr<Log> sysimrslogs_;
  std::unique_ptr<GroupCommitter> syslogs_committer_;
  std::unique_ptr<GroupCommitter> sysimrslogs_committer_;

  // Shared background worker pool (pack fan-out + GC shard drains).
  // Declared before its consumers so it is destroyed after them.
  std::unique_ptr<ThreadPool> background_pool_;

  // ILM.
  std::unique_ptr<IlmManager> ilm_;

  // Cold-columnar store (src/cold/). Always constructed — so cold.* metrics
  // exist uniformly — but only fed by Pack when options_.cold_columnar.
  std::unique_ptr<ColdStore> cold_;

  // Catalog. Reader-writer: GetTable sits on the commit-adjacent hot path
  // (pack, purge, recovery routing) while writers are DDL-only.
  mutable RwSpinLock catalog_mu_{LockRank::kCatalog, "engine.catalog"};
  std::vector<std::unique_ptr<Table>> tables_ BTRIM_GUARDED_BY(catalog_mu_);
  std::unordered_map<std::string, Table*> tables_by_name_
      BTRIM_GUARDED_BY(catalog_mu_);
  std::unordered_map<uint16_t, std::pair<Table*, size_t>> part_by_file_
      BTRIM_GUARDED_BY(catalog_mu_);

  // Background concurrency (DESIGN.md Sec. 11). Lock order:
  //   ilm_tick_mu_ / gc_pass_mu_
  //     -> PartitionState::pack_mu / ImrsGc shard locks.
  //
  // ILM ticks and GC passes run concurrently (row-level kRowReclaimBusy
  // claims arbitrate the rows both touch). ilm_tick_mu_ serializes ticks
  // against each other (the tuner and pack backoff state are
  // driver-thread-only) and gc_pass_mu_ does the same for GC passes; both
  // keep RunIlmTickOnce/RunGcOnce safe to call while background threads
  // run, and the invariant checker holds both to exclude the purge/pack
  // frees its raw-pointer walk cannot survive.
  // Serialization-only mutexes (tick-vs-tick, pass-vs-pass); no state of
  // their own is guarded by them, hence no BTRIM_GUARDED_BY users.
  Mutex ilm_tick_mu_{LockRank::kIlmTick, "engine.ilm_tick"};
  Mutex gc_pass_mu_{LockRank::kGcPass, "engine.gc_pass"};
  std::atomic<bool> background_running_{false};
  std::vector<std::thread> background_threads_;

  // Overlapped checkpoint (checkpoint.cc; DESIGN.md Sec. 14). checkpoint_mu_
  // admits one checkpointer at a time and ranks outermost because the
  // checkpointer takes much else under it.
  Mutex checkpoint_mu_{LockRank::kCheckpointGate, "engine.checkpoint_gate"};
  struct CheckpointState {
    /// A checkpoint is between its begin barrier and its stash drain.
    /// Written under stash_mu (so the pack-side re-check under stash_mu is
    /// race-free); read lock-free on the pack fast path.
    std::atomic<bool> active{false};
    /// The in-flight checkpoint's snapshot epoch (valid while active).
    std::atomic<uint64_t> snapshot_ts{0};
    /// CoW side buffer: serialized kImrsSnapshotRow/Del records for rows
    /// pack evicted after the begin barrier (the snapshot walk may already
    /// have passed their RID-map slot). Leaf lock; drained by the
    /// checkpointer before the end record.
    SpinLock stash_mu{LockRank::kCheckpointStash, "engine.checkpoint_stash"};
    std::string stash BTRIM_GUARDED_BY(stash_mu);
    int64_t stash_records BTRIM_GUARDED_BY(stash_mu) = 0;

    // Metrics (registered as checkpoint.* in RegisterAllMetrics).
    ShardedCounter completed;      ///< checkpoints finished
    ShardedCounter snapshot_rows;  ///< snapshot records written (walk+stash)
    ShardedCounter stashed_rows;   ///< of which came through the CoW stash
    std::atomic<int64_t> last_pause_us{0};  ///< begin-barrier stall, last run
    std::atomic<int64_t> max_pause_us{0};   ///< ... and the process-wide max
    std::atomic<int64_t> last_total_us{0};  ///< wall time of the whole call
  };
  CheckpointState ckpt_;

  // Engine-level ISUD routing counters (hit-rate reporting, Fig. 1).
  mutable ShardedCounter imrs_ops_, page_ops_;

  // Observability. The registry only holds pointers into the subsystems
  // above; the sampler reads them only inside SampleNow.
  mutable obs::MetricsRegistry metrics_registry_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
};

}  // namespace btrim

#endif  // BTRIM_ENGINE_DATABASE_H_
