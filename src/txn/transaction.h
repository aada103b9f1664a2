#ifndef BTRIM_TXN_TRANSACTION_H_
#define BTRIM_TXN_TRANSACTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/counters.h"
#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "txn/lock_manager.h"

namespace btrim {

/// Transaction states.
enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

class TransactionManager;

// Engine types a write intent points at. Forward declarations only: the
// engine interprets intents, this library just stores them.
class BTree;
class HeapFile;
class Table;
struct ImrsRow;
struct PartitionState;
struct RowVersion;

/// What one write did (DESIGN.md Sec. 7, "The write set"). The engine
/// applies each kind at commit, undoes it at abort, and encodes the IMRS
/// kinds into the transaction's sysimrslogs group.
enum class IntentKind : uint8_t {
  kIndexInsert,  ///< key inserted into `tree`
  kImrsInsert,   ///< IMRS row created (inserted, migrated or cached)
  kImrsUpdate,   ///< new version on an IMRS row
  kImrsDelete,   ///< delete marker on an IMRS row
  kImrsPack,     ///< Pack moved the row out of the IMRS (redo only)
  kHeapInsert,   ///< heap slot placed
  kHeapUpdate,   ///< heap slot rewritten; image = before-image
  kHeapDelete,   ///< heap slot deleted; image = before-image
  kColdErase,    ///< cold home erased by an update; image = before-image
  kColdDelete,   ///< cold home erased by a delete; image = before-image
};

/// One entry of a transaction's write set: a plain record whose pointers
/// are owned elsewhere. Its variable bytes (an index key or primary key,
/// and a before-image) live in the transaction's byte buffer.
struct WriteIntent {
  IntentKind kind = IntentKind::kIndexInsert;
  uint64_t rid = 0;    ///< encoded Rid of the written row
  int64_t bytes = 0;   ///< IMRS bytes charged to `partition`
  Table* table = nullptr;
  PartitionState* partition = nullptr;
  ImrsRow* row = nullptr;
  RowVersion* version = nullptr;  ///< the version this write added
  HeapFile* heap = nullptr;
  BTree* tree = nullptr;
  uint32_t key_off = 0, key_len = 0;
  uint32_t image_off = 0, image_len = 0;
};

/// One in-flight transaction.
///
/// Carries the snapshot timestamp (begin_ts), the held-lock set, and the
/// write set: one WriteIntent per write, from which the engine finishes the
/// transaction at commit, rolls it back at abort, and builds its sysimrslogs
/// group (IMRS changes are logged at commit as one contiguous group,
/// enabling the redo-only recovery of the IMRS log — paper Sec. II).
class Transaction {
 public:
  uint64_t id() const { return id_; }
  uint64_t begin_ts() const { return begin_ts_; }
  uint64_t commit_ts() const { return commit_ts_; }
  TxnState state() const { return state_; }

  /// Snapshot visibility: a version with commit timestamp `cts` is visible
  /// to this transaction's reads.
  bool Sees(uint64_t cts) const { return cts != 0 && cts <= begin_ts_; }

  /// --- lock tracking -----------------------------------------------------

  /// Acquires (blocking) and remembers a lock for release at txn end.
  Status AcquireLock(uint64_t lock_id, LockMode mode, int64_t timeout_ms);

  /// Conditional variant (used by Pack transactions).
  Status TryAcquireLock(uint64_t lock_id, LockMode mode);

  /// --- write set -----------------------------------------------------------

  /// Records one write; `key` and `image` are copied into the byte buffer.
  void AddIntent(WriteIntent intent, Slice key = Slice(),
                 Slice image = Slice());

  /// Intents in the order they were added; emptied when the transaction
  /// finishes.
  const std::vector<WriteIntent>& write_set() const { return write_set_; }
  Slice key(const WriteIntent& w) const {
    return Slice(intent_bytes_.data() + w.key_off, w.key_len);
  }
  Slice image(const WriteIntent& w) const {
    return Slice(intent_bytes_.data() + w.image_off, w.image_len);
  }

  bool has_pagestore_changes() const { return ps_changes_; }
  void MarkPageStoreChange() { ps_changes_ = true; }

  /// The row image an update edits, reused by the transaction's updates.
  std::string* edit_buffer() { return &edit_buffer_; }

 private:
  friend class TransactionManager;

  Transaction(TransactionManager* mgr, uint64_t id, uint64_t begin_ts)
      : mgr_(mgr), id_(id), begin_ts_(begin_ts) {}

  TransactionManager* const mgr_;
  const uint64_t id_;
  const uint64_t begin_ts_;
  uint64_t commit_ts_ = 0;
  TxnState state_ = TxnState::kActive;

  std::vector<uint64_t> held_locks_;
  std::vector<WriteIntent> write_set_;
  std::string intent_bytes_;
  std::string edit_buffer_;
  bool ps_changes_ = false;
};

/// Creates transactions, assigns begin/commit timestamps from the database
/// commit clock (the atomic counter of Sec. VI.D), tracks the active set
/// for garbage collection, and drives commit/abort processing.
///
/// Durability hook: the owner (Database) supplies a commit hook invoked
/// *after* the commit timestamp is assigned and *before* any lock is
/// released; the hook writes and syncs the log records (typically by
/// waiting on a GroupCommitter batch) and then applies the write set, or
/// rolls it back if the logs refused it. If the hook fails, the transaction
/// aborts instead. No manager-wide mutex is held around the hook, so a
/// transaction waiting for its batch to sync never blocks other commits.
///
/// The active set is sharded by transaction id: Begin/commit/abort of
/// concurrent workers touch disjoint shard mutexes, so with group commit
/// the only cross-worker rendezvous on the commit path is the batched sync
/// itself. Safety of the GC horizon relies on two orderings: (a) a Begin
/// reads the clock while holding its shard mutex, and (b) horizon readers
/// first read the clock, then scan every shard under its mutex — so any
/// registration a scan misses read its snapshot *after* the horizon
/// reader's initial clock read, keeping the horizon conservative.
class TransactionManager {
 public:
  explicit TransactionManager(LockManager* lock_manager);

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Starts a transaction whose snapshot is the current commit timestamp.
  std::unique_ptr<Transaction> Begin();

  /// Commits: assigns commit_ts, calls `durability_hook` (may be null),
  /// releases locks. On hook failure the transaction is aborted and the
  /// hook's status returned.
  Status Commit(Transaction* txn,
                const std::function<Status(Transaction*, uint64_t)>&
                    durability_hook = nullptr);

  /// Aborts: releases locks. The owner undoes the write set first.
  Status Abort(Transaction* txn);

  /// Oldest snapshot that any active transaction may still read; versions
  /// with commit_ts <= horizon and a newer committed successor are garbage.
  /// Pinned snapshots (see PinSnapshot) clamp the result the same way an
  /// active transaction at that timestamp would.
  uint64_t OldestActiveSnapshot() const;

  /// --- snapshot pins (overlapped checkpoint) -------------------------------

  /// Pins `ts` into the GC horizon without registering a transaction:
  /// OldestActiveSnapshot() will not exceed `ts` until the pin is released.
  /// The checkpointer pins its snapshot epoch so GC trimming, ILM purge, and
  /// the deferred-free grace list all keep snapshot-era versions (and the
  /// rows holding them) alive while the snapshot walk and persist proceed.
  /// Lock-free: claims one of a small fixed set of slots. Returns the slot
  /// index, or -1 if all slots are taken (callers then fall back to
  /// serializing on their own gate; Database::checkpoint_mu_ makes this
  /// unreachable for checkpoints).
  int PinSnapshot(uint64_t ts);

  /// Releases a pin returned by PinSnapshot.
  void UnpinSnapshot(int slot);

  /// Number of concurrent snapshot pins supported.
  static constexpr size_t kSnapshotPinSlots = 4;

  /// The database commit clock (shared with ILM components which express
  /// row-age in commit-timestamp units).
  LogicalClock* commit_clock() { return &clock_; }
  uint64_t CurrentTimestamp() const { return clock_.Now(); }

  /// Advances the transaction-id counter past `max_seen` (monotone max).
  /// Recovery calls this with the highest txn id found in either log so a
  /// restarted process never reuses an id that still appears in log tails —
  /// id collisions across restarts would let an old epoch's records match a
  /// new epoch's commit during a later recovery.
  void AdvancePastTxnId(uint64_t max_seen) {
    uint64_t cur = next_txn_id_.load(std::memory_order_relaxed);
    while (cur <= max_seen &&
           !next_txn_id_.compare_exchange_weak(cur, max_seen + 1,
                                               std::memory_order_relaxed)) {
    }
  }

  LockManager* lock_manager() { return lock_manager_; }

  /// Transactions begun so far, and those currently registered (the latter
  /// locks each active-set shard in turn).
  int64_t BegunCount() const { return begun_.Load(); }
  int64_t ActiveCount() const;

  /// Registers the manager's counters (and the active-set size as a derived
  /// gauge) into the unified metrics registry under `txn.*`.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const;

  /// --- quiescence gate (invariant checker) --------------------------------

  /// Blocks new Begin() calls and waits up to `wait_ms` for the active set
  /// to drain. Returns true once no transaction is active (the caller then
  /// owns the pause and must call ResumeNewTransactions()); on timeout or if
  /// another caller already holds the pause, returns false with the gate
  /// reopened. Used by Database::ValidateInvariants to walk engine state
  /// without rows being created or freed underneath it.
  bool PauseNewTransactions(int64_t wait_ms);

  /// Reopens the Begin() gate after a successful PauseNewTransactions().
  void ResumeNewTransactions();

  /// Default lock wait budget before declaring deadlock-by-timeout.
  static constexpr int64_t kLockTimeoutMs = 1000;

  /// Number of active-set shards (power of two; id-interleaved).
  static constexpr size_t kActiveShards = 16;

 private:
  friend class Transaction;

  struct alignas(kCacheLineSize) ActiveShard {
    mutable Mutex mu{LockRank::kTxnShard, "txn.active_shard"};
    // txn_id -> begin_ts
    std::unordered_map<uint64_t, uint64_t> txns BTRIM_GUARDED_BY(mu);
  };

  ActiveShard& ShardFor(uint64_t txn_id) {
    return active_shards_[txn_id % kActiveShards];
  }

  /// Ends `txn` with `outcome`: releases its locks and unregisters it.
  void Finish(Transaction* txn, TxnState outcome);

  /// Fast-path check + slow-path wait for the quiescence gate.
  void WaitWhilePaused();

  LockManager* const lock_manager_;
  LogicalClock clock_;
  std::atomic<uint64_t> next_txn_id_{1};

  ActiveShard active_shards_[kActiveShards];

  // Quiescence gate. paused_ is seq_cst on both sides: Begin registers into
  // its shard and *then* loads paused_; PauseNewTransactions stores paused_
  // and *then* scans the shards. Whichever order the race resolves in, either
  // the scan sees the registration (and waits for it to drain) or the load
  // sees the pause (and Begin backs out and waits at the gate).
  std::atomic<bool> paused_{false};
  mutable Mutex gate_mu_{LockRank::kTxnGate, "txn.gate"};
  CondVar gate_cv_;

  // Snapshot pins. UINT64_MAX marks a free slot; PinSnapshot CAS-claims one.
  // acq_rel on the claim pairs with the acquire loads in
  // OldestActiveSnapshot(): a horizon reader either sees the pin (and clamps)
  // or the pinner's clock read happened before the reader's, keeping the
  // horizon conservative either way (the pinner reads the clock before
  // publishing the pin, mirroring the Begin()/shard-scan ordering above).
  std::atomic<uint64_t> pinned_snapshots_[kSnapshotPinSlots];

  mutable ShardedCounter begun_, committed_, aborted_;
};

}  // namespace btrim

#endif  // BTRIM_TXN_TRANSACTION_H_
