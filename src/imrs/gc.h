#ifndef BTRIM_IMRS_GC_H_
#define BTRIM_IMRS_GC_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "imrs/store.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Callbacks wiring GC into the engine / ILM layers without a dependency
/// cycle (the GC piggybacks ILM-queue maintenance, paper Sec. VI.B).
struct GcHooks {
  /// A newly committed row is ready for ILM tracking: push it to the tail
  /// of its partition queue. Must set kRowInQueue.
  std::function<void(ImrsRow*)> enqueue_to_ilm_queue;

  /// A fully dead row (committed delete older than every snapshot) is being
  /// purged: remove its ILM-queue linkage. Must clear kRowInQueue.
  std::function<void(ImrsRow*)> unlink_from_ilm_queue;

  /// Remove the dead row's page-store home, if materialized (a background
  /// system transaction in the engine). Returns false when it could not run
  /// now (e.g. the row lock is held); GC retries the purge later.
  std::function<bool(ImrsRow*)> purge_page_store_home;

  /// Partition accounting: `bytes` fragment bytes were freed and `rows`
  /// rows purged for (table_id, partition_id).
  std::function<void(uint32_t, uint32_t, int64_t, int64_t)> on_freed;
};

/// Non-blocking garbage collection for the IMRS (paper Sec. II "IMRS-GC").
///
/// Transactions never free version memory inline; at commit the engine
/// hands each touched row to the GC, which runs on background threads and:
///
///  1. pushes newly created rows onto their partition ILM queue (the
///     queue-maintenance piggybacking of Sec. VI.B),
///  2. trims version chains: every version older than the newest version
///     visible to the oldest active snapshot is unreachable and freed,
///  3. purges dead rows (committed delete marker older than every
///     snapshot): RID-map entry removed, queue unlinked, page-store home
///     deleted, and memory released after a grace period.
///
/// The grace period (deferred free list) plays the role of the paper's
/// "statement registration": concurrent readers that obtained a row
/// pointer from the RID-map before removal can still dereference it; the
/// memory is recycled only after every snapshot that could hold the
/// pointer has finished.
///
/// Parallelism: the work queue is sharded kGcShards ways by RID (mirroring
/// the transaction table's 16-way sharding), and a pass fans one drain task
/// per non-empty shard out to the shared background ThreadPool. A row is
/// always hashed to the same shard and each shard has exactly one drainer
/// at a time, so the same row — which can sit in the queue once per commit
/// that touched it — is never processed concurrently. Row-level exclusion
/// against Pack (which frees the chains of rows it relocates) uses the
/// kRowReclaimBusy claim bit.
class ImrsGc {
 public:
  static constexpr int kGcShards = 16;

  ImrsGc(ImrsStore* store, GcHooks hooks);

  ImrsGc(const ImrsGc&) = delete;
  ImrsGc& operator=(const ImrsGc&) = delete;

  /// Attaches the shared background pool used to drain shards in parallel.
  /// Null or a <= 1-worker pool keeps passes serial on the caller.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }

  /// Registers a committed row for processing. `newly_created` marks the
  /// commit that created the row (insert / migration / caching).
  void EnqueueCommitted(ImrsRow* row, bool newly_created);

  /// Defers freeing an arbitrary fragment until every transaction whose
  /// snapshot predates `not_before_ts` has finished (used by Pack for the
  /// headers/versions of rows it removed).
  void DeferFree(void* fragment, uint64_t not_before_ts);

  /// Registers an epoch-reclamation hook run at the end of every GC pass.
  /// The hook returns how many items it reclaimed (e.g. retired B+Tree
  /// pages whose readers have drained — BTree::DrainRetired). Hooks run
  /// with no GC locks held and must be safe to call from any pass thread;
  /// they cannot be unregistered, so the callee must outlive the GC.
  void AddReclaimHook(std::function<int64_t()> hook);

  /// One GC pass. `oldest_snapshot` is
  /// TransactionManager::OldestActiveSnapshot() and `now` the current
  /// commit timestamp (used to stamp the grace period of deferred frees).
  /// `max_items` caps the items processed (0 = one sweep over the current
  /// queue). Rows that still carry reclaimable-later state are re-queued.
  /// Returns items processed.
  int64_t RunOnce(uint64_t oldest_snapshot, uint64_t now,
                  int64_t max_items = 0);

  /// Registers GC counters (plus the pending-queue depths as derived gauges)
  /// into the unified metrics registry under `gc.*`.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const;

 private:
  struct WorkItem {
    ImrsRow* row;
    bool newly_created;
  };
  struct Deferred {
    void* fragment;
    uint64_t not_before_ts;
  };

  /// One work-queue shard. `drain_mu` enforces the one-drainer-per-shard
  /// invariant (duplicate queue entries for a row land in the same shard).
  struct Shard {
    Mutex mu{LockRank::kGcShard, "imrs.gc_shard"};
    std::deque<WorkItem> work BTRIM_GUARDED_BY(mu);
    // Serialization-only: held for the whole drain of this shard, with rows
    // processed outside `mu`, to enforce one-drainer-per-shard.
    Mutex drain_mu{LockRank::kGcDrain, "imrs.gc_drain"};
  };

  static int ShardFor(const ImrsRow* row);

  /// Processes one row; returns true when the row needs a later revisit.
  bool ProcessRow(ImrsRow* row, bool newly_created, uint64_t oldest_snapshot,
                  uint64_t now);

  /// Drains up to `budget` items from one shard, bounded by the pass-wide
  /// `remaining` item cap. Adds items handled to `processed`.
  void DrainShard(int shard_index, size_t budget, uint64_t oldest_snapshot,
                  uint64_t now, std::atomic<int64_t>* remaining,
                  std::atomic<int64_t>* processed);

  void DrainDeferred(uint64_t oldest_snapshot);

  ImrsStore* const store_;
  const GcHooks hooks_;
  ThreadPool* pool_ = nullptr;  // not owned

  mutable Shard shards_[kGcShards];

  mutable Mutex deferred_mu_{LockRank::kGcDeferred, "imrs.gc_deferred"};
  std::vector<Deferred> deferred_ BTRIM_GUARDED_BY(deferred_mu_);

  mutable Mutex reclaim_mu_{LockRank::kGcReclaimHooks, "imrs.gc_reclaim"};
  std::vector<std::function<int64_t()>> reclaim_hooks_
      BTRIM_GUARDED_BY(reclaim_mu_);

  mutable ShardedCounter versions_freed_, bytes_freed_, rows_purged_,
      rows_enqueued_, index_pages_reclaimed_;
};

}  // namespace btrim

#endif  // BTRIM_IMRS_GC_H_
