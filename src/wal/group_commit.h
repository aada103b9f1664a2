#ifndef BTRIM_WAL_GROUP_COMMIT_H_
#define BTRIM_WAL_GROUP_COMMIT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/counters.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "wal/log.h"

namespace btrim {

/// How commits reach durable storage (paper Sec. II: commit-time aggregated
/// logging makes the durability step one contiguous append, which is what
/// makes amortizing the sync across committers possible at all).
enum class DurabilityPolicy : uint8_t {
  kNoSync = 0,         ///< appends only; process-crash consistency
  kSyncPerCommit = 1,  ///< one device sync per committing transaction
  kGroupCommit = 2,    ///< batched appends, one sync per arrival batch
};

/// Knobs for GroupCommitter (DatabaseOptions::durability).
struct DurabilityOptions {
  DurabilityPolicy policy = DurabilityPolicy::kNoSync;

  /// Group commit: transaction groups per batch before the leader stops
  /// waiting for joiners and syncs.
  int64_t max_batch_groups = 64;

  /// Group commit: upper bound on how long the batch leader lingers for
  /// followers. The actual wait adapts to the observed committer population
  /// (see GroupCommitter::LeadBatch): it ends as soon as the batch matches
  /// the previous batch's size, so this bound is only paid in full when
  /// concurrency just dropped. It is the worst-case extra latency any
  /// committer pays on an idle log; 0 disables lingering entirely.
  int64_t max_group_latency_us = 200;
};

/// Batches the durability step of concurrent committers over one Log.
///
/// Leader/follower design (no dedicated writer thread): a committing
/// transaction stages its pre-serialized record group into the pending
/// buffer and, if no batch is in flight, becomes the *leader* — it claims
/// everything staged so far, appends it as one contiguous write, issues one
/// sync, publishes the new durable offset, and wakes the *followers* whose
/// groups rode along. Committers arriving while a leader is writing simply
/// stage and wait; the next leader is elected among them when the current
/// batch completes, so the device never idles while work is pending and an
/// idle log never delays a lone committer beyond max_group_latency_us (the
/// optional linger a leader spends waiting for joiners).
///
/// Followers wait spin-then-block: durable_end_ is published through an
/// atomic, so a follower whose batch is in flight polls it lock-free (with
/// yields) for roughly one device-sync's worth of iterations and, in the
/// common case, returns without ever re-acquiring mu_ — the post-sync
/// wakeup does not convoy every waiter through the mutex. Only when the
/// device is slow does it fall back to the condition variable.
///
/// The staged bytes of one CommitGroup call are appended contiguously and
/// in staging order, so the on-disk format is indistinguishable from the
/// per-transaction appends it replaces — recovery is unchanged, and a torn
/// batch tail tears at a record boundary within one transaction's group,
/// which replay already drops.
///
/// kSyncPerCommit and kNoSync policies bypass the batching machinery (no
/// mutex on the append path) but still feed the same stats, so benchmark
/// sweeps compare policies through one interface.
///
/// An append or sync failure is sticky: the committer poisons itself and
/// every subsequent (and waiting) commit fails, since the log tail is no
/// longer trustworthy. The owning Database surfaces this as commit failure
/// -> transaction abort.
class GroupCommitter {
 public:
  GroupCommitter(Log* log, DurabilityOptions options);

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Appends one transaction's pre-serialized record group and returns once
  /// it is durable per the configured policy. Thread-safe.
  Status CommitGroup(Slice group, int64_t record_count);

  DurabilityPolicy policy() const { return options_.policy; }

  /// Registers the committer's counters and latency histogram into the
  /// unified metrics registry under `commit.*`.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const;

 private:
  Status CommitGroupBatched(Slice group, int64_t record_count)
      BTRIM_EXCLUDES(mu_);

  /// Runs one leader round: claims the staged batch (lingering for joiners
  /// first), appends + syncs it with `mu_` released, republishes state.
  /// Returns Status::OK() without doing anything when the leader race was
  /// lost or `my_end` is already durable; returns the sticky error when the
  /// committer is poisoned. Otherwise returns the batch status.
  Status LeadBatch(uint64_t my_end) BTRIM_EXCLUDES(mu_);

  /// Lock-free bounded wait for the in-flight batch. Returns true once
  /// durable_end_ covers `my_end`; returns false when the round ended
  /// without covering it or the spin budget ran out. Called without mu_.
  bool SpinWhileBatchInFlight(uint64_t my_end) const;

  Log* const log_;
  const DurabilityOptions options_;

  Mutex mu_{LockRank::kGroupCommit, "wal.group_commit"};
  CondVar cv_;
  // Staged groups not yet claimed by a leader.
  std::string pending_ BTRIM_GUARDED_BY(mu_);
  int64_t pending_records_ BTRIM_GUARDED_BY(mu_) = 0;  // records in pending_
  int64_t pending_groups_ BTRIM_GUARDED_BY(mu_) = 0;   // groups in pending_
  // Logical byte offset: end of staged data.
  uint64_t staged_end_ BTRIM_GUARDED_BY(mu_) = 0;
  // durable_end_ / leader_active_ are written under mu_ but read lock-free
  // by spinning followers; durable_end_ only ever advances, and only after
  // a clean sync, so an acquire load observing coverage implies durability.
  std::atomic<uint64_t> durable_end_{0};
  std::atomic<bool> leader_active_{false};
  // Adaptive-linger state: the size the current leader waits for, and the
  // previous claimed batch size it derives from. Seeded at max so the very
  // first batch waits for a full group (or the latency bound) — the
  // optimistic start that makes batch formation deterministic in tests.
  int64_t linger_target_ BTRIM_GUARDED_BY(mu_);
  int64_t last_batch_groups_ BTRIM_GUARDED_BY(mu_);
  // First IO failure; poisons the committer.
  Status sticky_error_ BTRIM_GUARDED_BY(mu_);

  mutable ShardedCounter groups_, batches_, batch_bytes_;
  AtomicGauge max_batch_groups_;
  LatencyHistogram latency_;
};

}  // namespace btrim

#endif  // BTRIM_WAL_GROUP_COMMIT_H_
