#ifndef BTRIM_TXN_LOCK_MANAGER_H_
#define BTRIM_TXN_LOCK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Lock modes. Shared locks are compatible with each other; exclusive locks
/// are incompatible with everything held by other transactions.
enum class LockMode : uint8_t { kShared, kExclusive };

/// Row-level lock manager.
///
/// Locks are identified by a 64-bit id (the encoded RID). DMLs acquire
/// exclusive row locks and hold them to transaction end (strict 2PL on the
/// write set); data movement between stores happens under these same locks,
/// which is what makes the movement transparent to scanners (paper Sec.
/// VII.B).
///
/// Fast path (DESIGN.md Sec. 13.6): each lock entry carries an atomic
/// `fast_word` holding the id of a single uncontended exclusive holder.
/// An exclusive Acquire CASes it 0 -> txn under the stripe's entry-map
/// read lock and never touches the stripe Mutex; Release stores it back to
/// 0. TPC-C's dominant row-lock pattern — exclusive, uncontended, held to
/// commit — therefore costs two atomic RMWs. The Dekker-style handshake
/// with the slow path: slow-path participants bump the entry's
/// `slow_users` *before* inspecting `fast_word` (both seq_cst), and the
/// fast path re-checks `slow_users` after its CAS and rolls back to the
/// slow path if it lost — so a fast grant and a slow grant can never both
/// conclude they own the entry.
///
/// Shared requests, contended requests and upgrades take the classic
/// striped mutex + condvar slow path. Pending shared->exclusive upgrades
/// are starvation-proof: once a holder is waiting to upgrade, new shared
/// requests from other transactions queue behind it instead of perpetually
/// re-populating the read set.
///
/// Entries are pooled: each stripe chains its entries in an intrusive hash
/// table and keeps idle ones on a free list, so after warm-up neither a
/// fresh lock id nor the sweep of an idle one touches the heap. Both
/// acquire calls report whether the grant made the lock newly held, which
/// is all a transaction needs to maintain its release list.
///
/// Pack threads use TryAcquire: if the conditional lock is not granted the
/// row is simply skipped, so user DMLs never wait for Pack (Sec. VII.B).
/// Deadlocks among user transactions are resolved by timeout: a blocked
/// Acquire gives up after `timeout_ms` and the caller aborts.
class LockManager {
 public:
  explicit LockManager(size_t stripes = 64);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Blocking acquisition; Aborted on timeout. Re-entrant for a lock the
  /// transaction already holds (shared->exclusive upgrades wait for other
  /// holders to drain). On success `*newly_held` (if given) is true when
  /// `txn_id` did not hold `lock_id` before the call, i.e. when the caller
  /// now owes one Release.
  Status Acquire(uint64_t txn_id, uint64_t lock_id, LockMode mode,
                 int64_t timeout_ms, bool* newly_held = nullptr);

  /// Non-blocking acquisition; Busy if not immediately grantable. Never
  /// registers upgrade intent, so a denied conditional upgrade cannot
  /// block later shared requests. `*newly_held` as for Acquire.
  Status TryAcquire(uint64_t txn_id, uint64_t lock_id, LockMode mode,
                    bool* newly_held = nullptr);

  /// Releases one lock held by `txn_id`.
  void Release(uint64_t txn_id, uint64_t lock_id);

  /// True if `txn_id` currently holds `lock_id` at >= `mode`.
  bool Holds(uint64_t txn_id, uint64_t lock_id, LockMode mode) const;

  /// Registers the lock-manager counters, the blocked-wait latency
  /// histogram (`locks.wait_us`), the contention gauges
  /// (`locks.waiting_txns`, `locks.contended_stripes`) and the pool size
  /// (`locks.entries`: entries owned, live plus pooled) into the unified
  /// metrics registry under `locks.*`.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const;

 private:
  struct Holder {
    uint64_t txn_id;
    LockMode mode;
  };

  // A nested struct cannot spell BTRIM_GUARDED_BY on an outer-class
  // member: `holders` and `upgrading_txn` are guarded by the owning
  // stripe's mu, `id` and `next` by its table_lock (documented contract,
  // enforced at the access sites); `fast_word` and `slow_users` are
  // lock-free.
  struct LockEntry {
    /// txn id of the sole exclusive holder granted via the fast path;
    /// 0 when the fast word is free.
    std::atomic<uint64_t> fast_word{0};
    /// Holder records below + transient slow-path participants. Non-zero
    /// forces exclusive acquirers off the fast path and pins the entry
    /// against sweeping.
    std::atomic<uint32_t> slow_users{0};
    std::vector<Holder> holders;  // guarded by stripe mu
    /// txn id of a shared holder waiting to upgrade (0 if none). New
    /// shared grants to other transactions are refused while set.
    uint64_t upgrading_txn = 0;  // guarded by stripe mu
    /// Lock id while the entry is in the table.
    uint64_t id = 0;  // guarded by stripe table_lock
    /// Next entry in the same bucket chain, or on the free list.
    LockEntry* next = nullptr;  // guarded by stripe table_lock
  };

  struct Stripe {
    /// Guards the entry table and pool (not the entries' grant state).
    /// Taken shared on every lock operation, exclusive only to insert or
    /// sweep entries; ranks before the stripe mutex.
    mutable RwSpinLock table_lock{LockRank::kLockTable, "txn.lock_table"};
    /// Owns every entry of the stripe, live or free. A deque never moves
    /// its elements, so slow-path waiters may hold bare LockEntry pointers
    /// across inserts (pinned against sweeping via slow_users).
    std::deque<LockEntry> pool BTRIM_GUARDED_BY(table_lock);
    /// Chained hash table of the live entries; a power-of-two size.
    std::vector<LockEntry*> buckets BTRIM_GUARDED_BY(table_lock);
    size_t live BTRIM_GUARDED_BY(table_lock) = 0;
    /// Idle entries, reset and ready for reuse.
    LockEntry* free_list BTRIM_GUARDED_BY(table_lock) = nullptr;
    /// Idle entries are swept when the table grows past this.
    size_t sweep_watermark BTRIM_GUARDED_BY(table_lock) = 64;

    mutable Mutex mu{LockRank::kLockStripe, "txn.lock_stripe"};
    CondVar cv;
    /// Slow-path participants in this stripe. A fast-path release only
    /// pays for mu + NotifyAll when this is non-zero.
    std::atomic<int64_t> waiters{0};
  };

  /// Outcome of a grant attempt: refused, granted to a transaction that
  /// already held the lock (re-entrant or upgrade), or newly granted (a
  /// fast-word CAS from 0 or a new holder record).
  enum class Grant : uint8_t { kRefused, kHeld, kNew };

  Stripe& StripeFor(uint64_t lock_id) const;

  /// Resolves (creating if needed) the entry for `lock_id` and either
  /// grants on the fast path (kHeld / kNew) or pins the entry for the slow
  /// path with a transient slow_users increment (kRefused). `*out` is
  /// valid in every case.
  Grant PrepareEntry(Stripe& stripe, uint64_t lock_id, uint64_t txn_id,
                     LockMode mode, LockEntry** out);

  /// Fast-path attempt; only exclusive requests are eligible. Safe to call
  /// only while `stripe.table_lock` pins the entry.
  Grant TryFastGrant(LockEntry* entry, uint64_t txn_id, LockMode mode,
                     Stripe* stripe);

  /// Grant attempt under the stripe mutex. On kNew a holder record was
  /// pushed, and the caller's transient slow_users pin converts into the
  /// holder pin. `register_upgrade` lets a blocking upgrade request record
  /// its intent so new shared grants queue behind it.
  Grant TryGrantSlowLocked(LockEntry* entry, uint64_t txn_id, LockMode mode,
                           bool register_upgrade);

  /// The live entry for `lock_id`, or nullptr.
  static LockEntry* FindLocked(const Stripe& stripe, uint64_t lock_id)
      BTRIM_REQUIRES_SHARED(stripe.table_lock);

  /// Links a pooled (or, if the pool is empty, new) entry for `lock_id`
  /// into the table, sweeping first at the watermark.
  LockEntry* InsertLocked(Stripe* stripe, uint64_t lock_id)
      BTRIM_REQUIRES(stripe->table_lock);

  /// Moves entries with no fast holder and no slow users from the table to
  /// the free list, resetting their grant state; resets the watermark to 2x
  /// the surviving size. Frees nothing.
  void SweepLocked(Stripe* stripe) BTRIM_REQUIRES(stripe->table_lock);

  const size_t num_stripes_;
  std::vector<std::unique_ptr<Stripe>> stripes_;

  mutable ShardedCounter acquisitions_, fast_grants_, waits_, timeouts_,
      try_failures_;
  mutable LatencyHistogram wait_us_;
};

}  // namespace btrim

#endif  // BTRIM_TXN_LOCK_MANAGER_H_
