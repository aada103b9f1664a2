#include "txn/lock_manager.h"

#include <algorithm>
#include <chrono>

#include "common/hash.h"
#include "obs/metrics_registry.h"

namespace btrim {

LockManager::LockManager(size_t stripes) : num_stripes_(stripes) {
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

LockManager::Stripe& LockManager::StripeFor(uint64_t lock_id) const {
  return *stripes_[Mix64(lock_id) % num_stripes_];
}

namespace {

// Bucket index of `lock_id` in a table of `n` (a power of two) buckets. The
// stripe is picked from the low bits of the same hash, so use the high ones.
size_t BucketOf(uint64_t lock_id, size_t n) {
  return static_cast<size_t>(Mix64(lock_id) >> 32) & (n - 1);
}

}  // namespace

LockManager::Grant LockManager::TryFastGrant(LockEntry* entry,
                                             uint64_t txn_id, LockMode mode,
                                             Stripe* stripe) {
  if (mode != LockMode::kExclusive) return Grant::kRefused;
  uint64_t expected = 0;
  if (entry->fast_word.compare_exchange_strong(expected, txn_id,
                                               std::memory_order_seq_cst)) {
    // Dekker handshake: slow-path participants increment slow_users before
    // reading fast_word; we published fast_word before reading slow_users.
    // In the seq_cst total order one side must see the other, so either we
    // observe their pin here and retreat, or they observe our grant under
    // the stripe mutex and wait.
    if (entry->slow_users.load(std::memory_order_seq_cst) == 0) {
      fast_grants_.Inc();
      return Grant::kNew;
    }
    entry->fast_word.store(0, std::memory_order_seq_cst);
    if (stripe->waiters.load(std::memory_order_seq_cst) > 0) {
      MutexGuard m(stripe->mu);
      stripe->cv.NotifyAll();
    }
    return Grant::kRefused;
  }
  // Re-entrant exclusive re-acquire of our own fast grant.
  return expected == txn_id ? Grant::kHeld : Grant::kRefused;
}

LockManager::LockEntry* LockManager::FindLocked(const Stripe& stripe,
                                                uint64_t lock_id) {
  if (stripe.buckets.empty()) return nullptr;
  LockEntry* e = stripe.buckets[BucketOf(lock_id, stripe.buckets.size())];
  while (e != nullptr && e->id != lock_id) e = e->next;
  return e;
}

LockManager::LockEntry* LockManager::InsertLocked(Stripe* stripe,
                                                  uint64_t lock_id) {
  if (stripe->live >= stripe->sweep_watermark) SweepLocked(stripe);
  if (stripe->live >= stripe->buckets.size()) {
    // Rehash at load factor 1. The table only grows to the high-water mark
    // of live entries, so this stops allocating once the pool is warm.
    std::vector<LockEntry*> grown(
        std::max<size_t>(64, stripe->buckets.size() * 2), nullptr);
    for (LockEntry* head : stripe->buckets) {
      while (head != nullptr) {
        LockEntry* next = head->next;
        LockEntry*& slot = grown[BucketOf(head->id, grown.size())];
        head->next = slot;
        slot = head;
        head = next;
      }
    }
    stripe->buckets.swap(grown);
  }
  LockEntry* e = stripe->free_list;
  if (e != nullptr) {
    stripe->free_list = e->next;
  } else {
    e = &stripe->pool.emplace_back();
  }
  e->id = lock_id;
  LockEntry*& head = stripe->buckets[BucketOf(lock_id, stripe->buckets.size())];
  e->next = head;
  head = e;
  ++stripe->live;
  return e;
}

LockManager::Grant LockManager::PrepareEntry(Stripe& stripe, uint64_t lock_id,
                                             uint64_t txn_id, LockMode mode,
                                             LockEntry** out) {
  {
    RwSpinLockReadGuard g(stripe.table_lock);
    if (LockEntry* e = FindLocked(stripe, lock_id)) {
      *out = e;
      const Grant grant = TryFastGrant(e, txn_id, mode, &stripe);
      if (grant != Grant::kRefused) return grant;
      // Pin before table_lock drops: a pinned entry cannot be swept, so
      // the bare pointer stays valid across the slow path.
      e->slow_users.fetch_add(1, std::memory_order_seq_cst);
      return Grant::kRefused;
    }
  }
  RwSpinLockWriteGuard g(stripe.table_lock);
  LockEntry* e = FindLocked(stripe, lock_id);
  if (e == nullptr) e = InsertLocked(&stripe, lock_id);
  *out = e;
  const Grant grant = TryFastGrant(e, txn_id, mode, &stripe);
  if (grant != Grant::kRefused) return grant;
  e->slow_users.fetch_add(1, std::memory_order_seq_cst);
  return Grant::kRefused;
}

void LockManager::SweepLocked(Stripe* stripe) {
  for (LockEntry*& head : stripe->buckets) {
    for (LockEntry** link = &head; *link != nullptr;) {
      LockEntry* e = *link;
      // Exclusive table_lock excludes everyone who could be about to pin
      // the entry (both paths resolve the pointer under table_lock), so an
      // entry with a free fast word and zero slow users — no holder
      // records, no transient participants — is provably idle.
      if (e->fast_word.load(std::memory_order_seq_cst) != 0 ||
          e->slow_users.load(std::memory_order_seq_cst) != 0) {
        link = &e->next;
        continue;
      }
      *link = e->next;
      // An idle entry has no holders and no pending upgrade already; the
      // reset keeps a recycled entry from inheriting either if that ever
      // stops being true. clear() keeps the vector's capacity.
      e->holders.clear();
      e->upgrading_txn = 0;
      e->next = stripe->free_list;
      stripe->free_list = e;
      --stripe->live;
    }
  }
  stripe->sweep_watermark = std::max<size_t>(64, stripe->live * 2);
}

LockManager::Grant LockManager::TryGrantSlowLocked(LockEntry* entry,
                                                   uint64_t txn_id,
                                                   LockMode mode,
                                                   bool register_upgrade) {
  const uint64_t fw = entry->fast_word.load(std::memory_order_seq_cst);
  if (fw == txn_id) return Grant::kHeld;  // we hold exclusive via fast word
  if (fw != 0) return Grant::kRefused;    // another transaction does
  bool already_shared = false;
  bool others = false;
  bool blocked = false;
  for (auto& h : entry->holders) {
    if (h.txn_id == txn_id) {
      if (h.mode == LockMode::kExclusive || mode == LockMode::kShared) {
        return Grant::kHeld;  // re-entrant, sufficient mode already held
      }
      already_shared = true;
      continue;
    }
    others = true;
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      blocked = true;
    }
  }
  if (already_shared) {
    // Upgrade request. With other holders present it must wait; recording
    // the intent (blocking acquires only) closes the starvation window
    // where a steady stream of new shared grants keeps the read set
    // populated forever. Two simultaneous upgraders deadlock by
    // construction and are resolved by the acquire timeout.
    if (others) {
      if (register_upgrade && entry->upgrading_txn == 0) {
        entry->upgrading_txn = txn_id;
      }
      return Grant::kRefused;
    }
    for (auto& h : entry->holders) {
      if (h.txn_id == txn_id) h.mode = LockMode::kExclusive;
    }
    if (entry->upgrading_txn == txn_id) entry->upgrading_txn = 0;
    return Grant::kHeld;
  }
  if (blocked) return Grant::kRefused;
  if (mode == LockMode::kShared && entry->upgrading_txn != 0) {
    return Grant::kRefused;  // queue new readers behind the pending upgrade
  }
  entry->holders.push_back(Holder{txn_id, mode});
  return Grant::kNew;
}

Status LockManager::Acquire(uint64_t txn_id, uint64_t lock_id, LockMode mode,
                            int64_t timeout_ms, bool* newly_held) {
  acquisitions_.Inc();
  Stripe& stripe = StripeFor(lock_id);
  LockEntry* entry = nullptr;
  Grant grant = PrepareEntry(stripe, lock_id, txn_id, mode, &entry);
  if (grant != Grant::kRefused) {
    if (newly_held != nullptr) *newly_held = grant == Grant::kNew;
    return Status::OK();
  }
  // Slow path; we hold a transient slow_users pin on `entry`.
  MutexGuard lock(stripe.mu);
  // Count ourselves a waiter *before* the first fast_word read: a fast-path
  // release stores fast_word = 0 and then reads `waiters`, so (seq_cst on
  // both sides) either it sees us and notifies under `mu` — which it cannot
  // take until we are waiting — or our read below sees its release.
  // Counting only after a failed grant let a release slip between the two
  // and strand this waiter until its timeout.
  stripe.waiters.fetch_add(1, std::memory_order_seq_cst);
  grant = TryGrantSlowLocked(entry, txn_id, mode, /*register_upgrade=*/true);
  if (grant == Grant::kRefused) {
    waits_.Inc();
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::milliseconds(timeout_ms);
    bool timed_out = false;
    while (grant == Grant::kRefused && !timed_out) {
      timed_out =
          stripe.cv.WaitUntil(lock, deadline) == std::cv_status::timeout;
      // After a timeout, one final attempt (the lock may have just been
      // released).
      grant = TryGrantSlowLocked(entry, txn_id, mode, true);
    }
    wait_us_.Record(std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
  stripe.waiters.fetch_sub(1, std::memory_order_seq_cst);
  if (grant == Grant::kRefused && entry->upgrading_txn == txn_id) {
    entry->upgrading_txn = 0;  // withdraw the upgrade claim on abort
  }
  // Drop the transient pin unless it became the new holder record's.
  if (grant != Grant::kNew) {
    entry->slow_users.fetch_sub(1, std::memory_order_seq_cst);
  }
  if (grant == Grant::kRefused) {
    timeouts_.Inc();
    return Status::Aborted("lock timeout");
  }
  if (newly_held != nullptr) *newly_held = grant == Grant::kNew;
  return Status::OK();
}

Status LockManager::TryAcquire(uint64_t txn_id, uint64_t lock_id,
                               LockMode mode, bool* newly_held) {
  Stripe& stripe = StripeFor(lock_id);
  LockEntry* entry = nullptr;
  Grant grant = PrepareEntry(stripe, lock_id, txn_id, mode, &entry);
  if (grant == Grant::kRefused) {
    MutexGuard lock(stripe.mu);
    grant = TryGrantSlowLocked(entry, txn_id, mode,
                               /*register_upgrade=*/false);
    if (grant != Grant::kNew) {
      entry->slow_users.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  if (grant == Grant::kRefused) {
    try_failures_.Inc();
    return Status::Busy("lock held");
  }
  acquisitions_.Inc();
  if (newly_held != nullptr) *newly_held = grant == Grant::kNew;
  return Status::OK();
}

void LockManager::Release(uint64_t txn_id, uint64_t lock_id) {
  Stripe& stripe = StripeFor(lock_id);
  RwSpinLockReadGuard g(stripe.table_lock);
  LockEntry* entry = FindLocked(stripe, lock_id);
  if (entry == nullptr) return;
  if (entry->fast_word.load(std::memory_order_seq_cst) == txn_id) {
    entry->fast_word.store(0, std::memory_order_seq_cst);
    // Only pay for the mutex + broadcast when someone is actually on the
    // slow path of this stripe; `waiters` covers every slow-path
    // participant from before its first fast_word read to after its last,
    // so a zero here proves no one can have missed this release.
    if (stripe.waiters.load(std::memory_order_seq_cst) > 0) {
      MutexGuard m(stripe.mu);
      stripe.cv.NotifyAll();
    }
    return;
  }
  MutexGuard lock(stripe.mu);
  auto& holders = entry->holders;
  for (size_t i = 0; i < holders.size(); ++i) {
    if (holders[i].txn_id == txn_id) {
      holders[i] = holders.back();
      holders.pop_back();
      entry->slow_users.fetch_sub(1, std::memory_order_seq_cst);
      break;
    }
  }
  if (entry->upgrading_txn == txn_id) entry->upgrading_txn = 0;
  stripe.cv.NotifyAll();
}

bool LockManager::Holds(uint64_t txn_id, uint64_t lock_id,
                        LockMode mode) const {
  Stripe& stripe = StripeFor(lock_id);
  RwSpinLockReadGuard g(stripe.table_lock);
  LockEntry* entry = FindLocked(stripe, lock_id);
  if (entry == nullptr) return false;
  if (entry->fast_word.load(std::memory_order_seq_cst) == txn_id) return true;
  MutexGuard lock(stripe.mu);
  for (const auto& h : entry->holders) {
    if (h.txn_id == txn_id) {
      return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
    }
  }
  return false;
}

Status LockManager::RegisterMetrics(obs::MetricsRegistry* registry,
                                    const std::string& subsystem) const {
  const obs::MetricLabels l{subsystem, "", "", ""};
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("locks.acquisitions", l, &acquisitions_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("locks.fast_grants", l, &fast_grants_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("locks.waits", l, &waits_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("locks.timeouts", l, &timeouts_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("locks.try_failures", l, &try_failures_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterHistogram("locks.wait_us", l, &wait_us_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "locks.waiting_txns", l, [this]() {
        int64_t n = 0;
        for (const auto& s : stripes_) {
          n += s->waiters.load(std::memory_order_relaxed);
        }
        return n;
      }));
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "locks.contended_stripes", l, [this]() {
        int64_t n = 0;
        for (const auto& s : stripes_) {
          if (s->waiters.load(std::memory_order_relaxed) > 0) ++n;
        }
        return n;
      }));
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "locks.entries", l, [this]() {
        int64_t n = 0;
        for (const auto& s : stripes_) {
          RwSpinLockReadGuard g(s->table_lock);
          n += static_cast<int64_t>(s->pool.size());
        }
        return n;
      }));
  return Status::OK();
}

}  // namespace btrim
