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

bool LockManager::TryFastGrant(LockEntry* entry, uint64_t txn_id,
                               LockMode mode, Stripe* stripe) {
  if (mode != LockMode::kExclusive) return false;
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
      return true;
    }
    entry->fast_word.store(0, std::memory_order_seq_cst);
    if (stripe->waiters.load(std::memory_order_seq_cst) > 0) {
      MutexGuard m(stripe->mu);
      stripe->cv.NotifyAll();
    }
    return false;
  }
  // Re-entrant exclusive re-acquire of our own fast grant.
  return expected == txn_id;
}

LockManager::FastResult LockManager::PrepareEntry(Stripe& stripe,
                                                  uint64_t lock_id,
                                                  uint64_t txn_id,
                                                  LockMode mode,
                                                  LockEntry** out) {
  {
    RwSpinLockReadGuard g(stripe.table_lock);
    auto it = stripe.locks.find(lock_id);
    if (it != stripe.locks.end()) {
      LockEntry* e = it->second.get();
      *out = e;
      if (TryFastGrant(e, txn_id, mode, &stripe)) return FastResult::kGranted;
      // Pin before table_lock drops: a pinned entry cannot be swept, so
      // the bare pointer stays valid across the slow path.
      e->slow_users.fetch_add(1, std::memory_order_seq_cst);
      return FastResult::kSlowPinned;
    }
  }
  RwSpinLockWriteGuard g(stripe.table_lock);
  auto it = stripe.locks.find(lock_id);
  if (it == stripe.locks.end()) {
    if (stripe.locks.size() >= stripe.sweep_watermark) SweepLocked(&stripe);
    it = stripe.locks.emplace(lock_id, std::make_unique<LockEntry>()).first;
  }
  LockEntry* e = it->second.get();
  *out = e;
  if (TryFastGrant(e, txn_id, mode, &stripe)) return FastResult::kGranted;
  e->slow_users.fetch_add(1, std::memory_order_seq_cst);
  return FastResult::kSlowPinned;
}

void LockManager::SweepLocked(Stripe* stripe) {
  for (auto it = stripe->locks.begin(); it != stripe->locks.end();) {
    LockEntry* e = it->second.get();
    // Exclusive table_lock excludes everyone who could be about to pin the
    // entry (both paths resolve the pointer under table_lock), so an entry
    // with a free fast word and zero slow users — no holder records, no
    // transient participants — is provably idle.
    if (e->fast_word.load(std::memory_order_seq_cst) == 0 &&
        e->slow_users.load(std::memory_order_seq_cst) == 0) {
      it = stripe->locks.erase(it);
    } else {
      ++it;
    }
  }
  stripe->sweep_watermark = std::max<size_t>(64, stripe->locks.size() * 2);
}

bool LockManager::TryGrantSlowLocked(LockEntry* entry, uint64_t txn_id,
                                     LockMode mode, bool register_upgrade,
                                     bool* added) {
  *added = false;
  const uint64_t fw = entry->fast_word.load(std::memory_order_seq_cst);
  if (fw == txn_id) return true;  // we hold exclusive via the fast word
  if (fw != 0) return false;      // another transaction does
  bool already_shared = false;
  bool others = false;
  bool blocked = false;
  for (auto& h : entry->holders) {
    if (h.txn_id == txn_id) {
      if (h.mode == LockMode::kExclusive || mode == LockMode::kShared) {
        return true;  // re-entrant, sufficient mode already held
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
      return false;
    }
    for (auto& h : entry->holders) {
      if (h.txn_id == txn_id) h.mode = LockMode::kExclusive;
    }
    if (entry->upgrading_txn == txn_id) entry->upgrading_txn = 0;
    return true;
  }
  if (blocked) return false;
  if (mode == LockMode::kShared && entry->upgrading_txn != 0) {
    return false;  // queue new readers behind the pending upgrade
  }
  entry->holders.push_back(Holder{txn_id, mode});
  *added = true;
  return true;
}

Status LockManager::Acquire(uint64_t txn_id, uint64_t lock_id, LockMode mode,
                            int64_t timeout_ms) {
  acquisitions_.Inc();
  Stripe& stripe = StripeFor(lock_id);
  LockEntry* entry = nullptr;
  if (PrepareEntry(stripe, lock_id, txn_id, mode, &entry) ==
      FastResult::kGranted) {
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
  bool added = false;
  if (TryGrantSlowLocked(entry, txn_id, mode, /*register_upgrade=*/true,
                         &added)) {
    stripe.waiters.fetch_sub(1, std::memory_order_seq_cst);
    if (!added) entry->slow_users.fetch_sub(1, std::memory_order_seq_cst);
    return Status::OK();
  }
  waits_.Inc();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(timeout_ms);
  Status result;
  while (true) {
    if (stripe.cv.WaitUntil(lock, deadline) == std::cv_status::timeout) {
      // Final attempt after timeout (the lock may have just been released).
      if (TryGrantSlowLocked(entry, txn_id, mode, true, &added)) {
        result = Status::OK();
      } else {
        timeouts_.Inc();
        result = Status::Aborted("lock timeout");
      }
      break;
    }
    if (TryGrantSlowLocked(entry, txn_id, mode, true, &added)) {
      result = Status::OK();
      break;
    }
  }
  stripe.waiters.fetch_sub(1, std::memory_order_seq_cst);
  if (!result.ok() && entry->upgrading_txn == txn_id) {
    entry->upgrading_txn = 0;  // withdraw the upgrade claim on abort
  }
  if (!added) entry->slow_users.fetch_sub(1, std::memory_order_seq_cst);
  wait_us_.Record(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count());
  return result;
}

Status LockManager::TryAcquire(uint64_t txn_id, uint64_t lock_id,
                               LockMode mode) {
  Stripe& stripe = StripeFor(lock_id);
  LockEntry* entry = nullptr;
  if (PrepareEntry(stripe, lock_id, txn_id, mode, &entry) ==
      FastResult::kGranted) {
    acquisitions_.Inc();
    return Status::OK();
  }
  MutexGuard lock(stripe.mu);
  bool added = false;
  const bool granted =
      TryGrantSlowLocked(entry, txn_id, mode, /*register_upgrade=*/false,
                         &added);
  if (!added) entry->slow_users.fetch_sub(1, std::memory_order_seq_cst);
  if (granted) {
    acquisitions_.Inc();
    return Status::OK();
  }
  try_failures_.Inc();
  return Status::Busy("lock held");
}

void LockManager::Release(uint64_t txn_id, uint64_t lock_id) {
  Stripe& stripe = StripeFor(lock_id);
  RwSpinLockReadGuard g(stripe.table_lock);
  auto it = stripe.locks.find(lock_id);
  if (it == stripe.locks.end()) return;
  LockEntry* entry = it->second.get();
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
  auto it = stripe.locks.find(lock_id);
  if (it == stripe.locks.end()) return false;
  LockEntry* entry = it->second.get();
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
  return Status::OK();
}

}  // namespace btrim
