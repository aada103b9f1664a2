#include "txn/transaction.h"

#include <chrono>

#include "obs/metrics_registry.h"

namespace btrim {

Status Transaction::AcquireLock(uint64_t lock_id, LockMode mode,
                                int64_t timeout_ms) {
  bool newly_held = false;
  BTRIM_RETURN_IF_ERROR(mgr_->lock_manager()->Acquire(id_, lock_id, mode,
                                                      timeout_ms, &newly_held));
  if (newly_held) held_locks_.push_back(lock_id);
  return Status::OK();
}

Status Transaction::TryAcquireLock(uint64_t lock_id, LockMode mode) {
  bool newly_held = false;
  BTRIM_RETURN_IF_ERROR(
      mgr_->lock_manager()->TryAcquire(id_, lock_id, mode, &newly_held));
  if (newly_held) held_locks_.push_back(lock_id);
  return Status::OK();
}

void Transaction::AddIntent(WriteIntent intent, Slice key, Slice image) {
  intent.key_off = static_cast<uint32_t>(intent_bytes_.size());
  intent.key_len = static_cast<uint32_t>(key.size());
  intent_bytes_.append(key.data(), key.size());
  intent.image_off = static_cast<uint32_t>(intent_bytes_.size());
  intent.image_len = static_cast<uint32_t>(image.size());
  intent_bytes_.append(image.data(), image.size());
  write_set_.push_back(intent);
}

TransactionManager::TransactionManager(LockManager* lock_manager)
    : lock_manager_(lock_manager) {
  for (auto& slot : pinned_snapshots_) {
    slot.store(UINT64_MAX, std::memory_order_relaxed);
  }
}

int TransactionManager::PinSnapshot(uint64_t ts) {
  for (size_t i = 0; i < kSnapshotPinSlots; ++i) {
    uint64_t expected = UINT64_MAX;
    if (pinned_snapshots_[i].compare_exchange_strong(
            expected, ts, std::memory_order_acq_rel)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void TransactionManager::UnpinSnapshot(int slot) {
  if (slot < 0) return;
  pinned_snapshots_[static_cast<size_t>(slot)].store(
      UINT64_MAX, std::memory_order_release);
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  begun_.Inc();
  const uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  ActiveShard& shard = ShardFor(id);
  uint64_t begin_ts;
  while (true) {
    WaitWhilePaused();
    {
      MutexGuard guard(shard.mu);
      // Snapshot read under the shard mutex: a horizon scan that misses this
      // entry acquired the mutex first, so its clock read is <= begin_ts.
      begin_ts = clock_.Now();
      shard.txns[id] = begin_ts;
    }
    if (!paused_.load(std::memory_order_seq_cst)) break;
    // A pause raced in between the gate check and the registration; back out
    // so the pauser's drain completes, then queue up at the gate.
    {
      MutexGuard guard(shard.mu);
      shard.txns.erase(id);
    }
    gate_cv_.NotifyAll();
  }
  return std::unique_ptr<Transaction>(new Transaction(this, id, begin_ts));
}

void TransactionManager::WaitWhilePaused() {
  if (!paused_.load(std::memory_order_acquire)) return;
  MutexGuard guard(gate_mu_);
  while (paused_.load(std::memory_order_acquire)) {
    gate_cv_.Wait(guard);
  }
}

int64_t TransactionManager::ActiveCount() const {
  int64_t n = 0;
  for (const ActiveShard& shard : active_shards_) {
    MutexGuard guard(shard.mu);
    n += static_cast<int64_t>(shard.txns.size());
  }
  return n;
}

void TransactionManager::Finish(Transaction* txn, TxnState outcome) {
  txn->write_set_.clear();
  txn->state_ = outcome;
  for (uint64_t lock_id : txn->held_locks_) {
    lock_manager_->Release(txn->id_, lock_id);
  }
  txn->held_locks_.clear();
  (outcome == TxnState::kCommitted ? committed_ : aborted_).Inc();

  ActiveShard& shard = ShardFor(txn->id_);
  {
    MutexGuard guard(shard.mu);
    shard.txns.erase(txn->id_);
  }
  // Nudge a draining pauser; it re-counts on a short period regardless, so a
  // lost wakeup only delays it, never deadlocks it.
  if (paused_.load(std::memory_order_acquire)) gate_cv_.NotifyAll();
}

bool TransactionManager::PauseNewTransactions(int64_t wait_ms) {
  {
    MutexGuard guard(gate_mu_);
    bool expected = false;
    if (!paused_.compare_exchange_strong(expected, true)) {
      return false;  // another quiescence holder is active
    }
  }
  // Drain by polling the shard counts: the count is taken outside gate_mu_,
  // so notifications can race with it — the periodic re-check bounds the cost
  // of any missed wakeup to one poll interval.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wait_ms);
  while (ActiveCount() > 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ResumeNewTransactions();
      return false;
    }
    MutexGuard guard(gate_mu_);
    gate_cv_.WaitFor(guard, std::chrono::milliseconds(1));
  }
  return true;
}

void TransactionManager::ResumeNewTransactions() {
  {
    MutexGuard guard(gate_mu_);
    paused_.store(false, std::memory_order_release);
  }
  gate_cv_.NotifyAll();
}

Status TransactionManager::Commit(
    Transaction* txn,
    const std::function<Status(Transaction*, uint64_t)>& durability_hook) {
  if (txn->state_ != TxnState::kActive) {
    return Status::InvalidArgument("commit of finished transaction");
  }
  const uint64_t cts = clock_.Tick();
  txn->commit_ts_ = cts;

  if (durability_hook) {
    Status s = durability_hook(txn, cts);
    if (!s.ok()) {
      Status abort_status = Abort(txn);
      (void)abort_status;
      return s;
    }
  }

  Finish(txn, TxnState::kCommitted);
  return Status::OK();
}

Status TransactionManager::Abort(Transaction* txn) {
  if (txn->state_ != TxnState::kActive) {
    return Status::InvalidArgument("abort of finished transaction");
  }
  Finish(txn, TxnState::kAborted);
  return Status::OK();
}

uint64_t TransactionManager::OldestActiveSnapshot() const {
  // Read the clock *before* scanning: any registration a shard scan misses
  // took its snapshot after this read, so the result stays a lower bound.
  uint64_t oldest = clock_.Now();
  for (const ActiveShard& shard : active_shards_) {
    MutexGuard guard(shard.mu);
    for (const auto& [id, begin_ts] : shard.txns) {
      if (begin_ts < oldest) oldest = begin_ts;
    }
  }
  // Snapshot pins clamp the horizon exactly like an active transaction at
  // that timestamp. Pinners read the clock before publishing, so any pin a
  // load here misses took its snapshot after our initial clock read.
  for (const auto& slot : pinned_snapshots_) {
    const uint64_t pinned = slot.load(std::memory_order_acquire);
    if (pinned < oldest) oldest = pinned;
  }
  return oldest;
}

Status TransactionManager::RegisterMetrics(obs::MetricsRegistry* registry,
                                           const std::string& subsystem) const {
  const obs::MetricLabels l{subsystem, "", "", ""};
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("txn.begun", l, &begun_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("txn.committed", l, &committed_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("txn.aborted", l, &aborted_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "txn.active", l, [this] { return ActiveCount(); }));
  return Status::OK();
}

}  // namespace btrim
