#include "wal/group_commit.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/clock.h"
#include "obs/metrics_registry.h"
#include "obs/trace_ring.h"

namespace btrim {

namespace {

// Stats-only racy max (same tolerance contract as ShardedCounter).
void UpdateMax(AtomicGauge* gauge, int64_t value) {
  if (value > gauge->Load()) gauge->Set(value);
}

DurabilityOptions Sanitize(DurabilityOptions options) {
  options.max_batch_groups = std::max<int64_t>(1, options.max_batch_groups);
  options.max_group_latency_us =
      std::max<int64_t>(0, options.max_group_latency_us);
  return options;
}

}  // namespace

GroupCommitter::GroupCommitter(Log* log, DurabilityOptions options)
    : log_(log),
      options_(Sanitize(options)),
      linger_target_(options_.max_batch_groups),
      last_batch_groups_(options_.max_batch_groups) {}

Status GroupCommitter::CommitGroup(Slice group, int64_t record_count) {
  WallTimer timer;
  Status s;
  switch (options_.policy) {
    case DurabilityPolicy::kNoSync:
      // Storage appends are atomic per call; no rendezvous needed at all.
      s = log_->AppendGroup(group, record_count);
      break;
    case DurabilityPolicy::kSyncPerCommit:
      s = log_->AppendGroup(group, record_count);
      if (s.ok()) s = log_->Commit();
      if (s.ok()) {
        batches_.Inc();
        batch_bytes_.Add(static_cast<int64_t>(group.size()));
        UpdateMax(&max_batch_groups_, 1);
      }
      break;
    case DurabilityPolicy::kGroupCommit:
      s = CommitGroupBatched(group, record_count);
      break;
  }
  if (s.ok()) {
    groups_.Inc();
    latency_.Record(timer.ElapsedMicros());
  }
  return s;
}

Status GroupCommitter::CommitGroupBatched(Slice group, int64_t record_count) {
  uint64_t my_end = 0;
  {
    MutexGuard guard(mu_);
    if (!sticky_error_.ok()) return sticky_error_;

    pending_.append(group.data(), group.size());
    pending_records_ += record_count;
    ++pending_groups_;
    staged_end_ += group.size();
    my_end = staged_end_;
    if (pending_groups_ >= linger_target_) {
      cv_.NotifyAll();  // a lingering leader can stop waiting for joiners
    }
  }

  while (durable_end_.load(std::memory_order_acquire) < my_end) {
    if (!leader_active_.load(std::memory_order_relaxed)) {
      // No batch in flight: try to lead one (re-checks the leader race and
      // the sticky error under mu_).
      BTRIM_RETURN_IF_ERROR(LeadBatch(my_end));
      continue;
    }
    // A batch is on its way to the device; wait for it without the mutex
    // first. In the common case (sync completes within the spin budget)
    // this follower returns without ever touching mu_ again.
    if (SpinWhileBatchInFlight(my_end)) return Status::OK();
    {
      MutexGuard guard(mu_);
      // Spin budget ran out with the round still in flight: the device is
      // slow, block properly.
      while (durable_end_.load(std::memory_order_relaxed) < my_end &&
             leader_active_.load(std::memory_order_relaxed) &&
             sticky_error_.ok()) {
        cv_.Wait(guard);
      }
      if (!sticky_error_.ok()) return sticky_error_;
    }
  }
  return Status::OK();
}

bool GroupCommitter::SpinWhileBatchInFlight(uint64_t my_end) const {
  // ~one cheap device-sync's worth of polling; the yield cadence matches
  // SpinLock so oversubscribed hosts degrade to scheduling, not livelock.
  constexpr int kSpinLimit = 1 << 15;
  for (int spins = 0; spins < kSpinLimit; ++spins) {
    if (durable_end_.load(std::memory_order_acquire) >= my_end) return true;
    if (!leader_active_.load(std::memory_order_acquire)) return false;
    if ((spins & 255) == 255) std::this_thread::yield();
  }
  return durable_end_.load(std::memory_order_acquire) >= my_end;
}

Status GroupCommitter::LeadBatch(uint64_t my_end) {
  std::string batch;
  int64_t records = 0;
  int64_t groups = 0;
  uint64_t batch_end = 0;
  {
    MutexGuard guard(mu_);
    if (!sticky_error_.ok()) return sticky_error_;
    if (durable_end_.load(std::memory_order_relaxed) >= my_end) {
      return Status::OK();  // a racing leader already covered us
    }
    if (leader_active_.load(std::memory_order_relaxed)) {
      return Status::OK();  // lost the leader race; rejoin as a follower
    }
    leader_active_.store(true, std::memory_order_relaxed);

    // Adaptive linger: wait for as many joiners as the previous batch had,
    // bounded by max_group_latency_us. At steady state the previous batch
    // size tracks the committer population, so the wait ends on the last
    // arrival's notify (arrival skew, not the full window); when concurrency
    // drops the next batch pays one timed-out window and the target adapts
    // down. A lone committer in steady state has a target of 1 — its own
    // staged group satisfies the condition immediately and it never lingers.
    linger_target_ = std::min(options_.max_batch_groups,
                              std::max<int64_t>(1, last_batch_groups_));
    if (options_.max_group_latency_us > 0 &&
        pending_groups_ < linger_target_) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.max_group_latency_us);
      while (pending_groups_ < linger_target_) {
        if (cv_.WaitUntil(guard, deadline) == std::cv_status::timeout) break;
      }
    }

    batch.swap(pending_);
    records = pending_records_;
    groups = pending_groups_;
    pending_records_ = 0;
    pending_groups_ = 0;
    last_batch_groups_ = groups;
    batch_end = staged_end_;
  }

  // Append + sync with the mutex released: later committers stage the next
  // batch while this one is on its way to the device (the pipeline).
  const int64_t trace_start = obs::TraceRing::NowUs();
  Status s = log_->AppendSerialized(Slice(batch), records, groups);
  if (s.ok()) s = log_->Commit();
  obs::TraceRing::Global()->RecordAt(
      "commit_batch", "wal", trace_start,
      obs::TraceRing::NowUs() - trace_start, groups,
      static_cast<int64_t>(batch.size()));

  {
    MutexGuard guard(mu_);
    if (s.ok()) {
      // Publish durability before ending the round: a spinner that sees
      // leader_active_ drop re-checks durable_end_ and must observe
      // coverage.
      durable_end_.store(batch_end, std::memory_order_release);
      batches_.Inc();
      batch_bytes_.Add(static_cast<int64_t>(batch.size()));
      UpdateMax(&max_batch_groups_, groups);
    } else {
      sticky_error_ = s;
    }
    leader_active_.store(false, std::memory_order_release);
  }
  cv_.NotifyAll();
  return s;
}

Status GroupCommitter::RegisterMetrics(obs::MetricsRegistry* registry,
                                       const std::string& subsystem) const {
  const obs::MetricLabels l{subsystem, "", "", ""};
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("commit.groups", l, &groups_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("commit.batches", l, &batches_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("commit.batch_bytes", l, &batch_bytes_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterGauge("commit.max_batch_groups", l, &max_batch_groups_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterHistogram("commit.latency_us", l, &latency_));
  return Status::OK();
}

}  // namespace btrim
