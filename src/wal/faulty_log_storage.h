#ifndef BTRIM_WAL_FAULTY_LOG_STORAGE_H_
#define BTRIM_WAL_FAULTY_LOG_STORAGE_H_

#include <memory>
#include <string>

#include "common/fault_plan.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "wal/log.h"

namespace btrim {

/// Fault-injecting LogStorage decorator.
///
/// Appends land in a pending tail and only reach the inner storage at
/// Sync(), so a simulated crash discards exactly the bytes appended since
/// the last successful sync — with one refinement: at crash time a seeded
/// *prefix* of the pending tail is flushed down (without a sync), modeling
/// the sectors of an in-flight write that happened to hit the platter.
/// That torn tail is what recovery's checksum framing exists for, and the
/// torture harness exercises it at every crash point.
///
/// A torn *append* fault keeps a seeded prefix of the new bytes in the tail
/// and reports IOError; the Log layer reacts by poisoning itself, so the
/// garbage can never be followed by valid records.
/// RollOver pushes the tail down like Sync (a crash there tears it, and on
/// a seeded half of such crashes the rename is durable too, so the torn
/// bytes end the newest archive); it and DropBefore each consult the plan
/// once. A failed drop drops nothing.
class FaultyLogStorage : public LogStorage {
 public:
  FaultyLogStorage(std::unique_ptr<LogStorage> inner,
                   std::shared_ptr<FaultPlan> plan, std::string target);

  Status Append(Slice data) override;
  Status Sync() override;
  Status ReadAll(std::string* out) override;
  Result<uint64_t> RollOver() override;
  Status DropBefore(uint64_t mark) override;
  int64_t Size() const override;
  Status TrimTail(uint64_t keep, uint64_t frame_end) override;

  /// Bytes appended since the last successful sync (test introspection).
  int64_t PendingBytes() const;

 private:
  /// Flushes a seeded prefix of the pending tail to the inner storage
  /// (crash-time torn tail).
  void FlushTornTailLocked() BTRIM_REQUIRES(mu_);

  /// Consults the plan for `op` (kSync or kRollOver) and moves the pending
  /// tail to the inner storage: Sync's and RollOver's shared first step.
  Status PushTailLocked(FaultOp op) BTRIM_REQUIRES(mu_);

  std::unique_ptr<LogStorage> const inner_;
  const std::shared_ptr<FaultPlan> plan_;
  const std::string target_;

  mutable Mutex mu_{LockRank::kLogInternal, "wal.faulty_storage"};
  // Appended but not yet synced.
  std::string tail_ BTRIM_GUARDED_BY(mu_);
  // Crash already materialized a torn tail.
  bool torn_flushed_ BTRIM_GUARDED_BY(mu_) = false;
};

}  // namespace btrim

#endif  // BTRIM_WAL_FAULTY_LOG_STORAGE_H_
