#include "wal/faulty_log_storage.h"

#include <algorithm>

#include "obs/trace_ring.h"

namespace btrim {

namespace {
/// Instant trace event for an injected log fault (arg1 = FaultOutcome).
void TraceFault(FaultOp op, FaultOutcome outcome) {
  if (outcome == FaultOutcome::kNone) return;
  const char* name = op == FaultOp::kAppend     ? "fault_log_append"
                     : op == FaultOp::kRollOver ? "fault_log_rollover"
                     : op == FaultOp::kDrop     ? "fault_log_drop"
                                                : "fault_log_sync";
  obs::TraceRing::Global()->Record(name, "fault", 0,
                                   static_cast<int64_t>(outcome));
}
}  // namespace

FaultyLogStorage::FaultyLogStorage(std::unique_ptr<LogStorage> inner,
                                   std::shared_ptr<FaultPlan> plan,
                                   std::string target)
    : inner_(std::move(inner)),
      plan_(std::move(plan)),
      target_(std::move(target)) {}

void FaultyLogStorage::FlushTornTailLocked() {
  if (torn_flushed_) return;
  torn_flushed_ = true;
  if (tail_.empty()) return;
  const uint64_t keep = plan_->DrawUniform(tail_.size() + 1);
  if (keep > 0) {
    // Best effort: the inner append models sectors already on the platter.
    Status s = inner_->Append(Slice(tail_.data(), keep));
    (void)s;
  }
  tail_.clear();
}

Status FaultyLogStorage::Append(Slice data) {
  MutexGuard guard(mu_);
  if (plan_->crashed()) return FaultPlan::CrashedError();
  const FaultOutcome outcome = plan_->OnOp(target_, FaultOp::kAppend);
  TraceFault(FaultOp::kAppend, outcome);
  switch (outcome) {
    case FaultOutcome::kCrash:
      FlushTornTailLocked();
      return FaultPlan::CrashedError();
    case FaultOutcome::kError:
      return FaultPlan::InjectedError(target_, FaultOp::kAppend);
    case FaultOutcome::kTorn: {
      const uint64_t keep = plan_->DrawUniform(data.size() + 1);
      tail_.append(data.data(), keep);
      return FaultPlan::InjectedError(target_, FaultOp::kAppend);
    }
    case FaultOutcome::kNone:
      break;
  }
  tail_.append(data.data(), data.size());
  return Status::OK();
}

Status FaultyLogStorage::PushTailLocked(FaultOp op) {
  if (plan_->crashed()) return FaultPlan::CrashedError();
  const FaultOutcome outcome = plan_->OnOp(target_, op);
  TraceFault(op, outcome);
  switch (outcome) {
    case FaultOutcome::kCrash:
      // Crash mid-fsync: part of the tail may have reached the device.
      FlushTornTailLocked();
      // A rollover renames before it syncs, so the rename may be durable
      // and the torn bytes end the newest archive.
      if (op == FaultOp::kRollOver && plan_->DrawUniform(2) == 1) {
        Result<uint64_t> renamed = inner_->RollOver();
        (void)renamed;
      }
      return FaultPlan::CrashedError();
    case FaultOutcome::kError:
    case FaultOutcome::kTorn:
      // fsyncgate semantics: the failure leaves durability indeterminate;
      // the tail stays pending and the Log layer must poison itself so a
      // later sync cannot retroactively commit it.
      return FaultPlan::InjectedError(target_, op);
    case FaultOutcome::kNone:
      break;
  }
  if (!tail_.empty()) {
    BTRIM_RETURN_IF_ERROR(inner_->Append(Slice(tail_)));
    tail_.clear();
  }
  return Status::OK();
}

Status FaultyLogStorage::Sync() {
  MutexGuard guard(mu_);
  BTRIM_RETURN_IF_ERROR(PushTailLocked(FaultOp::kSync));
  return inner_->Sync();
}

Status FaultyLogStorage::ReadAll(std::string* out) {
  MutexGuard guard(mu_);
  // Readers in-process see the OS-cache view: synced content + tail.
  BTRIM_RETURN_IF_ERROR(inner_->ReadAll(out));
  out->append(tail_);
  return Status::OK();
}

Result<uint64_t> FaultyLogStorage::RollOver() {
  MutexGuard guard(mu_);
  BTRIM_RETURN_IF_ERROR(PushTailLocked(FaultOp::kRollOver));
  return inner_->RollOver();
}

Status FaultyLogStorage::DropBefore(uint64_t mark) {
  MutexGuard guard(mu_);
  if (plan_->crashed()) return FaultPlan::CrashedError();
  const FaultOutcome outcome = plan_->OnOp(target_, FaultOp::kDrop);
  TraceFault(FaultOp::kDrop, outcome);
  if (outcome == FaultOutcome::kCrash) return FaultPlan::CrashedError();
  if (outcome != FaultOutcome::kNone) {
    return FaultPlan::InjectedError(target_, FaultOp::kDrop);
  }
  return inner_->DropBefore(mark);
}

int64_t FaultyLogStorage::Size() const {
  MutexGuard guard(mu_);
  return inner_->Size() + static_cast<int64_t>(tail_.size());
}

Status FaultyLogStorage::TrimTail(uint64_t keep, uint64_t frame_end) {
  MutexGuard guard(mu_);
  if (plan_->crashed()) return FaultPlan::CrashedError();
  // Not a scripted op: recovery's cut of a torn tail leaves the op indexes
  // of a torture run as they were. The pending tail continues the active
  // segment, so a bad frame ending inside it has more bytes after it.
  const uint64_t inner = static_cast<uint64_t>(inner_->Size());
  if (frame_end >= inner && frame_end < inner + tail_.size()) {
    return Status::Corruption("bad log frame followed by more log");
  }
  if (keep >= inner) {
    tail_.resize(std::min<uint64_t>(tail_.size(), keep - inner));
    return Status::OK();
  }
  tail_.clear();
  return inner_->TrimTail(keep, frame_end);
}

int64_t FaultyLogStorage::PendingBytes() const {
  MutexGuard guard(mu_);
  return static_cast<int64_t>(tail_.size());
}

}  // namespace btrim
