#include "page/faulty_device.h"

#include <algorithm>
#include <cstring>

#include "obs/trace_ring.h"

namespace btrim {

namespace {
constexpr size_t kSectorSize = 512;

/// Instant trace event for an injected device fault (arg1 = FaultOutcome).
void TraceFault(FaultOp op, FaultOutcome outcome) {
  if (outcome == FaultOutcome::kNone) return;
  const char* name = op == FaultOp::kRead    ? "fault_read"
                     : op == FaultOp::kWrite ? "fault_write"
                                             : "fault_sync";
  obs::TraceRing::Global()->Record(name, "fault", 0,
                                   static_cast<int64_t>(outcome));
}
}  // namespace

FaultyDevice::FaultyDevice(std::unique_ptr<Device> inner,
                           std::shared_ptr<FaultPlan> plan, std::string target)
    : inner_(std::move(inner)),
      plan_(std::move(plan)),
      target_(std::move(target)) {}

Status FaultyDevice::ReadPage(uint32_t page_no, char* buf) {
  if (plan_->crashed()) return FaultPlan::CrashedError();
  const FaultOutcome outcome = plan_->OnOp(target_, FaultOp::kRead);
  TraceFault(FaultOp::kRead, outcome);
  if (outcome == FaultOutcome::kCrash) return FaultPlan::CrashedError();
  if (outcome != FaultOutcome::kNone) {
    return FaultPlan::InjectedError(target_, FaultOp::kRead);
  }
  {
    // Reads observe the pending (OS-cache) image, like a real page cache.
    MutexGuard guard(mu_);
    auto it = pending_.find(page_no);
    if (it != pending_.end()) {
      memcpy(buf, it->second.data(), kPageSize);
      reads_.Inc();
      return Status::OK();
    }
  }
  BTRIM_RETURN_IF_ERROR(inner_->ReadPage(page_no, buf));
  reads_.Inc();
  return Status::OK();
}

Status FaultyDevice::WritePage(uint32_t page_no, const char* buf) {
  if (plan_->crashed()) return FaultPlan::CrashedError();
  const FaultOutcome outcome = plan_->OnOp(target_, FaultOp::kWrite);
  TraceFault(FaultOp::kWrite, outcome);
  if (outcome == FaultOutcome::kCrash) return FaultPlan::CrashedError();
  if (outcome == FaultOutcome::kError) {
    return FaultPlan::InjectedError(target_, FaultOp::kWrite);
  }

  MutexGuard guard(mu_);
  std::string& image = pending_[page_no];
  if (image.size() != kPageSize) {
    // First pending write for this page: the base image is whatever the
    // inner device holds (zeroes for a never-written page).
    image.resize(kPageSize, '\0');
    Status base = inner_->ReadPage(page_no, image.data());
    if (!base.ok()) memset(image.data(), 0, kPageSize);
  }
  if (outcome == FaultOutcome::kTorn) {
    // A seeded subset of sectors makes it into the pending image; the rest
    // keep their previous content. The write still reports failure, so the
    // caller (buffer cache) keeps the frame dirty and retries later.
    constexpr size_t kSectors = kPageSize / kSectorSize;
    const uint64_t shape = plan_->DrawUniform(3);
    const size_t pivot =
        static_cast<size_t>(plan_->DrawUniform(kSectors - 1)) + 1;
    for (size_t s = 0; s < kSectors; ++s) {
      const bool applied = shape == 0   ? s < pivot          // prefix
                           : shape == 1 ? s >= pivot         // suffix
                                        : s != pivot;        // hole
      if (applied) {
        memcpy(image.data() + s * kSectorSize, buf + s * kSectorSize,
               kSectorSize);
      }
    }
    pending_num_pages_ = std::max(pending_num_pages_, page_no + 1);
    return FaultPlan::InjectedError(target_, FaultOp::kWrite);
  }
  memcpy(image.data(), buf, kPageSize);
  pending_num_pages_ = std::max(pending_num_pages_, page_no + 1);
  writes_.Inc();
  return Status::OK();
}

uint32_t FaultyDevice::NumPages() const {
  MutexGuard guard(mu_);
  return std::max(inner_->NumPages(), pending_num_pages_);
}

Status FaultyDevice::Sync() {
  if (plan_->crashed()) return FaultPlan::CrashedError();
  const FaultOutcome outcome = plan_->OnOp(target_, FaultOp::kSync);
  TraceFault(FaultOp::kSync, outcome);
  if (outcome == FaultOutcome::kCrash) return FaultPlan::CrashedError();
  if (outcome != FaultOutcome::kNone) {
    // Failed sync: pending writes stay pending (their durability is
    // indeterminate on real hardware; here they are simply not yet down).
    return FaultPlan::InjectedError(target_, FaultOp::kSync);
  }

  MutexGuard guard(mu_);
  for (auto it = pending_.begin(); it != pending_.end();) {
    BTRIM_RETURN_IF_ERROR(inner_->WritePage(it->first, it->second.data()));
    it = pending_.erase(it);
  }
  BTRIM_RETURN_IF_ERROR(inner_->Sync());
  syncs_.Inc();
  return Status::OK();
}


size_t FaultyDevice::PendingPages() const {
  MutexGuard guard(mu_);
  return pending_.size();
}

}  // namespace btrim
