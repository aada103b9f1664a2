#ifndef BTRIM_PAGE_FAULTY_DEVICE_H_
#define BTRIM_PAGE_FAULTY_DEVICE_H_

#include <map>
#include <memory>
#include <string>

#include "common/fault_plan.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "page/device.h"

namespace btrim {

/// Fault-injecting Device decorator.
///
/// Models the OS page cache as the durability gap: WritePage lands in a
/// pending buffer and only reaches the inner device at Sync(), so a
/// simulated crash (FaultPlan) discards exactly the writes issued since the
/// last successful sync. Page images are written atomically at sync time —
/// the torn-write fault applies a seeded partial image (prefix / suffix /
/// hole at 512-byte sector granularity) to the *pending* copy and reports
/// IOError, which the buffer cache answers by keeping the frame dirty; the
/// engine never depends on partially-durable pages (it has no page
/// checksums, so recovery assumes page writes are atomic — see DESIGN.md).
///
/// Its device.* counters count only operations that succeeded end-to-end,
/// so the accounting a benchmark reads is unaffected by injected failures.
class FaultyDevice : public Device {
 public:
  FaultyDevice(std::unique_ptr<Device> inner, std::shared_ptr<FaultPlan> plan,
               std::string target);

  Status ReadPage(uint32_t page_no, char* buf) override;
  Status WritePage(uint32_t page_no, const char* buf) override;
  uint32_t NumPages() const override;
  Status Sync() override;

  /// Pages buffered since the last successful sync (test introspection).
  size_t PendingPages() const;

 private:
  std::unique_ptr<Device> const inner_;
  const std::shared_ptr<FaultPlan> plan_;
  const std::string target_;

  mutable Mutex mu_{LockRank::kDeviceInternal, "page.faulty_device"};
  // page_no -> un-synced image
  std::map<uint32_t, std::string> pending_ BTRIM_GUARDED_BY(mu_);
  // max page_no+1 among pending writes
  uint32_t pending_num_pages_ BTRIM_GUARDED_BY(mu_) = 0;
};

}  // namespace btrim

#endif  // BTRIM_PAGE_FAULTY_DEVICE_H_
