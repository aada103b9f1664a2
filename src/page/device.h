#ifndef BTRIM_PAGE_DEVICE_H_
#define BTRIM_PAGE_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "page/page.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
struct MetricLabels;
}  // namespace obs

/// Abstract page-granular storage device for data files and page-store
/// structures. Reading a never-written page yields a zeroed image, which the
/// buffer cache interprets as "fresh page".
class Device {
 public:
  virtual ~Device() = default;

  /// Reads page `page_no` into `buf` (kPageSize bytes).
  virtual Status ReadPage(uint32_t page_no, char* buf) = 0;

  /// Writes `buf` (kPageSize bytes) as page `page_no`, growing the device
  /// if needed.
  virtual Status WritePage(uint32_t page_no, const char* buf) = 0;

  /// Pages currently addressable (highest written page + 1).
  virtual uint32_t NumPages() const = 0;

  /// Makes all previous writes durable.
  virtual Status Sync() = 0;

  /// Registers the traffic counters (`device.page_reads`,
  /// `device.page_writes`, `device.syncs`) with the given labels.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const obs::MetricLabels& labels) const;

 protected:
  // Operations that succeeded, bumped by each implementation.
  ShardedCounter reads_, writes_, syncs_;
};

/// Heap-memory device. Optionally injects a fixed per-I/O latency to
/// simulate a disk (used by experiments that need a visible gap between
/// buffer-cache hits and misses).
class MemDevice : public Device {
 public:
  /// `latency_micros` is applied to every read and write when non-zero.
  explicit MemDevice(uint32_t latency_micros = 0);

  Status ReadPage(uint32_t page_no, char* buf) override;
  Status WritePage(uint32_t page_no, const char* buf) override;
  uint32_t NumPages() const override;
  Status Sync() override;

 private:
  void SimulateLatency();

  const uint32_t latency_micros_;
  mutable Mutex mu_{LockRank::kDeviceInternal, "page.mem_device"};
  std::vector<std::unique_ptr<char[]>> pages_ BTRIM_GUARDED_BY(mu_);
};

/// File-backed device using pread/pwrite.
class FileDevice : public Device {
 public:
  /// Factory; creates or opens `path`.
  static Result<std::unique_ptr<FileDevice>> Open(const std::string& path);
  ~FileDevice() override;

  Status ReadPage(uint32_t page_no, char* buf) override;
  Status WritePage(uint32_t page_no, const char* buf) override;
  uint32_t NumPages() const override;
  Status Sync() override;

 private:
  FileDevice(int fd, std::string path, uint32_t num_pages);

  const int fd_;
  const std::string path_;
  std::atomic<uint32_t> num_pages_;
};

}  // namespace btrim

#endif  // BTRIM_PAGE_DEVICE_H_
