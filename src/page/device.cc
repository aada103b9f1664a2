#include "page/device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics_registry.h"

namespace btrim {

Status Device::RegisterMetrics(obs::MetricsRegistry* registry,
                               const obs::MetricLabels& labels) const {
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("device.page_reads", labels, &reads_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("device.page_writes", labels, &writes_));
  return registry->RegisterCounter("device.syncs", labels, &syncs_);
}

MemDevice::MemDevice(uint32_t latency_micros)
    : latency_micros_(latency_micros) {}

void MemDevice::SimulateLatency() {
  if (latency_micros_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(latency_micros_));
  }
}

Status MemDevice::ReadPage(uint32_t page_no, char* buf) {
  SimulateLatency();
  reads_.Inc();
  MutexGuard guard(mu_);
  if (page_no >= pages_.size() || pages_[page_no] == nullptr) {
    memset(buf, 0, kPageSize);
    return Status::OK();
  }
  memcpy(buf, pages_[page_no].get(), kPageSize);
  return Status::OK();
}

Status MemDevice::WritePage(uint32_t page_no, const char* buf) {
  SimulateLatency();
  writes_.Inc();
  MutexGuard guard(mu_);
  if (page_no >= pages_.size()) {
    pages_.resize(page_no + 1);
  }
  if (pages_[page_no] == nullptr) {
    pages_[page_no] = std::make_unique<char[]>(kPageSize);
  }
  memcpy(pages_[page_no].get(), buf, kPageSize);
  return Status::OK();
}

uint32_t MemDevice::NumPages() const {
  MutexGuard guard(mu_);
  return static_cast<uint32_t>(pages_.size());
}

Status MemDevice::Sync() {
  syncs_.Inc();
  return Status::OK();
}


Result<std::unique_ptr<FileDevice>> FileDevice::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + strerror(errno));
  }
  const uint32_t num_pages = static_cast<uint32_t>(st.st_size / kPageSize);
  return std::unique_ptr<FileDevice>(new FileDevice(fd, path, num_pages));
}

FileDevice::FileDevice(int fd, std::string path, uint32_t num_pages)
    : fd_(fd), path_(std::move(path)), num_pages_(num_pages) {}

FileDevice::~FileDevice() { ::close(fd_); }

Status FileDevice::ReadPage(uint32_t page_no, char* buf) {
  reads_.Inc();
  if (page_no >= num_pages_.load(std::memory_order_acquire)) {
    memset(buf, 0, kPageSize);
    return Status::OK();
  }
  const ssize_t n = ::pread(fd_, buf, kPageSize,
                            static_cast<off_t>(page_no) * kPageSize);
  if (n < 0) {
    return Status::IOError("pread " + path_ + ": " + strerror(errno));
  }
  if (static_cast<size_t>(n) < kPageSize) {
    memset(buf + n, 0, kPageSize - n);
  }
  return Status::OK();
}

Status FileDevice::WritePage(uint32_t page_no, const char* buf) {
  writes_.Inc();
  const ssize_t n = ::pwrite(fd_, buf, kPageSize,
                             static_cast<off_t>(page_no) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("pwrite " + path_ + ": " + strerror(errno));
  }
  uint32_t cur = num_pages_.load(std::memory_order_relaxed);
  while (page_no >= cur &&
         !num_pages_.compare_exchange_weak(cur, page_no + 1,
                                           std::memory_order_release)) {
  }
  return Status::OK();
}

uint32_t FileDevice::NumPages() const {
  return num_pages_.load(std::memory_order_acquire);
}

Status FileDevice::Sync() {
  syncs_.Inc();
  if (::fdatasync(fd_) != 0) {
    return Status::IOError("fdatasync " + path_ + ": " + strerror(errno));
  }
  return Status::OK();
}


}  // namespace btrim
