#include "wal/log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/metrics_registry.h"

namespace btrim {

// --- MemLogStorage ----------------------------------------------------------

Status MemLogStorage::Append(Slice data) {
  MutexGuard guard(mu_);
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const size_t offset = end_ % kChunkBytes;
    if (offset == 0) {
      // Not zero-filled: every byte below end_ is written before it is read.
      chunks_.push_back(std::unique_ptr<char[]>(new char[kChunkBytes]));
    }
    const size_t n = std::min(left, kChunkBytes - offset);
    memcpy(chunks_.back().get() + offset, p, n);
    p += n;
    left -= n;
    end_ += n;
  }
  return Status::OK();
}

Status MemLogStorage::Sync() { return Status::OK(); }

Status MemLogStorage::ReadAll(std::string* out) {
  MutexGuard guard(mu_);
  out->clear();
  out->reserve(end_ - start_);
  for (uint64_t pos = start_; pos < end_;) {
    const char* chunk = chunks_[pos / kChunkBytes - start_ / kChunkBytes].get();
    const size_t n =
        std::min<uint64_t>(end_ - pos, kChunkBytes - pos % kChunkBytes);
    out->append(chunk + pos % kChunkBytes, n);
    pos += n;
  }
  return Status::OK();
}

Result<uint64_t> MemLogStorage::RollOver() {
  MutexGuard guard(mu_);
  return end_;
}

Status MemLogStorage::DropBefore(uint64_t mark) {
  MutexGuard guard(mu_);
  const uint64_t start = std::min(mark, end_);
  if (start <= start_) return Status::OK();
  chunks_.erase(chunks_.begin(),
                chunks_.begin() + (start / kChunkBytes - start_ / kChunkBytes));
  start_ = start;
  return Status::OK();
}

int64_t MemLogStorage::Size() const {
  MutexGuard guard(mu_);
  return static_cast<int64_t>(end_ - start_);
}

Status MemLogStorage::TrimTail(uint64_t keep, uint64_t frame_end) {
  MutexGuard guard(mu_);
  // One segment: a rollover only marks a position.
  if (start_ + frame_end < end_) {
    return Status::Corruption("bad log frame followed by more log");
  }
  end_ = std::min(end_, start_ + keep);
  // Keep exactly the chunks up to end_: Append writes into the last one.
  chunks_.resize((end_ + kChunkBytes - 1) / kChunkBytes -
                 start_ / kChunkBytes);
  return Status::OK();
}

// --- FileLogStorage ---------------------------------------------------------

namespace {

/// fsyncs the directory holding `path`, making renames, creations and
/// unlinks in it durable.
Status SyncDirOf(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IOError("open " + dir + ": " + strerror(errno));
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) return Status::IOError("fsync " + dir + ": " + strerror(err));
  return Status::OK();
}

/// Cuts the file open as `fd` back to `size` bytes, durably.
Status Truncate(int fd, int64_t size, const std::string& path) {
  if (::ftruncate(fd, size) != 0 || ::fdatasync(fd) != 0) {
    return Status::IOError("truncate " + path + ": " + strerror(errno));
  }
  return Status::OK();
}

Status AppendFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();
  const size_t base = out->size();
  out->resize(base + static_cast<size_t>(std::max<std::streamoff>(size, 0)));
  if (!in.seekg(0) || !in.read(out->data() + base, size)) {
    return Status::IOError("read " + path);
  }
  return Status::OK();
}

}  // namespace

std::string FileLogStorage::ArchivePath(uint64_t number) const {
  std::filesystem::path p(path_);  // syslogs.wal -> syslogs.<number>.wal
  return p.replace_extension(std::to_string(number) + p.extension().string());
}

Result<std::unique_ptr<FileLogStorage>> FileLogStorage::Open(
    const std::string& path) {
  const std::string abs = std::filesystem::absolute(path).string();
  auto s = std::unique_ptr<FileLogStorage>(new FileLogStorage(abs));
  MutexGuard guard(s->mu_);
  RwSpinLockWriteGuard append_guard(s->append_latch_);
  const auto dir = std::filesystem::path(s->path_).parent_path();
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string ext = e.path().stem().extension().string();  // ".<n>"
    const uint64_t number =
        std::strtoull(ext.c_str() + !ext.empty(), nullptr, 10);
    if (e.path() != s->ArchivePath(number)) continue;  // not an archive
    const uintmax_t bytes = e.file_size(ec);
    if (ec) break;
    s->archives_.emplace_back(number, static_cast<int64_t>(bytes));
  }
  if (ec) return Status::IOError("list " + s->path_ + ": " + ec.message());
  std::sort(s->archives_.begin(), s->archives_.end());
  if (!s->archives_.empty()) s->next_archive_ = s->archives_.back().first + 1;
  BTRIM_RETURN_IF_ERROR(s->OpenActive());
  return s;
}

Status FileLogStorage::OpenActive() {
  const int fd = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  struct stat st;
  if (fd < 0 || fstat(fd, &st) != 0) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    return Status::IOError("open " + path_ + ": " + strerror(err));
  }
  fd_ = fd;
  active_bytes_.store(st.st_size);
  return Status::OK();
}

FileLogStorage::~FileLogStorage() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileLogStorage::Append(Slice data) {
  RwSpinLockReadGuard guard(append_latch_);  // excludes only a rollover
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write " + path_ + ": " + strerror(errno));
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  active_bytes_.fetch_add(static_cast<int64_t>(data.size()));
  return Status::OK();
}

Status FileLogStorage::Sync() {
  MutexGuard guard(mu_);
  if (::fdatasync(fd_) != 0) {
    return Status::IOError("fdatasync " + path_ + ": " + strerror(errno));
  }
  return Status::OK();
}

Status FileLogStorage::ReadAll(std::string* out) {
  MutexGuard guard(mu_);
  RwSpinLockWriteGuard append_guard(append_latch_);
  out->clear();
  for (const auto& [number, bytes] : archives_) {
    BTRIM_RETURN_IF_ERROR(AppendFile(ArchivePath(number), out));
  }
  return AppendFile(path_, out);
}

Result<uint64_t> FileLogStorage::RollOver() {
  MutexGuard guard(mu_);  // a Sync must not reach only the new segment
  const std::string archive = ArchivePath(next_archive_);
  const int old_fd = fd_;
  {
    // Appends wait for the rename and the open, never for an fsync.
    RwSpinLockWriteGuard append_guard(append_latch_);
    if (::rename(path_.c_str(), archive.c_str()) != 0) {
      return Status::IOError("rename " + path_ + ": " + strerror(errno));
    }
    archives_.emplace_back(next_archive_++, active_bytes_.load());
    // On failure fd_ stays the renamed segment and the Log poisons itself.
    BTRIM_RETURN_IF_ERROR(OpenActive());
  }
  // Every byte appended before the rollover is in the old segment. Syncing
  // it here means a later Sync, which reaches only the new segment, still
  // covers them.
  const int rc = ::fdatasync(old_fd);
  const int err = errno;
  ::close(old_fd);
  if (rc != 0) {
    return Status::IOError("fdatasync " + archive + ": " + strerror(err));
  }
  BTRIM_RETURN_IF_ERROR(SyncDirOf(path_));  // the rename and the new file
  return next_archive_;
}

Status FileLogStorage::DropBefore(uint64_t mark) {
  // Oldest first, each unlink durable before the next: a crash mid-drop
  // leaves a contiguous suffix. An archive whose unlink fails stays on disk
  // for the next Open to find, and a later drop to remove.
  for (;;) {
    std::string archive;
    {
      MutexGuard guard(mu_);
      if (archives_.empty() || archives_.front().first >= mark) break;
      archive = ArchivePath(archives_.front().first);
      archives_.pop_front();
    }
    if (::unlink(archive.c_str()) != 0 && errno != ENOENT) {
      return Status::IOError("unlink " + archive + ": " + strerror(errno));
    }
    BTRIM_RETURN_IF_ERROR(SyncDirOf(path_));
  }
  return Status::OK();
}

int64_t FileLogStorage::Size() const {
  MutexGuard guard(mu_);
  int64_t size = active_bytes_.load();
  for (const auto& archive : archives_) size += archive.second;
  return size;
}

Status FileLogStorage::TrimTail(uint64_t keep, uint64_t frame_end) {
  MutexGuard guard(mu_);
  RwSpinLockWriteGuard append_guard(append_latch_);
  uint64_t start = 0;  // of the segment holding byte `keep`
  for (size_t i = 0; i < archives_.size(); ++i) {
    const uint64_t bytes = static_cast<uint64_t>(archives_[i].second);
    if (keep >= start + bytes) {
      start += bytes;
      continue;
    }
    // RollOver syncs the renamed segment after the rename, so a crash can
    // leave the newest archive with a torn tail. No Sync returned after
    // that rename (Sync waits for RollOver's mu_), so the active segment
    // holds nothing acked and goes too, first: a crash between the two
    // cuts must not leave its frames behind a whole archive. An older
    // archive, or a bad frame with more bytes after it, is damage.
    const std::string archive = ArchivePath(archives_[i].first);
    if (i + 1 < archives_.size() || frame_end < start + bytes) {
      return Status::Corruption("bad log frame inside archived segment " +
                                archive);
    }
    BTRIM_RETURN_IF_ERROR(Truncate(fd_, 0, path_));
    active_bytes_.store(0);
    const int fd = ::open(archive.c_str(), O_WRONLY);
    if (fd < 0) {
      return Status::IOError("open " + archive + ": " + strerror(errno));
    }
    const int64_t cut = static_cast<int64_t>(keep - start);
    Status s = Truncate(fd, cut, archive);
    ::close(fd);
    BTRIM_RETURN_IF_ERROR(s);
    archives_[i].second = cut;
    return Status::OK();
  }
  const int64_t active = static_cast<int64_t>(keep - start);
  if (active >= active_bytes_.load()) return Status::OK();
  if (frame_end < start + static_cast<uint64_t>(active_bytes_.load())) {
    return Status::Corruption("bad log frame followed by more log in " +
                              path_);
  }
  BTRIM_RETURN_IF_ERROR(Truncate(fd_, active, path_));
  active_bytes_.store(active);
  return Status::OK();
}

// --- Log --------------------------------------------------------------------

Log::Log(std::unique_ptr<LogStorage> storage) : storage_(std::move(storage)) {}

Status Log::AppendRecord(const LogRecord& rec, std::string* scratch) {
  scratch->clear();
  AppendLogRecord(scratch, rec);
  return AppendSerialized(Slice(*scratch), 1);
}

Status Log::AppendRecord(const LogRecord& rec) {
  thread_local std::string scratch;  // reused: no allocation in steady state
  return AppendRecord(rec, &scratch);
}

Status Log::AppendGroup(Slice group, int64_t record_count) {
  return AppendSerialized(group, record_count, /*group_count=*/1);
}

Status Log::AppendSerialized(Slice data, int64_t record_count,
                             int64_t group_count) {
  BTRIM_RETURN_IF_ERROR(CheckPoisoned());
  Status s = storage_->Append(data);
  if (!s.ok()) {
    append_failures_.Inc();
    Poison(s);
    return s;
  }
  // Stats count only completed appends, and only completed writes advance
  // the dirty cursor (see header contract).
  records_.Add(record_count);
  if (group_count > 0) groups_.Add(group_count);
  bytes_.Add(static_cast<int64_t>(data.size()));
  append_seq_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status Log::Commit() {
  BTRIM_RETURN_IF_ERROR(CheckPoisoned());
  if (synced_seq_.load(std::memory_order_acquire) >=
      append_seq_.load(std::memory_order_acquire)) {
    syncs_elided_.Inc();
    return Status::OK();
  }
  return SyncStorage();
}

Status Log::SyncStorage() {
  return SyncWith([this] { return storage_->Sync(); });
}

Result<uint64_t> Log::RollOver() {
  uint64_t mark = 0;
  BTRIM_RETURN_IF_ERROR(SyncWith([&] {
    Result<uint64_t> r = storage_->RollOver();
    if (r.ok()) mark = *r;
    return r.status();
  }));
  return mark;
}

Status Log::SyncWith(const std::function<Status()>& sync) {
  BTRIM_RETURN_IF_ERROR(CheckPoisoned());
  const uint64_t target = append_seq_.load(std::memory_order_acquire);
  Status s = sync();
  if (!s.ok()) {
    sync_failures_.Inc();
    Poison(s);
    return s;
  }
  syncs_.Inc();
  // Monotone max: a concurrent sync may have advanced further already.
  uint64_t seen = synced_seq_.load(std::memory_order_relaxed);
  while (seen < target &&
         !synced_seq_.compare_exchange_weak(seen, target,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
  }
  return Status::OK();
}

void Log::Poison(const Status& error) {
  SpinLockGuard guard(poison_mu_);
  if (poison_status_.ok()) poison_status_ = error;
  poisoned_.store(true, std::memory_order_release);
}

Status Log::CheckPoisoned() const {
  if (!poisoned_.load(std::memory_order_acquire)) return Status::OK();
  SpinLockGuard guard(poison_mu_);
  return poison_status_;
}

Status Log::Replay(const std::function<bool(const LogRecord&)>& fn) {
  std::string content;
  BTRIM_RETURN_IF_ERROR(storage_->ReadAll(&content));
  Slice input(content);
  LogRecord rec;
  while (true) {
    Status s = ParseLogRecord(&input, &rec);
    if (s.IsNotFound()) {  // clean end, or a bad frame
      if (input.empty()) return Status::OK();
      const uint64_t keep = content.size() - input.size();
      return storage_->TrimTail(keep, keep + LogFrameBytes(input));
    }
    BTRIM_RETURN_IF_ERROR(s);
    if (!fn(rec)) return Status::OK();
  }
}

Status Log::DropBefore(uint64_t mark) {
  // A poisoned log stays unusable: dropping from it would discard the
  // evidence of what is (or is not) durable without making the tail
  // trustworthy.
  BTRIM_RETURN_IF_ERROR(CheckPoisoned());
  return storage_->DropBefore(mark);
}

Status Log::RegisterMetrics(obs::MetricsRegistry* registry,
                            const std::string& subsystem) const {
  const obs::MetricLabels l{subsystem, "", "", ""};
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.records_appended", l, &records_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.bytes_appended", l, &bytes_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.groups_appended", l, &groups_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("wal.syncs", l, &syncs_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.syncs_elided", l, &syncs_elided_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.append_failures", l, &append_failures_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("wal.sync_failures", l, &sync_failures_));
  return Status::OK();
}

}  // namespace btrim
