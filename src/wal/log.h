#ifndef BTRIM_WAL_LOG_H_
#define BTRIM_WAL_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "wal/log_record.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Byte-oriented append-only storage backing a transaction log: a sequence
/// of segments of which only the newest takes appends. A checkpoint bounds
/// the log with RollOver and DropBefore (DESIGN.md Sec. 14.3).
class LogStorage {
 public:
  virtual ~LogStorage() = default;
  virtual Status Append(Slice data) = 0;
  virtual Status Sync() = 0;
  /// Every retained byte, oldest segment first.
  virtual Status ReadAll(std::string* out) = 0;
  /// Makes every byte appended so far durable and starts a new segment; an
  /// append lands wholly in one segment. Returns the mark for DropBefore.
  virtual Result<uint64_t> RollOver() = 0;
  /// Discards the whole segments before `mark`, oldest first, so an
  /// interrupted drop leaves a contiguous suffix.
  virtual Status DropBefore(uint64_t mark) = 0;
  /// Retained bytes.
  virtual int64_t Size() const = 0;
};

/// Heap-backed log storage (fast experiments, unit tests, and every log of
/// an in-memory database).
///
/// The bytes live in a list of fixed-size chunks, so an append copies only
/// its own bytes (splitting them across a chunk boundary when needed) and
/// never reallocates what is already stored: a log of any size appends in
/// time proportional to the append, and peak memory is the log plus at most
/// one partly filled chunk. ReadAll concatenates the chunks.
///
/// A mark is a logical offset (bytes ever appended): DropBefore frees the
/// chunks wholly below it, and reading starts exactly at it.
class MemLogStorage : public LogStorage {
 public:
  static constexpr size_t kChunkBytes = size_t{1} << 20;

  Status Append(Slice data) override;
  Status Sync() override;
  Status ReadAll(std::string* out) override;
  Result<uint64_t> RollOver() override;
  Status DropBefore(uint64_t mark) override;
  int64_t Size() const override;

 private:
  mutable Mutex mu_{LockRank::kLogInternal, "wal.mem_storage"};
  // chunks_[0] starts at start_ rounded down to a chunk boundary.
  std::deque<std::unique_ptr<char[]>> chunks_ BTRIM_GUARDED_BY(mu_);
  uint64_t start_ BTRIM_GUARDED_BY(mu_) = 0;  // first retained byte
  uint64_t end_ BTRIM_GUARDED_BY(mu_) = 0;
};

/// File-backed log storage (durability across process restarts).
///
/// The active segment keeps the name it was opened with (`syslogs.wal`).
/// RollOver renames it to a numbered archive beside it (`syslogs.1.wal`:
/// stem, number, extension) and opens a fresh one; Open finds the archives
/// again. A mark is the next archive number: DropBefore unlinks the
/// archives below it.
class FileLogStorage : public LogStorage {
 public:
  static Result<std::unique_ptr<FileLogStorage>> Open(const std::string& path);
  ~FileLogStorage() override;

  Status Append(Slice data) override;
  Status Sync() override;
  Status ReadAll(std::string* out) override;
  Result<uint64_t> RollOver() override;
  Status DropBefore(uint64_t mark) override;
  int64_t Size() const override;

 private:
  explicit FileLogStorage(std::string path) : path_(std::move(path)) {}
  std::string ArchivePath(uint64_t number) const;
  Status OpenActive() BTRIM_REQUIRES(append_latch_);

  const std::string path_;
  // Lock order: mu_ -> append_latch_. fd_ changes only under mu_ and the
  // exclusive latch (at a rollover, which syncs after releasing the
  // latch); appends share the latch, and Sync syncs under mu_.
  mutable Mutex mu_{LockRank::kLogInternal, "wal.file_storage"};
  mutable RwSpinLock append_latch_{LockRank::kLogInternal, "wal.file_append"};
  int fd_ = -1;
  std::atomic<int64_t> active_bytes_{0};
  // (number, bytes) of each archive, oldest first.
  std::deque<std::pair<uint64_t, int64_t>> archives_ BTRIM_GUARDED_BY(mu_);
  uint64_t next_archive_ BTRIM_GUARDED_BY(mu_) = 1;
};

/// A transaction log (one instance each for syslogs and sysimrslogs).
///
/// Appends are atomic per call: callers serialize a *group* of records
/// (e.g. one transaction's IMRS changes + commit record) into a buffer and
/// append it in one shot, so groups are contiguous on disk.
class Log {
 public:
  explicit Log(std::unique_ptr<LogStorage> storage);

  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  /// Appends one record, serializing it into `scratch` (cleared first).
  /// Passing the same buffer across calls amortizes its allocation to one.
  Status AppendRecord(const LogRecord& rec, std::string* scratch);

  /// Convenience overload backed by a thread-local scratch buffer, so
  /// single-record appends do not allocate per call either.
  Status AppendRecord(const LogRecord& rec);

  /// Appends a pre-serialized record group atomically.
  Status AppendGroup(Slice group, int64_t record_count);

  /// Appends pre-serialized bytes, counting `record_count` records and
  /// `group_count` transaction groups (shared tail of AppendRecord /
  /// AppendGroup; also the batch path of GroupCommitter, whose one physical
  /// write carries many transaction groups).
  Status AppendSerialized(Slice data, int64_t record_count,
                          int64_t group_count = 0);

  /// Forces previous appends to durable storage. Elided (counted in
  /// syncs_elided) when every completed append is already covered by an
  /// earlier sync.
  Status Commit();

  /// Storage sync that is never elided. Checkpoint uses this as the WAL
  /// barrier: log records must be durable before the data pages they
  /// describe.
  Status SyncStorage();

  /// True once an append or sync failure has poisoned this log (see below).
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Reads every complete record from the start of the log. Stops early if
  /// `fn` returns false. A torn tail terminates iteration cleanly.
  Status Replay(const std::function<bool(const LogRecord&)>& fn);

  /// LogStorage::RollOver, counted and poisoning like a sync.
  Result<uint64_t> RollOver();
  /// LogStorage::DropBefore. A failed drop does not poison: it only keeps
  /// bytes a later drop removes.
  Status DropBefore(uint64_t mark);

  int64_t SizeBytes() const { return storage_->Size(); }

  /// Registers this log's counters into the unified metrics registry under
  /// `wal.*` with the given subsystem label ("syslogs" / "sysimrslogs").
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const;

 private:
  /// Records the first I/O failure and fails every later operation with it.
  /// A failed append may have left partial bytes in the storage tail, so
  /// subsequent appends would land after garbage and be unreachable by
  /// replay; a failed sync leaves durability of the tail indeterminate, so
  /// allowing a *later* sync to succeed could retroactively commit groups
  /// whose transactions already aborted (the fsyncgate failure mode).
  /// Poisoning makes both situations terminal for this log instance —
  /// recovery from a reopen sees only the bytes the storage actually took.
  void Poison(const Status& error);

  /// OK, or the sticky poison status.
  Status CheckPoisoned() const;

  /// Runs a storage sync (Sync or RollOver) with the poisoning and dirty
  /// cursor bookkeeping above.
  Status SyncWith(const std::function<Status()>& sync);

  const std::unique_ptr<LogStorage> storage_;

  std::atomic<bool> poisoned_{false};
  mutable SpinLock poison_mu_{LockRank::kLogInternal, "wal.poison"};
  Status poison_status_ BTRIM_GUARDED_BY(poison_mu_);

  // Dirty tracking for sync elision. append_seq_ is bumped after a storage
  // append returns; synced_seq_ records the highest append_seq_ value known
  // to be covered by a completed sync. Commit() may conservatively sync
  // twice under a race, but never skips a needed sync: an in-flight append
  // bumps the sequence only after its write completed, so a sequence match
  // proves the data a sync would flush is already durable.
  std::atomic<uint64_t> append_seq_{0};
  std::atomic<uint64_t> synced_seq_{0};

  mutable ShardedCounter records_, bytes_, groups_, syncs_, syncs_elided_,
      append_failures_, sync_failures_;
};

}  // namespace btrim

#endif  // BTRIM_WAL_LOG_H_
