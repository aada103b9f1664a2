#ifndef BTRIM_PAGE_BUFFER_CACHE_H_
#define BTRIM_PAGE_BUFFER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "page/device.h"
#include "page/page.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class BufferCache;

/// Latch mode requested when fixing a page.
enum class LatchMode : uint8_t { kShared, kExclusive };

/// RAII handle to a pinned, latched buffer-cache page.
///
/// Destruction releases the latch and unpins the frame. `contended()`
/// reports whether acquiring the latch had to wait, which is the signal the
/// ILM layer records as page-store contention (paper Sec. III).
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return cache_ != nullptr; }

  /// Page image; writable only when fixed kExclusive.
  char* data() const { return data_; }

  /// Marks the frame dirty so eviction / checkpoint writes it back.
  void MarkDirty();

  /// True if the latch acquisition had to wait for another thread.
  bool contended() const { return contended_; }

  PageId page_id() const { return pid_; }

  /// Releases latch + pin early (idempotent).
  void Release();

 private:
  friend class BufferCache;
  PageGuard(BufferCache* cache, size_t frame, char* data, PageId pid,
            LatchMode mode, bool contended)
      : cache_(cache),
        frame_(frame),
        data_(data),
        pid_(pid),
        mode_(mode),
        contended_(contended) {}

  BufferCache* cache_ = nullptr;
  size_t frame_ = 0;
  char* data_ = nullptr;
  PageId pid_{};
  LatchMode mode_ = LatchMode::kShared;
  bool contended_ = false;
};

/// Fixed-capacity page cache shared by heap files and B+Tree index files.
///
/// Pages are identified by (file_id, page_no); each file_id is backed by a
/// Device registered with AttachDevice. Reading a page the device has never
/// seen yields a zeroed image, which callers detect via their page-format
/// magic and initialize.
///
/// The page map is sharded: frames are partitioned round-robin across
/// shards at construction, a page id hashes to its home shard, and every
/// map operation (hit lookup, LRU touch, eviction, pin bookkeeping) takes
/// only that shard's mutex. Replacement is strict LRU *within* a shard —
/// with frames spread round-robin and page ids hashed, per-shard LRU is a
/// faithful sample of global LRU — and dirty victims are written back with
/// the shard unlocked. A shard whose frames are all pinned reports Busy
/// even if other shards have room; sizing keeps >= 16 frames per shard so
/// this matches the single-map behavior in practice.
///
/// Per-frame reader-writer latches protect page images. Failed first
/// attempts at latch acquisition are counted as contention events, both
/// globally and on the returned guard, feeding the ILM "contention on the
/// page-store" heuristics.
class BufferCache {
 public:
  explicit BufferCache(size_t num_frames);
  ~BufferCache();

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  /// Registers the backing device for a file id. Not thread-safe with
  /// concurrent Fix calls for the same file id; call during setup.
  void AttachDevice(uint16_t file_id, Device* device);

  Device* device(uint16_t file_id) const;

  /// Pins + latches a page. Fails with Busy if every frame is pinned, or
  /// IOError from the backing device.
  Result<PageGuard> FixPage(PageId pid, LatchMode mode);

  /// Writes all dirty frames back to their devices (checkpoint helper).
  Status FlushAll();

  /// Drops every frame (after FlushAll) — used by tests to simulate a cold
  /// cache. All pages must be unpinned.
  Status DropAll();

  /// Registers the cache counters into the unified metrics registry under
  /// `buffer_cache.*`.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const;

  size_t num_frames() const { return num_frames_; }

  size_t num_shards() const { return shards_.size(); }

 private:
  friend class PageGuard;

  // All fields except `dirty` and `latch` are guarded by the owning shard's
  // mu (home_shard is immutable after construction); a nested struct cannot
  // spell BTRIM_GUARDED_BY on an outer-class member, so the contract is
  // documented here and enforced at the access sites.
  struct FrameMeta {
    PageId pid{};            // guarded by shard mu
    bool valid = false;      // guarded by shard mu
    std::atomic<bool> dirty{false};
    uint32_t pin_count = 0;  // guarded by shard mu
    RwSpinLock latch{LockRank::kPageFrame, "page.frame"};
    std::list<size_t>::iterator lru_pos;  // guarded by shard mu
    bool in_lru = false;                  // guarded by shard mu
    uint16_t home_shard = 0;              // immutable after construction
  };

  // Shard mutexes share rank kBufferMap; no code path holds two shards at
  // once (every map operation resolves its single home shard first).
  struct Shard {
    mutable Mutex mu{LockRank::kBufferMap, "page.buffer_map"};
    // PageId.Encode() -> frame
    std::unordered_map<uint64_t, size_t> table BTRIM_GUARDED_BY(mu);
    // front = MRU, back = LRU
    std::list<size_t> lru BTRIM_GUARDED_BY(mu);
    std::vector<size_t> free_frames BTRIM_GUARDED_BY(mu);
  };

  Shard& ShardFor(PageId pid) const;

  void Unfix(size_t frame, LatchMode mode);
  void MarkFrameDirty(size_t frame);

  const size_t num_frames_;
  std::unique_ptr<char[]> arena_;  // num_frames_ * kPageSize
  std::vector<FrameMeta> meta_;
  std::vector<std::unique_ptr<Shard>> shards_;  // size is a power of two

  std::vector<Device*> devices_;  // indexed by file_id

  mutable ShardedCounter fixes_, hits_, misses_, evictions_, dirty_writes_,
      contention_, fix_failures_, write_failures_;
};

}  // namespace btrim

#endif  // BTRIM_PAGE_BUFFER_CACHE_H_
