#ifndef BTRIM_PAGE_BUFFER_CACHE_H_
#define BTRIM_PAGE_BUFFER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/dense_directory.h"
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
/// Hits take no lock besides the frame latch. The page table is a
/// DenseDirectory of frame numbers indexed by (file_id, page_no) — page
/// numbers are dense per file — so a hit loads the frame, pins it with one
/// atomic increment, re-checks that the frame still holds the page (the
/// frame may have been recycled between the two loads), sets the frame's
/// CLOCK reference bit and takes the latch. Unfix drops the latch and the
/// pin.
///
/// Misses serialize on one install mutex. A CLOCK sweep skips pinned
/// frames, gives referenced frames a second chance, and claims a clean
/// unpinned victim by CASing its pin word from 0 to kEvicting, which makes
/// every concurrent pin attempt back off until the claim is converted into
/// the installer's own pin. The new page is published in the table only
/// after its frame is latched exclusive, so concurrent fixers of that page
/// wait on the latch until the device read (done with the mutex released)
/// has filled it. Dirty victims are pinned and written back with the mutex
/// released, then the sweep retries. Busy means two sweeps found every
/// frame pinned.
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

 private:
  friend class PageGuard;

  // Pin-word flag: set while the install path owns the frame (claimed for
  // eviction or being dropped). Pin attempts that observe it back off.
  static constexpr uint32_t kEvicting = 1u << 31;
  // Frame::pid value of a frame that holds no page.
  static constexpr uint64_t kNoPage = ~uint64_t{0};

  // `pid` changes only while the install path owns the frame (pin word ==
  // kEvicting), so a pinner that sees its page id there holds that page.
  struct alignas(kCacheLineSize) Frame {
    std::atomic<uint32_t> pin{0};  // pin count, | kEvicting while claimed
    std::atomic<bool> ref{false};  // CLOCK reference bit
    std::atomic<bool> dirty{false};
    std::atomic<uint64_t> pid{kNoPage};  // PageId::Encode() or kNoPage
    RwSpinLock latch{LockRank::kPageFrame, "page.frame"};
  };

  // 4096-entry segments, 4096 of them: 16M pages (128 GiB) per file.
  using PageTable = DenseDirectory<uint32_t, 12, 4096>;  // frame + 1, 0 = none

  // Pins `frame` if no install owns it and it still holds `pid`.
  bool TryPin(size_t frame, PageId pid);
  // Pins `frame` if no install owns it (FlushAll; any page).
  bool PinFrame(size_t frame);
  void Unpin(size_t frame);
  // Latches a pinned frame in `mode`, counting contention.
  PageGuard LatchPinned(size_t frame, PageId pid, LatchMode mode);

  enum class Sweep { kClaimed, kWriteBack, kAllPinned };
  // CLOCK sweep: claims a free or clean victim (pin word -> kEvicting) or
  // pins a dirty one for write-back; `*frame` is set in both cases.
  Sweep SweepLocked(size_t* frame) BTRIM_REQUIRES(install_mu_);

  void Unfix(size_t frame, LatchMode mode);
  void MarkFrameDirty(size_t frame);

  const size_t num_frames_;
  std::unique_ptr<char[]> arena_;  // num_frames_ * kPageSize
  std::unique_ptr<Frame[]> frames_;
  PageTable table_;

  // Serializes the miss path: the sweep, claims, and table updates.
  Mutex install_mu_{LockRank::kBufferMap, "page.buffer_install"};
  size_t clock_hand_ BTRIM_GUARDED_BY(install_mu_) = 0;

  std::vector<Device*> devices_;  // indexed by file_id

  mutable ShardedCounter fixes_, hits_, misses_, evictions_, dirty_writes_,
      contention_, fix_failures_, write_failures_;
};

}  // namespace btrim

#endif  // BTRIM_PAGE_BUFFER_CACHE_H_
