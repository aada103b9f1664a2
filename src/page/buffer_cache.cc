#include "page/buffer_cache.h"

#include <cassert>
#include <cstring>

#include "obs/metrics_registry.h"

namespace btrim {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    frame_ = other.frame_;
    data_ = other.data_;
    pid_ = other.pid_;
    mode_ = other.mode_;
    contended_ = other.contended_;
    other.cache_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

void PageGuard::MarkDirty() {
  assert(cache_ != nullptr && mode_ == LatchMode::kExclusive);
  cache_->MarkFrameDirty(frame_);
}

void PageGuard::Release() {
  if (cache_ != nullptr) {
    cache_->Unfix(frame_, mode_);
    cache_ = nullptr;
    data_ = nullptr;
  }
}

BufferCache::BufferCache(size_t num_frames)
    : num_frames_(num_frames),
      arena_(std::make_unique<char[]>(num_frames * kPageSize)),
      frames_(std::make_unique<Frame[]>(num_frames)),
      devices_(1 << 16, nullptr) {}

BufferCache::~BufferCache() = default;

void BufferCache::AttachDevice(uint16_t file_id, Device* device) {
  devices_[file_id] = device;
}

Device* BufferCache::device(uint16_t file_id) const {
  return devices_[file_id];
}

bool BufferCache::PinFrame(size_t frame) {
  std::atomic<uint32_t>& pin = frames_[frame].pin;
  if ((pin.fetch_add(1, std::memory_order_acquire) & kEvicting) == 0) {
    return true;
  }
  // An install owns the frame; its claim ends by subtracting the sentinel,
  // which leaves our transient increment for this decrement to undo.
  pin.fetch_sub(1, std::memory_order_relaxed);
  return false;
}

bool BufferCache::TryPin(size_t frame, PageId pid) {
  if (!PinFrame(frame)) return false;
  // `pid` only changes under a claim, which our pin now excludes; the
  // acquire on the pin word orders this load after the installer's store.
  if (frames_[frame].pid.load(std::memory_order_relaxed) == pid.Encode()) {
    return true;
  }
  Unpin(frame);  // recycled for another page since the table lookup
  return false;
}

void BufferCache::Unpin(size_t frame) {
  frames_[frame].pin.fetch_sub(1, std::memory_order_release);
}

// Justified suppression: the frame latch is acquired here and handed to the
// returned PageGuard (released later in Unfix), an ownership hand-off
// thread-safety analysis cannot express.
PageGuard BufferCache::LatchPinned(size_t frame, PageId pid, LatchMode mode)
    BTRIM_NO_THREAD_SAFETY_ANALYSIS {
  Frame& fr = frames_[frame];
  // Read before writing so a hot page's line is not dirtied on every hit.
  if (!fr.ref.load(std::memory_order_relaxed)) {
    fr.ref.store(true, std::memory_order_relaxed);
  }
  bool contended = false;
  if (mode == LatchMode::kExclusive) {
    if (!fr.latch.try_lock()) {
      contended = true;
      contention_.Inc();
      fr.latch.lock();
    }
  } else {
    if (!fr.latch.try_lock_shared()) {
      contended = true;
      contention_.Inc();
      fr.latch.lock_shared();
    }
  }
  return PageGuard(this, frame, arena_.get() + frame * kPageSize, pid, mode,
                   contended);
}

BufferCache::Sweep BufferCache::SweepLocked(size_t* frame) {
  // Two laps: the first spends reference bits, the second ignores them, so
  // only pins (never a hot working set) can make the sweep come up empty.
  for (size_t step = 0; step < 2 * num_frames_; ++step) {
    const size_t f = clock_hand_;
    clock_hand_ = f + 1 == num_frames_ ? 0 : f + 1;
    Frame& fr = frames_[f];
    if (fr.pin.load(std::memory_order_relaxed) != 0) continue;
    const bool resident = fr.pid.load(std::memory_order_relaxed) != kNoPage;
    if (resident && step < num_frames_ &&
        fr.ref.load(std::memory_order_relaxed)) {
      fr.ref.store(false, std::memory_order_relaxed);
      continue;
    }
    uint32_t expected = 0;
    if (!fr.pin.compare_exchange_strong(expected, kEvicting,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      continue;  // pinned since the load above
    }
    *frame = f;
    // The claim read the last unpin (a release), so a MarkDirty made under
    // any earlier pin is visible here: test dirtiness only after claiming.
    if (resident && fr.dirty.load(std::memory_order_relaxed)) {
      fr.pin.fetch_sub(kEvicting - 1, std::memory_order_release);
      return Sweep::kWriteBack;  // claim -> our write-back pin
    }
    return Sweep::kClaimed;
  }
  return Sweep::kAllPinned;
}

// Justified suppression: FixPage acquires the frame latch and transfers its
// ownership to the returned PageGuard (released later in Unfix), an
// ownership hand-off thread-safety analysis cannot express. The
// install-mutex critical section inside still uses MutexGuard, so its
// exclusion is enforced dynamically by the lock-order validator instead.
Result<PageGuard> BufferCache::FixPage(PageId pid, LatchMode mode)
    BTRIM_NO_THREAD_SAFETY_ANALYSIS {
  fixes_.Inc();
  bool counted_miss = false;
  for (;;) {
    // Hit path: two loads and a pin, no lock but the frame latch.
    if (const std::atomic<uint32_t>* slot =
            table_.Find(pid.file_id, pid.page_no)) {
      const uint32_t mapped = slot->load(std::memory_order_acquire);
      if (mapped != 0 && TryPin(mapped - 1, pid)) {
        if (!counted_miss) hits_.Inc();
        return LatchPinned(mapped - 1, pid, mode);
      }
    }

    size_t frame = 0;
    bool hit = false;
    Sweep sweep = Sweep::kAllPinned;
    {
      MutexGuard guard(install_mu_);
      std::atomic<uint32_t>& slot = table_.At(pid.file_id, pid.page_no);
      const uint32_t mapped = slot.load(std::memory_order_relaxed);
      if (mapped != 0) {
        // Installed since our lookup, or our pin lost to a claim that has
        // since finished. No claim is open while we hold the mutex, and the
        // table entry matches its frame, so this pin cannot fail.
        frame = mapped - 1;
        hit = TryPin(frame, pid);
        assert(hit);
      } else {
        if (!counted_miss) {
          misses_.Inc();
          counted_miss = true;
        }
        sweep = SweepLocked(&frame);
        if (sweep == Sweep::kClaimed) {
          Frame& fr = frames_[frame];
          const uint64_t old = fr.pid.load(std::memory_order_relaxed);
          if (old != kNoPage) {
            const PageId old_pid = PageId::Decode(old);
            table_.Find(old_pid.file_id, old_pid.page_no)
                ->store(0, std::memory_order_relaxed);
            evictions_.Inc();
          }
          // Latch exclusive *before* publishing, so concurrent fixers of
          // this page block until the device read below has filled the
          // frame. The latch is free: the claim saw pin 0, and guards
          // release the latch before unpinning.
          const bool latched = fr.latch.try_lock();
          assert(latched);
          (void)latched;
          fr.pid.store(pid.Encode(), std::memory_order_relaxed);
          fr.dirty.store(false, std::memory_order_relaxed);
          fr.ref.store(true, std::memory_order_relaxed);
          fr.pin.fetch_sub(kEvicting - 1, std::memory_order_release);
          slot.store(static_cast<uint32_t>(frame + 1),
                     std::memory_order_release);
        }
      }
    }

    if (hit) {
      if (!counted_miss) hits_.Inc();
      return LatchPinned(frame, pid, mode);
    }
    if (sweep == Sweep::kAllPinned) {
      fix_failures_.Inc();
      return Status::Busy("buffer cache: all frames pinned");
    }

    Frame& fr = frames_[frame];
    char* data = arena_.get() + frame * kPageSize;
    if (sweep == Sweep::kWriteBack) {
      // Dirty-victim write-back, mutex released. Latch shared so a
      // concurrent writer cannot give us a torn image; clear the dirty flag
      // inside the latched region (same protocol as FlushAll) so a
      // redirtying since our write is never swallowed.
      const PageId victim =
          PageId::Decode(fr.pid.load(std::memory_order_relaxed));
      Device* dev = devices_[victim.file_id];
      assert(dev != nullptr);
      fr.latch.lock_shared();
      Status ws = dev->WritePage(victim.page_no, data);
      if (ws.ok()) fr.dirty.store(false, std::memory_order_relaxed);
      fr.latch.unlock_shared();
      Unpin(frame);
      if (!ws.ok()) {
        // Keep the victim resident and dirty: its image is still the only
        // copy of the data, and a later flush retries the write. Surfacing
        // the device error (instead of pretending the cache is full) is
        // what lets callers distinguish EIO from pin pressure.
        write_failures_.Inc();
        fix_failures_.Inc();
        return ws;
      }
      dirty_writes_.Inc();
      continue;  // the victim is clean now (unless re-dirtied): sweep again
    }

    // Claimed and published: fill the frame with the mutex released.
    Device* dev = devices_[pid.file_id];
    Status s = dev == nullptr
                   ? Status::InvalidArgument("no device attached for file " +
                                             std::to_string(pid.file_id))
                   : dev->ReadPage(pid.page_no, data);
    if (!s.ok()) {
      // Leave the frame resident with a zeroed image so that concurrent
      // waiters observe a consistent (uninitialized) page rather than a
      // dangling frame; only this caller sees the error.
      memset(data, 0, kPageSize);
      fr.latch.unlock();
      Unpin(frame);
      return s;
    }
    if (mode == LatchMode::kExclusive) {
      return PageGuard(this, frame, data, pid, mode, false);
    }
    fr.latch.unlock();
    return LatchPinned(frame, pid, mode);
  }
}

// Justified suppression: releases the frame latch acquired by FixPage on
// behalf of a PageGuard — the other half of the ownership transfer the
// analysis cannot see.
void BufferCache::Unfix(size_t frame, LatchMode mode)
    BTRIM_NO_THREAD_SAFETY_ANALYSIS {
  Frame& fr = frames_[frame];
  if (mode == LatchMode::kExclusive) {
    fr.latch.unlock();
  } else {
    fr.latch.unlock_shared();
  }
  Unpin(frame);
}

void BufferCache::MarkFrameDirty(size_t frame) {
  frames_[frame].dirty.store(true, std::memory_order_relaxed);
}

Status BufferCache::FlushAll() {
  // Pin each dirty frame under the install mutex (where no claim is open,
  // so the pin cannot fail and a dirty victim mid-sweep is never skipped),
  // then write it back with the mutex released — the same protocol as
  // FixPage's dirty-victim write-back. Blocking on a frame latch while
  // holding the mutex would invert the frame-latch -> buffer-map order that
  // latch-coupling fixers rely on.
  for (size_t i = 0; i < num_frames_; ++i) {
    Frame& fr = frames_[i];
    if (!fr.dirty.load(std::memory_order_relaxed)) continue;
    PageId pid;
    {
      MutexGuard guard(install_mu_);
      const uint64_t encoded = fr.pid.load(std::memory_order_relaxed);
      if (encoded == kNoPage || !fr.dirty.load(std::memory_order_relaxed)) {
        continue;
      }
      const bool pinned = PinFrame(i);
      assert(pinned);
      (void)pinned;
      pid = PageId::Decode(encoded);
    }
    Device* dev = devices_[pid.file_id];
    assert(dev != nullptr);
    // Latch shared so a concurrent writer cannot give us a torn image. The
    // dirty flag must be cleared inside the latched region: writers set it
    // under the exclusive latch, so clearing it after unlatching could
    // swallow a redirtying that happened since our write.
    fr.latch.lock_shared();
    Status s = dev->WritePage(pid.page_no, arena_.get() + i * kPageSize);
    if (s.ok()) fr.dirty.store(false, std::memory_order_relaxed);
    fr.latch.unlock_shared();
    Unpin(i);
    if (!s.ok()) {
      write_failures_.Inc();
      return s;
    }
    dirty_writes_.Inc();
  }
  return Status::OK();
}

Status BufferCache::DropAll() {
  BTRIM_RETURN_IF_ERROR(FlushAll());
  MutexGuard guard(install_mu_);
  for (size_t i = 0; i < num_frames_; ++i) {
    Frame& fr = frames_[i];
    const uint64_t encoded = fr.pid.load(std::memory_order_relaxed);
    if (encoded == kNoPage) continue;
    uint32_t expected = 0;
    if (!fr.pin.compare_exchange_strong(expected, kEvicting,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      return Status::Busy("DropAll with pinned pages");
    }
    const PageId pid = PageId::Decode(encoded);
    table_.Find(pid.file_id, pid.page_no)->store(0, std::memory_order_relaxed);
    fr.pid.store(kNoPage, std::memory_order_relaxed);
    fr.dirty.store(false, std::memory_order_relaxed);
    fr.ref.store(false, std::memory_order_relaxed);
    fr.pin.fetch_sub(kEvicting, std::memory_order_release);
  }
  return Status::OK();
}

Status BufferCache::RegisterMetrics(obs::MetricsRegistry* registry,
                                    const std::string& subsystem) const {
  const obs::MetricLabels l{subsystem, "", "", ""};
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("buffer_cache.fixes", l, &fixes_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("buffer_cache.hits", l, &hits_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("buffer_cache.misses", l, &misses_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("buffer_cache.evictions", l, &evictions_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("buffer_cache.dirty_writes", l,
                                &dirty_writes_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter(
      "buffer_cache.latch_contention", l, &contention_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("buffer_cache.fix_failures",
                                                  l, &fix_failures_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter(
      "buffer_cache.write_failures", l, &write_failures_));
  return Status::OK();
}

}  // namespace btrim
