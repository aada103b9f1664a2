#include "page/buffer_cache.h"

#include <cassert>
#include <cstring>

#include "obs/metrics_registry.h"

namespace btrim {

namespace {

// SplitMix64 finalizer — PageId encodings are highly regular (file id in
// the top bits, sequential page numbers below), so shard selection needs a
// real mixer to avoid aliasing whole files onto one shard.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Largest power of two <= min(16, num_frames/16): enough shards to spread
// foreground fixers, never so many that a shard's LRU becomes too small a
// sample (>= 16 frames each).
size_t PickShardCount(size_t num_frames) {
  size_t limit = num_frames / 16;
  if (limit > 16) limit = 16;
  size_t n = 1;
  while (n * 2 <= limit) n *= 2;
  return n;
}

}  // namespace

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
      meta_(num_frames),
      devices_(1 << 16, nullptr) {
  const size_t n = PickShardCount(num_frames);
  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Round-robin frame ownership: every shard gets an equal slice, and
  // low-numbered frames are handed out first within each shard.
  for (size_t i = 0; i < num_frames; ++i) {
    const size_t frame = num_frames - 1 - i;
    Shard& s = *shards_[frame % n];
    meta_[frame].home_shard = static_cast<uint16_t>(frame % n);
    s.free_frames.push_back(frame);
  }
}

BufferCache::Shard& BufferCache::ShardFor(PageId pid) const {
  return *shards_[Mix64(pid.Encode()) & (shards_.size() - 1)];
}

BufferCache::~BufferCache() = default;

void BufferCache::AttachDevice(uint16_t file_id, Device* device) {
  devices_[file_id] = device;
}

Device* BufferCache::device(uint16_t file_id) const {
  return devices_[file_id];
}

// Justified suppression: FixPage acquires the frame latch and transfers its
// ownership to the returned PageGuard (released later in Unfix), an
// ownership hand-off thread-safety analysis cannot express. The shard-mutex
// critical sections inside still use MutexGuard, so their exclusion is
// enforced dynamically by the lock-order validator instead.
Result<PageGuard> BufferCache::FixPage(PageId pid, LatchMode mode)
    BTRIM_NO_THREAD_SAFETY_ANALYSIS {
  fixes_.Inc();
  Shard& sh = ShardFor(pid);
  size_t frame;
  bool needs_read = false;
  bool counted_miss = false;

  // Eviction write-back happens *outside* the shard mutex: a dirty victim
  // is pinned under the lock, written back under its shared frame latch
  // with the shard unlocked (so concurrent fixes of other pages — including
  // other workers' evictions — proceed during the device write), and the
  // eviction is then retried. The retry re-checks everything: the victim
  // may have been re-fixed or re-dirtied meanwhile, or another thread may
  // have loaded our page. Keeping the victim in the table during write-back
  // is what makes a concurrent fix of *that* page a plain hit rather than a
  // stale re-read.
  for (;;) {
    size_t victim = 0;
    bool writeback = false;
    {
      MutexGuard guard(sh.mu);
      auto it = sh.table.find(pid.Encode());
      if (it != sh.table.end()) {
        if (!counted_miss) hits_.Inc();
        frame = it->second;
        FrameMeta& m = meta_[frame];
        m.pin_count++;
        if (m.in_lru) {
          sh.lru.erase(m.lru_pos);
          sh.lru.push_front(frame);
          m.lru_pos = sh.lru.begin();
        }
        needs_read = false;
        break;
      }
      if (!counted_miss) {
        misses_.Inc();
        counted_miss = true;
      }
      if (!sh.free_frames.empty()) {
        frame = sh.free_frames.back();
        sh.free_frames.pop_back();
      } else {
        // Walk from the LRU end; the first unpinned frame wins. A clean
        // victim is evicted in place; a dirty one is pinned for write-back.
        bool found = false;
        for (auto vit = sh.lru.rbegin(); vit != sh.lru.rend(); ++vit) {
          const size_t f = *vit;
          FrameMeta& m = meta_[f];
          if (m.pin_count != 0) continue;
          if (m.dirty.load(std::memory_order_relaxed)) {
            m.pin_count++;  // keeps it resident while we write it back
            victim = f;
            writeback = true;
          } else {
            sh.table.erase(m.pid.Encode());
            sh.lru.erase(std::next(vit).base());
            m.in_lru = false;
            m.valid = false;
            evictions_.Inc();
            frame = f;
          }
          found = true;
          break;
        }
        if (!found) {
          fix_failures_.Inc();
          return Status::Busy("buffer cache: all frames pinned");
        }
      }
      if (!writeback) {
        FrameMeta& m = meta_[frame];
        m.pid = pid;
        m.valid = true;
        m.dirty.store(false, std::memory_order_relaxed);
        m.pin_count = 1;
        // Take the frame's exclusive latch *before* publishing the table
        // entry, so concurrent fixers of the same page block until the device
        // read below has filled the frame. The latch is guaranteed free here:
        // eviction only selects unpinned frames, and guards release the latch
        // before unpinning.
        bool latched = m.latch.try_lock();
        assert(latched);
        (void)latched;
        sh.table[pid.Encode()] = frame;
        sh.lru.push_front(frame);
        m.lru_pos = sh.lru.begin();
        m.in_lru = true;
        needs_read = true;
        break;
      }
    }

    // Dirty-victim write-back, shard unlocked. Latch shared so a concurrent
    // writer cannot give us a torn image; clear the dirty flag inside the
    // latched region (same protocol as FlushAll) so a redirtying since our
    // write is never swallowed.
    FrameMeta& vm = meta_[victim];
    Device* dev = devices_[vm.pid.file_id];
    assert(dev != nullptr);
    vm.latch.lock_shared();
    Status ws = dev->WritePage(vm.pid.page_no,
                               arena_.get() + victim * kPageSize);
    if (ws.ok()) vm.dirty.store(false, std::memory_order_relaxed);
    vm.latch.unlock_shared();
    {
      MutexGuard guard(sh.mu);
      assert(vm.pin_count > 0);
      vm.pin_count--;
    }
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
    // Retry: the victim is now clean (unless re-dirtied) and the next pass
    // evicts it — or whatever the map looks like by then.
  }

  char* data = arena_.get() + frame * kPageSize;

  if (needs_read) {
    FrameMeta& m = meta_[frame];
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
      m.latch.unlock();
      MutexGuard guard(sh.mu);
      m.pin_count--;
      return s;
    }
    if (mode == LatchMode::kExclusive) {
      return PageGuard(this, frame, data, pid, mode, false);
    }
    m.latch.unlock();
    // Fall through to normal shared acquisition.
  }

  FrameMeta& m = meta_[frame];
  bool contended = false;
  if (mode == LatchMode::kExclusive) {
    if (!m.latch.try_lock()) {
      contended = true;
      contention_.Inc();
      m.latch.lock();
    }
  } else {
    if (!m.latch.try_lock_shared()) {
      contended = true;
      contention_.Inc();
      m.latch.lock_shared();
    }
  }
  return PageGuard(this, frame, data, pid, mode, contended);
}

// Justified suppression: releases the frame latch acquired by FixPage on
// behalf of a PageGuard — the other half of the ownership transfer the
// analysis cannot see.
void BufferCache::Unfix(size_t frame, LatchMode mode)
    BTRIM_NO_THREAD_SAFETY_ANALYSIS {
  FrameMeta& m = meta_[frame];
  if (mode == LatchMode::kExclusive) {
    m.latch.unlock();
  } else {
    m.latch.unlock_shared();
  }
  MutexGuard guard(shards_[m.home_shard]->mu);
  assert(m.pin_count > 0);
  m.pin_count--;
}

void BufferCache::MarkFrameDirty(size_t frame) {
  meta_[frame].dirty.store(true, std::memory_order_relaxed);
}

Status BufferCache::FlushAll() {
  // Pin each dirty frame under its shard mutex, then write it back with the
  // shard unlocked — the same protocol as FixPage's dirty-victim
  // write-back. Blocking on a frame latch while holding a shard mutex would
  // invert the frame-latch -> buffer-map order that latch-coupling fixers
  // rely on (a guard holder blocked in FixPage on the shard would deadlock
  // with us); the lock-order validator caught exactly that inversion here.
  for (size_t i = 0; i < num_frames_; ++i) {
    FrameMeta& m = meta_[i];
    Mutex& mu = shards_[m.home_shard]->mu;
    {
      MutexGuard guard(mu);
      if (!m.valid || !m.dirty.load(std::memory_order_relaxed)) continue;
      m.pin_count++;  // keeps the frame resident while we write it back
    }
    Device* dev = devices_[m.pid.file_id];
    assert(dev != nullptr);
    // Latch shared so a concurrent writer cannot give us a torn image. The
    // dirty flag must be cleared inside the latched region: writers set it
    // under the exclusive latch, so clearing it after unlatching could
    // swallow a redirtying that happened since our write.
    m.latch.lock_shared();
    Status s = dev->WritePage(m.pid.page_no, arena_.get() + i * kPageSize);
    if (s.ok()) m.dirty.store(false, std::memory_order_relaxed);
    m.latch.unlock_shared();
    {
      MutexGuard guard(mu);
      assert(m.pin_count > 0);
      m.pin_count--;
    }
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
  for (size_t i = 0; i < num_frames_; ++i) {
    FrameMeta& m = meta_[i];
    Shard& sh = *shards_[m.home_shard];
    MutexGuard guard(sh.mu);
    if (!m.valid) continue;
    if (m.pin_count != 0) {
      return Status::Busy("DropAll with pinned pages");
    }
    sh.table.erase(m.pid.Encode());
    if (m.in_lru) {
      sh.lru.erase(m.lru_pos);
      m.in_lru = false;
    }
    m.valid = false;
    sh.free_frames.push_back(i);
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
