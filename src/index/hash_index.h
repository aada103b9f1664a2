#ifndef BTRIM_INDEX_HASH_INDEX_H_
#define BTRIM_INDEX_HASH_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/hash.h"
#include "common/slice.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics_registry.h"

namespace btrim {

/// In-memory, table-specific hash index over IMRS rows (paper Sec. II).
///
/// Maps a unique key (the same byte-string key as the table's unique BTree
/// index) to an opaque row pointer, for rows that are currently resident in
/// the IMRS. It acts as a fast-path accelerator *under* the unique BTree:
/// point lookups consult the hash index first; a miss falls back to the
/// BTree + RID-map path. The hash index is non-logged and rebuilt as rows
/// enter/leave the IMRS.
///
/// The paper builds this on lock-free hash tables; this implementation uses
/// finely striped per-bucket spinlocks over a fixed-size bucket array, which
/// has the same non-blocking behaviour in practice for point operations
/// (one bucket, O(1) critical section) — see DESIGN.md substitutions.
template <typename V>
class HashIndex {
 public:
  /// `buckets` is rounded up to a power of two.
  explicit HashIndex(size_t buckets = 1 << 14) {
    size_t n = 16;
    while (n < buckets) n <<= 1;
    mask_ = n - 1;
    buckets_ = std::make_unique<Bucket[]>(n);
  }

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  /// Inserts or overwrites the mapping for `key`.
  void Upsert(Slice key, V value) {
    inserts_.Inc();
    const uint64_t h = HashBytes(key.data(), key.size());
    Bucket& b = buckets_[h & mask_];
    SpinLockGuard guard(b.lock);
    for (auto& e : b.entries) {
      if (e.hash == h && Slice(e.key) == key) {
        e.value = value;
        return;
      }
    }
    b.entries.push_back(Entry{h, key.ToString(), value});
    entries_.Add(1);
  }

  /// Removes the mapping for `key`; returns true if present.
  bool Erase(Slice key) {
    erases_.Inc();
    const uint64_t h = HashBytes(key.data(), key.size());
    Bucket& b = buckets_[h & mask_];
    SpinLockGuard guard(b.lock);
    for (size_t i = 0; i < b.entries.size(); ++i) {
      if (b.entries[i].hash == h && Slice(b.entries[i].key) == key) {
        b.entries[i] = std::move(b.entries.back());
        b.entries.pop_back();
        entries_.Add(-1);
        return true;
      }
    }
    return false;
  }

  /// Returns the value for `key`, or `fallback` when absent.
  V Lookup(Slice key, V fallback = V{}) const {
    lookups_.Inc();
    const uint64_t h = HashBytes(key.data(), key.size());
    Bucket& b = buckets_[h & mask_];
    SpinLockGuard guard(b.lock);
    for (const auto& e : b.entries) {
      if (e.hash == h && Slice(e.key) == key) {
        hits_.Inc();
        return e.value;
      }
    }
    return fallback;
  }

  bool Contains(Slice key) const {
    const uint64_t h = HashBytes(key.data(), key.size());
    Bucket& b = buckets_[h & mask_];
    SpinLockGuard guard(b.lock);
    for (const auto& e : b.entries) {
      if (e.hash == h && Slice(e.key) == key) return true;
    }
    return false;
  }

  int64_t Size() const { return entries_.Load(); }

  /// Registers the counters under `hash_index.*` with the given labels.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const obs::MetricLabels& labels) const {
    BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
        "hash_index.entries", labels, [this] { return Size(); }));
    BTRIM_RETURN_IF_ERROR(
        registry->RegisterCounter("hash_index.inserts", labels, &inserts_));
    BTRIM_RETURN_IF_ERROR(
        registry->RegisterCounter("hash_index.erases", labels, &erases_));
    BTRIM_RETURN_IF_ERROR(
        registry->RegisterCounter("hash_index.lookups", labels, &lookups_));
    return registry->RegisterCounter("hash_index.hits", labels, &hits_);
  }

 private:
  struct Entry {
    uint64_t hash;
    std::string key;
    V value;
  };
  struct alignas(kCacheLineSize) Bucket {
    mutable SpinLock lock{LockRank::kHashBucket, "index.hash_bucket"};
    std::vector<Entry> entries BTRIM_GUARDED_BY(lock);
  };

  size_t mask_;
  std::unique_ptr<Bucket[]> buckets_;

  mutable ShardedCounter entries_, inserts_, erases_, lookups_, hits_;
};

}  // namespace btrim

#endif  // BTRIM_INDEX_HASH_INDEX_H_
