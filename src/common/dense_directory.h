#ifndef BTRIM_COMMON_DENSE_DIRECTORY_H_
#define BTRIM_COMMON_DENSE_DIRECTORY_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace btrim {

/// Returns the object `cell` points to, first publishing a value-initialized
/// one there if it is null. The loser of a publication race frees its copy.
template <typename T>
T* LoadOrCreate(std::atomic<T*>& cell) {
  T* p = cell.load(std::memory_order_acquire);
  if (p != nullptr) return p;
  auto* fresh = new T();  // lock-free chunk table: published by the CAS
  if (cell.compare_exchange_strong(p, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh;  // lock-free chunk table: lost the race to the winner
  return p;
}

/// A lock-free array of atomics addressed by a dense index.
///
/// Slots live in fixed-size segments that are allocated on first write and
/// never freed or moved while the array lives, so a slot reference stays
/// valid forever and a lookup is two dependent loads (segment pointer, then
/// slot) with no hash and no lock. Segments are published with
/// LoadOrCreate. Unwritten slots read as a value-initialized T.
///
/// Capacity is kMaxSegments << kSegmentBits slots. At() past it aborts:
/// every user indexes by page or row number, which the engine allocates
/// densely from zero, so running off the end is a sizing bug, not a state to
/// recover from.
template <typename T, unsigned kSegmentBits, size_t kMaxSegments>
class DenseArray {
 public:
  static constexpr size_t kSegmentSize = size_t{1} << kSegmentBits;
  static constexpr uint64_t kCapacity = uint64_t{kMaxSegments}
                                        << kSegmentBits;

  DenseArray() = default;
  ~DenseArray() {
    for (auto& s : segments_) {
      delete s.load(std::memory_order_relaxed);  // lock-free chunk table
    }
  }

  DenseArray(const DenseArray&) = delete;
  DenseArray& operator=(const DenseArray&) = delete;

  /// The slot at `index`, or nullptr when no write ever reached its
  /// segment (or `index` is past capacity).
  std::atomic<T>* Find(uint64_t index) const {
    if (index >= kCapacity) return nullptr;
    Segment* s =
        segments_[index >> kSegmentBits].load(std::memory_order_acquire);
    return s == nullptr ? nullptr : &s->slots[index & (kSegmentSize - 1)];
  }

  /// The slot at `index`, allocating its segment on first use.
  std::atomic<T>& At(uint64_t index) {
    if (index >= kCapacity) {
      std::fprintf(stderr, "DenseArray: index %llu past capacity %llu\n",
                   static_cast<unsigned long long>(index),
                   static_cast<unsigned long long>(kCapacity));
      std::abort();
    }
    Segment* s = LoadOrCreate(segments_[index >> kSegmentBits]);
    return s->slots[index & (kSegmentSize - 1)];
  }

  /// Calls fn(index, value) for every allocated slot whose value differs
  /// from T{}, in index order. Not a snapshot under concurrent writes.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t seg = 0; seg < kMaxSegments; ++seg) {
      const Segment* s = segments_[seg].load(std::memory_order_acquire);
      if (s == nullptr) continue;
      for (size_t i = 0; i < kSegmentSize; ++i) {
        const T v = s->slots[i].load(std::memory_order_acquire);
        if (v != T{}) fn((uint64_t{seg} << kSegmentBits) | i, v);
      }
    }
  }

 private:
  struct Segment {
    std::atomic<T> slots[kSegmentSize] = {};
  };

  std::atomic<Segment*> segments_[kMaxSegments] = {};
};

/// One DenseArray per file id: slots addressed by (file_id, dense index).
/// The per-file arrays are published on first write like segments, so a
/// lookup adds one load (the file's array) to DenseArray's two.
template <typename T, unsigned kSegmentBits, size_t kMaxSegments>
class DenseDirectory {
 public:
  using Array = DenseArray<T, kSegmentBits, kMaxSegments>;
  static constexpr size_t kMaxFiles = size_t{1} << 16;

  DenseDirectory()
      : files_(std::make_unique<std::atomic<Array*>[]>(kMaxFiles)) {}
  ~DenseDirectory() {
    for (size_t f = 0; f < kMaxFiles; ++f) {
      Array* a = files_[f].load(std::memory_order_relaxed);
      delete a;  // lock-free chunk table: the owner frees what was published
    }
  }

  DenseDirectory(const DenseDirectory&) = delete;
  DenseDirectory& operator=(const DenseDirectory&) = delete;

  std::atomic<T>* Find(uint16_t file_id, uint64_t index) const {
    const Array* a = files_[file_id].load(std::memory_order_acquire);
    return a == nullptr ? nullptr : a->Find(index);
  }

  std::atomic<T>& At(uint16_t file_id, uint64_t index) {
    return LoadOrCreate(files_[file_id])->At(index);
  }

  /// Calls fn(file_id, index, value) for every non-T{} slot, in
  /// (file_id, index) order. Not a snapshot under concurrent writes.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t f = 0; f < kMaxFiles; ++f) {
      const Array* a = files_[f].load(std::memory_order_acquire);
      if (a == nullptr) continue;
      a->ForEach([&](uint64_t index, T v) {
        fn(static_cast<uint16_t>(f), index, v);
      });
    }
  }

 private:
  std::unique_ptr<std::atomic<Array*>[]> files_;
};

}  // namespace btrim

#endif  // BTRIM_COMMON_DENSE_DIRECTORY_H_
