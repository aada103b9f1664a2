#include "alloc/fragment_allocator.h"

#include <cassert>
#include <cstring>
#include <unordered_map>
#include <new>

#include "obs/metrics_registry.h"

namespace btrim {

// Block layout inside a segment:
//   [BlockHeader (16 B)] [payload ...]
// Blocks are contiguous; the next block starts at `this + size`. `prev_size`
// locates the previous block for boundary-tag coalescing (0 for the first
// block of a segment).
struct FragmentAllocator::BlockHeader {
  uint32_t size;       // total block size including this header
  uint32_t prev_size;  // size of physically preceding block, 0 if first
  uint8_t in_use;
  uint8_t shard;
  uint8_t is_last;     // last block in its segment
  uint8_t pad_;
  uint32_t magic;      // corruption canary

  static constexpr uint32_t kMagic = 0xB7F2A110u;

  char* payload() { return reinterpret_cast<char*>(this) + kHeaderSize; }
  BlockHeader* next_physical() {
    return reinterpret_cast<BlockHeader*>(reinterpret_cast<char*>(this) + size);
  }
  BlockHeader* prev_physical() {
    return reinterpret_cast<BlockHeader*>(reinterpret_cast<char*>(this) -
                                          prev_size);
  }
};

// Free blocks keep their list linkage in the payload area.
struct FragmentAllocator::FreeNode {
  FreeNode* next;
  FreeNode* prev;
};

struct FragmentAllocator::Segment {
  Segment* next = nullptr;
  char* data = nullptr;    // start of the block area
  size_t size = 0;         // block area size
};

struct alignas(kCacheLineSize) FragmentAllocator::Shard {
  SpinLock lock{LockRank::kAllocShard, "alloc.shard"};
  FreeNode* free_lists[kNumClasses] BTRIM_GUARDED_BY(lock) = {};
  Segment* segments BTRIM_GUARDED_BY(lock) = nullptr;
};

size_t FragmentAllocator::ClassFor(size_t block_size) {
  // Classes 0..15 cover block sizes up to 1 KiB in 64-byte steps; above
  // that, one class per power of two. A block in class c has size in
  // (limit(c-1), limit(c)].
  if (block_size <= 1024) return (block_size - 1) / 64;
  size_t c = 16;
  size_t limit = 2048;
  while (block_size > limit && c < kNumClasses - 1) {
    limit <<= 1;
    ++c;
  }
  return c;
}

size_t FragmentAllocator::BlockSizeFor(size_t payload) {
  size_t total = payload + kHeaderSize;
  if (total < kMinBlock) total = kMinBlock;
  return (total + kAlign - 1) & ~(kAlign - 1);
}

FragmentAllocator::FragmentAllocator(size_t capacity_bytes,
                                     size_t segment_bytes)
    : capacity_(capacity_bytes),
      segment_bytes_(segment_bytes),
      shards_(new Shard[kShards]) {}

FragmentAllocator::~FragmentAllocator() {
  for (size_t i = 0; i < kShards; ++i) {
    Segment* seg = shards_[i].segments;
    while (seg != nullptr) {
      Segment* next = seg->next;
      ::operator delete(seg->data, std::align_val_t(kAlign));
      delete seg;
      seg = next;
    }
  }
}

bool FragmentAllocator::AddSegment(Shard& shard) {
  // Segments are real OS memory; they are not bounded by the logical
  // capacity directly, but in_use is, so segment growth stops once the
  // logical capacity saturates (plus fragmentation slack).
  char* data = static_cast<char*>(
      ::operator new(segment_bytes_, std::align_val_t(kAlign), std::nothrow));
  if (data == nullptr) return false;

  auto* seg = new Segment();
  seg->data = data;
  seg->size = segment_bytes_;
  seg->next = shard.segments;
  shard.segments = seg;
  segment_total_.fetch_add(static_cast<int64_t>(segment_bytes_),
                           std::memory_order_relaxed);

  auto* block = reinterpret_cast<BlockHeader*>(data);
  block->size = static_cast<uint32_t>(segment_bytes_);
  block->prev_size = 0;
  block->in_use = 0;
  block->shard = static_cast<uint8_t>(&shard - shards_.get());
  block->is_last = 1;
  block->magic = BlockHeader::kMagic;
  InsertIntoFreeList(shard, block);
  return true;
}

void FragmentAllocator::InsertIntoFreeList(Shard& shard, BlockHeader* block) {
  const size_t cls = ClassFor(block->size);
  auto* node = reinterpret_cast<FreeNode*>(block->payload());
  node->prev = nullptr;
  node->next = shard.free_lists[cls];
  if (node->next != nullptr) node->next->prev = node;
  shard.free_lists[cls] = node;
}

void FragmentAllocator::RemoveFromFreeList(Shard& shard, BlockHeader* block) {
  const size_t cls = ClassFor(block->size);
  auto* node = reinterpret_cast<FreeNode*>(block->payload());
  if (node->prev != nullptr) {
    node->prev->next = node->next;
  } else {
    shard.free_lists[cls] = node->next;
  }
  if (node->next != nullptr) node->next->prev = node->prev;
}

void* FragmentAllocator::AllocateFromShard(Shard& shard, size_t block_size) {
  const size_t start_cls = ClassFor(block_size);

  BlockHeader* best = nullptr;
  // Best-fit within the starting class: blocks in one class differ by less
  // than a class step, scan for the tightest fit (bounded scan).
  {
    int scanned = 0;
    for (FreeNode* n = shard.free_lists[start_cls];
         n != nullptr && scanned < 16; n = n->next, ++scanned) {
      auto* b = reinterpret_cast<BlockHeader*>(reinterpret_cast<char*>(n) -
                                               kHeaderSize);
      if (b->size >= block_size && (best == nullptr || b->size < best->size)) {
        best = b;
        if (b->size == block_size) break;
      }
    }
  }
  // Otherwise take the head of the first non-empty larger class.
  if (best == nullptr) {
    for (size_t cls = start_cls + 1; cls < kNumClasses; ++cls) {
      if (shard.free_lists[cls] != nullptr) {
        best = reinterpret_cast<BlockHeader*>(
            reinterpret_cast<char*>(shard.free_lists[cls]) - kHeaderSize);
        break;
      }
    }
  }
  if (best == nullptr) return nullptr;

  RemoveFromFreeList(shard, best);

  // Split if the remainder is a usable block.
  if (best->size >= block_size + kMinBlock) {
    auto* rest = reinterpret_cast<BlockHeader*>(
        reinterpret_cast<char*>(best) + block_size);
    rest->size = best->size - static_cast<uint32_t>(block_size);
    rest->prev_size = static_cast<uint32_t>(block_size);
    rest->in_use = 0;
    rest->shard = best->shard;
    rest->is_last = best->is_last;
    rest->magic = BlockHeader::kMagic;
    if (!rest->is_last) {
      rest->next_physical()->prev_size = rest->size;
    }
    best->size = static_cast<uint32_t>(block_size);
    best->is_last = 0;
    InsertIntoFreeList(shard, rest);
    split_count_.Inc();
  }

  best->in_use = 1;
  return best->payload();
}

void* FragmentAllocator::Allocate(size_t size) {
  if (size == 0 || size > segment_bytes_ - kHeaderSize) {
    failed_allocs_.Inc();
    return nullptr;
  }
  const size_t block_size = BlockSizeFor(size);

  // Logical capacity check (the IMRS cache size).
  int64_t cur = in_use_bytes_.load(std::memory_order_relaxed);
  do {
    if (cur + static_cast<int64_t>(block_size) >
        static_cast<int64_t>(capacity_)) {
      failed_allocs_.Inc();
      return nullptr;
    }
  } while (!in_use_bytes_.compare_exchange_weak(
      cur, cur + static_cast<int64_t>(block_size), std::memory_order_relaxed));

  alloc_calls_.Inc();

  // The block actually handed out can be larger than the requested block
  // size (an unsplittable remainder stays attached); reconcile the charge so
  // Free()'s subtraction of the actual block size balances.
  auto finalize = [this, block_size](void* p) {
    const auto* block = reinterpret_cast<const BlockHeader*>(
        static_cast<const char*>(p) - kHeaderSize);
    const int64_t actual = block->size;
    if (actual != static_cast<int64_t>(block_size)) {
      in_use_bytes_.fetch_add(actual - static_cast<int64_t>(block_size),
                              std::memory_order_relaxed);
    }
    return p;
  };

  const size_t home = internal_counters::ThreadShard() % kShards;
  // Try the home shard first, then steal from others.
  for (size_t attempt = 0; attempt < kShards; ++attempt) {
    Shard& shard = shards_[(home + attempt) % kShards];
    SpinLockGuard guard(shard.lock);
    void* p = AllocateFromShard(shard, block_size);
    if (p != nullptr) return finalize(p);
  }

  // Grow the home shard with a fresh segment and retry.
  {
    Shard& shard = shards_[home];
    SpinLockGuard guard(shard.lock);
    if (AddSegment(shard)) {
      void* p = AllocateFromShard(shard, block_size);
      if (p != nullptr) return finalize(p);
    }
  }

  in_use_bytes_.fetch_sub(static_cast<int64_t>(block_size),
                          std::memory_order_relaxed);
  failed_allocs_.Inc();
  return nullptr;
}

void FragmentAllocator::Free(void* ptr) {
  if (ptr == nullptr) return;
  auto* block = reinterpret_cast<BlockHeader*>(static_cast<char*>(ptr) -
                                               kHeaderSize);
  assert(block->magic == BlockHeader::kMagic);
  assert(block->in_use == 1);

  const int64_t block_size = block->size;
  Shard& shard = shards_[block->shard];
  {
    SpinLockGuard guard(shard.lock);
    block->in_use = 0;

    // Coalesce with the next physical block.
    if (!block->is_last) {
      BlockHeader* next = block->next_physical();
      if (!next->in_use) {
        RemoveFromFreeList(shard, next);
        block->size += next->size;
        block->is_last = next->is_last;
        if (!block->is_last) {
          block->next_physical()->prev_size = block->size;
        }
        coalesce_count_.Inc();
      }
    }
    // Coalesce with the previous physical block.
    if (block->prev_size != 0) {
      BlockHeader* prev = block->prev_physical();
      if (!prev->in_use) {
        RemoveFromFreeList(shard, prev);
        prev->size += block->size;
        prev->is_last = block->is_last;
        if (!prev->is_last) {
          prev->next_physical()->prev_size = prev->size;
        }
        block = prev;
        coalesce_count_.Inc();
      }
    }
    InsertIntoFreeList(shard, block);
  }

  in_use_bytes_.fetch_sub(block_size, std::memory_order_relaxed);
  free_calls_.Inc();
}

size_t FragmentAllocator::FragmentSize(const void* ptr) {
  const auto* block = reinterpret_cast<const BlockHeader*>(
      static_cast<const char*>(ptr) - kHeaderSize);
  return block->size - kHeaderSize;
}

Status FragmentAllocator::CheckConsistency() const {
  for (size_t si = 0; si < kShards; ++si) {
    Shard& shard = shards_[si];
    SpinLockGuard guard(shard.lock);

    // Collect the free-list population for cross-checking.
    std::unordered_map<const BlockHeader*, size_t> free_blocks;
    for (size_t cls = 0; cls < kNumClasses; ++cls) {
      for (FreeNode* n = shard.free_lists[cls]; n != nullptr; n = n->next) {
        const auto* b = reinterpret_cast<const BlockHeader*>(
            reinterpret_cast<const char*>(n) - kHeaderSize);
        if (free_blocks.count(b) > 0) {
          return Status::Corruption("block on two free lists");
        }
        if (ClassFor(b->size) != cls) {
          return Status::Corruption("free block in wrong size class");
        }
        free_blocks[b] = cls;
      }
    }

    // Walk every segment's physical block chain.
    size_t free_seen = 0;
    for (const Segment* seg = shard.segments; seg != nullptr;
         seg = seg->next) {
      const char* end = seg->data + seg->size;
      uint32_t prev_size = 0;
      const char* p = seg->data;
      while (p < end) {
        const auto* b = reinterpret_cast<const BlockHeader*>(p);
        if (b->magic != BlockHeader::kMagic) {
          return Status::Corruption("bad block magic");
        }
        if (b->size < kMinBlock || p + b->size > end) {
          return Status::Corruption("block size out of range");
        }
        if (b->prev_size != prev_size) {
          return Status::Corruption("prev_size mismatch");
        }
        if (b->shard != si) {
          return Status::Corruption("block in wrong shard");
        }
        const bool is_last = p + b->size == end;
        if ((b->is_last != 0) != is_last) {
          return Status::Corruption("is_last flag wrong");
        }
        if (!b->in_use) {
          if (free_blocks.erase(b) != 1) {
            return Status::Corruption("free block missing from free lists");
          }
          ++free_seen;
        }
        prev_size = b->size;
        p += b->size;
      }
      if (p != end) {
        return Status::Corruption("segment chain overruns segment");
      }
    }
    if (!free_blocks.empty()) {
      return Status::Corruption("free list references unknown block");
    }
    (void)free_seen;
  }
  return Status::OK();
}

Status FragmentAllocator::RegisterMetrics(obs::MetricsRegistry* registry,
                                          const std::string& subsystem) const {
  const obs::MetricLabels l{subsystem, "", "", ""};
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "imrs_cache.capacity_bytes", l,
      [this] { return static_cast<int64_t>(capacity_); }));
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "imrs_cache.in_use_bytes", l, [this] { return InUseBytes(); }));
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "imrs_cache.segment_bytes", l,
      [this] { return segment_total_.load(std::memory_order_relaxed); }));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("imrs_cache.alloc_calls", l, &alloc_calls_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("imrs_cache.free_calls", l, &free_calls_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("imrs_cache.splits", l, &split_count_));
  BTRIM_RETURN_IF_ERROR(
      registry->RegisterCounter("imrs_cache.coalesces", l, &coalesce_count_));
  BTRIM_RETURN_IF_ERROR(registry->RegisterCounter("imrs_cache.failed_allocs",
                                                  l, &failed_allocs_));
  return Status::OK();
}

}  // namespace btrim
