// Unit and property tests for the IMRS fragment memory manager.

#include <cstring>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/fragment_allocator.h"
#include "common/random.h"
#include "obs/metrics_registry.h"

namespace btrim {
namespace {

constexpr size_t kMiB = 1024 * 1024;

TEST(FragmentAllocatorTest, AllocateAndFree) {
  FragmentAllocator alloc(kMiB);
  void* p = alloc.Allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(FragmentAllocator::FragmentSize(p), 100u);
  EXPECT_GT(alloc.InUseBytes(), 0);
  alloc.Free(p);
  EXPECT_EQ(alloc.InUseBytes(), 0);
}

TEST(FragmentAllocatorTest, MemoryIsWritable) {
  FragmentAllocator alloc(kMiB);
  void* p = alloc.Allocate(256);
  ASSERT_NE(p, nullptr);
  memset(p, 0xAB, 256);
  EXPECT_EQ(static_cast<unsigned char*>(p)[255], 0xAB);
  alloc.Free(p);
}

TEST(FragmentAllocatorTest, ZeroAndOversizeRequestsFail) {
  FragmentAllocator alloc(kMiB, /*segment_bytes=*/64 * 1024);
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(alloc.RegisterMetrics(&metrics, "imrs").ok());
  EXPECT_EQ(alloc.Allocate(0), nullptr);
  EXPECT_EQ(alloc.Allocate(64 * 1024), nullptr);  // exceeds a segment
  EXPECT_EQ(metrics.Sum("imrs_cache.failed_allocs"), 2);
}

TEST(FragmentAllocatorTest, CapacityIsEnforced) {
  FragmentAllocator alloc(64 * 1024);
  std::vector<void*> ptrs;
  while (true) {
    void* p = alloc.Allocate(1000);
    if (p == nullptr) break;
    ptrs.push_back(p);
  }
  EXPECT_FALSE(ptrs.empty());
  EXPECT_LE(alloc.InUseBytes(), 64 * 1024);
  // Freeing makes room again.
  alloc.Free(ptrs.back());
  ptrs.pop_back();
  void* p = alloc.Allocate(1000);
  EXPECT_NE(p, nullptr);
  alloc.Free(p);
  for (void* q : ptrs) alloc.Free(q);
  EXPECT_EQ(alloc.InUseBytes(), 0);
}

TEST(FragmentAllocatorTest, UtilizationTracksInUse) {
  FragmentAllocator alloc(100 * 1024);
  EXPECT_DOUBLE_EQ(alloc.Utilization(), 0.0);
  void* p = alloc.Allocate(50 * 1024);
  ASSERT_NE(p, nullptr);
  EXPECT_GT(alloc.Utilization(), 0.49);
  EXPECT_LT(alloc.Utilization(), 0.60);
  alloc.Free(p);
  EXPECT_DOUBLE_EQ(alloc.Utilization(), 0.0);
}

TEST(FragmentAllocatorTest, FreedBlocksAreReused) {
  FragmentAllocator alloc(kMiB);
  void* p1 = alloc.Allocate(500);
  ASSERT_NE(p1, nullptr);
  alloc.Free(p1);
  // Same shard, same size: best-fit should hand back the same block.
  void* p2 = alloc.Allocate(500);
  EXPECT_EQ(p1, p2);
  alloc.Free(p2);
}

TEST(FragmentAllocatorTest, CoalescingRebuildsLargeBlocks) {
  FragmentAllocator alloc(kMiB, /*segment_bytes=*/64 * 1024);
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(alloc.RegisterMetrics(&metrics, "imrs").ok());
  // Fill a segment with small blocks, free all, then allocate one large
  // block: without coalescing this fails.
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) {
    void* p = alloc.Allocate(500);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) alloc.Free(p);
  EXPECT_GT(metrics.Sum("imrs_cache.coalesces"), 0);
  void* big = alloc.Allocate(60 * 1024);
  EXPECT_NE(big, nullptr);
  alloc.Free(big);
}

TEST(FragmentAllocatorTest, StatsAreCoherent) {
  FragmentAllocator alloc(kMiB);
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(alloc.RegisterMetrics(&metrics, "imrs").ok());
  void* a = alloc.Allocate(64);
  void* b = alloc.Allocate(128);
  alloc.Free(a);
  EXPECT_EQ(metrics.Sum("imrs_cache.alloc_calls"), 2);
  EXPECT_EQ(metrics.Sum("imrs_cache.free_calls"), 1);
  EXPECT_EQ(metrics.Sum("imrs_cache.capacity_bytes"),
            static_cast<int64_t>(kMiB));
  EXPECT_GT(metrics.Sum("imrs_cache.segment_bytes"), 0);
  alloc.Free(b);
}

TEST(FragmentAllocatorTest, DistinctAllocationsDontOverlap) {
  FragmentAllocator alloc(kMiB);
  Random rng(11);
  struct Frag {
    char* p;
    size_t n;
    unsigned char tag;
  };
  std::vector<Frag> frags;
  for (int i = 0; i < 200; ++i) {
    const size_t n = 16 + rng.Uniform(400);
    char* p = static_cast<char*>(alloc.Allocate(n));
    ASSERT_NE(p, nullptr);
    const unsigned char tag = static_cast<unsigned char>(i);
    memset(p, tag, n);
    frags.push_back({p, n, tag});
  }
  for (const Frag& f : frags) {
    for (size_t j = 0; j < f.n; ++j) {
      ASSERT_EQ(static_cast<unsigned char>(f.p[j]), f.tag);
    }
    alloc.Free(f.p);
  }
}

TEST(FragmentAllocatorTest, RandomAllocFreeChurn) {
  FragmentAllocator alloc(2 * kMiB);
  Random rng(3);
  std::vector<std::pair<void*, size_t>> live;
  int64_t expected_low_water = 0;
  for (int i = 0; i < 20000; ++i) {
    if (live.empty() || rng.Uniform(100) < 60) {
      const size_t n = 16 + rng.Uniform(2000);
      void* p = alloc.Allocate(n);
      if (p != nullptr) {
        live.emplace_back(p, n);
      }
    } else {
      const size_t pick = rng.Uniform(live.size());
      alloc.Free(live[pick].first);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  ASSERT_TRUE(alloc.CheckConsistency().ok());
  for (auto& [p, n] : live) alloc.Free(p);
  EXPECT_EQ(alloc.InUseBytes(), expected_low_water);
  EXPECT_TRUE(alloc.CheckConsistency().ok());
}

TEST(FragmentAllocatorTest, ConcurrentChurnIsSafe) {
  FragmentAllocator alloc(8 * kMiB);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&alloc, t] {
      Random rng(100 + static_cast<uint64_t>(t));
      std::vector<void*> mine;
      for (int i = 0; i < 5000; ++i) {
        if (mine.empty() || rng.Uniform(100) < 55) {
          void* p = alloc.Allocate(16 + rng.Uniform(512));
          if (p != nullptr) {
            memset(p, t + 1, 16);
            mine.push_back(p);
          }
        } else {
          const size_t pick = rng.Uniform(mine.size());
          alloc.Free(mine[pick]);
          mine[pick] = mine.back();
          mine.pop_back();
        }
      }
      for (void* p : mine) alloc.Free(p);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(alloc.InUseBytes(), 0);
  EXPECT_TRUE(alloc.CheckConsistency().ok());
}

TEST(FragmentAllocatorConsistency, FreshAllocatorIsConsistent) {
  FragmentAllocator alloc(kMiB);
  EXPECT_TRUE(alloc.CheckConsistency().ok());
  void* p = alloc.Allocate(100);
  EXPECT_TRUE(alloc.CheckConsistency().ok());
  alloc.Free(p);
  EXPECT_TRUE(alloc.CheckConsistency().ok());
}

TEST(FragmentAllocatorConsistency, DetectsCorruptedHeader) {
  FragmentAllocator alloc(kMiB);
  void* p = alloc.Allocate(100);
  ASSERT_NE(p, nullptr);
  // Smash the block header's magic: the checker must notice.
  memset(static_cast<char*>(p) - 16, 0x5A, 4);
  EXPECT_FALSE(alloc.CheckConsistency().ok());
}

// Parameterized sweep: every size class round-trips and accounting returns
// to zero.
class FragmentSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(FragmentSizeSweep, RoundTrip) {
  FragmentAllocator alloc(4 * kMiB);
  const size_t n = GetParam();
  std::vector<void*> ptrs;
  for (int i = 0; i < 50; ++i) {
    void* p = alloc.Allocate(n);
    ASSERT_NE(p, nullptr) << "size " << n;
    EXPECT_GE(FragmentAllocator::FragmentSize(p), n);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) alloc.Free(p);
  EXPECT_EQ(alloc.InUseBytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FragmentSizeSweep,
                         ::testing::Values(1, 15, 16, 17, 32, 63, 64, 65, 100,
                                           255, 256, 1000, 1024, 4000, 8192,
                                           16384, 65536));

}  // namespace
}  // namespace btrim
