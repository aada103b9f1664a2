// Unit tests for the page store: slotted pages, devices, the buffer cache,
// and heap files.

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "obs/metrics_registry.h"
#include "page/buffer_cache.h"
#include "page/device.h"
#include "page/heap_file.h"
#include "page/slotted_page.h"

namespace btrim {
namespace {

// --- Rid / PageId -------------------------------------------------------------

TEST(RidTest, EncodeDecodeRoundTrip) {
  Rid r{7, 123456, 42};
  Rid d = Rid::Decode(r.Encode());
  EXPECT_EQ(d, r);
  EXPECT_EQ(d.page_id(), (PageId{7, 123456}));
}

TEST(RidTest, NullRid) {
  EXPECT_TRUE(kNullRid.IsNull());
  EXPECT_FALSE((Rid{1, 0, 0}).IsNull());
}

// --- SlottedPage ----------------------------------------------------------------

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : page_(buf_) { page_.Init(); }
  char buf_[kPageSize] = {};
  SlottedPage page_;
};

TEST_F(SlottedPageTest, InitializedEmpty) {
  EXPECT_TRUE(page_.IsInitialized());
  EXPECT_EQ(page_.SlotCount(), 0);
  EXPECT_EQ(page_.LiveRows(), 0);
  EXPECT_FALSE(SlottedPage(buf_ + 0).IsOccupied(0));
}

TEST_F(SlottedPageTest, ZeroedBufferIsUninitialized) {
  char zeroed[kPageSize] = {};
  EXPECT_FALSE(SlottedPage(zeroed).IsInitialized());
}

TEST_F(SlottedPageTest, InsertAndRead) {
  ASSERT_TRUE(page_.InsertAt(0, "hello").ok());
  Result<Slice> row = page_.ReadAt(0);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->ToString(), "hello");
  EXPECT_EQ(page_.LiveRows(), 1);
}

TEST_F(SlottedPageTest, InsertAtArbitrarySlotExtendsDirectory) {
  ASSERT_TRUE(page_.InsertAt(5, "row5").ok());
  EXPECT_EQ(page_.SlotCount(), 6);
  EXPECT_FALSE(page_.IsOccupied(0));
  EXPECT_TRUE(page_.IsOccupied(5));
  // Earlier slots can be filled later (place-by-RID).
  ASSERT_TRUE(page_.InsertAt(2, "row2").ok());
  EXPECT_EQ(page_.ReadAt(2)->ToString(), "row2");
  EXPECT_EQ(page_.ReadAt(5)->ToString(), "row5");
}

TEST_F(SlottedPageTest, DoubleInsertRejected) {
  ASSERT_TRUE(page_.InsertAt(1, "a").ok());
  EXPECT_TRUE(page_.InsertAt(1, "b").IsInvalidArgument());
}

TEST_F(SlottedPageTest, ReadEmptySlotIsNotFound) {
  EXPECT_TRUE(page_.ReadAt(0).status().IsNotFound());
  ASSERT_TRUE(page_.InsertAt(0, "x").ok());
  EXPECT_TRUE(page_.ReadAt(1).status().IsNotFound());
}

TEST_F(SlottedPageTest, DeleteFreesSlot) {
  ASSERT_TRUE(page_.InsertAt(0, "gone").ok());
  ASSERT_TRUE(page_.DeleteAt(0).ok());
  EXPECT_TRUE(page_.ReadAt(0).status().IsNotFound());
  EXPECT_EQ(page_.LiveRows(), 0);
  // Slot can be reused.
  ASSERT_TRUE(page_.InsertAt(0, "back").ok());
  EXPECT_EQ(page_.ReadAt(0)->ToString(), "back");
}

TEST_F(SlottedPageTest, DeleteEmptySlotIsNotFound) {
  EXPECT_TRUE(page_.DeleteAt(0).IsNotFound());
}

TEST_F(SlottedPageTest, UpdateShrinkAndGrow) {
  ASSERT_TRUE(page_.InsertAt(0, "abcdefgh").ok());
  ASSERT_TRUE(page_.UpdateAt(0, "xy").ok());
  EXPECT_EQ(page_.ReadAt(0)->ToString(), "xy");
  ASSERT_TRUE(page_.UpdateAt(0, "0123456789012345").ok());
  EXPECT_EQ(page_.ReadAt(0)->ToString(), "0123456789012345");
}

TEST_F(SlottedPageTest, CompactionReclaimsGarbage) {
  const std::string big(1000, 'x');
  std::vector<uint16_t> slots;
  uint16_t slot = 0;
  while (page_.InsertAt(slot, big).ok()) {
    slots.push_back(slot);
    ++slot;
  }
  ASSERT_GE(slots.size(), 4u);
  // Free half the payload space, then a big insert must succeed via
  // compaction.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(page_.DeleteAt(slots[i]).ok());
  }
  EXPECT_TRUE(page_.InsertAt(slot, big).ok());
  // Survivors are intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(page_.ReadAt(slots[i])->ToString(), big);
  }
}

TEST_F(SlottedPageTest, FullPageReportsNoSpace) {
  const std::string big(2000, 'y');
  uint16_t slot = 0;
  while (page_.InsertAt(slot, big).ok()) ++slot;
  EXPECT_TRUE(page_.InsertAt(slot, big).IsNoSpace());
  // Page still coherent.
  EXPECT_EQ(page_.LiveRows(), slot);
}

TEST_F(SlottedPageTest, GrowingUpdateFailureKeepsOldPayload) {
  const std::string filler(1500, 'f');
  uint16_t slot = 0;
  while (page_.InsertAt(slot, filler).ok()) ++slot;
  // No room to grow the row by 4 KiB.
  Status s = page_.UpdateAt(0, std::string(4096, 'g'));
  EXPECT_TRUE(s.IsNoSpace());
  EXPECT_EQ(page_.ReadAt(0)->ToString(), filler);
}

TEST_F(SlottedPageTest, RandomizedMirrorsReferenceMap) {
  Random rng(77);
  std::vector<std::string> reference(64);
  std::vector<bool> occupied(64, false);
  for (int i = 0; i < 5000; ++i) {
    const uint16_t slot = static_cast<uint16_t>(rng.Uniform(64));
    const int action = static_cast<int>(rng.Uniform(3));
    if (action == 0) {
      std::string data(1 + rng.Uniform(64), static_cast<char>('a' + slot % 26));
      if (page_.InsertAt(slot, data).ok()) {
        ASSERT_FALSE(occupied[slot]);
        reference[slot] = data;
        occupied[slot] = true;
      }
    } else if (action == 1) {
      std::string data(1 + rng.Uniform(64), 'U');
      if (page_.UpdateAt(slot, data).ok()) {
        ASSERT_TRUE(occupied[slot]);
        reference[slot] = data;
      }
    } else {
      if (page_.DeleteAt(slot).ok()) {
        ASSERT_TRUE(occupied[slot]);
        occupied[slot] = false;
      }
    }
  }
  for (uint16_t s = 0; s < 64; ++s) {
    if (s >= page_.SlotCount() || !page_.IsOccupied(s)) {
      EXPECT_FALSE(occupied[s]) << "slot " << s;
    } else {
      ASSERT_TRUE(occupied[s]) << "slot " << s;
      EXPECT_EQ(page_.ReadAt(s)->ToString(), reference[s]);
    }
  }
}

// --- devices --------------------------------------------------------------------

TEST(MemDeviceTest, ReadBeforeWriteIsZeroed) {
  MemDevice dev;
  char buf[kPageSize];
  memset(buf, 0xFF, kPageSize);
  ASSERT_TRUE(dev.ReadPage(3, buf).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(buf[i], 0);
}

TEST(MemDeviceTest, WriteReadRoundTrip) {
  MemDevice dev;
  char out[kPageSize], in[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) out[i] = static_cast<char>(i * 7);
  ASSERT_TRUE(dev.WritePage(5, out).ok());
  EXPECT_EQ(dev.NumPages(), 6u);
  ASSERT_TRUE(dev.ReadPage(5, in).ok());
  EXPECT_EQ(memcmp(out, in, kPageSize), 0);
  DeviceStats s = dev.GetStats();
  EXPECT_EQ(s.page_writes, 1);
  EXPECT_EQ(s.page_reads, 1);
}

TEST(FileDeviceTest, PersistsAcrossReopen) {
  const std::string path = ::testing::TempDir() + "/btrim_filedev_test.dat";
  std::filesystem::remove(path);
  char out[kPageSize];
  memset(out, 0x5A, kPageSize);
  {
    Result<std::unique_ptr<FileDevice>> dev = FileDevice::Open(path);
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE((*dev)->WritePage(2, out).ok());
    ASSERT_TRUE((*dev)->Sync().ok());
  }
  {
    Result<std::unique_ptr<FileDevice>> dev = FileDevice::Open(path);
    ASSERT_TRUE(dev.ok());
    EXPECT_EQ((*dev)->NumPages(), 3u);
    char in[kPageSize];
    ASSERT_TRUE((*dev)->ReadPage(2, in).ok());
    EXPECT_EQ(memcmp(out, in, kPageSize), 0);
    // Never-written page reads as zeros.
    ASSERT_TRUE((*dev)->ReadPage(1, in).ok());
    for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(in[i], 0);
  }
  std::filesystem::remove(path);
}

// --- BufferCache ------------------------------------------------------------------

class BufferCacheTest : public ::testing::Test {
 protected:
  BufferCacheTest() : cache_(8) {
    cache_.AttachDevice(1, &dev_);
    EXPECT_TRUE(cache_.RegisterMetrics(&metrics_, "page").ok());
  }
  MemDevice dev_;
  BufferCache cache_;
  obs::MetricsRegistry metrics_;
};

TEST_F(BufferCacheTest, MissThenHit) {
  {
    Result<PageGuard> g = cache_.FixPage({1, 0}, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g->data()[0] = 'A';
    g->MarkDirty();
  }
  {
    Result<PageGuard> g = cache_.FixPage({1, 0}, LatchMode::kShared);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->data()[0], 'A');
  }
  EXPECT_EQ(metrics_.Sum("buffer_cache.misses"), 1);
  EXPECT_EQ(metrics_.Sum("buffer_cache.hits"), 1);
}

TEST_F(BufferCacheTest, DirtyPageSurvivesEviction) {
  {
    Result<PageGuard> g = cache_.FixPage({1, 42}, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    memset(g->data(), 0x42, kPageSize);
    g->MarkDirty();
  }
  // Cycle through more pages than frames to force eviction.
  for (uint32_t p = 100; p < 120; ++p) {
    Result<PageGuard> g = cache_.FixPage({1, p}, LatchMode::kShared);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_GT(metrics_.Sum("buffer_cache.evictions"), 0);
  Result<PageGuard> g = cache_.FixPage({1, 42}, LatchMode::kShared);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(static_cast<unsigned char>(g->data()[0]), 0x42);
}

TEST_F(BufferCacheTest, AllFramesPinnedFails) {
  std::vector<PageGuard> guards;
  for (uint32_t p = 0; p < 8; ++p) {
    Result<PageGuard> g = cache_.FixPage({1, p}, LatchMode::kShared);
    ASSERT_TRUE(g.ok());
    guards.push_back(std::move(*g));
  }
  Result<PageGuard> g = cache_.FixPage({1, 99}, LatchMode::kShared);
  EXPECT_TRUE(g.status().IsBusy());
  guards.clear();
  g = cache_.FixPage({1, 99}, LatchMode::kShared);
  EXPECT_TRUE(g.ok());
}

TEST_F(BufferCacheTest, UnattachedFileIsInvalidArgument) {
  Result<PageGuard> g = cache_.FixPage({9, 0}, LatchMode::kShared);
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST_F(BufferCacheTest, SharedLatchesCoexistOnOnePage) {
  Result<PageGuard> a = cache_.FixPage({1, 0}, LatchMode::kShared);
  Result<PageGuard> b = cache_.FixPage({1, 0}, LatchMode::kShared);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
}

TEST_F(BufferCacheTest, ContentionIsCountedOnExclusiveClash) {
  Result<PageGuard> a = cache_.FixPage({1, 0}, LatchMode::kExclusive);
  ASSERT_TRUE(a.ok());
  std::thread waiter([&] {
    Result<PageGuard> b = cache_.FixPage({1, 0}, LatchMode::kShared);
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(b->contended());
  });
  // Give the waiter time to hit the latch.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  a->Release();
  waiter.join();
  EXPECT_GE(metrics_.Sum("buffer_cache.latch_contention"), 1);
}

TEST_F(BufferCacheTest, FlushAllWritesDirtyPages) {
  {
    Result<PageGuard> g = cache_.FixPage({1, 7}, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g->data()[0] = 'Z';
    g->MarkDirty();
  }
  ASSERT_TRUE(cache_.FlushAll().ok());
  char buf[kPageSize];
  ASSERT_TRUE(dev_.ReadPage(7, buf).ok());
  EXPECT_EQ(buf[0], 'Z');
}

TEST_F(BufferCacheTest, DropAllColdRestart) {
  {
    Result<PageGuard> g = cache_.FixPage({1, 3}, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g->data()[0] = 'Q';
    g->MarkDirty();
  }
  ASSERT_TRUE(cache_.DropAll().ok());
  const int64_t misses_before = metrics_.Sum("buffer_cache.misses");
  Result<PageGuard> g = cache_.FixPage({1, 3}, LatchMode::kShared);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->data()[0], 'Q');
  EXPECT_EQ(metrics_.Sum("buffer_cache.misses"), misses_before + 1);
}

TEST_F(BufferCacheTest, ConcurrentMixedTraffic) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 2000; ++i) {
        const uint32_t page = static_cast<uint32_t>(rng.Uniform(16));
        if (rng.Uniform(2) == 0) {
          Result<PageGuard> g = cache_.FixPage({1, page},
                                               LatchMode::kExclusive);
          if (!g.ok()) {
            if (!g.status().IsBusy()) failed = true;
            continue;
          }
          g->data()[0] = static_cast<char>(t);
          g->MarkDirty();
        } else {
          Result<PageGuard> g = cache_.FixPage({1, page}, LatchMode::kShared);
          if (!g.ok() && !g.status().IsBusy()) failed = true;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

// Eviction under load: six threads fix a page set four times the frame
// count, so nearly every fix misses, claims a CLOCK victim and (for dirty
// victims) writes it back while other threads pin, hit and latch the same
// frames. Every page carries {page_no + 1, write_count}; a reader must see
// the stamp of exactly the page it fixed and the last write made to it,
// whether the page stayed resident or was evicted and re-read.
TEST(BufferCacheEvictionTest, StampsSurviveConcurrentEviction) {
  constexpr size_t kFrames = 16;
  constexpr uint32_t kPages = 4 * kFrames;
  constexpr int kThreads = 6;
  struct Stamp {
    uint32_t page_plus_one;
    uint64_t writes;
  };
  MemDevice dev;
  BufferCache cache(kFrames);
  cache.AttachDevice(1, &dev);
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(cache.RegisterMetrics(&metrics, "page").ok());
  // Last write count per page; updated under the page's exclusive latch.
  std::vector<std::atomic<uint64_t>> last_write(kPages);
  std::atomic<int> errors{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) + 7);
      for (int i = 0; i < 4000; ++i) {
        const uint32_t page = static_cast<uint32_t>(rng.Uniform(kPages));
        const bool write = rng.Uniform(3) == 0;
        Result<PageGuard> g = cache.FixPage(
            {1, page}, write ? LatchMode::kExclusive : LatchMode::kShared);
        if (!g.ok()) {  // at most six pins on sixteen frames: never Busy
          errors.fetch_add(1);
          continue;
        }
        Stamp st;
        memcpy(&st, g->data(), sizeof(st));
        const uint64_t expected =
            last_write[page].load(std::memory_order_relaxed);
        const bool fresh = expected == 0 && st.page_plus_one == 0;
        if (!fresh && (st.page_plus_one != page + 1 ||
                       st.writes != expected)) {
          errors.fetch_add(1);
        }
        if (write) {
          st = Stamp{page + 1, expected + 1};
          memcpy(g->data(), &st, sizeof(st));
          g->MarkDirty();
          last_write[page].store(expected + 1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(metrics.Sum("buffer_cache.evictions"), 0);
  EXPECT_GT(metrics.Sum("buffer_cache.dirty_writes"), 0);
  EXPECT_EQ(metrics.Sum("buffer_cache.hits") +
                metrics.Sum("buffer_cache.misses"),
            metrics.Sum("buffer_cache.fixes"));

  // No pin leaked, and every page re-read from the device after the drop
  // still carries its last write.
  ASSERT_TRUE(cache.DropAll().ok());
  for (uint32_t page = 0; page < kPages; ++page) {
    Result<PageGuard> g = cache.FixPage({1, page}, LatchMode::kShared);
    ASSERT_TRUE(g.ok());
    Stamp st;
    memcpy(&st, g->data(), sizeof(st));
    const uint64_t expected = last_write[page].load();
    if (expected == 0) continue;
    EXPECT_EQ(st.page_plus_one, page + 1);
    EXPECT_EQ(st.writes, expected);
  }
}

// --- HeapFile ----------------------------------------------------------------------

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : cache_(64), heap_(1, &cache_, /*slots_per_page=*/8) {
    cache_.AttachDevice(1, &dev_);
  }
  MemDevice dev_;
  BufferCache cache_;
  HeapFile heap_;
};

TEST_F(HeapFileTest, RidAllocationIsSequential) {
  Rid r0 = heap_.AllocateRid();
  Rid r1 = heap_.AllocateRid();
  EXPECT_EQ(r0.page_no, 0u);
  EXPECT_EQ(r0.slot, 0);
  EXPECT_EQ(r1.page_no, 0u);
  EXPECT_EQ(r1.slot, 1);
  for (int i = 2; i < 8; ++i) heap_.AllocateRid();
  Rid r8 = heap_.AllocateRid();
  EXPECT_EQ(r8.page_no, 1u);
  EXPECT_EQ(r8.slot, 0);
}

TEST_F(HeapFileTest, PlaceByRidAfterGap) {
  // Allocate 20 RIDs but place only some: the deferred-placement pattern of
  // IMRS-first inserts.
  std::vector<Rid> rids;
  for (int i = 0; i < 20; ++i) rids.push_back(heap_.AllocateRid());
  ASSERT_TRUE(heap_.Place(rids[17], "late17").ok());
  ASSERT_TRUE(heap_.Place(rids[2], "late2").ok());
  std::string out;
  ASSERT_TRUE(heap_.Read(rids[17], &out).ok());
  EXPECT_EQ(out, "late17");
  EXPECT_TRUE(heap_.Read(rids[3], &out).IsNotFound());
  EXPECT_FALSE(heap_.Exists(rids[3]));
  EXPECT_TRUE(heap_.Exists(rids[2]));
}

TEST_F(HeapFileTest, InsertReadUpdateDelete) {
  Result<Rid> rid = heap_.Insert("v1");
  ASSERT_TRUE(rid.ok());
  std::string out;
  ASSERT_TRUE(heap_.Read(*rid, &out).ok());
  EXPECT_EQ(out, "v1");
  ASSERT_TRUE(heap_.Update(*rid, "version-two").ok());
  ASSERT_TRUE(heap_.Read(*rid, &out).ok());
  EXPECT_EQ(out, "version-two");
  ASSERT_TRUE(heap_.Delete(*rid).ok());
  EXPECT_TRUE(heap_.Read(*rid, &out).IsNotFound());
}

TEST_F(HeapFileTest, ScanVisitsOnlyMaterializedRows) {
  std::vector<Rid> rids;
  for (int i = 0; i < 30; ++i) rids.push_back(heap_.AllocateRid());
  int placed = 0;
  for (size_t i = 0; i < rids.size(); i += 3) {
    ASSERT_TRUE(heap_.Place(rids[i], "row" + std::to_string(i)).ok());
    ++placed;
  }
  int seen = 0;
  ASSERT_TRUE(heap_
                  .ScanAll([&](Rid rid, Slice payload) {
                    EXPECT_TRUE(payload.starts_with("row"));
                    EXPECT_EQ(rid.file_id, 1);
                    ++seen;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, placed);
}

TEST_F(HeapFileTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(heap_.Insert("r").ok());
  }
  int seen = 0;
  ASSERT_TRUE(heap_.ScanAll([&](Rid, Slice) { return ++seen < 3; }).ok());
  EXPECT_EQ(seen, 3);
}

TEST_F(HeapFileTest, CursorRestore) {
  for (int i = 0; i < 10; ++i) heap_.AllocateRid();
  EXPECT_EQ(heap_.RowCursor(), 10u);
  heap_.SetRowCursor(100);
  Rid r = heap_.AllocateRid();
  EXPECT_EQ(static_cast<uint64_t>(r.page_no) * 8 + r.slot, 100u);
}

TEST_F(HeapFileTest, ConcurrentInsertsGetDistinctRids) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<uint64_t>> rids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Result<Rid> rid = heap_.Insert("t" + std::to_string(t));
        ASSERT_TRUE(rid.ok());
        rids[t].push_back(rid->Encode());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<uint64_t> all;
  for (auto& v : rids) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace btrim
