// Concurrency tests for the optimistic-lock-coupling B+Tree: multi-writer
// split storms validated against a shadow map, readers scanning while the
// tree changes shape underneath them, and the epoch-based reclamation of
// unlinked pages. Run under tsan + the lock-order validator in CI.

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collect_scan.h"
#include "common/coding.h"
#include "common/lock_order.h"
#include "common/random.h"
#include "index/btree.h"
#include "index/epoch.h"
#include "obs/metrics_registry.h"
#include "page/device.h"

namespace btrim {
namespace {

using testing::CollectScan;
using testing::IndexEntries;

std::string IntKey(uint64_t v) {
  std::string k;
  PutBigEndian64(&k, v);
  return k;
}

class BTreeConcurrentTest : public ::testing::Test {
 protected:
  BTreeConcurrentTest() : cache_(2048), tree_(1, &cache_, /*unique=*/true) {
    cache_.AttachDevice(1, &dev_);
    EXPECT_TRUE(tree_.Create().ok());
    EXPECT_TRUE(tree_.RegisterMetrics(&metrics_, {}).ok());
  }

  ~BTreeConcurrentTest() override {
#if defined(BTRIM_LOCK_ORDER_CHECKS)
    EXPECT_EQ(LockOrderValidator::Global()->ViolationCount(), 0)
        << LockOrderValidator::Global()->Report();
#endif
  }

  MemDevice dev_;
  BufferCache cache_;
  BTree tree_;
  obs::MetricsRegistry metrics_;
};

TEST_F(BTreeConcurrentTest, ParallelWritersDisjointRanges) {
  // N writers insert disjoint key ranges concurrently, splitting leaves
  // (and the root, repeatedly) under each other. The final tree must hold
  // exactly the union.
  constexpr int kWriters = 8;
  constexpr uint64_t kPerWriter = 4000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t key = static_cast<uint64_t>(w) * kPerWriter + i;
        ASSERT_TRUE(tree_.Insert(IntKey(key), key).ok());
      }
    });
  }
  for (auto& t : writers) t.join();

  for (uint64_t k = 0; k < kWriters * kPerWriter; ++k) {
    Result<uint64_t> v = tree_.Search(IntKey(k));
    ASSERT_TRUE(v.ok()) << "key " << k;
    ASSERT_EQ(*v, k);
  }
  IndexEntries all;
  ASSERT_TRUE(CollectScan(tree_, IntKey(0), Slice(), &all).ok());
  ASSERT_EQ(all.size(), kWriters * kPerWriter);
  for (size_t i = 1; i < all.size(); ++i) {
    ASSERT_LT(all[i - 1].first, all[i].first) << "scan out of order at " << i;
  }
  EXPECT_GT(metrics_.Sum("index.splits"), 0);
}

TEST_F(BTreeConcurrentTest, ReadersVsSplittingWriters) {
  // Writers hammer interleaved hot ranges while readers point-read and
  // range-scan. Every committed key must be found with its exact value;
  // scans must stay sorted and never duplicate within a pass.
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr uint64_t kPerWriter = 3000;
  std::atomic<uint64_t> committed[kWriters];
  for (auto& c : committed) c.store(0);
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        // Interleave writers across the key space so leaves are shared.
        const uint64_t key = i * kWriters + static_cast<uint64_t>(w);
        ASSERT_TRUE(tree_.Insert(IntKey(key), key * 7).ok());
        committed[w].store(i + 1, std::memory_order_release);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Random rng(1234u + static_cast<uint32_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        // Point-read a key guaranteed committed.
        for (int w = 0; w < kWriters; ++w) {
          const uint64_t done = committed[w].load(std::memory_order_acquire);
          if (done == 0) continue;
          const uint64_t i = rng.Next() % done;
          const uint64_t key = i * kWriters + static_cast<uint64_t>(w);
          Result<uint64_t> v = tree_.Search(IntKey(key));
          ASSERT_TRUE(v.ok()) << "committed key " << key << " not found";
          ASSERT_EQ(*v, key * 7);
        }
        // Bounded scan: sorted, unique, values consistent.
        const uint64_t lo = rng.Next() % (kPerWriter * kWriters);
        IndexEntries out;
        ASSERT_TRUE(
            CollectScan(tree_, IntKey(lo), IntKey(lo + 512), &out).ok());
        for (size_t i = 0; i < out.size(); ++i) {
          if (i > 0) ASSERT_LT(out[i - 1].first, out[i].first);
          ASSERT_EQ(out[i].second, GetBigEndian64(out[i].first.data()) * 7);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (int r = 0; r < kReaders; ++r) threads[kWriters + r].join();

  IndexEntries all;
  ASSERT_TRUE(CollectScan(tree_, IntKey(0), Slice(), &all).ok());
  EXPECT_EQ(all.size(), kWriters * kPerWriter);
}

TEST_F(BTreeConcurrentTest, MixedInsertDeleteSearchTorture) {
  // Each thread owns a key stripe and randomly inserts/deletes/reads
  // within it, tracking a private shadow map; cross-thread interference
  // comes only from shared pages. Final state must equal the union of the
  // shadows.
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 8000;
  constexpr uint64_t kStripe = 1000;
  std::vector<std::map<uint64_t, uint64_t>> shadows(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(99u + static_cast<uint32_t>(t));
      auto& shadow = shadows[t];
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t key =
            static_cast<uint64_t>(t) * kStripe + rng.Next() % kStripe;
        const uint32_t dice = rng.Next() % 100;
        if (dice < 50) {
          Status s = tree_.Insert(IntKey(key), key);
          if (shadow.count(key)) {
            ASSERT_TRUE(s.IsAlreadyExists());
          } else {
            ASSERT_TRUE(s.ok());
            shadow[key] = key;
          }
        } else if (dice < 75) {
          Status s = tree_.Delete(IntKey(key));
          if (shadow.erase(key)) {
            ASSERT_TRUE(s.ok());
          } else {
            ASSERT_TRUE(s.IsNotFound());
          }
        } else {
          Result<uint64_t> v = tree_.Search(IntKey(key));
          if (shadow.count(key)) {
            ASSERT_TRUE(v.ok());
            ASSERT_EQ(*v, key);
          } else {
            ASSERT_TRUE(v.status().IsNotFound());
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::map<std::string, uint64_t> expected;
  for (const auto& shadow : shadows) {
    for (const auto& [k, v] : shadow) expected[IntKey(k)] = v;
  }
  IndexEntries all;
  ASSERT_TRUE(CollectScan(tree_, IntKey(0), Slice(), &all).ok());
  ASSERT_EQ(all.size(), expected.size());
  size_t i = 0;
  for (const auto& [k, v] : expected) {
    ASSERT_EQ(all[i].first, k);
    ASSERT_EQ(all[i].second, v);
    ++i;
  }
}

TEST_F(BTreeConcurrentTest, EpochPinBlocksPageReclamation) {
  // An unlinked page must not return to the free list while any reader
  // epoch that could still reach it is active.
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree_.Insert(IntKey(k), k).ok());
  }
  {
    // Pin an epoch as a concurrent descent would, then empty leaves.
    IndexEpochGuard pin;
    for (uint64_t k = 2000; k-- > 0;) {
      ASSERT_TRUE(tree_.Delete(IntKey(k)).ok());
    }
    ASSERT_GT(metrics_.Sum("index.pages_retired"), 0)
        << "emptied leaves should retire";
    EXPECT_EQ(tree_.DrainRetired(), 0)
        << "retired pages reclaimed under a live epoch pin";
    EXPECT_EQ(metrics_.Sum("index.pages_reclaimed"), 0);
  }
  const int64_t retired = metrics_.Sum("index.pages_retired");
  EXPECT_EQ(tree_.DrainRetired(), retired);
  EXPECT_EQ(metrics_.Sum("index.pages_reclaimed"), retired);

  // Re-inserting reuses reclaimed page numbers instead of growing the
  // file (small slack: the rebuilt leaf boundaries need not line up
  // exactly with the original ones).
  const int64_t allocated_before = tree_.pages_allocated();
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree_.Insert(IntKey(k), k).ok());
  }
  EXPECT_GT(metrics_.Sum("index.pages_reused"), 0);
  EXPECT_LE(tree_.pages_allocated(), allocated_before + 4)
      << "reinsert should be served almost entirely from the free list";
}

TEST_F(BTreeConcurrentTest, ConcurrentDeletersAndScanners) {
  // Scanners hop right-sibling links while deleters unlink emptied leaves.
  // Scans may restart internally but must never crash, duplicate, or go
  // out of order.
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tree_.Insert(IntKey(k), k).ok());
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int d = 0; d < 3; ++d) {
    threads.emplace_back([&, d] {
      // Each deleter owns keys == d (mod 3); deletes right-to-left to empty
      // whole leaves fast.
      for (uint64_t k = kKeys; k-- > 0;) {
        if (k % 3 != static_cast<uint64_t>(d)) continue;
        ASSERT_TRUE(tree_.Delete(IntKey(k)).ok());
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      Random rng(7u + static_cast<uint32_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t lo = rng.Next() % kKeys;
        IndexEntries out;
        ASSERT_TRUE(
            CollectScan(tree_, IntKey(lo), IntKey(lo + 2048), &out).ok());
        for (size_t i = 1; i < out.size(); ++i) {
          ASSERT_LT(out[i - 1].first, out[i].first);
        }
      }
    });
  }
  for (int d = 0; d < 3; ++d) threads[d].join();
  stop.store(true, std::memory_order_release);
  for (int r = 0; r < 3; ++r) threads[3 + r].join();

  IndexEntries rest;
  ASSERT_TRUE(CollectScan(tree_, IntKey(0), Slice(), &rest).ok());
  EXPECT_TRUE(rest.empty());
  EXPECT_GT(metrics_.Sum("index.pages_retired"), 0);
}

TEST_F(BTreeConcurrentTest, ScanVisitsEveryEntryAcrossLeavesInOrder) {
  // A scan across thousands of leaves visits every entry once, in order.
  for (uint64_t k = 0; k < 50000; ++k) {
    ASSERT_TRUE(tree_.Insert(IntKey(k), k).ok());
  }
  IndexEntries out;
  ASSERT_TRUE(CollectScan(tree_, IntKey(0), Slice(), &out).ok());
  ASSERT_EQ(out.size(), 50000u);
  for (size_t i = 1; i < out.size(); ++i) {
    ASSERT_LT(out[i - 1].first, out[i].first);
  }
}

}  // namespace
}  // namespace btrim
