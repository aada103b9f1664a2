// Unit and property tests for the page-based B+Tree and the IMRS hash
// index.

#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collect_scan.h"
#include "common/coding.h"
#include "common/random.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "obs/metrics_registry.h"
#include "page/device.h"

namespace btrim {
namespace {

using testing::CollectPrefix;
using testing::CollectScan;
using testing::IndexEntries;

std::string IntKey(uint64_t v) {
  std::string k;
  PutBigEndian64(&k, v);
  return k;
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : cache_(256), tree_(1, &cache_, /*unique=*/true) {
    cache_.AttachDevice(1, &dev_);
    EXPECT_TRUE(tree_.Create().ok());
    EXPECT_TRUE(tree_.RegisterMetrics(&metrics_, {}).ok());
  }
  MemDevice dev_;
  BufferCache cache_;
  BTree tree_;
  obs::MetricsRegistry metrics_;
};

TEST_F(BTreeTest, InsertAndSearch) {
  ASSERT_TRUE(tree_.Insert("apple", 1).ok());
  ASSERT_TRUE(tree_.Insert("banana", 2).ok());
  Result<uint64_t> v = tree_.Search("apple");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1u);
  EXPECT_TRUE(tree_.Search("cherry").status().IsNotFound());
}

TEST_F(BTreeTest, DuplicateKeyRejected) {
  ASSERT_TRUE(tree_.Insert("k", 1).ok());
  EXPECT_TRUE(tree_.Insert("k", 2).IsAlreadyExists());
  EXPECT_EQ(*tree_.Search("k"), 1u);
}

TEST_F(BTreeTest, UpdateValueInPlace) {
  ASSERT_TRUE(tree_.Insert("k", 1).ok());
  ASSERT_TRUE(tree_.UpdateValue("k", 99).ok());
  EXPECT_EQ(*tree_.Search("k"), 99u);
  EXPECT_TRUE(tree_.UpdateValue("absent", 1).IsNotFound());
}

TEST_F(BTreeTest, DeleteRemovesEntry) {
  ASSERT_TRUE(tree_.Insert("k", 1).ok());
  ASSERT_TRUE(tree_.Delete("k").ok());
  EXPECT_TRUE(tree_.Search("k").status().IsNotFound());
  EXPECT_TRUE(tree_.Delete("k").IsNotFound());
  // Key can come back after deletion.
  ASSERT_TRUE(tree_.Insert("k", 2).ok());
  EXPECT_EQ(*tree_.Search("k"), 2u);
}

TEST_F(BTreeTest, ManyKeysForceSplits) {
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(tree_.Insert(IntKey(static_cast<uint64_t>(i)), i * 10).ok())
        << "key " << i;
  }
  EXPECT_GT(metrics_.Sum("index.splits"), 0);
  EXPECT_GT(tree_.height(), 1);
  for (int i = 0; i < kKeys; i += 97) {
    Result<uint64_t> v = tree_.Search(IntKey(static_cast<uint64_t>(i)));
    ASSERT_TRUE(v.ok()) << "key " << i;
    EXPECT_EQ(*v, static_cast<uint64_t>(i * 10));
  }
}

TEST_F(BTreeTest, ScanReturnsSortedRange) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree_.Insert(IntKey(static_cast<uint64_t>(i)), i).ok());
  }
  IndexEntries out;
  ASSERT_TRUE(CollectScan(tree_, IntKey(100), IntKey(200), &out).ok());
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].second, 100 + i);
    if (i > 0) {
      EXPECT_LT(out[i - 1].first, out[i].first);
    }
  }
}

TEST_F(BTreeTest, ScanWithLimitAndOpenEnd) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree_.Insert(IntKey(static_cast<uint64_t>(i)), i).ok());
  }
  IndexEntries out;
  ASSERT_TRUE(CollectScan(tree_, IntKey(490), Slice(), &out).ok());
  EXPECT_EQ(out.size(), 10u);
  out.clear();
  ASSERT_TRUE(CollectScan(tree_, IntKey(0), Slice(), &out, 7).ok());
  EXPECT_EQ(out.size(), 7u);
}

TEST_F(BTreeTest, ScanPrefix) {
  ASSERT_TRUE(tree_.Insert("user:1", 1).ok());
  ASSERT_TRUE(tree_.Insert("user:2", 2).ok());
  ASSERT_TRUE(tree_.Insert("user:3", 3).ok());
  ASSERT_TRUE(tree_.Insert("uzer:9", 9).ok());
  IndexEntries out;
  ASSERT_TRUE(CollectPrefix(tree_, "user:", &out).ok());
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(BTreeTest, VisitorRunsWithoutLatchAndMayWriteTheTree) {
  // The visitor holds no frame latch: it may insert into the very leaf the
  // scan is reading (an exclusive latch) and stop the scan early.
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree_.Insert(IntKey(i), i).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_.Scan(IntKey(0), IntKey(10), [&](Slice, uint64_t v) {
                     seen.push_back(v);
                     EXPECT_TRUE(tree_.Insert(IntKey(100 + v), v).ok());
                     return v < 4;
                   }).ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  for (uint64_t v = 0; v <= 4; ++v) {
    EXPECT_EQ(*tree_.Search(IntKey(100 + v)), v);
  }
}

TEST_F(BTreeTest, EmptyTreeBehaviour) {
  EXPECT_TRUE(tree_.Search("x").status().IsNotFound());
  IndexEntries out;
  ASSERT_TRUE(CollectScan(tree_, Slice(), Slice(), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(BTreeTest, OversizedKeyRejected) {
  std::string huge(BTree::kMaxKeySize + 1, 'k');
  EXPECT_TRUE(tree_.Insert(huge, 1).IsInvalidArgument());
}

TEST_F(BTreeTest, VariableLengthKeysKeepMemcmpOrder) {
  ASSERT_TRUE(tree_.Insert("a", 1).ok());
  ASSERT_TRUE(tree_.Insert("aa", 2).ok());
  ASSERT_TRUE(tree_.Insert("b", 3).ok());
  ASSERT_TRUE(tree_.Insert("ab", 4).ok());
  IndexEntries out;
  ASSERT_TRUE(CollectScan(tree_, Slice(), Slice(), &out).ok());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].first, "a");
  EXPECT_EQ(out[1].first, "aa");
  EXPECT_EQ(out[2].first, "ab");
  EXPECT_EQ(out[3].first, "b");
}

TEST_F(BTreeTest, MakeNonUniqueKeyDisambiguates) {
  BTree multi(2, &cache_, /*unique=*/false);
  MemDevice dev2;
  cache_.AttachDevice(2, &dev2);
  ASSERT_TRUE(multi.Create().ok());
  const Rid r1{1, 10, 1}, r2{1, 10, 2};
  ASSERT_TRUE(multi.Insert(BTree::MakeNonUniqueKey("dup", r1), r1.Encode()).ok());
  ASSERT_TRUE(multi.Insert(BTree::MakeNonUniqueKey("dup", r2), r2.Encode()).ok());
  IndexEntries out;
  ASSERT_TRUE(CollectPrefix(multi, "dup", &out).ok());
  EXPECT_EQ(out.size(), 2u);
}

// Property test: random inserts/deletes mirror std::map across thousands of
// operations, with periodic full-order verification.
TEST_F(BTreeTest, RandomizedMirrorsReferenceMap) {
  Random rng(2024);
  std::map<std::string, uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = rng.Uniform(5000);
    const std::string key = IntKey(k);
    if (rng.Uniform(100) < 70) {
      Status s = tree_.Insert(key, k);
      if (reference.count(key)) {
        EXPECT_TRUE(s.IsAlreadyExists());
      } else {
        EXPECT_TRUE(s.ok());
        reference[key] = k;
      }
    } else {
      Status s = tree_.Delete(key);
      if (reference.count(key)) {
        EXPECT_TRUE(s.ok());
        reference.erase(key);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    }
  }
  IndexEntries out;
  ASSERT_TRUE(CollectScan(tree_, Slice(), Slice(), &out).ok());
  ASSERT_EQ(out.size(), reference.size());
  auto it = reference.begin();
  for (size_t i = 0; i < out.size(); ++i, ++it) {
    EXPECT_EQ(out[i].first, it->first);
    EXPECT_EQ(out[i].second, it->second);
  }
}

TEST_F(BTreeTest, ConcurrentReadersDuringWrites) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree_.Insert(IntKey(static_cast<uint64_t>(i * 2)), 1).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      if (!tree_.Insert(IntKey(static_cast<uint64_t>(i * 2 + 1)), 2).ok()) {
        failed = true;
      }
    }
    stop = true;
  });
  std::thread reader([&] {
    Random rng(5);
    while (!stop.load()) {
      const uint64_t k = rng.Uniform(2000) * 2;  // always-present keys
      if (!tree_.Search(IntKey(k)).ok()) failed = true;
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(failed.load());
}

// Parameterized: keys inserted in different orders all produce the same
// sorted scan (split paths differ by order).
class BTreeOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(BTreeOrderSweep, InsertionOrderInvariance) {
  MemDevice dev;
  BufferCache cache(256);
  cache.AttachDevice(1, &dev);
  BTree tree(1, &cache, true);
  ASSERT_TRUE(tree.Create().ok());

  constexpr int kKeys = 3000;
  std::vector<uint64_t> keys(kKeys);
  for (int i = 0; i < kKeys; ++i) keys[i] = static_cast<uint64_t>(i);
  switch (GetParam()) {
    case 0:  // ascending
      break;
    case 1:  // descending
      std::reverse(keys.begin(), keys.end());
      break;
    case 2: {  // shuffled
      Random rng(42);
      for (size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.Uniform(i)]);
      }
      break;
    }
    case 3: {  // zig-zag from both ends
      std::vector<uint64_t> zz;
      for (int lo = 0, hi = kKeys - 1; lo <= hi; ++lo, --hi) {
        zz.push_back(static_cast<uint64_t>(lo));
        if (lo != hi) zz.push_back(static_cast<uint64_t>(hi));
      }
      keys = zz;
      break;
    }
  }
  for (uint64_t k : keys) {
    ASSERT_TRUE(tree.Insert(IntKey(k), k).ok());
  }
  IndexEntries out;
  ASSERT_TRUE(CollectScan(tree, Slice(), Slice(), &out).ok());
  ASSERT_EQ(out.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].second, static_cast<uint64_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BTreeOrderSweep, ::testing::Values(0, 1, 2, 3));

// --- HashIndex ---------------------------------------------------------------------

TEST(HashIndexTest, UpsertLookupErase) {
  HashIndex<int*> index(64);
  int a = 1, b = 2;
  index.Upsert("k1", &a);
  index.Upsert("k2", &b);
  EXPECT_EQ(index.Lookup("k1"), &a);
  EXPECT_EQ(index.Lookup("k3", nullptr), nullptr);
  EXPECT_EQ(index.Size(), 2);
  EXPECT_TRUE(index.Erase("k1"));
  EXPECT_FALSE(index.Erase("k1"));
  EXPECT_EQ(index.Lookup("k1", nullptr), nullptr);
  EXPECT_EQ(index.Size(), 1);
}

TEST(HashIndexTest, UpsertOverwrites) {
  HashIndex<int> index(64);
  index.Upsert("k", 1);
  index.Upsert("k", 2);
  EXPECT_EQ(index.Lookup("k"), 2);
  EXPECT_EQ(index.Size(), 1);
}

TEST(HashIndexTest, ContainsAndStats) {
  HashIndex<int> index(64);
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(index.RegisterMetrics(&metrics, {}).ok());
  index.Upsert("a", 1);
  EXPECT_TRUE(index.Contains("a"));
  EXPECT_FALSE(index.Contains("b"));
  (void)index.Lookup("a");
  (void)index.Lookup("b");
  EXPECT_EQ(metrics.Sum("hash_index.inserts"), 1);
  EXPECT_EQ(metrics.Sum("hash_index.lookups"), 2);
  EXPECT_EQ(metrics.Sum("hash_index.hits"), 1);
  EXPECT_EQ(metrics.Sum("hash_index.entries"), 1);
}

TEST(HashIndexTest, ManyKeysAcrossBuckets) {
  HashIndex<uint64_t> index(16);  // force long chains
  for (uint64_t i = 0; i < 5000; ++i) {
    index.Upsert(IntKey(i), i);
  }
  EXPECT_EQ(index.Size(), 5000);
  for (uint64_t i = 0; i < 5000; i += 37) {
    EXPECT_EQ(index.Lookup(IntKey(i)), i);
  }
}

TEST(HashIndexTest, ConcurrentMixedOps) {
  HashIndex<uint64_t> index(1024);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&index, t] {
      // Each thread owns a disjoint key space: exact final state checkable.
      const uint64_t base = static_cast<uint64_t>(t) * 100000;
      for (uint64_t i = 0; i < 2000; ++i) {
        index.Upsert(IntKey(base + i), i);
      }
      for (uint64_t i = 0; i < 2000; i += 2) {
        index.Erase(IntKey(base + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(index.Size(), kThreads * 1000);
  EXPECT_EQ(index.Lookup(IntKey(1), 0u), 1u);
  EXPECT_EQ(index.Lookup(IntKey(2), 999u), 999u);
}

}  // namespace
}  // namespace btrim
