// Unit tests for the lock manager and transaction manager.

#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"
#include "testing/alloc_counter.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace btrim {
namespace {

// --- LockManager ------------------------------------------------------------

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() {
    EXPECT_TRUE(lm_.RegisterMetrics(&metrics_, "txn").ok());
  }
  LockManager lm_;
  obs::MetricsRegistry metrics_;
};

TEST_F(LockManagerTest, SharedLocksAreCompatible) {
  ASSERT_TRUE(lm_.Acquire(1, 100, LockMode::kShared, 10).ok());
  ASSERT_TRUE(lm_.Acquire(2, 100, LockMode::kShared, 10).ok());
  EXPECT_TRUE(lm_.Holds(1, 100, LockMode::kShared));
  EXPECT_TRUE(lm_.Holds(2, 100, LockMode::kShared));
  lm_.Release(1, 100);
  lm_.Release(2, 100);
}

TEST_F(LockManagerTest, ExclusiveExcludesOthers) {
  ASSERT_TRUE(lm_.Acquire(1, 100, LockMode::kExclusive, 10).ok());
  EXPECT_TRUE(lm_.TryAcquire(2, 100, LockMode::kShared).IsBusy());
  EXPECT_TRUE(lm_.TryAcquire(2, 100, LockMode::kExclusive).IsBusy());
  lm_.Release(1, 100);
  EXPECT_TRUE(lm_.TryAcquire(2, 100, LockMode::kExclusive).ok());
  lm_.Release(2, 100);
}

TEST_F(LockManagerTest, SharedBlocksExclusive) {
  ASSERT_TRUE(lm_.Acquire(1, 7, LockMode::kShared, 10).ok());
  EXPECT_TRUE(lm_.TryAcquire(2, 7, LockMode::kExclusive).IsBusy());
  lm_.Release(1, 7);
}

TEST_F(LockManagerTest, ReentrantAcquisition) {
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kExclusive, 10).ok());
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kExclusive, 10).ok());
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kShared, 10).ok());
  lm_.Release(1, 5);
  EXPECT_FALSE(lm_.Holds(1, 5, LockMode::kShared));
}

TEST_F(LockManagerTest, UpgradeWhenSoleHolder) {
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kShared, 10).ok());
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kExclusive, 10).ok());
  EXPECT_TRUE(lm_.Holds(1, 5, LockMode::kExclusive));
  lm_.Release(1, 5);
}

TEST_F(LockManagerTest, UpgradeBlockedByOtherReader) {
  ASSERT_TRUE(lm_.Acquire(1, 5, LockMode::kShared, 10).ok());
  ASSERT_TRUE(lm_.Acquire(2, 5, LockMode::kShared, 10).ok());
  EXPECT_TRUE(lm_.TryAcquire(1, 5, LockMode::kExclusive).IsBusy());
  lm_.Release(2, 5);
  EXPECT_TRUE(lm_.TryAcquire(1, 5, LockMode::kExclusive).ok());
  lm_.Release(1, 5);
}

TEST_F(LockManagerTest, TimeoutReturnsAborted) {
  ASSERT_TRUE(lm_.Acquire(1, 9, LockMode::kExclusive, 10).ok());
  Status s = lm_.Acquire(2, 9, LockMode::kExclusive, 50);
  EXPECT_TRUE(s.IsAborted());
  EXPECT_GE(metrics_.Sum("locks.timeouts"), 1);
  lm_.Release(1, 9);
}

TEST_F(LockManagerTest, BlockedAcquireWakesOnRelease) {
  ASSERT_TRUE(lm_.Acquire(1, 3, LockMode::kExclusive, 10).ok());
  std::thread waiter([&] {
    Status s = lm_.Acquire(2, 3, LockMode::kExclusive, 5000);
    EXPECT_TRUE(s.ok());
    lm_.Release(2, 3);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm_.Release(1, 3);
  waiter.join();
  EXPECT_GE(metrics_.Sum("locks.waits"), 1);
}

TEST_F(LockManagerTest, PendingUpgradeBlocksNewSharedGrants) {
  // Regression: a shared->exclusive upgrader must not starve behind a
  // steady stream of new shared grants. Once txn 2's blocking upgrade is
  // waiting, a *new* shared request from txn 3 is refused until the
  // upgrade resolves.
  ASSERT_TRUE(lm_.Acquire(1, 7, LockMode::kShared, 10).ok());
  ASSERT_TRUE(lm_.Acquire(2, 7, LockMode::kShared, 10).ok());
  const int64_t waits_before = metrics_.Sum("locks.waits");
  std::thread upgrader([&] {
    Status s = lm_.Acquire(2, 7, LockMode::kExclusive, 5000);
    EXPECT_TRUE(s.ok());
  });
  // Wait until the upgrade is registered (it counts as a blocked wait).
  while (metrics_.Sum("locks.waits") == waits_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(lm_.TryAcquire(3, 7, LockMode::kShared).IsBusy());
  EXPECT_TRUE(lm_.Acquire(3, 7, LockMode::kShared, 50).IsAborted());
  lm_.Release(1, 7);  // last other reader drains; upgrade grants
  upgrader.join();
  EXPECT_TRUE(lm_.Holds(2, 7, LockMode::kExclusive));
  // Upgrade resolved: shared requests flow again once 2 releases.
  lm_.Release(2, 7);
  EXPECT_TRUE(lm_.Acquire(3, 7, LockMode::kShared, 10).ok());
  lm_.Release(3, 7);
}

TEST_F(LockManagerTest, DeniedTryUpgradeDoesNotBlockReaders) {
  // TryAcquire never registers upgrade intent: a Pack-style conditional
  // upgrade that loses must leave no pending claim behind.
  ASSERT_TRUE(lm_.Acquire(1, 8, LockMode::kShared, 10).ok());
  ASSERT_TRUE(lm_.Acquire(2, 8, LockMode::kShared, 10).ok());
  EXPECT_TRUE(lm_.TryAcquire(1, 8, LockMode::kExclusive).IsBusy());
  EXPECT_TRUE(lm_.Acquire(3, 8, LockMode::kShared, 10).ok());
  lm_.Release(1, 8);
  lm_.Release(2, 8);
  lm_.Release(3, 8);
}

TEST_F(LockManagerTest, FastPathGrantsAreCounted) {
  // Uncontended exclusive locks take the atomic fast path.
  ASSERT_TRUE(lm_.Acquire(1, 100, LockMode::kExclusive, 10).ok());
  lm_.Release(1, 100);
  ASSERT_TRUE(lm_.TryAcquire(2, 100, LockMode::kExclusive).ok());
  lm_.Release(2, 100);
  EXPECT_GE(metrics_.Sum("locks.fast_grants"), 2);
}

TEST_F(LockManagerTest, ReportsNewlyHeldOnlyForTheFirstGrant) {
  bool newly = false;
  // Fast exclusive grant, then re-entrant exclusive and shared re-acquires.
  ASSERT_TRUE(lm_.Acquire(1, 40, LockMode::kExclusive, 10, &newly).ok());
  EXPECT_TRUE(newly);
  ASSERT_TRUE(lm_.Acquire(1, 40, LockMode::kExclusive, 10, &newly).ok());
  EXPECT_FALSE(newly);
  ASSERT_TRUE(lm_.TryAcquire(1, 40, LockMode::kShared, &newly).ok());
  EXPECT_FALSE(newly);
  lm_.Release(1, 40);

  // Slow shared grant, re-entrant shared, then upgrade as sole holder.
  ASSERT_TRUE(lm_.Acquire(1, 41, LockMode::kShared, 10, &newly).ok());
  EXPECT_TRUE(newly);
  ASSERT_TRUE(lm_.Acquire(1, 41, LockMode::kShared, 10, &newly).ok());
  EXPECT_FALSE(newly);
  ASSERT_TRUE(lm_.TryAcquire(1, 41, LockMode::kExclusive, &newly).ok());
  EXPECT_FALSE(newly);
  // A second reader alongside a first is newly held for the second.
  lm_.Release(1, 41);
  ASSERT_TRUE(lm_.Acquire(1, 41, LockMode::kShared, 10, &newly).ok());
  ASSERT_TRUE(lm_.TryAcquire(2, 41, LockMode::kShared, &newly).ok());
  EXPECT_TRUE(newly);
  lm_.Release(1, 41);
  lm_.Release(2, 41);
  EXPECT_FALSE(lm_.Holds(1, 41, LockMode::kShared));
  EXPECT_FALSE(lm_.Holds(2, 41, LockMode::kShared));
}

TEST_F(LockManagerTest, RecycledEntriesCarryNoStaleState) {
  // One stripe, so every id below shares one table and one free list.
  LockManager lm(1);
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(lm.RegisterMetrics(&metrics, "txn").ok());
  // Give each of 100 ids two shared holders and a withdrawn upgrade claim,
  // then release it; the table sweeps idle entries onto its free list as
  // it passes the watermark.
  for (uint64_t id = 1; id <= 100; ++id) {
    ASSERT_TRUE(lm.Acquire(1, id, LockMode::kShared, 10).ok());
    ASSERT_TRUE(lm.Acquire(2, id, LockMode::kShared, 10).ok());
    EXPECT_TRUE(lm.Acquire(2, id, LockMode::kExclusive, 1).IsAborted());
    lm.Release(1, id);
    lm.Release(2, id);
  }
  const int64_t pooled = metrics.Sum("locks.entries");
  EXPECT_GT(pooled, 0);
  EXPECT_LT(pooled, 100);  // swept entries were reused, not leaked
  // Fresh ids reuse those entries. A stale upgrade claim would refuse the
  // second reader; a stale holder would refuse the exclusive request.
  for (uint64_t id = 1001; id <= 1100; ++id) {
    ASSERT_TRUE(lm.TryAcquire(3, id, LockMode::kShared).ok()) << id;
    ASSERT_TRUE(lm.TryAcquire(4, id, LockMode::kShared).ok()) << id;
    EXPECT_TRUE(lm.TryAcquire(5, id, LockMode::kExclusive).IsBusy()) << id;
    lm.Release(3, id);
    lm.Release(4, id);
    ASSERT_TRUE(lm.TryAcquire(5, id, LockMode::kExclusive).ok()) << id;
    lm.Release(5, id);
  }
  EXPECT_EQ(metrics.Sum("locks.entries"), pooled);
}

TEST_F(LockManagerTest, WarmPoolLocksFreshIdsWithoutAllocating) {
  // TPC-C locks a fresh id for every inserted row. Once the pool has
  // grown to the live high-water mark, creating and sweeping entries for
  // fresh ids must not touch the heap, on either grant path.
  LockManager lm(1);
  uint64_t id = 1;
  for (; id <= 1000; ++id) {  // passes the sweep watermark many times
    ASSERT_TRUE(lm.Acquire(1, id, LockMode::kShared, 10).ok());
    lm.Release(1, id);
  }
  const int64_t before = testing::HeapAllocations();
  for (; id <= 5000; ++id) {
    const LockMode mode =
        id % 2 == 0 ? LockMode::kExclusive : LockMode::kShared;
    bool newly = false;
    ASSERT_TRUE(lm.Acquire(1, id, mode, 10, &newly).ok());
    EXPECT_TRUE(newly);
    lm.Release(1, id);
  }
  EXPECT_EQ(testing::HeapAllocations(), before);
}

TEST_F(LockManagerTest, DistinctLocksDontInterfere) {
  ASSERT_TRUE(lm_.Acquire(1, 1, LockMode::kExclusive, 10).ok());
  ASSERT_TRUE(lm_.Acquire(2, 2, LockMode::kExclusive, 10).ok());
  lm_.Release(1, 1);
  lm_.Release(2, 2);
}

TEST_F(LockManagerTest, ConcurrentExclusiveCounting) {
  // N threads increment a counter under the same lock; mutual exclusion
  // implies an exact final count.
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t txn = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < kIters; ++i) {
        ASSERT_TRUE(lm_.Acquire(txn, 77, LockMode::kExclusive, 10000).ok());
        ++counter;
        lm_.Release(txn, 77);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

// --- TransactionManager --------------------------------------------------------

class TransactionManagerTest : public ::testing::Test {
 protected:
  TransactionManagerTest() : tm_(&lm_) {
    EXPECT_TRUE(tm_.RegisterMetrics(&metrics_, "txn").ok());
  }
  LockManager lm_;
  TransactionManager tm_;
  obs::MetricsRegistry metrics_;
};

TEST_F(TransactionManagerTest, CommitAdvancesClockAndStampsTxn) {
  auto txn = tm_.Begin();
  EXPECT_EQ(txn->begin_ts(), 0u);
  EXPECT_EQ(txn->state(), TxnState::kActive);
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  EXPECT_EQ(txn->state(), TxnState::kCommitted);
  EXPECT_EQ(txn->commit_ts(), 1u);
  EXPECT_EQ(tm_.CurrentTimestamp(), 1u);

  auto txn2 = tm_.Begin();
  EXPECT_EQ(txn2->begin_ts(), 1u);
  ASSERT_TRUE(tm_.Commit(txn2.get()).ok());
  EXPECT_EQ(txn2->commit_ts(), 2u);
}

TEST_F(TransactionManagerTest, SeesRespectsSnapshot) {
  auto t1 = tm_.Begin();
  ASSERT_TRUE(tm_.Commit(t1.get()).ok());  // cts 1
  auto t2 = tm_.Begin();                   // snapshot 1
  EXPECT_TRUE(t2->Sees(1));
  EXPECT_FALSE(t2->Sees(2));
  EXPECT_FALSE(t2->Sees(0));  // 0 = uncommitted
  ASSERT_TRUE(tm_.Abort(t2.get()).ok());
}

// The write set itself is applied and undone by the engine (engine_test
// and fault_injection_test cover it); what is left here is the manager's
// side: a failed durability hook ends the transaction aborted, and its
// locks are released.
TEST_F(TransactionManagerTest, DurabilityHookFailureAborts) {
  auto txn = tm_.Begin();
  ASSERT_TRUE(txn->AcquireLock(77, LockMode::kExclusive, 10).ok());
  Status s = tm_.Commit(txn.get(), [](Transaction*, uint64_t) {
    return Status::IOError("log device gone");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_TRUE(lm_.TryAcquire(9999, 77, LockMode::kExclusive).ok());
  lm_.Release(9999, 77);
}

TEST_F(TransactionManagerTest, DurabilityHookSeesCommitTs) {
  auto txn = tm_.Begin();
  uint64_t hook_cts = 0;
  ASSERT_TRUE(tm_.Commit(txn.get(),
                         [&](Transaction* t, uint64_t cts) {
                           hook_cts = cts;
                           EXPECT_EQ(t->commit_ts(), cts);
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(hook_cts, 1u);
}

TEST_F(TransactionManagerTest, LocksReleasedAtCommitAndAbort) {
  auto t1 = tm_.Begin();
  ASSERT_TRUE(t1->AcquireLock(55, LockMode::kExclusive, 10).ok());
  EXPECT_TRUE(lm_.TryAcquire(9999, 55, LockMode::kShared).IsBusy());
  ASSERT_TRUE(tm_.Commit(t1.get()).ok());
  EXPECT_TRUE(lm_.TryAcquire(9999, 55, LockMode::kShared).ok());
  lm_.Release(9999, 55);

  auto t2 = tm_.Begin();
  ASSERT_TRUE(t2->AcquireLock(56, LockMode::kExclusive, 10).ok());
  ASSERT_TRUE(tm_.Abort(t2.get()).ok());
  EXPECT_TRUE(lm_.TryAcquire(9999, 56, LockMode::kShared).ok());
  lm_.Release(9999, 56);
}

TEST_F(TransactionManagerTest, EveryGrantRouteIsReleasedAtCommit) {
  // A transaction releases only the locks the lock manager reported newly
  // held; a grant route that misreports would leak its lock past commit.
  const auto commit_then_free = [&](uint64_t lock_id,
                                    const std::function<void(Transaction*)>&
                                        acquire) {
    auto txn = tm_.Begin();
    acquire(txn.get());
    EXPECT_TRUE(lm_.TryAcquire(9999, lock_id, LockMode::kExclusive).IsBusy())
        << lock_id;
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
    EXPECT_TRUE(lm_.TryAcquire(9999, lock_id, LockMode::kExclusive).ok())
        << lock_id;
    lm_.Release(9999, lock_id);
  };
  commit_then_free(60, [](Transaction* t) {  // fast exclusive
    ASSERT_TRUE(t->AcquireLock(60, LockMode::kExclusive, 10).ok());
  });
  commit_then_free(61, [](Transaction* t) {  // slow shared
    ASSERT_TRUE(t->AcquireLock(61, LockMode::kShared, 10).ok());
  });
  commit_then_free(62, [](Transaction* t) {  // shared -> exclusive upgrade
    ASSERT_TRUE(t->AcquireLock(62, LockMode::kShared, 10).ok());
    ASSERT_TRUE(t->AcquireLock(62, LockMode::kExclusive, 10).ok());
  });
  commit_then_free(63, [&](Transaction* t) {  // exclusive after a wait
    ASSERT_TRUE(lm_.Acquire(8888, 63, LockMode::kExclusive, 10).ok());
    obs::MetricsRegistry lock_metrics;
    ASSERT_TRUE(lm_.RegisterMetrics(&lock_metrics, "txn").ok());
    const int64_t waits_before = lock_metrics.Sum("locks.waits");
    std::thread waiter([&] {
      EXPECT_TRUE(t->AcquireLock(63, LockMode::kExclusive, 5000).ok());
    });
    while (lock_metrics.Sum("locks.waits") == waits_before) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    lm_.Release(8888, 63);
    waiter.join();
  });
  commit_then_free(64, [](Transaction* t) {  // conditional
    ASSERT_TRUE(t->TryAcquireLock(64, LockMode::kExclusive).ok());
  });
  commit_then_free(65, [](Transaction* t) {  // re-entrant re-acquires
    ASSERT_TRUE(t->AcquireLock(65, LockMode::kExclusive, 10).ok());
    ASSERT_TRUE(t->AcquireLock(65, LockMode::kExclusive, 10).ok());
    ASSERT_TRUE(t->TryAcquireLock(65, LockMode::kShared).ok());
  });
}

TEST_F(TransactionManagerTest, DoubleFinishRejected) {
  auto txn = tm_.Begin();
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  EXPECT_TRUE(tm_.Commit(txn.get()).IsInvalidArgument());
  EXPECT_TRUE(tm_.Abort(txn.get()).IsInvalidArgument());
}

TEST_F(TransactionManagerTest, OldestActiveSnapshotTracksActiveSet) {
  // No active transactions: horizon is "now".
  EXPECT_EQ(tm_.OldestActiveSnapshot(), 0u);
  auto t1 = tm_.Begin();  // snapshot 0
  auto bump = tm_.Begin();
  ASSERT_TRUE(tm_.Commit(bump.get()).ok());  // clock -> 1
  auto t2 = tm_.Begin();                     // snapshot 1
  EXPECT_EQ(tm_.OldestActiveSnapshot(), 0u);
  ASSERT_TRUE(tm_.Commit(t1.get()).ok());
  EXPECT_EQ(tm_.OldestActiveSnapshot(), 1u);
  ASSERT_TRUE(tm_.Commit(t2.get()).ok());
  EXPECT_EQ(tm_.OldestActiveSnapshot(), tm_.CurrentTimestamp());
}

TEST_F(TransactionManagerTest, StatsCountOutcomes) {
  auto a = tm_.Begin();
  auto b = tm_.Begin();
  auto c = tm_.Begin();
  ASSERT_TRUE(tm_.Commit(a.get()).ok());
  ASSERT_TRUE(tm_.Abort(b.get()).ok());
  EXPECT_EQ(metrics_.Sum("txn.begun"), 3);
  EXPECT_EQ(metrics_.Sum("txn.committed"), 1);
  EXPECT_EQ(metrics_.Sum("txn.aborted"), 1);
  EXPECT_EQ(metrics_.Sum("txn.active"), 1);
  ASSERT_TRUE(tm_.Commit(c.get()).ok());
}

TEST_F(TransactionManagerTest, ConcurrentCommitsGetUniqueTimestamps) {
  constexpr int kThreads = 4;
  constexpr int kTxns = 2000;
  std::vector<std::vector<uint64_t>> cts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTxns; ++i) {
        auto txn = tm_.Begin();
        ASSERT_TRUE(tm_.Commit(txn.get()).ok());
        cts[t].push_back(txn->commit_ts());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<uint64_t> all;
  for (auto& v : cts) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kTxns));
}

}  // namespace
}  // namespace btrim
