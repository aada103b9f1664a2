// Multi-threaded stress harness, sized to stay useful under ThreadSanitizer
// on a small machine (build with the `tsan` preset and run via the
// `tsan-stress` test preset; the same binary doubles as a tier-1 test in
// every other build mode).
//
// Two layers:
//   * component stress: the lock-free / finely-locked primitives hammered
//     directly (sharded counters, spinlocks, RID-map, ILM queue, lock
//     manager) — small surfaces where TSan pinpoints ordering bugs;
//   * engine stress: concurrent CRUD and a full TPC-C run with >= 4 driver
//     workers plus live background GC/pack threads, finishing with the
//     cross-structure invariant checker.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "common/lock_order.h"
#include "common/spinlock.h"
#include "engine/database.h"
#include "ilm/ilm_queue.h"
#include "imrs/rid_map.h"
#include "obs/metrics_registry.h"
#include "testing/test_util.h"
#include "tpcc/driver.h"
#include "tpcc/loader.h"
#include "txn/lock_manager.h"

namespace btrim {
namespace {

constexpr int kThreads = 4;

void RunThreads(const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(body, t);
  }
  for (auto& th : threads) th.join();
}

// --- component stress -------------------------------------------------------

TEST(ComponentStressTest, ShardedCounterSumsAcrossThreads) {
  constexpr int64_t kOpsPerThread = 20000;
  ShardedCounter counter;
  RunThreads([&](int) {
    for (int64_t i = 0; i < kOpsPerThread; ++i) counter.Inc();
  });
  EXPECT_EQ(counter.Load(), kThreads * kOpsPerThread);
}

TEST(ComponentStressTest, SpinLockProtectsPlainCounter) {
  constexpr int64_t kOpsPerThread = 20000;
  SpinLock lock;
  int64_t plain = 0;  // unsynchronized on purpose; the lock is the fence
  RunThreads([&](int) {
    for (int64_t i = 0; i < kOpsPerThread; ++i) {
      SpinLockGuard guard(lock);
      ++plain;
    }
  });
  EXPECT_EQ(plain, kThreads * kOpsPerThread);
}

TEST(ComponentStressTest, RwSpinLockReadersSeeConsistentPairs) {
  constexpr int64_t kWrites = 10000;
  RwSpinLock latch;
  int64_t a = 0, b = 0;  // writers keep a == b inside the latch
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads - 1; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        latch.lock_shared();
        EXPECT_EQ(a, b);
        latch.unlock_shared();
      }
    });
  }
  for (int64_t i = 0; i < kWrites; ++i) {
    latch.lock();
    ++a;
    ++b;
    latch.unlock();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(a, kWrites);
}

TEST(ComponentStressTest, RidMapConcurrentInsertLookupErase) {
  constexpr int64_t kRowsPerThread = 4000;
  RidMap map;
  // Each thread owns a disjoint RID range (distinct file ids) and a private
  // row arena; all threads additionally read each other's ranges. ImrsRow
  // holds atomics and is neither copyable nor movable, hence the raw arrays.
  std::vector<std::unique_ptr<ImrsRow[]>> arenas;
  for (int t = 0; t < kThreads; ++t) {
    arenas.push_back(std::make_unique<ImrsRow[]>(kRowsPerThread));
    for (int64_t i = 0; i < kRowsPerThread; ++i) {
      arenas[t][i].rid = Rid{static_cast<uint16_t>(t + 1),
                             static_cast<uint32_t>(i / 64),
                             static_cast<uint16_t>(i % 64)};
    }
  }
  RunThreads([&](int t) {
    std::mt19937_64 rnd(t);
    for (int64_t i = 0; i < kRowsPerThread; ++i) {
      ImrsRow* row = &arenas[t][i];
      map.Insert(row->rid, row);
      // Random cross-thread lookup: either outcome is legal, but the
      // returned pointer must be the owner's row.
      const int ot = static_cast<int>(rnd() % kThreads);
      const int64_t oi = static_cast<int64_t>(rnd() % kRowsPerThread);
      ImrsRow* seen = map.Lookup(arenas[ot][oi].rid);
      if (seen != nullptr) {
        EXPECT_EQ(seen, &arenas[ot][oi]);
      }
      if (i % 3 == 0) {
        EXPECT_TRUE(map.Erase(row->rid));
        EXPECT_EQ(map.Lookup(row->rid), nullptr);
      }
    }
  });
  int64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int64_t i = 0; i < kRowsPerThread; ++i) {
      if (i % 3 != 0) ++expected;
    }
  }
  EXPECT_EQ(map.Size(), expected);
}

TEST(ComponentStressTest, IlmQueueConcurrentPopPush) {
  constexpr int kRows = 256;
  constexpr int64_t kOpsPerThread = 10000;
  IlmQueue queue;
  std::vector<ImrsRow> rows(kRows);
  for (auto& r : rows) queue.PushTail(&r);

  std::atomic<bool> stop{false};
  std::thread walker([&] {
    // Concurrent Size/ForEach readers (the instrumentation paths).
    while (!stop.load(std::memory_order_acquire)) {
      int64_t n = 0;
      queue.ForEach([&n](ImrsRow*) {
        ++n;
        return true;
      });
      EXPECT_LE(n, kRows);
      EXPECT_GE(queue.Size(), 0);
    }
  });
  RunThreads([&](int) {
    for (int64_t i = 0; i < kOpsPerThread; ++i) {
      ImrsRow* r = queue.PopHead();
      if (r != nullptr) {
        EXPECT_FALSE(r->HasFlag(kRowInQueue));
        queue.PushTail(r);
      }
    }
  });
  stop.store(true, std::memory_order_release);
  walker.join();
  EXPECT_EQ(queue.Size(), kRows);
  int64_t n = 0;
  queue.ForEach([&n](ImrsRow*) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, kRows);
}

TEST(ComponentStressTest, LockManagerMutualExclusion) {
  constexpr int kSlots = 16;
  constexpr int64_t kOpsPerThread = 2000;
  LockManager lm;
  int64_t slots[kSlots] = {0};  // plain writes; the row lock is the fence
  std::atomic<uint64_t> next_txn{1};
  RunThreads([&](int t) {
    std::mt19937_64 rnd(100 + t);
    for (int64_t i = 0; i < kOpsPerThread; ++i) {
      const uint64_t txn = next_txn.fetch_add(1);
      const uint64_t slot = rnd() % kSlots;
      Status s = lm.Acquire(txn, slot, LockMode::kExclusive, /*timeout_ms=*/500);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ++slots[slot];
      lm.Release(txn, slot);
    }
  });
  int64_t total = 0;
  for (int64_t v : slots) total += v;
  EXPECT_EQ(total, kThreads * kOpsPerThread);
}

TEST(ComponentStressTest, LockWaiterSurvivesFreshIdChurn) {
  // A slow-path waiter pins its lock entry. Other threads then lock
  // thousands of fresh ids in the same stripes, forcing the table to sweep
  // idle entries onto its free list and recycle them many times over. The
  // pinned entry must never be recycled under the waiter: on release the
  // waiter is granted the lock it asked for, and no other. The lock is
  // held shared, so its fast word is free and only the slow-path pins
  // (holder record and waiter) keep the entry out of the sweep.
  constexpr uint64_t kHeld = 7;
  constexpr int64_t kFreshPerThread = 5000;
  LockManager lm(4);
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(lm.RegisterMetrics(&metrics, "txn").ok());
  ASSERT_TRUE(lm.Acquire(1, kHeld, LockMode::kShared, 10).ok());
  std::thread waiter([&] {
    Status s = lm.Acquire(2, kHeld, LockMode::kExclusive, 10000);
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  while (metrics.Sum("locks.waits") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<uint64_t> next_txn{100};
  RunThreads([&](int t) {
    uint64_t id = (static_cast<uint64_t>(t) + 1) << 32;
    for (int64_t i = 0; i < kFreshPerThread; ++i, ++id) {
      const uint64_t txn = next_txn.fetch_add(1);
      const LockMode mode = i % 2 == 0 ? LockMode::kExclusive
                                       : LockMode::kShared;
      ASSERT_TRUE(lm.Acquire(txn, id, mode, 500).ok());
      lm.Release(txn, id);
    }
  });
  // The pool stayed bounded, so entries were swept and reused.
  EXPECT_LT(metrics.Sum("locks.entries"), kThreads * kFreshPerThread / 4);
  lm.Release(1, kHeld);
  waiter.join();
  EXPECT_TRUE(lm.Holds(2, kHeld, LockMode::kExclusive));
  EXPECT_TRUE(lm.TryAcquire(3, kHeld, LockMode::kShared).IsBusy());
  lm.Release(2, kHeld);
  EXPECT_TRUE(lm.TryAcquire(3, kHeld, LockMode::kExclusive).ok());
  lm.Release(3, kHeld);
}

// --- engine stress ----------------------------------------------------------

class EngineStressTest : public ::testing::Test {
 protected:
  void Open() {
    DatabaseOptions options;
    options.buffer_cache_frames = 1024;
    options.imrs_cache_bytes = 16 << 20;
    options.lock_timeout_ms = 200;
    options.background_interval_us = 200;
    Result<std::unique_ptr<Database>> opened = Database::Open(options);
    ASSERT_TRUE(opened.ok());
    db_ = std::move(*opened);

    TableOptions topt;
    topt.name = "kv";
    topt.schema = Schema({
        Column::Int64("id"),
        Column::Int64("group_id"),
        Column::String("value", 64),
    });
    topt.primary_key = {0};
    Result<Table*> created = db_->CreateTable(topt);
    ASSERT_TRUE(created.ok());
    table_ = *created;
  }

  std::string Record(int64_t id, int64_t group, const std::string& value) {
    RecordBuilder b(&table_->schema());
    b.AddInt64(id).AddInt64(group).AddString(value);
    return b.Finish().ToString();
  }

  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_F(EngineStressTest, ConcurrentCrudWithBackgroundThreads) {
  Open();
  db_->StartBackground();

  constexpr int64_t kKeySpace = 400;
  constexpr int64_t kOpsPerThread = 2500;
  std::atomic<int64_t> committed{0};

  RunThreads([&](int t) {
    std::mt19937_64 rnd(1000 + t);
    for (int64_t i = 0; i < kOpsPerThread; ++i) {
      const int64_t id = static_cast<int64_t>(rnd() % kKeySpace);
      const std::string pk = table_->pk_encoder().KeyForInts({id});
      auto txn = db_->Begin();
      Status s;
      switch (rnd() % 4) {
        case 0:
          s = db_->Insert(txn.get(), table_, Record(id, id % 5, "ins"));
          break;
        case 1:
          s = db_->Update(txn.get(), table_, pk, [&](std::string* payload) {
            RecordEditor e(&table_->schema(), Slice(*payload));
            e.SetString(2, "upd");
            *payload = e.Encode();
          });
          break;
        case 2: {
          std::string out;
          s = db_->SelectByKey(txn.get(), table_, pk, &out);
          break;
        }
        default:
          s = db_->Delete(txn.get(), table_, pk);
          break;
      }
      // Conflicts (AlreadyExists / NotFound / lock timeouts) are expected
      // under contention; only commit cleanly-executed work.
      if (s.ok()) {
        if (db_->Commit(txn.get()).ok()) committed.fetch_add(1);
      } else {
        Status a = db_->Abort(txn.get());
        (void)a;
      }
    }
  });

  db_->StopBackground();
  EXPECT_GT(committed.load(), 0);

  ValidateReport report;
  Status v = db_->ValidateInvariants(&report);
  EXPECT_TRUE(v.ok()) << v.ToString();
}

// The group-commit hammer: eight workers on a file-backed database, every
// commit riding the batched-fsync path, with aborts mixed in so the
// committer sees gaps between staged groups. TSan covers the leader/follower
// handoff (mutex + condvar + the lock-released append/sync window); the
// invariant checker then proves the engine state matches what committed.
TEST(GroupCommitStressTest, EightWorkerCommitAbortHammer) {
  constexpr int kWorkers = 8;
  const std::string dir =
      testing::ScratchPath("btrim_stress_group_commit");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  DatabaseOptions options;
  options.in_memory = false;
  options.data_dir = dir;
  options.buffer_cache_frames = 1024;
  options.imrs_cache_bytes = 32 << 20;
  options.lock_timeout_ms = 200;
  options.background_interval_us = 200;
  options.durability.policy = DurabilityPolicy::kGroupCommit;
  options.durability.max_batch_groups = kWorkers;
  options.durability.max_group_latency_us = 100;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));

  TableOptions topt;
  topt.name = "kv";
  topt.schema = Schema({
      Column::Int64("id"),
      Column::Int64("group_id"),
      Column::String("value", 64),
  });
  topt.primary_key = {0};
  Table* table = *db->CreateTable(topt);

  db->StartBackground();

  constexpr int64_t kKeySpace = 512;
  constexpr int64_t kOpsPerThread = 600;
  std::atomic<int64_t> committed{0};
  std::atomic<int64_t> aborted{0};

  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rnd(7000 + t);
      for (int64_t i = 0; i < kOpsPerThread; ++i) {
        const int64_t id = static_cast<int64_t>(rnd() % kKeySpace);
        const std::string pk = table->pk_encoder().KeyForInts({id});
        auto txn = db->Begin();
        Status s;
        if (rnd() % 2 == 0) {
          RecordBuilder b(&table->schema());
          b.AddInt64(id).AddInt64(t).AddString("w" + std::to_string(t));
          s = db->Insert(txn.get(), table, b.Finish());
        } else {
          s = db->Update(txn.get(), table, pk, [&](std::string* payload) {
            RecordEditor e(&table->schema(), Slice(*payload));
            e.SetString(2, "u" + std::to_string(t));
            *payload = e.Encode();
          });
        }
        // Deliberate abort mix: every 5th clean transaction rolls back, so
        // batches form from an irregular committer population.
        if (s.ok() && i % 5 != 0) {
          if (db->Commit(txn.get()).ok()) committed.fetch_add(1);
        } else {
          Status a = db->Abort(txn.get());
          (void)a;
          aborted.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  db->StopBackground();
  EXPECT_GT(committed.load(), 0);
  EXPECT_GT(aborted.load(), 0);

  // The whole point: far fewer device syncs than commits.
  const obs::MetricsRegistry& m = *db->metrics_registry();
  EXPECT_LT(m.Sum("wal.syncs"), committed.load());  // both logs
  const obs::MetricLabels imrs_log{"sysimrslogs", "", "", ""};
  EXPECT_GT(m.Sum("commit.groups", imrs_log),
            m.Sum("commit.batches", imrs_log));  // > 1 group per batch

  ValidateReport report;
  Status v = db->ValidateInvariants(&report);
  EXPECT_TRUE(v.ok()) << v.ToString();

  db.reset();
  std::filesystem::remove_all(dir);
}

TEST(TpccStressTest, DriverWithFourWorkersStaysConsistent) {
  DatabaseOptions options;
  options.buffer_cache_frames = 2048;
  options.imrs_cache_bytes = 64 << 20;
  options.lock_timeout_ms = 200;
  options.background_interval_us = 500;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));

  tpcc::Scale scale;
  scale.warehouses = 2;
  scale.districts_per_warehouse = 4;
  scale.customers_per_district = 30;
  scale.items = 100;
  scale.orders_per_district = 30;

  Result<tpcc::Tables> tables = tpcc::CreateTables(db.get(), scale);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_TRUE(tpcc::LoadDatabase(db.get(), *tables, scale).ok());

  tpcc::TpccContext ctx;
  ctx.db = db.get();
  ctx.tables = *tables;
  ctx.scale = scale;
  ctx.next_history_id = static_cast<int64_t>(scale.warehouses) *
                            scale.districts_per_warehouse *
                            scale.customers_per_district +
                        1;

  db->StartBackground();

  tpcc::DriverOptions dopt;
  dopt.workers = 4;  // the ISSUE floor: TSan-clean with >= 4 driver threads
  dopt.total_txns = 2000;
  dopt.window_txns = 0;
  tpcc::TpccDriver driver(&ctx, dopt);
  tpcc::DriverStats stats = driver.Run();
  // Workers already past the admission check may commit a few extra.
  EXPECT_GE(stats.committed, dopt.total_txns);

  db->StopBackground();

  ValidateReport report;
  Status v = db->ValidateInvariants(&report);
  EXPECT_TRUE(v.ok()) << v.ToString();
  EXPECT_GT(report.rows_checked, 0);
}

// The parallel-pack hammer: eight TPC-C driver threads racing four pack
// workers plus the GC/ILM background threads, with the steady line pushed
// low enough that pack cycles run throughout. TSan covers the new fan-out
// machinery end to end — ThreadPool batch handoff, per-partition pack
// locks, the row reclaim-claim arbitration against GC, and the tick/pass
// mutexes the final invariant check holds to exclude pack and GC.
TEST(TpccStressTest, EightWorkersAgainstParallelPack) {
  DatabaseOptions options;
  options.buffer_cache_frames = 2048;
  options.imrs_cache_bytes = 16 << 20;
  options.lock_timeout_ms = 200;
  options.background_interval_us = 200;
  options.pack_workers = 4;
  // Keep the pack pipeline hot for the whole run instead of only after the
  // cache fills: pack activates just above 5% utilization and moves a big
  // slice per cycle.
  options.ilm.steady_cache_pct = 0.05;
  options.ilm.aggressive_fraction = 0.05;
  options.ilm.pack_cycle_pct = 0.20;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));

  tpcc::Scale scale;
  scale.warehouses = 2;
  scale.districts_per_warehouse = 4;
  scale.customers_per_district = 30;
  scale.items = 100;
  scale.orders_per_district = 30;

  Result<tpcc::Tables> tables = tpcc::CreateTables(db.get(), scale);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_TRUE(tpcc::LoadDatabase(db.get(), *tables, scale).ok());

  tpcc::TpccContext ctx;
  ctx.db = db.get();
  ctx.tables = *tables;
  ctx.scale = scale;
  ctx.next_history_id = static_cast<int64_t>(scale.warehouses) *
                            scale.districts_per_warehouse *
                            scale.customers_per_district +
                        1;

  db->StartBackground();

  tpcc::DriverOptions dopt;
  dopt.workers = 8;
  dopt.total_txns = 2000;
  dopt.window_txns = 0;
  tpcc::TpccDriver driver(&ctx, dopt);
  tpcc::DriverStats stats = driver.Run();
  EXPECT_GE(stats.committed, dopt.total_txns);

  db->StopBackground();

  // The hammer is pointless if pack never fired.
  EXPECT_GT(db->metrics_registry()->Sum("pack.rows_packed"), 0);

  ValidateReport report;
  Status v = db->ValidateInvariants(&report);
  EXPECT_TRUE(v.ok()) << v.ToString();
  EXPECT_GT(report.rows_checked, 0);
}

// Registered last so it runs after every hammer above: in debug/sanitizer
// builds the lock-order validator has watched every acquisition the whole
// suite made, and the acquisition graph must have stayed cycle-free.
TEST(ZLockOrderHygiene, NoCyclesObservedAcrossSuite) {
#if defined(BTRIM_LOCK_ORDER_CHECKS)
  auto* validator = LockOrderValidator::Global();
  EXPECT_EQ(validator->ViolationCount(), 0) << validator->Report();
#else
  GTEST_SKIP() << "BTRIM_LOCK_ORDER_CHECKS off (release build)";
#endif
}

}  // namespace
}  // namespace btrim
