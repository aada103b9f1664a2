// Unit tests for the deterministic fault-injection layer: FaultPlan
// scripting, the FaultyDevice / FaultyLogStorage decorators, error
// propagation through the buffer cache and Log, and the stats contracts
// under injected failures (only operations that succeed end-to-end count).

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_plan.h"
#include "engine/database.h"
#include "obs/metrics_registry.h"
#include "page/buffer_cache.h"
#include "page/device.h"
#include "page/faulty_device.h"
#include "testing/test_util.h"
#include "wal/faulty_log_storage.h"
#include "wal/log.h"
#include "wal/log_record.h"

namespace btrim {
namespace {

// --- FaultPlan --------------------------------------------------------------

/// Registers `plan`'s injection counters under the names Database uses.
void RegisterPlan(const FaultPlan& plan, obs::MetricsRegistry* metrics) {
  ASSERT_TRUE(metrics
                  ->RegisterCounter("fault.errors_injected", {},
                                    plan.errors_injected())
                  .ok());
  ASSERT_TRUE(
      metrics->RegisterCounter("fault.torn_writes", {}, plan.torn_writes())
          .ok());
}

TEST(FaultPlanTest, OpIndexingIsGlobalAcrossTargets) {
  FaultPlan plan(1);
  EXPECT_EQ(plan.OnOp("a", FaultOp::kWrite), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("b", FaultOp::kSync), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("a", FaultOp::kRead), FaultOutcome::kNone);
  EXPECT_EQ(plan.ops_seen(), 3u);
}

TEST(FaultPlanTest, FailAtOpFiresExactlyOnce) {
  FaultPlan plan(1);
  obs::MetricsRegistry metrics;
  RegisterPlan(plan, &metrics);
  plan.FailAtOp(1);
  EXPECT_EQ(plan.OnOp("x", FaultOp::kWrite), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("x", FaultOp::kWrite), FaultOutcome::kError);
  EXPECT_EQ(plan.OnOp("x", FaultOp::kWrite), FaultOutcome::kNone);
  EXPECT_EQ(metrics.Sum("fault.errors_injected"), 1);
}

TEST(FaultPlanTest, CrashIsSticky) {
  FaultPlan plan(1);
  plan.CrashAtOp(0);
  EXPECT_EQ(plan.OnOp("x", FaultOp::kSync), FaultOutcome::kCrash);
  EXPECT_TRUE(plan.crashed());
}

TEST(FaultPlanTest, FailNthFiltersByOpKindAndTarget) {
  FaultPlan plan(1);
  plan.FailNth(FaultOp::kWrite, "heap", 2);
  // Non-matching kind and target never advance the trigger.
  EXPECT_EQ(plan.OnOp("kv.heap0.3", FaultOp::kRead), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("kv.pk.1", FaultOp::kWrite), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("kv.heap0.3", FaultOp::kWrite), FaultOutcome::kNone);
  EXPECT_EQ(plan.OnOp("kv.heap0.3", FaultOp::kWrite), FaultOutcome::kError);
  EXPECT_EQ(plan.OnOp("kv.heap0.3", FaultOp::kWrite), FaultOutcome::kNone);
}

TEST(FaultPlanTest, SameSeedSameOutcomes) {
  auto run = [](uint64_t seed) {
    FaultPlan plan(seed);
    plan.SetErrorProbability(FaultOp::kWrite, 0.3);
    std::string outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(
          plan.OnOp("t", FaultOp::kWrite) == FaultOutcome::kNone ? '.' : 'E');
    }
    return outcomes;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and the seed actually matters
}

TEST(FaultPlanTest, TraceRecordsOpsAndTargets) {
  FaultPlan plan(1);
  plan.EnableTrace(true);
  plan.OnOp("syslogs", FaultOp::kAppend);
  plan.OnOp("kv.heap0.3", FaultOp::kSync);
  std::vector<TraceEntry> trace = plan.Trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].op, FaultOp::kAppend);
  EXPECT_EQ(trace[0].target, "syslogs");
  EXPECT_EQ(trace[1].op, FaultOp::kSync);
  EXPECT_EQ(trace[1].target, "kv.heap0.3");
}

// --- FaultyDevice -----------------------------------------------------------

// device.* labels of the decorator and of the device it wraps.
const obs::MetricLabels kFaulty{"faulty", "", "", ""};
const obs::MetricLabels kInner{"inner", "", "", ""};

/// A FaultyDevice over a MemDevice, both registered into `metrics`.
std::unique_ptr<FaultyDevice> MakeDevice(std::shared_ptr<FaultPlan> plan,
                                         MemDevice** inner_out,
                                         obs::MetricsRegistry* metrics) {
  auto inner = std::make_unique<MemDevice>();
  *inner_out = inner.get();
  EXPECT_TRUE(inner->RegisterMetrics(metrics, kInner).ok());
  auto dev = std::make_unique<FaultyDevice>(std::move(inner), std::move(plan),
                                            "dev");
  EXPECT_TRUE(dev->RegisterMetrics(metrics, kFaulty).ok());
  return dev;
}

TEST(FaultyDeviceTest, WritesPendUntilSyncAndReadsSeeThem) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  obs::MetricsRegistry metrics;
  auto dev = MakeDevice(plan, &inner, &metrics);

  std::string page(kPageSize, 'A');
  ASSERT_TRUE(dev->WritePage(0, page.data()).ok());
  EXPECT_EQ(dev->PendingPages(), 1u);
  // Nothing durable yet, but addressable in-process.
  EXPECT_EQ(metrics.Sum("device.page_writes", kInner), 0);
  EXPECT_EQ(dev->NumPages(), 1u);

  std::string buf(kPageSize, '\0');
  ASSERT_TRUE(dev->ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf, page);  // read-your-writes through the OS-cache model

  ASSERT_TRUE(dev->Sync().ok());
  EXPECT_EQ(dev->PendingPages(), 0u);
  EXPECT_GT(metrics.Sum("device.page_writes", kInner), 0);
  ASSERT_TRUE(inner->ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf, page);
}

TEST(FaultyDeviceTest, CrashDiscardsUnsyncedWrites) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  obs::MetricsRegistry metrics;
  auto dev = MakeDevice(plan, &inner, &metrics);

  std::string page(kPageSize, 'A');
  ASSERT_TRUE(dev->WritePage(0, page.data()).ok());  // op 0
  plan->CrashAtOp(1);
  EXPECT_FALSE(dev->Sync().ok());  // op 1: crash mid-sync
  EXPECT_TRUE(plan->crashed());
  // The write never reached the inner device, and the decorator is dead.
  EXPECT_EQ(metrics.Sum("device.page_writes", kInner), 0);
  EXPECT_FALSE(dev->WritePage(0, page.data()).ok());
  EXPECT_FALSE(dev->ReadPage(0, page.data()).ok());
}

TEST(FaultyDeviceTest, InjectedWriteErrorHasNoSideEffects) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  obs::MetricsRegistry metrics;
  auto dev = MakeDevice(plan, &inner, &metrics);

  plan->FailAtOp(0);
  std::string page(kPageSize, 'A');
  EXPECT_FALSE(dev->WritePage(0, page.data()).ok());
  EXPECT_EQ(dev->PendingPages(), 0u);
  // Failed operations never count toward traffic stats.
  EXPECT_EQ(metrics.Sum("device.page_writes", kFaulty), 0);

  ASSERT_TRUE(dev->WritePage(0, page.data()).ok());  // next attempt succeeds
  EXPECT_EQ(metrics.Sum("device.page_writes", kFaulty), 1);
}

TEST(FaultyDeviceTest, TornWriteAppliesPartialSectorImage) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  obs::MetricsRegistry metrics;
  auto dev = MakeDevice(plan, &inner, &metrics);

  plan->TornWriteAtOp(0);
  std::string page(kPageSize, 'A');
  EXPECT_FALSE(dev->WritePage(0, page.data()).ok());
  obs::MetricsRegistry plan_metrics;
  RegisterPlan(*plan, &plan_metrics);
  EXPECT_EQ(plan_metrics.Sum("fault.torn_writes"), 1);

  // The pending image holds a sector-granular mix of the new bytes ('A')
  // and the base image (zeroes) — never all of one or the other.
  std::string buf(kPageSize, '\xee');
  ASSERT_TRUE(dev->ReadPage(0, buf.data()).ok());
  size_t new_bytes = 0, old_bytes = 0;
  for (char c : buf) {
    if (c == 'A') ++new_bytes;
    else if (c == '\0') ++old_bytes;
    else FAIL() << "unexpected byte in torn image";
  }
  EXPECT_GT(new_bytes, 0u);
  EXPECT_GT(old_bytes, 0u);
  EXPECT_EQ(new_bytes % 512, 0u);  // sector granularity
}

TEST(FaultyDeviceTest, FailedSyncKeepsWritesPendingAndUncounted) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  obs::MetricsRegistry metrics;
  auto dev = MakeDevice(plan, &inner, &metrics);

  std::string page(kPageSize, 'A');
  ASSERT_TRUE(dev->WritePage(0, page.data()).ok());  // op 0
  plan->FailAtOp(1);
  EXPECT_FALSE(dev->Sync().ok());  // op 1
  EXPECT_EQ(metrics.Sum("device.syncs", kFaulty), 0);
  EXPECT_EQ(dev->PendingPages(), 1u);  // still pending, not lost

  ASSERT_TRUE(dev->Sync().ok());  // retry succeeds
  EXPECT_EQ(metrics.Sum("device.syncs", kFaulty), 1);
  EXPECT_EQ(dev->PendingPages(), 0u);
  std::string buf(kPageSize, '\0');
  ASSERT_TRUE(inner->ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf, page);
}

// --- FaultyLogStorage -------------------------------------------------------

TEST(FaultyLogStorageTest, AppendsPendUntilSync) {
  auto plan = std::make_shared<FaultPlan>(1);
  auto inner = std::make_unique<MemLogStorage>();
  MemLogStorage* raw = inner.get();
  FaultyLogStorage storage(std::move(inner), plan, "log");

  ASSERT_TRUE(storage.Append("hello ").ok());
  ASSERT_TRUE(storage.Append("world").ok());
  EXPECT_EQ(storage.PendingBytes(), 11);
  EXPECT_EQ(raw->Size(), 0);
  EXPECT_EQ(storage.Size(), 11);  // in-process view includes the tail
  std::string content;
  ASSERT_TRUE(storage.ReadAll(&content).ok());
  EXPECT_EQ(content, "hello world");

  ASSERT_TRUE(storage.Sync().ok());
  EXPECT_EQ(storage.PendingBytes(), 0);
  EXPECT_EQ(raw->Size(), 11);
}

TEST(FaultyLogStorageTest, CrashLeavesSeededTornPrefixOfTail) {
  auto plan = std::make_shared<FaultPlan>(3);
  auto inner = std::make_unique<MemLogStorage>();
  MemLogStorage* raw = inner.get();
  FaultyLogStorage storage(std::move(inner), plan, "log");

  const std::string tail = "0123456789abcdef";
  ASSERT_TRUE(storage.Append(tail).ok());  // op 0
  plan->CrashAtOp(1);
  EXPECT_FALSE(storage.Sync().ok());  // op 1: crash mid-fsync

  // What reached the inner storage is some prefix of the un-synced tail —
  // the sectors of the in-flight write that hit the platter.
  std::string durable;
  ASSERT_TRUE(raw->ReadAll(&durable).ok());
  EXPECT_LE(durable.size(), tail.size());
  EXPECT_EQ(durable, tail.substr(0, durable.size()));
  EXPECT_FALSE(storage.Append("more").ok());  // decorator is dead
}

// A crash during a rollover tears the pending tail; on some seeds the
// rename is durable too, so the torn bytes end the newest archive instead
// of the active segment. Recovery must accept both, keep every synced
// record, and let the restarted log append where the next replay finds it.
TEST(FaultyLogStorageTest, CrashMidRollOverRecoversWhereverTheTailLands) {
  const std::string dir = testing::ScratchPath("btrim_fault_rollover");
  auto record = [](uint64_t txn) {
    LogRecord rec;
    rec.type = LogRecordType::kPsCommit;
    rec.txn_id = txn;
    rec.after = std::string(64, 'x');
    return rec;
  };
  auto replay = [](Log* log) {
    std::vector<uint64_t> seen;
    Status s = log->Replay([&](const LogRecord& rec) {
      seen.push_back(rec.txn_id);
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return seen;
  };
  int renamed = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/syslogs.wal";
    {
      auto plan = std::make_shared<FaultPlan>(seed);
      auto inner = FileLogStorage::Open(path);
      ASSERT_TRUE(inner.ok());
      Log log(std::make_unique<FaultyLogStorage>(std::move(*inner), plan,
                                                 "syslogs"));
      ASSERT_TRUE(log.AppendRecord(record(1)).ok());  // op 0
      ASSERT_TRUE(log.Commit().ok());                  // op 1
      ASSERT_TRUE(log.AppendRecord(record(2)).ok());  // op 2
      plan->CrashAtOp(3);
      EXPECT_FALSE(log.RollOver().ok());
    }
    renamed += std::filesystem::exists(dir + "/syslogs.1.wal");
    {
      auto storage = FileLogStorage::Open(path);
      ASSERT_TRUE(storage.ok());
      Log log(std::move(*storage));
      const std::vector<uint64_t> seen = replay(&log);
      ASSERT_FALSE(seen.empty()) << seed;
      EXPECT_EQ(seen.front(), 1u) << seed;
      ASSERT_TRUE(log.AppendRecord(record(3)).ok());
      ASSERT_TRUE(log.Commit().ok());
    }
    auto storage = FileLogStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    Log log(std::move(*storage));
    const std::vector<uint64_t> seen = replay(&log);
    ASSERT_FALSE(seen.empty()) << seed;
    EXPECT_EQ(seen.front(), 1u) << seed;
    EXPECT_EQ(seen.back(), 3u) << seed;
  }
  // Both landings occur across the seeds.
  EXPECT_GT(renamed, 0);
  EXPECT_LT(renamed, 16);
  std::filesystem::remove_all(dir);
}

TEST(LogPoisoningTest, FailedAppendPoisonsTheLog) {
  auto plan = std::make_shared<FaultPlan>(1);
  auto faulty = std::make_unique<FaultyLogStorage>(
      std::make_unique<MemLogStorage>(), plan, "log");
  Log log(std::move(faulty));
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(log.RegisterMetrics(&metrics, "syslogs").ok());

  plan->FailNth(FaultOp::kAppend, "", 1);
  LogRecord rec;
  rec.type = LogRecordType::kPsCommit;
  rec.txn_id = 1;
  EXPECT_FALSE(log.AppendRecord(rec).ok());
  EXPECT_TRUE(log.poisoned());
  EXPECT_EQ(metrics.Sum("wal.append_failures"), 1);
  EXPECT_EQ(metrics.Sum("wal.records_appended"), 0);

  // Every later operation fails with the sticky poison status without
  // reaching the storage: garbage may sit in the tail, and appending after
  // it would make the records unreachable by replay.
  const uint64_t ops_before = plan->ops_seen();
  EXPECT_FALSE(log.AppendRecord(rec).ok());
  EXPECT_FALSE(log.Commit().ok());
  EXPECT_FALSE(log.RollOver().ok());
  EXPECT_FALSE(log.DropBefore(0).ok());
  EXPECT_EQ(plan->ops_seen(), ops_before);
  // Counted once, at the cause.
  EXPECT_EQ(metrics.Sum("wal.append_failures"), 1);
}

TEST(LogPoisoningTest, FailedSyncPoisonsAndNeverElidesLater) {
  auto plan = std::make_shared<FaultPlan>(1);
  auto faulty = std::make_unique<FaultyLogStorage>(
      std::make_unique<MemLogStorage>(), plan, "log");
  Log log(std::move(faulty));
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(log.RegisterMetrics(&metrics, "syslogs").ok());

  LogRecord rec;
  rec.type = LogRecordType::kPsCommit;
  rec.txn_id = 1;
  ASSERT_TRUE(log.AppendRecord(rec).ok());
  plan->FailNth(FaultOp::kSync, "", 1);
  EXPECT_FALSE(log.Commit().ok());
  EXPECT_EQ(metrics.Sum("wal.sync_failures"), 1);
  EXPECT_EQ(metrics.Sum("wal.syncs"), 0);

  // fsyncgate: a retried Commit must NOT succeed (or be elided as clean) —
  // the storage tail's durability is indeterminate after a failed fsync.
  EXPECT_FALSE(log.Commit().ok());
  EXPECT_EQ(metrics.Sum("wal.syncs"), 0);
  EXPECT_EQ(metrics.Sum("wal.syncs_elided"), 0);
}

// --- BufferCache propagation ------------------------------------------------

TEST(BufferCacheFaultTest, FlushAllPropagatesWriteError) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  obs::MetricsRegistry metrics;
  auto dev = MakeDevice(plan, &inner, &metrics);
  BufferCache cache(4);
  cache.AttachDevice(0, dev.get());
  ASSERT_TRUE(cache.RegisterMetrics(&metrics, "page").ok());

  {
    Result<PageGuard> guard =
        cache.FixPage(PageId{0, 0}, LatchMode::kExclusive);
    ASSERT_TRUE(guard.ok());
    memset(guard->data(), 'A', kPageSize);
    guard->MarkDirty();
  }
  plan->FailNth(FaultOp::kWrite, "", 1);
  EXPECT_FALSE(cache.FlushAll().ok());
  EXPECT_EQ(metrics.Sum("buffer_cache.write_failures"), 1);

  // The frame stayed dirty, so a retry makes the page durable: EIO is an
  // error, never data loss.
  ASSERT_TRUE(cache.FlushAll().ok());
  ASSERT_TRUE(dev->Sync().ok());
  std::string buf(kPageSize, '\0');
  ASSERT_TRUE(inner->ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf, std::string(kPageSize, 'A'));
}

TEST(BufferCacheFaultTest, EvictionWriteBackFailureSurfacesAndPreservesData) {
  auto plan = std::make_shared<FaultPlan>(1);
  MemDevice* inner = nullptr;
  obs::MetricsRegistry metrics;
  auto dev = MakeDevice(plan, &inner, &metrics);
  BufferCache cache(1);  // one frame: any second page forces eviction
  cache.AttachDevice(0, dev.get());
  ASSERT_TRUE(cache.RegisterMetrics(&metrics, "page").ok());

  {
    Result<PageGuard> guard =
        cache.FixPage(PageId{0, 0}, LatchMode::kExclusive);
    ASSERT_TRUE(guard.ok());
    memset(guard->data(), 'A', kPageSize);
    guard->MarkDirty();
  }
  plan->FailNth(FaultOp::kWrite, "", 1);
  // Fixing another page needs the only frame; the dirty victim's write-back
  // fails and the fix reports it instead of dropping the data.
  EXPECT_FALSE(cache.FixPage(PageId{0, 1}, LatchMode::kShared).ok());
  EXPECT_EQ(metrics.Sum("buffer_cache.write_failures"), 1);

  // Once the device recovers, the same fix succeeds and the victim's bytes
  // survive the round trip.
  ASSERT_TRUE(cache.FixPage(PageId{0, 1}, LatchMode::kShared).ok());
  {
    Result<PageGuard> guard = cache.FixPage(PageId{0, 0}, LatchMode::kShared);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], 'A');
    EXPECT_EQ(guard->data()[kPageSize - 1], 'A');
  }
}

// --- engine commit ----------------------------------------------------------

// A commit whose sysimrslogs group append fails rolls its write set back
// before its locks are released: the transaction ends aborted, none of its
// writes is visible, and the next transaction gets the row lock at once.
TEST(CommitFaultTest, FailedGroupAppendRollsBackBeforeLocksGo) {
  auto plan = std::make_shared<FaultPlan>(1);
  DatabaseOptions options;
  options.buffer_cache_frames = 256;
  options.imrs_cache_bytes = 8 << 20;
  options.lock_timeout_ms = 100;
  options.fault_plan = plan;
  Result<std::unique_ptr<Database>> opened = Database::Open(options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Database> db = std::move(*opened);
  TableOptions topt;
  topt.name = "kv";
  topt.schema = Schema({Column::Int64("id"), Column::String("value", 32)});
  topt.primary_key = {0};
  Result<Table*> created = db->CreateTable(topt);
  ASSERT_TRUE(created.ok());
  Table* table = *created;
  auto record = [&](int64_t id, const std::string& value) {
    RecordBuilder b(&table->schema());
    b.AddInt64(id).AddString(value);
    return b.Finish().ToString();
  };
  auto key = [&](int64_t id) { return table->pk_encoder().KeyForInts({id}); };
  {
    auto txn = db->Begin();
    ASSERT_TRUE(db->Insert(txn.get(), table, record(1, "original")).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  const obs::MetricsRegistry& m = *db->metrics_registry();
  const int64_t imrs_bytes = m.Sum("partition.imrs_bytes");
  const int64_t imrs_rows = m.Sum("partition.imrs_rows");

  auto txn = db->Begin();
  ASSERT_TRUE(db->Insert(txn.get(), table, record(2, "never")).ok());
  ASSERT_TRUE(db->Update(txn.get(), table, key(1), [&](std::string* payload) {
                  *payload = record(1, "changed");
                }).ok());
  plan->FailNth(FaultOp::kAppend, "sysimrslogs", 1);
  Status s = db->Commit(txn.get());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_EQ(db->metrics_registry()->Sum("fault.errors_injected"), 1);

  auto next = db->Begin();
  const Rid rid = Rid::Decode(*table->primary_index()->Search(key(1)));
  EXPECT_TRUE(next->TryAcquireLock(rid.Encode(), LockMode::kExclusive).ok());
  std::string row;
  EXPECT_TRUE(db->SelectByKey(next.get(), table, key(2), &row).IsNotFound());
  ASSERT_TRUE(db->SelectByKey(next.get(), table, key(1), &row).ok());
  EXPECT_EQ(row, record(1, "original"));
  ASSERT_TRUE(db->Abort(next.get()).ok());
  EXPECT_EQ(m.Sum("partition.imrs_bytes"), imrs_bytes);
  EXPECT_EQ(m.Sum("partition.imrs_rows"), imrs_rows);
  Status valid = db->ValidateInvariants();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

}  // namespace
}  // namespace btrim
