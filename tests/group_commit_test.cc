// Unit tests for the GroupCommitter: policy behavior, batch formation
// under concurrency, sync accounting, and sticky IO-error poisoning.

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"
#include "wal/group_commit.h"
#include "wal/log.h"
#include "wal/log_record.h"

namespace btrim {
namespace {

std::string SerializedGroup(uint64_t txn_id, int records) {
  std::string group;
  for (int i = 0; i < records; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kImrsInsert;
    rec.txn_id = txn_id;
    rec.after = "payload-" + std::to_string(i);
    AppendLogRecord(&group, rec);
  }
  LogRecord commit;
  commit.type = LogRecordType::kImrsCommit;
  commit.txn_id = txn_id;
  AppendLogRecord(&group, commit);
  return group;
}

std::unique_ptr<Log> OpenFileLog(const std::string& path) {
  std::filesystem::remove(path);
  auto storage = FileLogStorage::Open(path);
  EXPECT_TRUE(storage.ok());
  return std::make_unique<Log>(std::move(*storage));
}

// Registers a log and its committer into `metrics` the way a Database wires
// syslogs.
void Register(obs::MetricsRegistry* metrics, const Log& log,
              const GroupCommitter& committer) {
  EXPECT_TRUE(log.RegisterMetrics(metrics, "syslogs").ok());
  EXPECT_TRUE(committer.RegisterMetrics(metrics, "syslogs").ok());
}

TEST(GroupCommitterTest, SyncPerCommitSyncsEveryGroup) {
  const std::string path = ::testing::TempDir() + "/gc_spc.log";
  std::unique_ptr<Log> log = OpenFileLog(path);
  DurabilityOptions opts;
  opts.policy = DurabilityPolicy::kSyncPerCommit;
  GroupCommitter committer(log.get(), opts);
  obs::MetricsRegistry metrics;
  Register(&metrics, *log, committer);

  for (uint64_t t = 1; t <= 4; ++t) {
    std::string group = SerializedGroup(t, 2);
    ASSERT_TRUE(committer.CommitGroup(Slice(group), 3).ok());
  }
  EXPECT_EQ(metrics.Sum("wal.syncs"), 4);
  EXPECT_EQ(metrics.Sum("commit.groups"), 4);
  EXPECT_EQ(metrics.Sum("commit.batches"), 4);
  EXPECT_EQ(metrics.Sum("commit.latency_us"), 4);  // histogram sample count
  std::filesystem::remove(path);
}

TEST(GroupCommitterTest, NoSyncAppendsWithoutSyncing) {
  auto log = std::make_unique<Log>(std::make_unique<MemLogStorage>());
  DurabilityOptions opts;
  opts.policy = DurabilityPolicy::kNoSync;
  GroupCommitter committer(log.get(), opts);
  obs::MetricsRegistry metrics;
  Register(&metrics, *log, committer);

  std::string group = SerializedGroup(1, 1);
  ASSERT_TRUE(committer.CommitGroup(Slice(group), 2).ok());
  EXPECT_EQ(metrics.Sum("wal.syncs"), 0);
  EXPECT_EQ(metrics.Sum("commit.groups"), 1);
  EXPECT_EQ(metrics.Sum("commit.batches"), 0);  // no batching machinery used
  int replayed = 0;
  ASSERT_TRUE(log->Replay([&](const LogRecord&) {
                   ++replayed;
                   return true;
                 })
                  .ok());
  EXPECT_EQ(replayed, 2);
}

TEST(GroupCommitterTest, LoneCommitterIsDurableAfterOneSync) {
  const std::string path = ::testing::TempDir() + "/gc_lone.log";
  std::unique_ptr<Log> log = OpenFileLog(path);
  DurabilityOptions opts;
  opts.policy = DurabilityPolicy::kGroupCommit;
  opts.max_batch_groups = 64;
  opts.max_group_latency_us = 100;  // short linger: no joiners will come
  GroupCommitter committer(log.get(), opts);
  obs::MetricsRegistry metrics;
  Register(&metrics, *log, committer);

  std::string group = SerializedGroup(1, 3);
  ASSERT_TRUE(committer.CommitGroup(Slice(group), 4).ok());
  EXPECT_EQ(metrics.Sum("wal.syncs"), 1);
  EXPECT_EQ(metrics.Sum("commit.batches"), 1);
  EXPECT_EQ(metrics.Sum("commit.max_batch_groups"), 1);
  std::filesystem::remove(path);
}

// The deterministic batching test: a start barrier releases all committers
// at once, and the leader's linger window is far larger than the skew with
// which they arrive, so the batch must fill to all participants before any
// sync is issued.
TEST(GroupCommitterTest, ConcurrentCommittersShareOneSync) {
  const std::string path = ::testing::TempDir() + "/gc_batch.log";
  std::unique_ptr<Log> log = OpenFileLog(path);
  constexpr int kCommitters = 8;
  DurabilityOptions opts;
  opts.policy = DurabilityPolicy::kGroupCommit;
  opts.max_batch_groups = kCommitters;
  opts.max_group_latency_us = 2'000'000;  // generous: cut short by the fill
  GroupCommitter committer(log.get(), opts);
  obs::MetricsRegistry metrics;
  Register(&metrics, *log, committer);

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kCommitters);
  for (int t = 0; t < kCommitters; ++t) {
    threads.emplace_back([&, t] {
      const std::string group =
          SerializedGroup(static_cast<uint64_t>(t + 1), 2);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (!committer.CommitGroup(Slice(group), 3).ok()) failures.fetch_add(1);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(metrics.Sum("wal.syncs"), 1);
  EXPECT_EQ(metrics.Sum("commit.groups"), kCommitters);
  EXPECT_EQ(metrics.Sum("commit.batches"), 1);
  EXPECT_EQ(metrics.Sum("commit.max_batch_groups"), kCommitters);

  // Every group replays complete and contiguous (per-txn record runs).
  int commits_seen = 0;
  uint64_t current_txn = 0;
  int run = 0;
  ASSERT_TRUE(log->Replay([&](const LogRecord& rec) {
                   if (run == 0) {
                     current_txn = rec.txn_id;
                     run = 1;
                   } else {
                     EXPECT_EQ(rec.txn_id, current_txn);
                     ++run;
                   }
                   if (rec.type == LogRecordType::kImrsCommit) {
                     EXPECT_EQ(run, 3);
                     ++commits_seen;
                     run = 0;
                   }
                   return true;
                 })
                  .ok());
  EXPECT_EQ(commits_seen, kCommitters);
  std::filesystem::remove(path);
}

// Log storage whose Sync always fails after a configurable number of
// successes; Append always succeeds.
class FailingSyncStorage : public LogStorage {
 public:
  explicit FailingSyncStorage(int allowed_syncs)
      : allowed_syncs_(allowed_syncs) {}

  Status Append(Slice data) override { return mem_.Append(data); }
  Status Sync() override {
    if (allowed_syncs_-- > 0) return Status::OK();
    return Status::IOError("injected sync failure");
  }
  Status ReadAll(std::string* out) override { return mem_.ReadAll(out); }
  Result<uint64_t> RollOver() override {
    BTRIM_RETURN_IF_ERROR(Sync());
    return mem_.RollOver();
  }
  Status DropBefore(uint64_t mark) override { return mem_.DropBefore(mark); }
  int64_t Size() const override { return mem_.Size(); }

 private:
  MemLogStorage mem_;
  int allowed_syncs_;
};

TEST(GroupCommitterTest, SyncFailurePoisonsTheCommitter) {
  auto log = std::make_unique<Log>(std::make_unique<FailingSyncStorage>(0));
  DurabilityOptions opts;
  opts.policy = DurabilityPolicy::kGroupCommit;
  opts.max_group_latency_us = 0;
  GroupCommitter committer(log.get(), opts);
  obs::MetricsRegistry metrics;
  Register(&metrics, *log, committer);

  std::string group = SerializedGroup(1, 1);
  EXPECT_TRUE(committer.CommitGroup(Slice(group), 2).IsIOError());
  // Sticky: later commits fail immediately, even though their own append
  // never ran (the log tail is no longer trustworthy).
  EXPECT_TRUE(committer.CommitGroup(Slice(group), 2).IsIOError());
  EXPECT_EQ(metrics.Sum("commit.groups"), 0);
}

TEST(GroupCommitterTest, OptionsAreSanitized) {
  auto log = std::make_unique<Log>(std::make_unique<MemLogStorage>());
  DurabilityOptions opts;
  opts.policy = DurabilityPolicy::kGroupCommit;
  opts.max_batch_groups = 0;      // clamped to 1
  opts.max_group_latency_us = -5;  // clamped to 0
  GroupCommitter committer(log.get(), opts);
  obs::MetricsRegistry metrics;
  Register(&metrics, *log, committer);
  std::string group = SerializedGroup(1, 1);
  ASSERT_TRUE(committer.CommitGroup(Slice(group), 2).ok());
  EXPECT_EQ(metrics.Sum("commit.batches"), 1);
}

}  // namespace
}  // namespace btrim
