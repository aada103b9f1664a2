// Concurrency tests for the overlapped (non-quiescent) checkpoint: writers
// keep committing while the checkpointer walks its snapshot, pack and GC
// keep evicting rows through the copy-on-write stash, and back-to-back
// checkpoints reuse the machinery without leaking arming state. Sized for
// TSan (ctest -L stress runs this suite under the tsan preset); the lock
// hierarchy is asserted in-suite via the lock-order validator.
//
// The correctness claims exercised here:
//   - commits are never lost or torn by a concurrent checkpoint: after the
//     writers join, every acknowledged value reads back exactly, both live
//     and after a crash + recovery over the checkpointed logs;
//   - checkpoint vs. pack/GC arbitration: whole-row evictions during the
//     snapshot walk stash their pre-image, so recovery from a checkpoint
//     taken mid-eviction still surfaces every snapshot-era row;
//   - the foreground pause is bounded to the begin barrier: the checkpoint
//     metrics expose it, and it must be a small fraction of the total
//     checkpoint duration even under write load.

#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/lock_order.h"
#include "engine/database.h"
#include "testing/test_util.h"

namespace btrim {
namespace {

class CheckpointConcurrentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::ScratchPath(
        std::string("btrim_ckpt_concurrent_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
#if defined(BTRIM_LOCK_ORDER_CHECKS)
    LockOrderValidator::Global()->ResetForTest();
#endif
  }
  void TearDown() override {
#if defined(BTRIM_LOCK_ORDER_CHECKS)
    // Every acquisition in the test fed the global validator; the overlap
    // of checkpoint, writers, pack, and GC must not create rank cycles.
    auto* validator = LockOrderValidator::Global();
    EXPECT_EQ(validator->ViolationCount(), 0) << validator->Report();
#endif
    db_.reset();
    if (!::testing::Test::HasFailure()) {
      std::filesystem::remove_all(dir_);
    }
  }

  DatabaseOptions Options(bool tiny_imrs) {
    DatabaseOptions options;
    options.in_memory = false;
    options.data_dir = dir_;
    options.buffer_cache_frames = 128;
    options.lock_timeout_ms = 2000;
    if (tiny_imrs) {
      // Starves the IMRS so pack and GC evict aggressively while the
      // checkpointer walks — the CoW stash path gets real traffic.
      options.imrs_cache_bytes = 96 << 10;
      options.ilm.steady_cache_pct = 0.01;
      options.ilm.aggressive_fraction = 0.05;
      options.ilm.pack_batch_rows = 16;
    } else {
      options.imrs_cache_bytes = 8 << 20;
    }
    return options;
  }

  void Open(const DatabaseOptions& options, bool recover) {
    db_.reset();
    Result<std::unique_ptr<Database>> opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
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
    if (recover) {
      ASSERT_TRUE(db_->Recover().ok());
    }
  }

  std::string Key(int64_t id) { return table_->pk_encoder().KeyForInts({id}); }

  Status WriteRow(int64_t id, const std::string& value) {
    auto txn = db_->Begin();
    std::string row;
    Status probe = db_->SelectByKey(txn.get(), table_, Key(id), &row);
    Status s;
    if (probe.IsNotFound()) {
      RecordBuilder b(&table_->schema());
      b.AddInt64(id).AddInt64(id % 5).AddString(value);
      s = db_->Insert(txn.get(), table_, b.Finish());
    } else if (probe.ok()) {
      s = db_->Update(txn.get(), table_, Key(id),
                      [&](RowEditor& e) { e.SetString(2, value); });
    } else {
      s = probe;
    }
    if (!s.ok()) {
      Status a = db_->Abort(txn.get());
      (void)a;
      return s;
    }
    return db_->Commit(txn.get());
  }

  Result<std::string> ReadValue(int64_t id) {
    auto txn = db_->Begin();
    std::string row;
    Status s = db_->SelectByKey(txn.get(), table_, Key(id), &row);
    Status c = db_->Commit(txn.get());
    (void)c;
    if (!s.ok()) return s;
    RecordView v(&table_->schema(), Slice(row));
    return v.GetString(2).ToString();
  }

  /// Runs `writers` threads (disjoint key ranges, each key rewritten in
  /// rounds) concurrently with `body` on the calling thread. Returns the
  /// final committed value per key.
  std::map<int64_t, std::string> RunWritersAround(
      int writers, int keys_per_writer, int rounds,
      const std::function<void()>& body) {
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        for (int r = 0; r < rounds && !failed.load(); ++r) {
          for (int k = 0; k < keys_per_writer; ++k) {
            const int64_t id = w * 100000 + k;
            Status s =
                WriteRow(id, "w" + std::to_string(w) + "r" + std::to_string(r));
            if (!s.ok() && !s.IsBusy()) {
              ADD_FAILURE() << "writer " << w << " round " << r << " key "
                            << id << ": " << s.ToString();
              failed.store(true);
              return;
            }
          }
        }
      });
    }
    body();
    for (auto& t : threads) t.join();

    std::map<int64_t, std::string> expect;
    const std::string last = "r" + std::to_string(rounds - 1);
    for (int w = 0; w < writers; ++w) {
      for (int k = 0; k < keys_per_writer; ++k) {
        expect[w * 100000 + k] = "w" + std::to_string(w) + last;
      }
    }
    return expect;
  }

  void VerifyAll(const std::map<int64_t, std::string>& expect) {
    for (const auto& [id, value] : expect) {
      Result<std::string> v = ReadValue(id);
      ASSERT_TRUE(v.ok()) << "key " << id << ": " << v.status().ToString();
      EXPECT_EQ(*v, value) << "key " << id;
    }
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

// Writers vs. checkpointer: commits flow while checkpoints run; every
// acknowledged value must read back, live and across a crash.
TEST_F(CheckpointConcurrentTest, WritersCommitThroughCheckpoints) {
  const DatabaseOptions options = Options(/*tiny_imrs=*/false);
  Open(options, false);

  int completed = 0;
  auto expect = RunWritersAround(4, 40, 6, [&] {
    for (int c = 0; c < 5; ++c) {
      Status s = db_->Checkpoint();
      EXPECT_TRUE(s.ok() || s.IsBusy()) << s.ToString();
      if (s.ok()) ++completed;
    }
  });
  EXPECT_GT(completed, 0) << "no checkpoint overlapped the write load";
  VerifyAll(expect);
  EXPECT_TRUE(db_->ValidateInvariants().ok());

  // The checkpoint is non-quiescent, not non-durable: a crash recovered
  // over the checkpointed logs must surface the same final state.
  Open(options, true);
  VerifyAll(expect);
  EXPECT_TRUE(db_->ValidateInvariants().ok());
}

// Checkpoint vs. pack/GC: a starved IMRS forces whole-row evictions during
// the snapshot walk, driving StashCheckpointPreImage. The stash counter
// proves the path ran; recovery proves the stashed pre-images land.
TEST_F(CheckpointConcurrentTest, CheckpointSurvivesConcurrentPackAndGc) {
  const DatabaseOptions options = Options(/*tiny_imrs=*/true);
  Open(options, false);

  std::atomic<bool> stop{false};
  std::thread background([&] {
    while (!stop.load(std::memory_order_acquire)) {
      db_->RunGcOnce();
      db_->RunIlmTickOnce();
    }
  });

  int completed = 0;
  auto expect = RunWritersAround(3, 60, 5, [&] {
    for (int c = 0; c < 6; ++c) {
      Status s = db_->Checkpoint();
      EXPECT_TRUE(s.ok() || s.IsBusy()) << s.ToString();
      if (s.ok()) ++completed;
    }
  });
  stop.store(true, std::memory_order_release);
  background.join();

  EXPECT_GT(completed, 0);
  VerifyAll(expect);
  EXPECT_TRUE(db_->ValidateInvariants().ok());

  Open(options, true);
  VerifyAll(expect);
  EXPECT_TRUE(db_->ValidateInvariants().ok());
}

// Back-to-back checkpoints: the arming/drain cycle must leave no residue —
// each checkpoint sees a fresh stash and a fresh pin slot, and the recovery
// rebase picks the newest complete pair.
TEST_F(CheckpointConcurrentTest, BackToBackCheckpointsStayClean) {
  const DatabaseOptions options = Options(/*tiny_imrs=*/false);
  Open(options, false);

  std::map<int64_t, std::string> expect;
  for (int round = 0; round < 6; ++round) {
    for (int64_t id = 0; id < 30; ++id) {
      const std::string value = "round" + std::to_string(round);
      ASSERT_TRUE(WriteRow(id, value).ok());
      expect[id] = value;
    }
    ASSERT_TRUE(db_->Checkpoint().ok()) << "round " << round;
  }
  VerifyAll(expect);

  Open(options, true);
  VerifyAll(expect);
  EXPECT_TRUE(db_->ValidateInvariants().ok());
}

// The begin barrier is the only foreground stall: under write load the
// recorded pause must be a small fraction of the whole checkpoint (the
// quiescent design it replaced stalled commits for the full duration).
TEST_F(CheckpointConcurrentTest, PauseIsFractionOfCheckpointDuration) {
  const DatabaseOptions options = Options(/*tiny_imrs=*/false);
  Open(options, false);

  // Enough rows that the snapshot walk takes measurably longer than the
  // barrier.
  for (int64_t id = 0; id < 3000; ++id) {
    ASSERT_TRUE(WriteRow(id, "bulk-" + std::to_string(id)).ok());
  }

  auto expect = RunWritersAround(2, 30, 4, [&] {
    Status s = db_->Checkpoint();
    EXPECT_TRUE(s.ok()) << s.ToString();
  });

  const obs::MetricLabels labels{"checkpoint", "", "", ""};
  obs::MetricSample pause_sample, total_sample;
  ASSERT_TRUE(db_->metrics_registry()->Lookup("checkpoint.last_pause_us",
                                              labels, &pause_sample));
  ASSERT_TRUE(db_->metrics_registry()->Lookup("checkpoint.last_total_us",
                                              labels, &total_sample));
  const int64_t pause_us = pause_sample.value;
  const int64_t total_us = total_sample.value;
  EXPECT_GT(total_us, 0);
  // Generous in-suite bound (the CI perf gate pins the real ratio): the
  // pause may not dominate the checkpoint.
  EXPECT_LT(pause_us, total_us / 2 + 1000)
      << "begin-barrier pause " << pause_us << "us vs total " << total_us
      << "us";
  VerifyAll(expect);
}

}  // namespace
}  // namespace btrim
