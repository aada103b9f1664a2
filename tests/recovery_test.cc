// Crash-recovery tests: the dual-log redo-undo / redo-only protocol of
// paper Sec. II, exercised with file-backed devices and logs. "Crash" =
// destroy the Database object without checkpointing, reopen over the same
// files, re-create the catalog, and Recover().

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "testing/test_util.h"
#include "wal/log_record.h"

namespace btrim {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::ScratchPath(
        std::string("btrim_recovery_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  DatabaseOptions DefaultOptions() {
    DatabaseOptions options;
    options.in_memory = false;
    options.data_dir = dir_;
    options.buffer_cache_frames = 256;
    options.imrs_cache_bytes = 8 << 20;
    options.lock_timeout_ms = 100;
    return options;
  }

  /// Opens (or reopens) the database over the same directory and recreates
  /// the catalog. `recover` triggers log replay.
  void Open(bool recover, DatabaseOptions options = {}) {
    db_.reset();  // close the previous instance first (releases fds)
    if (options.data_dir.empty()) options = DefaultOptions();
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
    topt.secondary_indexes.push_back(IndexDef{"by_group", {1, 0}, false});
    Result<Table*> created = db_->CreateTable(topt);
    ASSERT_TRUE(created.ok());
    table_ = *created;

    if (recover) {
      ASSERT_TRUE(db_->Recover().ok());
    }
  }

  std::string Key(int64_t id) { return table_->pk_encoder().KeyForInts({id}); }

  std::string Record(int64_t id, int64_t group, const std::string& value) {
    RecordBuilder b(&table_->schema());
    b.AddInt64(id).AddInt64(group).AddString(value);
    return b.Finish().ToString();
  }

  Status InsertRow(int64_t id, const std::string& value) {
    auto txn = db_->Begin();
    Status s = db_->Insert(txn.get(), table_, Record(id, 1, value));
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

  Status UpdateValue(int64_t id, const std::string& value) {
    auto txn = db_->Begin();
    Status s = db_->Update(txn.get(), table_, Key(id),
                           [&](std::string* payload) {
                             RecordEditor e(&table_->schema(),
                                            Slice(*payload));
                             e.SetString(2, value);
                             *payload = e.Encode();
                           });
    if (!s.ok()) {
      Status a = db_->Abort(txn.get());
      (void)a;
      return s;
    }
    return db_->Commit(txn.get());
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_F(RecoveryTest, CommittedImrsInsertsSurviveCrash) {
  Open(false);
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(InsertRow(i, "imrs-" + std::to_string(i)).ok());
  }
  // Crash without any flush: the IMRS contents exist only in sysimrslogs.
  Open(true);
  for (int64_t i = 0; i < 50; ++i) {
    Result<std::string> v = ReadValue(i);
    ASSERT_TRUE(v.ok()) << "row " << i;
    EXPECT_EQ(*v, "imrs-" + std::to_string(i));
  }
  // Recovered rows are IMRS-resident again (redo-only replay).
  EXPECT_EQ(db_->rid_map()->Size(), 50);
}

TEST_F(RecoveryTest, CommittedPageStoreInsertsSurviveCrash) {
  Open(false);
  db_->ilm()->SetForcePageStore(true);
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(InsertRow(i, "ps-" + std::to_string(i)).ok());
  }
  Open(true);
  EXPECT_EQ(db_->rid_map()->Size(), 0);  // page-store rows stay there
  for (int64_t i = 0; i < 50; ++i) {
    Result<std::string> v = ReadValue(i);
    ASSERT_TRUE(v.ok()) << "row " << i;
    EXPECT_EQ(*v, "ps-" + std::to_string(i));
  }
  // (Point reads above may have *cached* rows back into the IMRS — that is
  // the select-caching admission path working as designed.)
}

TEST_F(RecoveryTest, UpdatesRecoverToLatestCommittedVersion) {
  Open(false);
  ASSERT_TRUE(InsertRow(1, "v1").ok());
  ASSERT_TRUE(UpdateValue(1, "v2").ok());
  ASSERT_TRUE(UpdateValue(1, "v3").ok());
  Open(true);
  EXPECT_EQ(*ReadValue(1), "v3");
}

TEST_F(RecoveryTest, CommittedDeleteStaysDeleted) {
  Open(false);
  ASSERT_TRUE(InsertRow(1, "doomed").ok());
  ASSERT_TRUE(InsertRow(2, "keeper").ok());
  {
    auto txn = db_->Begin();
    ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(1)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  Open(true);
  EXPECT_TRUE(ReadValue(1).status().IsNotFound());
  EXPECT_EQ(*ReadValue(2), "keeper");
}

TEST_F(RecoveryTest, UncommittedTransactionIsInvisibleAfterCrash) {
  Open(false);
  ASSERT_TRUE(InsertRow(1, "committed").ok());
  // Leave a transaction in flight at "crash" time: never committed or
  // aborted, only destroyed at test end (LeakSanitizer-clean). IMRS changes
  // are buffered until commit, so nothing of it reaches the log.
  auto loser = db_->Begin();
  ASSERT_TRUE(db_->Insert(loser.get(), table_, Record(99, 1, "loser")).ok());
  Open(true);
  EXPECT_EQ(*ReadValue(1), "committed");
  EXPECT_TRUE(ReadValue(99).status().IsNotFound());
}

TEST_F(RecoveryTest, LoserPageStoreChangesAreUndone) {
  Open(false);
  db_->ilm()->SetForcePageStore(true);
  ASSERT_TRUE(InsertRow(1, "stable").ok());

  // A page-store update whose transaction never commits, but whose dirty
  // page reaches disk (simulated by flushing the buffer cache
  // mid-transaction — the "steal" case recovery must undo).
  auto loser = db_->Begin();  // in flight at "crash"; never finished
  ASSERT_TRUE(db_->Update(loser.get(), table_, Key(1),
                          [&](std::string* payload) {
                            RecordEditor e(&table_->schema(), Slice(*payload));
                            e.SetString(2, "dirty-uncommitted");
                            *payload = e.Encode();
                          })
                  .ok());
  ASSERT_TRUE(db_->buffer_cache()->FlushAll().ok());

  Open(true);
  EXPECT_EQ(*ReadValue(1), "stable");  // undo pass restored the before-image
}

TEST_F(RecoveryTest, PackedRowsRecoverToPageStore) {
  DatabaseOptions small = DefaultOptions();
  small.imrs_cache_bytes = 64 * 1024;
  small.ilm.pack_cycle_pct = 0.25;
  Open(false, small);

  int64_t id = 0;
  while (db_->imrs_allocator()->Utilization() < 0.85) {
    ASSERT_TRUE(InsertRow(id, "packable-" + std::to_string(id)).ok());
    ++id;
  }
  db_->RunGcOnce();
  for (int i = 0; i < 8; ++i) db_->RunIlmTickOnce();
  ASSERT_GT(db_->metrics_registry()->Sum("pack.rows_packed"), 0);
  const int64_t imrs_rows_before_crash = db_->rid_map()->Size();

  Open(true, small);
  // Same residency split as before the crash, and all rows readable.
  EXPECT_EQ(db_->rid_map()->Size(), imrs_rows_before_crash);
  for (int64_t i = 0; i < id; i += 3) {
    Result<std::string> v = ReadValue(i);
    ASSERT_TRUE(v.ok()) << "row " << i;
    EXPECT_EQ(*v, "packable-" + std::to_string(i));
  }
}

TEST_F(RecoveryTest, RidAllocationCursorsRestored) {
  Open(false);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(InsertRow(i, "x").ok());
  }
  const uint64_t cursor = table_->partition(0).heap->RowCursor();
  Open(true);
  EXPECT_EQ(table_->partition(0).heap->RowCursor(), cursor);
  // New inserts get fresh RIDs (no collision with recovered rows).
  for (int64_t i = 100; i < 120; ++i) {
    ASSERT_TRUE(InsertRow(i, "new").ok());
  }
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(ReadValue(i).ok()) << i;
  }
}

TEST_F(RecoveryTest, SecondaryIndexesRebuilt) {
  Open(false);
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(InsertRow(i, "g").ok());  // all in group 1
  }
  Open(true);
  auto txn = db_->Begin();
  std::string lower, upper;
  KeyEncoder::AppendInt(&lower, 1);
  KeyEncoder::AppendInt(&upper, 2);
  std::vector<ScanRow> rows;
  ASSERT_TRUE(db_->ScanIndex(txn.get(), table_, 0, Slice(lower), Slice(upper),
                             0, &rows)
                  .ok());
  EXPECT_EQ(rows.size(), 30u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(RecoveryTest, CommitClockRestoredPastAllCommits) {
  Open(false);
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(InsertRow(i, "x").ok());
  }
  const uint64_t now = db_->Now();
  Open(true);
  EXPECT_GE(db_->Now(), now);
  // New transactions see all recovered data (their snapshot postdates it).
  EXPECT_TRUE(ReadValue(9).ok());
}

TEST_F(RecoveryTest, RepeatedCrashRecoverCyclesAreStable) {
  Open(false);
  ASSERT_TRUE(InsertRow(1, "gen0").ok());
  for (int gen = 1; gen <= 3; ++gen) {
    Open(true);
    EXPECT_TRUE(ReadValue(1).ok());
    ASSERT_TRUE(UpdateValue(1, "gen" + std::to_string(gen)).ok());
    ASSERT_TRUE(InsertRow(100 + gen, "extra").ok());
  }
  Open(true);
  EXPECT_EQ(*ReadValue(1), "gen3");
  for (int gen = 1; gen <= 3; ++gen) {
    EXPECT_TRUE(ReadValue(100 + gen).ok()) << gen;
  }
}

TEST_F(RecoveryTest, GarbageAtSyslogsTailIsTolerated) {
  Open(false);
  db_->ilm()->SetForcePageStore(true);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(InsertRow(i, "survives").ok());
  }
  db_.reset();  // close fds before poking the file

  // Simulate a torn final write: random bytes at the log tail.
  {
    FILE* f = fopen((dir_ + "/syslogs.wal").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x13\x37garbage-torn-tail\xff\xfe";
    fwrite(garbage, 1, sizeof(garbage), f);
    fclose(f);
  }

  Open(true);
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(*ReadValue(i), "survives") << i;
  }
}

TEST_F(RecoveryTest, GarbageAtImrsLogTailIsTolerated) {
  Open(false);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(InsertRow(i, "imrs-survives").ok());
  }
  db_.reset();
  {
    FILE* f = fopen((dir_ + "/sysimrslogs.wal").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    // A plausible-looking but truncated frame header.
    const char torn[] = "\xff\xff\x00\x00\x12";
    fwrite(torn, 1, sizeof(torn), f);
    fclose(f);
  }
  Open(true);
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(*ReadValue(i), "imrs-survives") << i;
  }
}

TEST_F(RecoveryTest, BitFlipInLogBodyDropsOnlyTheTail) {
  Open(false);
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(InsertRow(i, "prefix").ok());
  }
  db_.reset();
  // Flip one byte near the end of the IMRS log: the checksum must reject
  // that record and recovery keeps the clean prefix.
  const std::string path = dir_ + "/sysimrslogs.wal";
  {
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, -16, SEEK_END);
    int c = fgetc(f);
    fseek(f, -16, SEEK_END);
    fputc(c ^ 0x55, f);
    fclose(f);
  }
  Open(true);
  // At least the earlier transactions' rows survive; nothing crashes, and
  // whatever is readable is uncorrupted.
  int intact = 0;
  for (int64_t i = 0; i < 10; ++i) {
    Result<std::string> v = ReadValue(i);
    if (v.ok()) {
      EXPECT_EQ(*v, "prefix");
      ++intact;
    }
  }
  EXPECT_GE(intact, 8);  // only the corrupted tail group may be lost
}

TEST_F(RecoveryTest, CheckpointShrinksImrsLogAndRecoversSameState) {
  Open(false);
  // Build history: inserts + repeated updates + a delete, so the raw log is
  // much larger than the live state.
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(InsertRow(i, "v0").ok());
  }
  for (int round = 1; round <= 5; ++round) {
    for (int64_t i = 0; i < 30; ++i) {
      ASSERT_TRUE(UpdateValue(i, "v" + std::to_string(round)).ok());
    }
  }
  {
    auto txn = db_->Begin();
    ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(29)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  const int64_t before = db_->sysimrslogs()->SizeBytes();
  ASSERT_TRUE(db_->Checkpoint().ok());
  EXPECT_LT(db_->sysimrslogs()->SizeBytes(), before / 3);

  Open(true);
  for (int64_t i = 0; i < 29; ++i) {
    Result<std::string> v = ReadValue(i);
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "v5");
  }
  // The tombstone kept masking its deleted row.
  EXPECT_TRUE(ReadValue(29).status().IsNotFound());
}

// --- overlapped checkpoints & parallel replay --------------------------------

TEST_F(RecoveryTest, RecoveryRebasesOntoOverlappedCheckpoint) {
  Open(false);
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(InsertRow(i, "pre-ckpt").ok());
  }
  ASSERT_TRUE(db_->Checkpoint().ok());
  // Post-checkpoint traffic: updates of snapshotted rows, fresh inserts,
  // and a delete — all must replay on top of the snapshot.
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(UpdateValue(i, "post-ckpt").ok());
  }
  for (int64_t i = 40; i < 50; ++i) {
    ASSERT_TRUE(InsertRow(i, "post-insert").ok());
  }
  {
    auto txn = db_->Begin();
    ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(39)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  Open(true);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(*ReadValue(i), "post-ckpt") << i;
  for (int64_t i = 10; i < 39; ++i) EXPECT_EQ(*ReadValue(i), "pre-ckpt") << i;
  EXPECT_TRUE(ReadValue(39).status().IsNotFound());
  for (int64_t i = 40; i < 50; ++i) {
    EXPECT_EQ(*ReadValue(i), "post-insert") << i;
  }
  EXPECT_TRUE(db_->ValidateInvariants().ok());
}

TEST_F(RecoveryTest, NewestCompleteCheckpointWins) {
  Open(false);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(InsertRow(i, "gen1").ok());
  }
  ASSERT_TRUE(db_->Checkpoint().ok());
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(UpdateValue(i, "gen2").ok());
  }
  ASSERT_TRUE(db_->Checkpoint().ok());
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(UpdateValue(i, "gen3").ok());
  }

  Open(true);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(*ReadValue(i), "gen3") << i;
  for (int64_t i = 5; i < 20; ++i) EXPECT_EQ(*ReadValue(i), "gen2") << i;
  EXPECT_TRUE(db_->ValidateInvariants().ok());
}

// --- bounded logs -------------------------------------------------------------

// Fields of one log after a checkpoint, for the bounded-log rule.
struct RetainedLog {
  int64_t bytes = 0;
  int64_t appended_by_checkpoint = 0;
  LogRecordType first = LogRecordType::kInvalid;
  LogRecordType last = LogRecordType::kInvalid;
  uint64_t first_cts = 0;
  uint64_t last_cts = 0;
};

class BoundedLogTest : public RecoveryTest,
                       public ::testing::WithParamInterface<bool> {
 protected:
  bool in_memory() const { return GetParam(); }

  int64_t Appended(const char* log) {
    return db_->metrics_registry()->Sum("wal.bytes_appended",
                                        obs::MetricLabels{log, "", "", ""});
  }

  static RetainedLog Inspect(Log* log) {
    RetainedLog out;
    out.bytes = log->SizeBytes();
    bool first = true;
    EXPECT_TRUE(log->Replay([&](const LogRecord& rec) {
                     if (first) {
                       out.first = rec.type;
                       out.first_cts = rec.cts;
                       first = false;
                     }
                     out.last = rec.type;
                     out.last_cts = rec.cts;
                     return true;
                   })
                    .ok());
    return out;
  }

  int WalFiles() {
    int n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      if (e.path().extension() == ".wal") ++n;
    }
    return n;
  }
};

// Eight checkpoints with the same writes between them: after each one, both
// logs hold exactly what that checkpoint appended from its rollover on —
// its begin record first, its end record last — and on files each log is
// one *.wal file. What a log retains does not grow with the round.
TEST_P(BoundedLogTest, EachCheckpointDropsEverythingBeforeItsRollover) {
  DatabaseOptions options = DefaultOptions();
  options.in_memory = in_memory();
  Open(false, options);
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(InsertRow(i, "r0").ok());
  }
  db_->ilm()->SetForcePageStore(true);
  for (int64_t i = 100; i < 120; ++i) {
    ASSERT_TRUE(InsertRow(i, "r0").ok());
  }
  db_->ilm()->SetForcePageStore(false);

  std::vector<RetainedLog> first_round;
  for (int round = 1; round <= 8; ++round) {
    // Writers between checkpoints: IMRS and page-store rows alike.
    const std::string value = "r" + std::to_string(round);
    for (int64_t i = 0; i < 40; ++i) ASSERT_TRUE(UpdateValue(i, value).ok());
    for (int64_t i = 100; i < 120; ++i) {
      ASSERT_TRUE(UpdateValue(i, value).ok());
    }
    const int64_t sys_before = Appended("syslogs");
    const int64_t imrs_before = Appended("sysimrslogs");
    ASSERT_TRUE(db_->Checkpoint().ok());
    RetainedLog sys = Inspect(db_->syslogs());
    RetainedLog imrs = Inspect(db_->sysimrslogs());
    sys.appended_by_checkpoint = Appended("syslogs") - sys_before;
    imrs.appended_by_checkpoint = Appended("sysimrslogs") - imrs_before;
    for (const RetainedLog* log : {&sys, &imrs}) {
      SCOPED_TRACE("round " + std::to_string(round));
      EXPECT_EQ(log->bytes, log->appended_by_checkpoint);
      EXPECT_EQ(log->first, LogRecordType::kCheckpointBegin);
      EXPECT_EQ(log->last, LogRecordType::kCheckpointEnd);
      EXPECT_EQ(log->first_cts, log->last_cts);
    }
    EXPECT_EQ(sys.first_cts, imrs.first_cts);
    if (!in_memory()) {
      EXPECT_EQ(WalFiles(), 2) << "round " << round;
    }
    if (round == 1) {
      first_round = {sys, imrs};
    } else {
      EXPECT_LE(sys.bytes, first_round[0].bytes) << "round " << round;
      EXPECT_LE(imrs.bytes, first_round[1].bytes) << "round " << round;
    }
  }
  if (in_memory()) return;

  // The bounded logs still recover everything.
  Open(true);
  for (int64_t i = 0; i < 40; ++i) EXPECT_EQ(*ReadValue(i), "r8") << i;
  for (int64_t i = 100; i < 120; ++i) EXPECT_EQ(*ReadValue(i), "r8") << i;
  EXPECT_TRUE(db_->ValidateInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Storage, BoundedLogTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "InMemory" : "Files";
                         });

// A transaction that wrote a page-store row before a checkpoint's rollover,
// wrote it again after it, and aborted before the begin barrier: the drop
// takes its first record, so undoing the second from the partial history
// would resurrect its own first value. Recovery starts syslogs at the
// complete checkpoint's begin record instead, where the aborted
// transaction has nothing left to undo (its rollback is in the flushed
// pages).
TEST_F(RecoveryTest, LoserStraddlingTheRollOverStaysRolledBack) {
  DatabaseOptions options = DefaultOptions();
  options.lock_timeout_ms = 10000;  // the begin barrier waits for the loser
  Open(false, options);
  db_->ilm()->SetForcePageStore(true);
  ASSERT_TRUE(InsertRow(1, "base").ok());

  auto set_value = [&](Transaction* txn, const std::string& value) {
    return db_->Update(txn, table_, Key(1), [&](std::string* payload) {
      RecordEditor e(&table_->schema(), Slice(*payload));
      e.SetString(2, value);
      *payload = e.Encode();
    });
  };
  auto loser = db_->Begin();
  ASSERT_TRUE(set_value(loser.get(), "loser-1").ok());
  Status checkpoint;
  std::thread checkpointer([&] { checkpoint = db_->Checkpoint(); });
  const std::string archive = dir_ + "/syslogs.1.wal";
  for (int i = 0; i < 10000 && !std::filesystem::exists(archive); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool rolled_over = std::filesystem::exists(archive);
  const Status second_write = set_value(loser.get(), "loser-2");
  const Status aborted = db_->Abort(loser.get());
  checkpointer.join();  // before any ASSERT can return
  ASSERT_TRUE(rolled_over);  // the checkpoint waits at its begin barrier
  ASSERT_TRUE(second_write.ok()) << second_write.ToString();
  ASSERT_TRUE(aborted.ok()) << aborted.ToString();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();

  Open(true);
  Result<std::string> v = ReadValue(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "base");
}

// A logical fingerprint of the recovered database: full index-ordered scan
// plus residency and cursor state. Physical B+Tree page layout may differ
// between worker counts (concurrent rebuild inserts split pages in schedule
// order); the logical state may not.
struct RecoveredState {
  std::vector<std::pair<int64_t, std::string>> rows;  // (pk, value), sorted
  int64_t rid_map_size = 0;
  uint64_t row_cursor = 0;
  uint64_t clock_now = 0;

  bool operator==(const RecoveredState& other) const {
    return rows == other.rows && rid_map_size == other.rid_map_size &&
           row_cursor == other.row_cursor && clock_now == other.clock_now;
  }
};

class ParallelReplayTest : public RecoveryTest {
 protected:
  /// Builds a state that exercises every replay path: IMRS inserts/updates/
  /// deletes, page-store rows, packed rows, an overlapped checkpoint
  /// mid-history, and post-checkpoint traffic.
  void BuildWorkload() {
    DatabaseOptions small = DefaultOptions();
    small.imrs_cache_bytes = 128 * 1024;
    small.ilm.pack_cycle_pct = 0.25;
    Open(false, small);

    db_->ilm()->SetForcePageStore(true);
    for (int64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(InsertRow(i, "ps-" + std::to_string(i)).ok());
    }
    db_->ilm()->SetForcePageStore(false);
    for (int64_t i = 40; i < 160; ++i) {
      ASSERT_TRUE(InsertRow(i, "imrs-" + std::to_string(i)).ok());
    }
    for (int64_t i = 40; i < 80; ++i) {
      ASSERT_TRUE(UpdateValue(i, "upd-" + std::to_string(i)).ok());
    }
    db_->RunGcOnce();
    for (int j = 0; j < 4; ++j) db_->RunIlmTickOnce();

    ASSERT_TRUE(db_->Checkpoint().ok());

    for (int64_t i = 160; i < 200; ++i) {
      ASSERT_TRUE(InsertRow(i, "post-" + std::to_string(i)).ok());
    }
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(UpdateValue(i, "migrated-" + std::to_string(i)).ok());
    }
    {
      auto txn = db_->Begin();
      ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(150)).ok());
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
    db_.reset();  // crash
  }

  RecoveredState RecoverWith(int workers) {
    DatabaseOptions small = DefaultOptions();
    small.imrs_cache_bytes = 128 * 1024;
    small.ilm.pack_cycle_pct = 0.25;
    small.pack_workers = workers;
    Open(true, small);

    RecoveredState state;
    auto txn = db_->Begin();
    std::vector<ScanRow> rows;
    Status s = db_->ScanIndex(txn.get(), table_, -1, Slice(), Slice(),
                              /*limit=*/1 << 20, &rows);
    Status c = db_->Commit(txn.get());
    (void)c;
    EXPECT_TRUE(s.ok()) << s.ToString();
    for (const ScanRow& row : rows) {
      RecordView v(&table_->schema(), Slice(row.payload));
      state.rows.emplace_back(v.GetInt64(0), v.GetString(2).ToString());
    }
    state.rid_map_size = db_->rid_map()->Size();
    state.row_cursor = table_->partition(0).heap->RowCursor();
    state.clock_now = db_->Now();
    EXPECT_TRUE(db_->ValidateInvariants().ok());
    db_.reset();  // crash again; next RecoverWith replays the same logs
    return state;
  }
};

// Replay sharded over 2 and 8 workers must land byte-identical logical
// state to the 1-worker inline anchor (the deterministic baseline the
// sharding argument is validated against, mirroring pack_parallel_test).
TEST_F(ParallelReplayTest, WorkerCountDoesNotChangeRecoveredState) {
  BuildWorkload();
  const RecoveredState serial = RecoverWith(1);
  EXPECT_GT(serial.rows.size(), 100u);
  EXPECT_GT(serial.rid_map_size, 0);
  for (int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const RecoveredState parallel = RecoverWith(workers);
    EXPECT_TRUE(parallel == serial)
        << "parallel replay diverged: rows " << parallel.rows.size() << " vs "
        << serial.rows.size() << ", rid_map " << parallel.rid_map_size
        << " vs " << serial.rid_map_size << ", cursor "
        << parallel.row_cursor << " vs " << serial.row_cursor;
  }
}

// --- group commit ------------------------------------------------------------

class GroupCommitRecoveryTest : public RecoveryTest {
 protected:
  static constexpr int kCommitters = 8;

  DatabaseOptions GroupCommitOptions() {
    DatabaseOptions options = DefaultOptions();
    options.durability.policy = DurabilityPolicy::kGroupCommit;
    options.durability.max_batch_groups = kCommitters;
    // Generous linger + a start barrier below => all committers land in one
    // batch, making batch contents (and where a tear cuts) deterministic.
    options.durability.max_group_latency_us = 2'000'000;
    return options;
  }

  /// For the verification reopen: same policy, but lone committers (e.g.
  /// select-caching system transactions) only linger briefly.
  DatabaseOptions ReopenOptions() {
    DatabaseOptions options = GroupCommitOptions();
    options.durability.max_group_latency_us = 200;
    return options;
  }

  /// Runs kCommitters threads, each inserting and committing one row
  /// (ids base..base+kCommitters-1), released simultaneously so their
  /// commit groups form a single batch.
  void CommitOneBatch(int64_t base, const std::string& value) {
    std::atomic<bool> go{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kCommitters);
    for (int t = 0; t < kCommitters; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        if (!InsertRow(base + t, value).ok()) failures.fetch_add(1);
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);
  }

  /// Truncates `file` to `keep_bytes`, simulating a crash mid-write.
  void TearFileAt(const std::string& file, int64_t keep_bytes) {
    std::filesystem::resize_file(dir_ + "/" + file,
                                 static_cast<uintmax_t>(keep_bytes));
  }
};

TEST_F(GroupCommitRecoveryTest, BatchedCommitsAreDurableAcrossCrash) {
  Open(false, GroupCommitOptions());
  CommitOneBatch(0, "batched");
  // The point of group commit: one device sync covered all 8 commits.
  const obs::MetricsRegistry& m = *db_->metrics_registry();
  const obs::MetricLabels imrs_log{"sysimrslogs", "", "", ""};
  EXPECT_EQ(m.Sum("wal.syncs", imrs_log), 1);
  EXPECT_EQ(m.Sum("commit.batches", imrs_log), 1);
  EXPECT_EQ(m.Sum("commit.max_batch_groups", imrs_log), kCommitters);

  Open(true, ReopenOptions());
  for (int64_t i = 0; i < kCommitters; ++i) {
    Result<std::string> v = ReadValue(i);
    ASSERT_TRUE(v.ok()) << "row " << i;
    EXPECT_EQ(*v, "batched");
  }
}

TEST_F(GroupCommitRecoveryTest, TornImrsBatchKeepsOnlyFullyLoggedTxns) {
  Open(false, GroupCommitOptions());
  const int64_t before = db_->sysimrslogs()->SizeBytes();
  CommitOneBatch(0, "torn-batch");
  const int64_t after = db_->sysimrslogs()->SizeBytes();
  db_.reset();  // crash

  // Tear the log mid-batch: roughly half the multi-transaction batch
  // survives. Replay must keep exactly the transactions whose groups
  // (including the kImrsCommit marker) are intact, and drop the rest —
  // no torn or phantom rows.
  TearFileAt("sysimrslogs.wal", before + (after - before) / 2);

  Open(true, ReopenOptions());
  int recovered = 0;
  for (int64_t i = 0; i < kCommitters; ++i) {
    Result<std::string> v = ReadValue(i);
    if (v.ok()) {
      EXPECT_EQ(*v, "torn-batch") << "row " << i;
      ++recovered;
    } else {
      EXPECT_TRUE(v.status().IsNotFound()) << "row " << i;
    }
  }
  EXPECT_GE(recovered, 1);           // a prefix of the batch was intact
  EXPECT_LT(recovered, kCommitters);  // the tear cost the tail its txns
  EXPECT_EQ(db_->rid_map()->Size(), recovered);
}

TEST_F(GroupCommitRecoveryTest, TornSyslogsCommitBatchUndoesLosers) {
  Open(false, GroupCommitOptions());
  db_->ilm()->SetForcePageStore(true);
  const int64_t before = db_->syslogs()->SizeBytes();
  CommitOneBatch(0, "ps-torn");
  const int64_t after = db_->syslogs()->SizeBytes();
  // Make the loser data pages reach disk so recovery must actively undo
  // them (the "steal" case), not merely fail to redo.
  ASSERT_TRUE(db_->buffer_cache()->FlushAll().ok());
  db_.reset();  // crash

  // Between `before` and `after`, syslogs received the per-DML data records
  // followed by one batched append of kPsCommit records at the tail. Cutting
  // near the end of that region lands inside (or before) the commit batch,
  // so at least one transaction loses its commit record.
  TearFileAt("syslogs.wal", after - (after - before) / 8);

  Open(true, ReopenOptions());
  int winners = 0;
  for (int64_t i = 0; i < kCommitters; ++i) {
    Result<std::string> v = ReadValue(i);
    if (v.ok()) {
      EXPECT_EQ(*v, "ps-torn") << "row " << i;
      ++winners;
    } else {
      EXPECT_TRUE(v.status().IsNotFound()) << "row " << i;
    }
  }
  // Some commit records survived the tear, some did not; survivors redo,
  // the rest are losers whose flushed pages were undone.
  EXPECT_LT(winners, kCommitters);
}

TEST_F(RecoveryTest, MixedStoreWorkloadRecoversConsistently) {
  Open(false);
  db_->ilm()->SetForcePageStore(true);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(InsertRow(i, "cold").ok());
  }
  db_->ilm()->SetForcePageStore(false);
  for (int64_t i = 20; i < 40; ++i) {
    ASSERT_TRUE(InsertRow(i, "hot").ok());
  }
  // Migrate a few cold rows by updating them.
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(UpdateValue(i, "migrated").ok());
  }
  Open(true);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(*ReadValue(i), "migrated");
  for (int64_t i = 5; i < 20; ++i) EXPECT_EQ(*ReadValue(i), "cold");
  for (int64_t i = 20; i < 40; ++i) EXPECT_EQ(*ReadValue(i), "hot");
  auto txn = db_->Begin();
  std::vector<ScanRow> rows;
  ASSERT_TRUE(
      db_->ScanIndex(txn.get(), table_, -1, Slice(), Slice(), 0, &rows).ok());
  EXPECT_EQ(rows.size(), 40u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

// A crash mid-append leaves a partial frame at the end of a log. Recovery
// must cut it off before the restarted process appends: otherwise every
// commit acked after the restart sits behind the torn bytes, where a
// second recovery never reaches it.
TEST_F(RecoveryTest, CommitsAckedAfterATornTailSurviveASecondCrash) {
  Open(/*recover=*/false);
  for (int64_t id = 0; id < 4; ++id) {
    db_->ilm()->SetForcePageStore(id % 2 == 0);  // both logs carry commits
    ASSERT_TRUE(InsertRow(id, "before").ok());
  }
  db_.reset();  // first crash
  for (const char* log : {"/syslogs.wal", "/sysimrslogs.wal"}) {
    std::ofstream(dir_ + log, std::ios::binary | std::ios::app)
        << std::string(13, '\x7f');  // a frame header promising more bytes
  }

  Open(/*recover=*/true);
  constexpr int64_t kAcked = 20;
  for (int64_t id = 100; id < 100 + kAcked; ++id) {
    db_->ilm()->SetForcePageStore(id % 2 == 0);
    ASSERT_TRUE(InsertRow(id, "after").ok());
  }
  Open(/*recover=*/true);  // second crash and recovery

  for (int64_t id = 0; id < 4; ++id) {
    EXPECT_EQ(*ReadValue(id), "before") << id;
  }
  for (int64_t id = 100; id < 100 + kAcked; ++id) {
    Result<std::string> v = ReadValue(id);
    ASSERT_TRUE(v.ok()) << "acked commit " << id << " lost: "
                        << v.status().ToString();
    EXPECT_EQ(*v, "after");
  }
}

}  // namespace
}  // namespace btrim
