// Whole-system integration tests: sustained mixed workloads against tiny
// IMRS caches (forcing steady/aggressive pack and the bypass backpressure),
// randomized multi-threaded operation streams checked against a reference
// model, and end-to-end ILM behaviour.

#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/database.h"

namespace btrim {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void Open(size_t imrs_bytes, bool background = false) {
    DatabaseOptions options;
    options.buffer_cache_frames = 1024;
    options.imrs_cache_bytes = imrs_bytes;
    options.lock_timeout_ms = 200;
    options.ilm.pack_cycle_pct = 0.15;
    options.background_interval_us = 200;
    Result<std::unique_ptr<Database>> opened = Database::Open(options);
    ASSERT_TRUE(opened.ok());
    db_ = std::move(*opened);

    TableOptions topt;
    topt.name = "t";
    topt.schema = Schema({
        Column::Int64("id"),
        Column::Int64("version"),
        Column::String("data", 64),
    });
    topt.primary_key = {0};
    Result<Table*> created = db_->CreateTable(topt);
    ASSERT_TRUE(created.ok());
    table_ = *created;
    if (background) db_->StartBackground();
  }

  void TearDown() override {
    if (db_ != nullptr) db_->StopBackground();
  }

  std::string Key(int64_t id) { return table_->pk_encoder().KeyForInts({id}); }

  std::string Record(int64_t id, int64_t version, const std::string& data) {
    RecordBuilder b(&table_->schema());
    b.AddInt64(id).AddInt64(version).AddString(data);
    return b.Finish().ToString();
  }

  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_F(IntegrationTest, SustainedChurnThroughTinyImrsStaysCorrect) {
  // The IMRS can hold only a small fraction of the data set: the engine
  // must continuously pack, possibly bypass, and never lose a row.
  Open(/*imrs_bytes=*/48 * 1024);
  constexpr int64_t kRows = 1500;
  for (int64_t i = 0; i < kRows; ++i) {
    auto txn = db_->Begin();
    ASSERT_TRUE(
        db_->Insert(txn.get(), table_, Record(i, 0, std::string(40, 'd')))
            .ok())
        << i;
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
    if (i % 50 == 0) {
      db_->RunGcOnce();
      db_->RunIlmTickOnce();
    }
  }
  db_->RunGcOnce();
  db_->RunIlmTickOnce();

  const obs::MetricsRegistry& m = *db_->metrics_registry();
  EXPECT_GT(m.Sum("pack.rows_packed"), 0);
  // Cache utilization stayed bounded.
  EXPECT_LE(m.Sum("imrs_cache.in_use_bytes"),
            m.Sum("imrs_cache.capacity_bytes"));

  // Every row is present exactly once.
  auto txn = db_->Begin();
  std::vector<ScanRow> rows;
  ASSERT_TRUE(
      db_->ScanIndex(txn.get(), table_, -1, Slice(), Slice(), 0, &rows).ok());
  EXPECT_EQ(rows.size(), static_cast<size_t>(kRows));
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(IntegrationTest, UpdatesDuringPackingNeverLoseData) {
  Open(/*imrs_bytes=*/48 * 1024, /*background=*/true);
  constexpr int64_t kRows = 300;
  for (int64_t i = 0; i < kRows; ++i) {
    auto txn = db_->Begin();
    ASSERT_TRUE(
        db_->Insert(txn.get(), table_, Record(i, 0, std::string(40, 'x')))
            .ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  // Update every row several times while pack/GC run in the background.
  std::map<int64_t, int64_t> expected_version;
  Random rng(31);
  for (int round = 0; round < 5; ++round) {
    for (int64_t i = 0; i < kRows; ++i) {
      auto txn = db_->Begin();
      Status s = db_->Update(txn.get(), table_, Key(i),
                             [&](RowEditor& e) {
                               e.SetInt64(1, e.GetInt(1) + 1);
                             });
      if (s.ok()) s = db_->Commit(txn.get());
      else { Status a = db_->Abort(txn.get()); (void)a; }
      if (s.ok()) expected_version[i]++;
    }
  }
  db_->StopBackground();
  // Validate every row's version counter.
  for (int64_t i = 0; i < kRows; ++i) {
    auto txn = db_->Begin();
    std::string row;
    ASSERT_TRUE(db_->SelectByKey(txn.get(), table_, Key(i), &row).ok()) << i;
    RecordView v(&table_->schema(), Slice(row));
    EXPECT_EQ(v.GetInt64(1), expected_version[i]) << "row " << i;
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
}

TEST_F(IntegrationTest, RandomizedOpsMatchReferenceModel) {
  // Single-threaded random CRUD mirrored against std::map, with pack + GC
  // interleaved; catches any residency-transition bug that corrupts data.
  Open(/*imrs_bytes=*/64 * 1024);
  std::map<int64_t, std::string> reference;
  Random rng(12345);
  int64_t next_id = 0;

  for (int op = 0; op < 4000; ++op) {
    const int dice = static_cast<int>(rng.Uniform(100));
    auto txn = db_->Begin();
    Status s;
    if (dice < 40 || reference.empty()) {
      const int64_t id = next_id++;
      const std::string data = "d" + std::to_string(rng.Next() % 100000);
      s = db_->Insert(txn.get(), table_, Record(id, 0, data));
      if (s.ok()) s = db_->Commit(txn.get());
      if (s.ok()) reference[id] = data;
    } else if (dice < 70) {
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      const std::string data = "u" + std::to_string(rng.Next() % 100000);
      s = db_->Update(txn.get(), table_, Key(it->first),
                      [&](RowEditor& e) { e.SetString(2, data); });
      if (s.ok()) s = db_->Commit(txn.get());
      if (s.ok()) it->second = data;
    } else if (dice < 85) {
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      s = db_->Delete(txn.get(), table_, Key(it->first));
      if (s.ok()) s = db_->Commit(txn.get());
      if (s.ok()) reference.erase(it);
    } else {
      // Read a random id (present or absent) and check the model.
      const int64_t id = static_cast<int64_t>(rng.Uniform(
          static_cast<uint64_t>(next_id) + 1));
      std::string row;
      s = db_->SelectByKey(txn.get(), table_, Key(id), &row);
      auto it = reference.find(id);
      if (it == reference.end()) {
        EXPECT_TRUE(s.IsNotFound()) << "id " << id;
      } else {
        ASSERT_TRUE(s.ok()) << "id " << id << ": " << s.ToString();
        RecordView v(&table_->schema(), Slice(row));
        EXPECT_EQ(v.GetString(2).ToString(), it->second);
      }
      s = db_->Commit(txn.get());
    }
    if (!s.ok() && txn->state() == TxnState::kActive) {
      Status a = db_->Abort(txn.get());
      (void)a;
    }
    if (op % 100 == 0) {
      db_->RunGcOnce();
      db_->RunIlmTickOnce();
    }
  }

  // Final full sweep.
  auto txn = db_->Begin();
  std::vector<ScanRow> rows;
  ASSERT_TRUE(
      db_->ScanIndex(txn.get(), table_, -1, Slice(), Slice(), 0, &rows).ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_EQ(rows.size(), reference.size());
  for (const ScanRow& r : rows) {
    RecordView v(&table_->schema(), Slice(r.payload));
    auto it = reference.find(v.GetInt64(0));
    ASSERT_NE(it, reference.end()) << v.GetInt64(0);
    EXPECT_EQ(v.GetString(2).ToString(), it->second);
  }
}

TEST_F(IntegrationTest, MultiThreadedDisjointKeyspaceWithBackground) {
  Open(/*imrs_bytes=*/96 * 1024, /*background=*/true);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 600;
  std::vector<std::thread> threads;
  std::vector<std::map<int64_t, std::string>> models(kThreads);
  std::atomic<int> hard_failures{0};

  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(9000 + static_cast<uint64_t>(t));
      std::map<int64_t, std::string>& model = models[static_cast<size_t>(t)];
      const int64_t base = static_cast<int64_t>(t) * 1000000;
      int64_t next = 0;
      for (int op = 0; op < kOpsPerThread; ++op) {
        auto txn = db_->Begin();
        Status s;
        const int dice = static_cast<int>(rng.Uniform(100));
        if (dice < 50 || model.empty()) {
          const int64_t id = base + next++;
          const std::string data = std::to_string(rng.Next());
          s = db_->Insert(txn.get(), table_, Record(id, 0, data));
          if (s.ok()) s = db_->Commit(txn.get());
          if (s.ok()) model[id] = data;
        } else if (dice < 80) {
          auto it = model.begin();
          std::advance(it, rng.Uniform(model.size()));
          const std::string data = std::to_string(rng.Next());
          s = db_->Update(txn.get(), table_, Key(it->first),
                          [&](RowEditor& e) { e.SetString(2, data); });
          if (s.ok()) s = db_->Commit(txn.get());
          if (s.ok()) it->second = data;
        } else {
          auto it = model.begin();
          std::advance(it, rng.Uniform(model.size()));
          s = db_->Delete(txn.get(), table_, Key(it->first));
          if (s.ok()) s = db_->Commit(txn.get());
          if (s.ok()) model.erase(it);
        }
        if (!s.ok()) {
          if (txn->state() == TxnState::kActive) {
            Status a = db_->Abort(txn.get());
            (void)a;
          }
          // Disjoint keys: only resource-pressure errors are acceptable.
          if (!s.IsAborted() && !s.IsNoSpace() && !s.IsBusy()) {
            hard_failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  db_->StopBackground();
  EXPECT_EQ(hard_failures.load(), 0);

  // Every thread's model matches the database.
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& [id, data] : models[static_cast<size_t>(t)]) {
      auto txn = db_->Begin();
      std::string row;
      ASSERT_TRUE(db_->SelectByKey(txn.get(), table_, Key(id), &row).ok())
          << "id " << id;
      RecordView v(&table_->schema(), Slice(row));
      EXPECT_EQ(v.GetString(2).ToString(), data);
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
  }
}

TEST_F(IntegrationTest, BypassBackpressureKeepsSystemAvailable) {
  // IMRS so small that aggressive pack cannot keep up with the insert
  // rate: the bypass must kick in and route new rows to the page store
  // without failing any transaction (paper Sec. VI.A: "without causing any
  // application outage").
  Open(/*imrs_bytes=*/32 * 1024);
  int64_t failures = 0;
  for (int64_t i = 0; i < 800; ++i) {
    auto txn = db_->Begin();
    Status s =
        db_->Insert(txn.get(), table_, Record(i, 0, std::string(48, 'b')));
    if (s.ok()) s = db_->Commit(txn.get());
    else { Status a = db_->Abort(txn.get()); (void)a; }
    if (!s.ok()) ++failures;
    if (i % 25 == 0) {
      db_->RunGcOnce();
      db_->RunIlmTickOnce();
    }
  }
  EXPECT_EQ(failures, 0);
  auto txn = db_->Begin();
  std::vector<ScanRow> rows;
  ASSERT_TRUE(
      db_->ScanIndex(txn.get(), table_, -1, Slice(), Slice(), 0, &rows).ok());
  EXPECT_EQ(rows.size(), 800u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(IntegrationTest, MoneyConservationUnderPackChurn) {
  // The classic atomicity invariant, run while rows migrate between stores:
  // concurrent transfers between accounts (debit + credit in one
  // transaction, with conflicts and timeout-aborts) must conserve the total
  // balance exactly, even as Pack/GC move the rows around.
  Open(/*imrs_bytes=*/32 * 1024, /*background=*/true);
  constexpr int64_t kAccounts = 300;  // ~40 KiB of rows vs a 32 KiB cache
  constexpr double kInitial = 1000.0;

  for (int64_t i = 0; i < kAccounts; ++i) {
    auto txn = db_->Begin();
    RecordBuilder b(&table_->schema());
    b.AddInt64(i).AddInt64(0).AddString(std::to_string(kInitial));
    ASSERT_TRUE(db_->Insert(txn.get(), table_, b.Finish()).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int64_t> committed{0};
  // Each thread runs at least 400 transfers, and keeps going until Pack has
  // relocated rows under them (bounded by a deadline): on a fast engine 400
  // transfers can finish before the first background pack cycle, and then
  // nothing would have churned.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto churned = [&] {
    return db_->metrics_registry()->Sum("pack.rows_packed") > 0 ||
           std::chrono::steady_clock::now() > deadline;
  };
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(777 + static_cast<uint64_t>(t));
      for (int op = 0; op < 400 || !churned(); ++op) {
        const int64_t from = static_cast<int64_t>(rng.Uniform(kAccounts));
        int64_t to = static_cast<int64_t>(rng.Uniform(kAccounts));
        if (to == from) to = (to + 1) % kAccounts;
        const double amount = 1.0 + static_cast<double>(rng.Uniform(50));

        // Lock in id order to keep deadlocks rare (timeouts still abort
        // some transactions, which is part of what we are testing).
        const int64_t first = std::min(from, to);
        const int64_t second = std::max(from, to);
        const double delta_first = first == from ? -amount : amount;

        auto txn = db_->Begin();
        auto apply = [&](int64_t id, double delta) {
          return db_->Update(txn.get(), table_, Key(id),
                             [&](RowEditor& e) {
                               const double bal =
                                   std::stod(e.GetString(2).ToString());
                               e.SetString(2, std::to_string(bal + delta));
                             });
        };
        Status s = apply(first, delta_first);
        if (s.ok()) s = apply(second, -delta_first);
        if (s.ok()) s = db_->Commit(txn.get());
        else { Status a = db_->Abort(txn.get()); (void)a; }
        if (s.ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  db_->StopBackground();
  ASSERT_GT(committed.load(), 0);

  double total = 0.0;
  for (int64_t i = 0; i < kAccounts; ++i) {
    auto txn = db_->Begin();
    std::string row;
    ASSERT_TRUE(db_->SelectByKey(txn.get(), table_, Key(i), &row).ok()) << i;
    RecordView v(&table_->schema(), Slice(row));
    total += std::stod(v.GetString(2).ToString());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  EXPECT_NEAR(total, kAccounts * kInitial, 0.001)
      << "transfers must conserve money exactly ("
      << committed.load() << " committed)";
  // And the churn really happened.
  EXPECT_GT(db_->metrics_registry()->Sum("pack.rows_packed"), 0);
}

TEST_F(IntegrationTest, TunerDisablesColdInsertOnlyTable) {
  // An insert-only, never-reused table under memory pressure gets its IMRS
  // use disabled by the auto partition tuner (the history pattern).
  DatabaseOptions options;
  options.buffer_cache_frames = 1024;
  options.imrs_cache_bytes = 256 * 1024;
  options.lock_timeout_ms = 200;
  options.ilm.tuning_window_txns = 50;
  options.ilm.hysteresis_windows = 2;
  options.ilm.min_new_rows_for_disable = 10;
  Result<std::unique_ptr<Database>> opened = Database::Open(options);
  ASSERT_TRUE(opened.ok());
  db_ = std::move(*opened);
  TableOptions topt;
  topt.name = "t";
  topt.schema = Schema({Column::Int64("id"), Column::Int64("v"),
                        Column::String("data", 64)});
  topt.primary_key = {0};
  table_ = *db_->CreateTable(topt);

  PartitionState* state = table_->partition(0).ilm;
  int64_t i = 0;
  // Insert-only load; run ticks so tuning windows elapse. Stop as soon as
  // the tuner reacts.
  for (int round = 0; round < 200 && state->imrs_enabled.load(); ++round) {
    for (int k = 0; k < 60; ++k) {
      auto txn = db_->Begin();
      ASSERT_TRUE(
          db_->Insert(txn.get(), table_, Record(i++, 0, std::string(50, 'c')))
              .ok());
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
    db_->RunGcOnce();
    db_->RunIlmTickOnce();
  }
  EXPECT_FALSE(state->imrs_enabled.load())
      << "tuner should disable an insert-only partition under pressure";
  // Subsequent inserts go page-store-direct.
  const int64_t page_ops_before = state->metrics.page_ops.Load();
  auto txn = db_->Begin();
  ASSERT_TRUE(
      db_->Insert(txn.get(), table_, Record(i++, 0, "direct")).ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_GT(state->metrics.page_ops.Load(), page_ops_before);
}

}  // namespace
}  // namespace btrim
