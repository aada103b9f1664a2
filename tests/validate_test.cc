// Tests for the cross-structure invariant checker (src/engine/validate.cc):
// a healthy database validates clean, and each class of deliberately
// injected corruption — a remapped RID-map entry, a leaked (unmapped but
// still queued) row, a tampered partition gauge — is detected and reported
// as Corruption. The injections are undone afterwards and the database must
// validate clean again, proving the checker has no side effects.

#include <gtest/gtest.h>

#include "engine/database.h"

namespace btrim {
namespace {

class ValidateTest : public ::testing::Test {
 protected:
  void Open() {
    DatabaseOptions options;
    options.buffer_cache_frames = 512;
    options.imrs_cache_bytes = 8 << 20;
    options.lock_timeout_ms = 100;
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

  void InsertRows(int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      auto txn = db_->Begin();
      ASSERT_TRUE(db_->Insert(txn.get(), table_, Record(i, i % 7, "v")).ok());
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
    // GC processes the commit queue, which links the new rows into their
    // partition ILM queues — exercising the queue phase of the checker.
    db_->RunGcOnce();
  }

  void UpdateValue(int64_t id, const std::string& value) {
    auto txn = db_->Begin();
    std::string pk = table_->pk_encoder().KeyForInts({id});
    Status s = db_->Update(txn.get(), table_, pk,
                           [&](RowEditor& e) { e.SetString(2, value); });
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  /// First (rid, row) pair of the RID-map, for tamper targets.
  std::pair<Rid, ImrsRow*> AnyMappedRow() {
    std::pair<Rid, ImrsRow*> found{Rid{}, nullptr};
    db_->rid_map()->ForEach([&found](Rid rid, ImrsRow* row) {
      if (found.second == nullptr) found = {rid, row};
    });
    return found;
  }

  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_F(ValidateTest, CleanDatabaseValidates) {
  Open();
  InsertRows(100);
  ValidateReport report;
  Status s = db_->ValidateInvariants(&report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(report.rows_checked, 100);
  EXPECT_GE(report.versions_checked, 100);
  EXPECT_EQ(report.queued_rows, 100);
  EXPECT_GE(report.partitions_checked, 1);
}

TEST_F(ValidateTest, EmptyDatabaseValidates) {
  Open();
  ValidateReport report;
  Status s = db_->ValidateInvariants(&report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(report.rows_checked, 0);
}

TEST_F(ValidateTest, ActiveTransactionMakesValidateBusy) {
  Open();
  InsertRows(5);
  auto txn = db_->Begin();
  EXPECT_TRUE(db_->ValidateInvariants().IsBusy());
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
  EXPECT_TRUE(db_->ValidateInvariants().ok());
}

TEST_F(ValidateTest, DetectsRemappedRidMapEntry) {
  Open();
  InsertRows(20);
  auto [rid, row] = AnyMappedRow();
  ASSERT_NE(row, nullptr);

  // Register the same row under a second, bogus RID: the checker must spot
  // that the entry's key disagrees with the row's own identity (or that one
  // row is mapped twice).
  Rid bogus = rid;
  bogus.page_no += 1000;
  db_->rid_map()->Insert(bogus, row);
  Status s = db_->ValidateInvariants();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  ASSERT_TRUE(db_->rid_map()->Erase(bogus));
  Status clean = db_->ValidateInvariants();
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

TEST_F(ValidateTest, DetectsLeakedRowStillInQueue) {
  Open();
  InsertRows(20);
  auto [rid, row] = AnyMappedRow();
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(row->HasFlag(kRowInQueue));

  // Drop the RID-map entry while the row is still linked into its ILM
  // queue: the row became unreachable for transactions but the ILM layer
  // still references it — a leak the queue phase must report.
  ASSERT_TRUE(db_->rid_map()->Erase(rid));
  Status s = db_->ValidateInvariants();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("leaked"), std::string::npos) << s.ToString();

  db_->rid_map()->Insert(rid, row);
  Status clean = db_->ValidateInvariants();
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

TEST_F(ValidateTest, DetectsTamperedPartitionGauges) {
  Open();
  InsertRows(20);
  PartitionState* ilm = table_->partition(0).ilm;
  ASSERT_NE(ilm, nullptr);

  ilm->metrics.imrs_bytes.Add(12345);
  Status s = db_->ValidateInvariants();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  ilm->metrics.imrs_bytes.Sub(12345);

  ilm->metrics.imrs_rows.Add(1);
  Status r = db_->ValidateInvariants();
  EXPECT_TRUE(r.IsCorruption()) << r.ToString();
  ilm->metrics.imrs_rows.Sub(1);

  Status clean = db_->ValidateInvariants();
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

TEST_F(ValidateTest, DetectsCorruptedVersionOrder) {
  Open();
  InsertRows(10);

  // Give row 3 a second committed version, then tamper the head timestamp
  // so the chain is no longer newest-first.
  UpdateValue(3, "second");
  ImrsRow* row = nullptr;
  db_->rid_map()->ForEach([&](Rid, ImrsRow* r) {
    RowVersion* head = r->latest.load();
    if (head != nullptr && head->older.load() != nullptr) row = r;
  });
  ASSERT_NE(row, nullptr);
  RowVersion* head = row->latest.load();
  const uint64_t saved = head->commit_ts.load();
  const uint64_t older_ts = head->older.load()->commit_ts.load();
  ASSERT_GT(saved, older_ts);

  head->commit_ts.store(older_ts - 1);
  Status s = db_->ValidateInvariants();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  head->commit_ts.store(saved);
  Status clean = db_->ValidateInvariants();
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

TEST_F(ValidateTest, ValidatesAfterUpdatesDeletesAndGc) {
  Open();
  InsertRows(50);
  for (int64_t i = 0; i < 50; i += 2) {
    UpdateValue(i, "updated");
  }
  for (int64_t i = 1; i < 50; i += 4) {
    auto txn = db_->Begin();
    std::string pk = table_->pk_encoder().KeyForInts({i});
    ASSERT_TRUE(db_->Delete(txn.get(), table_, pk).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  db_->RunGcOnce();
  db_->RunIlmTickOnce();
  db_->RunGcOnce();

  ValidateReport report;
  Status s = db_->ValidateInvariants(&report);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace btrim
