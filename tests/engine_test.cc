// Engine-level tests: record codec, key encoding, transactional CRUD,
// snapshot isolation, hot-data admission (migration / select caching),
// Pack relocation, and GC purge — all through the public Database API.

#include <regex>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/stats_printer.h"
#include "tpcc/schema.h"
#include "wal/log_record.h"

namespace btrim {
namespace {

// --- record codec -----------------------------------------------------------------

Schema TestSchema() {
  return Schema({
      Column::Int64("id"),
      Column::Int32("count"),
      Column::Double("price"),
      Column::String("name", 32),
  });
}

TEST(RecordCodecTest, BuildAndViewRoundTrip) {
  Schema schema = TestSchema();
  RecordBuilder b(&schema);
  b.AddInt64(-42).AddInt32(7).AddDouble(3.25).AddString("widget");
  RecordView v(&schema, b.Finish());
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.GetInt64(0), -42);
  EXPECT_EQ(v.GetInt32(1), 7);
  EXPECT_DOUBLE_EQ(v.GetDouble(2), 3.25);
  EXPECT_EQ(v.GetString(3).ToString(), "widget");
  EXPECT_EQ(v.GetInt(0), -42);
  EXPECT_EQ(v.GetInt(1), 7);
}

TEST(RecordCodecTest, EmptyStringsAndExtremes) {
  Schema schema = TestSchema();
  RecordBuilder b(&schema);
  b.AddInt64(INT64_MIN).AddInt32(INT32_MAX).AddDouble(-0.0).AddString("");
  RecordView v(&schema, b.Finish());
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.GetInt64(0), INT64_MIN);
  EXPECT_EQ(v.GetInt32(1), INT32_MAX);
  EXPECT_EQ(v.GetString(3).size(), 0u);
}

TEST(RecordCodecTest, TruncatedRecordIsInvalid) {
  Schema schema = TestSchema();
  RecordBuilder b(&schema);
  b.AddInt64(1).AddInt32(2).AddDouble(3).AddString("x");
  std::string data = b.Finish().ToString();
  RecordView v(&schema, Slice(data.data(), data.size() - 2));
  EXPECT_FALSE(v.valid());
}

// Customer is the widest TPC-C row (21 columns). Splicing a shorter or longer
// string into its first, a middle or its last string column, then setting
// fixed-width columns behind the splice, must give exactly the record built
// with those values, so every other column reads back unchanged.
TEST(RecordCodecTest, EditorModifiesSelectedColumns) {
  namespace cust = tpcc::cust;
  auto db = std::move(*Database::Open(DatabaseOptions()));
  const Schema& schema =
      (*tpcc::CreateTables(db.get(), tpcc::Scale())).customer->schema();
  auto customer = [&](const std::string& first, const std::string& city,
                      const std::string& data, int64_t since, double balance,
                      int32_t payments) {
    RecordBuilder b(&schema);
    b.AddInt32(1).AddInt32(2).AddInt32(3).AddString(first).AddString("OE")
        .AddString("BARBARBAR").AddString("street one").AddString("street 2")
        .AddString(city).AddString("ST").AddString("123456789")
        .AddString("555-0100").AddInt64(since).AddString("GC")
        .AddDouble(5e4).AddDouble(0.25).AddDouble(balance).AddDouble(10.0)
        .AddInt32(payments).AddInt32(0).AddString(data);
    return b.Finish().ToString();
  };
  const std::string original = customer("first", "city", "data", 7, -1.5, 1);
  const std::string values[] = {"", "x", std::string(16, 'L')};
  for (const std::string& value : values) {
    for (const int col : {cust::kFirst, cust::kCity, cust::kData}) {
      std::string image = original;
      RowEditor e(&schema, &image);
      e.SetString(col, value);
      e.SetInt64(cust::kSince, -77);
      e.SetDouble(cust::kBalance, 99.5);
      e.SetInt32(cust::kPaymentCnt, 41);
      EXPECT_EQ(e.GetString(col).ToString(), value);
      EXPECT_EQ(e.set_columns(),
                (1u << col) | (1u << cust::kSince) | (1u << cust::kBalance) |
                    (1u << cust::kPaymentCnt));
      EXPECT_EQ(image, customer(col == cust::kFirst ? value : "first",
                                col == cust::kCity ? value : "city",
                                col == cust::kData ? value : "data", -77,
                                99.5, 41))
          << schema.column(col).name << " <- '" << value << "'";
    }
  }
  // A string over max_len is recorded, not stored.
  std::string image = original;
  RowEditor e(&schema, &image);
  e.SetString(cust::kCredit, "BAD");
  EXPECT_TRUE(e.too_long());
  EXPECT_EQ(image, original);
}

TEST(KeyEncoderTest, IntKeysSortNumerically) {
  Schema schema = TestSchema();
  KeyEncoder enc(&schema, {0});
  // Includes negatives: the sign-bias must order them before positives.
  const std::vector<int64_t> values = {-1000, -1, 0, 1, 42, 1000000};
  std::string prev;
  for (size_t i = 0; i < values.size(); ++i) {
    std::string key = enc.KeyForInts({values[i]});
    if (i > 0) {
      EXPECT_LT(prev, key) << "at " << values[i];
    }
    prev = key;
  }
}

TEST(KeyEncoderTest, CompositeKeyOrdersBySignificance) {
  Schema schema = Schema({Column::Int32("a"), Column::Int32("b")});
  KeyEncoder enc(&schema, {0, 1});
  EXPECT_LT(enc.KeyForInts({1, 99}), enc.KeyForInts({2, 0}));
  EXPECT_LT(enc.KeyForInts({1, 1}), enc.KeyForInts({1, 2}));
}

TEST(KeyEncoderTest, KeyForRecordMatchesKeyForInts) {
  Schema schema = TestSchema();
  KeyEncoder enc(&schema, {0, 1});
  RecordBuilder b(&schema);
  b.AddInt64(123).AddInt32(45).AddDouble(0).AddString("x");
  EXPECT_EQ(enc.KeyForRecord(b.Finish()), enc.KeyForInts({123, 45}));
}

TEST(KeyEncoderTest, PaddedStringsAlignCompositeKeys) {
  Schema schema = Schema({Column::String("s", 8), Column::Int32("n")});
  KeyEncoder enc(&schema, {0, 1});
  RecordBuilder b1(&schema);
  b1.AddString("ab").AddInt32(2);
  RecordBuilder b2(&schema);
  b2.AddString("ab").AddInt32(10);
  // Same string, different int: int decides.
  EXPECT_LT(enc.KeyForRecord(b1.Finish()), enc.KeyForRecord(b2.Finish()));
  EXPECT_EQ(enc.KeyForRecord(b1.Finish()).size(), 8u + 8u);
}

// --- Database fixture -----------------------------------------------------------

class EngineTest : public ::testing::Test {
 protected:
  void Open(DatabaseOptions options = {}) {
    options.buffer_cache_frames = 512;
    if (options.imrs_cache_bytes == (256ull << 20)) {
      options.imrs_cache_bytes = 8 << 20;
    }
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
    topt.secondary_indexes.push_back(IndexDef{"by_group", {1, 0}, false});
    Result<Table*> created = db_->CreateTable(topt);
    ASSERT_TRUE(created.ok());
    table_ = *created;
  }

  std::string Key(int64_t id) { return table_->pk_encoder().KeyForInts({id}); }

  std::string Record(int64_t id, int64_t group, const std::string& value) {
    RecordBuilder b(&table_->schema());
    b.AddInt64(id).AddInt64(group).AddString(value);
    return b.Finish().ToString();
  }

  Status InsertRow(int64_t id, int64_t group, const std::string& value,
                   Transaction* txn = nullptr) {
    if (txn != nullptr) {
      return db_->Insert(txn, table_, Record(id, group, value));
    }
    auto t = db_->Begin();
    Status s = db_->Insert(t.get(), table_, Record(id, group, value));
    if (!s.ok()) {
      Status a = db_->Abort(t.get());
      (void)a;
      return s;
    }
    return db_->Commit(t.get());
  }

  /// Reads the value column of `id` in a fresh transaction.
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

  Status UpdateValue(int64_t id, const std::string& value,
                     Transaction* txn = nullptr) {
    auto mutate = [&](RowEditor& e) { e.SetString(2, value); };
    if (txn != nullptr) return db_->Update(txn, table_, Key(id), mutate);
    auto t = db_->Begin();
    Status s = db_->Update(t.get(), table_, Key(id), mutate);
    if (!s.ok()) {
      Status a = db_->Abort(t.get());
      (void)a;
      return s;
    }
    return db_->Commit(t.get());
  }

  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

// --- CRUD -------------------------------------------------------------------------

TEST_F(EngineTest, InsertSelectRoundTrip) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "hello").ok());
  Result<std::string> v = ReadValue(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "hello");
}

TEST_F(EngineTest, SelectMissingIsNotFound) {
  Open();
  EXPECT_TRUE(ReadValue(404).status().IsNotFound());
}

TEST_F(EngineTest, DuplicatePrimaryKeyRejected) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "first").ok());
  Status s = InsertRow(1, 11, "second");
  EXPECT_TRUE(s.IsAlreadyExists());
  EXPECT_EQ(*ReadValue(1), "first");
}

TEST_F(EngineTest, UpdateRewritesRow) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "v1").ok());
  ASSERT_TRUE(UpdateValue(1, "v2").ok());
  EXPECT_EQ(*ReadValue(1), "v2");
  ASSERT_TRUE(UpdateValue(1, "v3").ok());
  EXPECT_EQ(*ReadValue(1), "v3");
}

TEST_F(EngineTest, UpdateMissingIsNotFound) {
  Open();
  EXPECT_TRUE(UpdateValue(404, "x").IsNotFound());
}

// An edit may not move its row: setting a primary-key, secondary-index or
// partition column, or a string past its max_len, is refused with nothing
// written, whether the row lives in the IMRS or on the page store.
TEST_F(EngineTest, UpdateRefusesEditsThatMoveTheRow) {
  Open();
  TableOptions topt;
  topt.name = "placed";
  topt.schema = Schema({Column::Int64("id"), Column::Int64("group_id"),
                        Column::Int64("region"), Column::String("value", 8)});
  topt.primary_key = {0};
  topt.secondary_indexes.push_back(IndexDef{"by_group", {1, 0}, false});
  topt.num_partitions = 2;
  topt.partition_column = 2;
  Table* placed = *db_->CreateTable(topt);
  auto key = [&](int64_t id) { return placed->pk_encoder().KeyForInts({id}); };
  auto record = [&](int64_t id) {
    RecordBuilder b(&placed->schema());
    return b.AddInt64(id).AddInt64(10).AddInt64(1).AddString("v").Finish()
        .ToString();
  };
  void (*const moves[])(RowEditor&) = {
      [](RowEditor& e) { e.SetInt64(0, 99); },
      [](RowEditor& e) { e.SetInt64(1, 11); },
      [](RowEditor& e) { e.SetInt64(2, 0); },
      [](RowEditor& e) { e.SetString(3, "nine-long"); },
  };
  for (const int64_t id : {1, 2}) {  // 1 lives in the IMRS, 2 in the heap
    db_->ilm()->SetForcePageStore(id == 2);
    auto txn = db_->Begin();
    ASSERT_TRUE(db_->Insert(txn.get(), placed, record(id)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
    db_->ilm()->SetForcePageStore(false);  // a written heap row would migrate
    const Rid rid = Rid::Decode(*placed->primary_index()->Search(key(id)));
    ASSERT_EQ(db_->rid_map()->Lookup(rid) == nullptr, id == 2);

    txn = db_->Begin();
    ASSERT_TRUE(db_->Insert(txn.get(), placed, record(id + 10)).ok());
    const size_t writes = txn->write_set().size();
    for (auto* move : moves) {
      Status s = db_->Update(txn.get(), placed, key(id), move);
      EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
      EXPECT_EQ(txn->write_set().size(), writes);
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
    EXPECT_EQ(db_->rid_map()->Lookup(rid) == nullptr, id == 2);
  }
  // Rows and index entries are as inserted: groups 10 and 11 hold exactly
  // the four rows of group 10, all in partition 1.
  auto reader = db_->Begin();
  std::string row;
  for (const int64_t id : {1, 2}) {
    ASSERT_TRUE(db_->SelectByKey(reader.get(), placed, key(id), &row).ok());
    EXPECT_EQ(row, record(id));
  }
  EXPECT_TRUE(
      db_->SelectByKey(reader.get(), placed, key(99), &row).IsNotFound());
  const KeyEncoder& by_group = *placed->secondaries()[0].encoder;
  std::vector<ScanRow> rows;
  ASSERT_TRUE(db_->ScanIndex(reader.get(), placed, 0,
                             by_group.PrefixForInts({10}),
                             by_group.PrefixForInts({12}), 0, &rows)
                  .ok());
  EXPECT_EQ(rows.size(), 4u);
  for (const ScanRow& r : rows) {
    EXPECT_EQ(RecordView(&placed->schema(), Slice(r.payload)).GetInt(1), 10);
    EXPECT_EQ(placed->PartitionForRid(r.rid), &placed->partition(1));
  }
  ASSERT_TRUE(db_->Commit(reader.get()).ok());
  EXPECT_TRUE(db_->ValidateInvariants().ok());
}

TEST_F(EngineTest, CreateTableRejectsSchemasWiderThanTheCodec) {
  Open();
  TableOptions topt;
  topt.name = "wide";
  topt.primary_key = {0};
  const Column c = Column::Int32("c");
  topt.schema = Schema(std::vector<Column>(kMaxColumns + 1, c));
  EXPECT_TRUE(db_->CreateTable(topt).status().IsInvalidArgument());
  topt.schema = Schema(std::vector<Column>(kMaxColumns, c));
  EXPECT_TRUE(db_->CreateTable(topt).ok());
}

TEST_F(EngineTest, DeleteRemovesRow) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "doomed").ok());
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(1)).ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_TRUE(ReadValue(1).status().IsNotFound());
  // Double delete: not found.
  auto txn2 = db_->Begin();
  EXPECT_TRUE(db_->Delete(txn2.get(), table_, Key(1)).IsNotFound());
  ASSERT_TRUE(db_->Abort(txn2.get()).ok());
}

TEST_F(EngineTest, MultiRowTransactionIsAtomic) {
  Open();
  auto txn = db_->Begin();
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(InsertRow(i, 1, "batch", txn.get()).ok());
  }
  // Nothing visible before commit.
  EXPECT_TRUE(ReadValue(5).status().IsNotFound());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_TRUE(ReadValue(5).ok());
}

// --- rollback -----------------------------------------------------------------------

TEST_F(EngineTest, AbortedInsertLeavesNoTrace) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(InsertRow(1, 10, "ghost", txn.get()).ok());
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
  EXPECT_TRUE(ReadValue(1).status().IsNotFound());
  // Key space is fully released: same key usable again.
  ASSERT_TRUE(InsertRow(1, 10, "real").ok());
  EXPECT_EQ(*ReadValue(1), "real");
}

TEST_F(EngineTest, AbortedUpdateRestoresOldValue) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "committed").ok());
  auto txn = db_->Begin();
  ASSERT_TRUE(UpdateValue(1, "uncommitted", txn.get()).ok());
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
  EXPECT_EQ(*ReadValue(1), "committed");
}

TEST_F(EngineTest, AbortedDeleteRestoresRow) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "survivor").ok());
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(1)).ok());
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
  EXPECT_EQ(*ReadValue(1), "survivor");
}

TEST_F(EngineTest, PageStorePathRollbacks) {
  Open();
  // Route everything to the page store (bulk-load mode).
  db_->ilm()->SetForcePageStore(true);
  ASSERT_TRUE(InsertRow(1, 10, "ps-v1").ok());
  EXPECT_EQ(db_->rid_map()->Size(), 0);  // truly page-store resident

  auto txn = db_->Begin();
  ASSERT_TRUE(UpdateValue(1, "ps-v2", txn.get()).ok());
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
  EXPECT_EQ(*ReadValue(1), "ps-v1");

  auto txn2 = db_->Begin();
  ASSERT_TRUE(db_->Delete(txn2.get(), table_, Key(1)).ok());
  ASSERT_TRUE(db_->Abort(txn2.get()).ok());
  EXPECT_EQ(*ReadValue(1), "ps-v1");

  auto txn3 = db_->Begin();
  ASSERT_TRUE(InsertRow(2, 10, "ps-ghost", txn3.get()).ok());
  ASSERT_TRUE(db_->Abort(txn3.get()).ok());
  EXPECT_TRUE(ReadValue(2).status().IsNotFound());
}

// Every write of an aborted transaction is undone in reverse order: the
// second update of a page-store row must restore the first update's image
// before the first restores the original, and the delete of a row inserted
// by the same transaction must be popped before the row is unregistered.
TEST_F(EngineTest, AbortUndoesEveryWriteInReverseOrder) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "imrs-original").ok());
  db_->ilm()->SetForcePageStore(true);
  ASSERT_TRUE(InsertRow(2, 10, "ps-original").ok());
  db_->ilm()->SetForcePageStore(false);
  ASSERT_NE(db_->rid_map()->Lookup(Rid::Decode(
                *table_->primary_index()->Search(Key(1)))),
            nullptr);
  ASSERT_EQ(db_->rid_map()->Size(), 1);
  const obs::MetricsRegistry& m = *db_->metrics_registry();
  const int64_t imrs_bytes = m.Sum("partition.imrs_bytes");
  const int64_t imrs_rows = m.Sum("partition.imrs_rows");

  auto txn = db_->Begin();
  ASSERT_TRUE(UpdateValue(1, "imrs-first", txn.get()).ok());
  ASSERT_TRUE(UpdateValue(1, "imrs-second-and-longer", txn.get()).ok());
  db_->ilm()->SetForcePageStore(true);  // update the page-store row in place
  ASSERT_TRUE(UpdateValue(2, "ps-first", txn.get()).ok());
  ASSERT_TRUE(UpdateValue(2, "ps-second-and-longer", txn.get()).ok());
  db_->ilm()->SetForcePageStore(false);
  ASSERT_TRUE(InsertRow(3, 10, "born-and-gone", txn.get()).ok());
  ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(3)).ok());
  EXPECT_EQ(db_->rid_map()->Size(), 2);  // row 2 stayed on the page store
  ASSERT_TRUE(db_->Abort(txn.get()).ok());

  EXPECT_EQ(m.Sum("partition.imrs_bytes"), imrs_bytes);
  EXPECT_EQ(m.Sum("partition.imrs_rows"), imrs_rows);
  Status valid = db_->ValidateInvariants();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(*ReadValue(1), "imrs-original");
  EXPECT_EQ(*ReadValue(2), "ps-original");
  EXPECT_TRUE(ReadValue(3).status().IsNotFound());
}

// Commit stamps every version the transaction added, including each of
// several updates of one row and a delete marker.
TEST_F(EngineTest, CommitStampsEveryVersionTheTransactionWrote) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "updated").ok());
  ASSERT_TRUE(InsertRow(2, 10, "deleted").ok());
  auto txn = db_->Begin();
  ASSERT_TRUE(InsertRow(3, 10, "inserted", txn.get()).ok());
  ASSERT_TRUE(UpdateValue(1, "updated-once", txn.get()).ok());
  ASSERT_TRUE(UpdateValue(1, "updated-twice", txn.get()).ok());
  ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(2)).ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  const uint64_t cts = txn->commit_ts();
  ASSERT_GT(cts, 0u);

  auto row_of = [&](int64_t id) {
    Result<uint64_t> rid = table_->primary_index()->Search(Key(id));
    return rid.ok() ? db_->rid_map()->Lookup(Rid::Decode(*rid)) : nullptr;
  };
  auto stamped = [&](int64_t id, int versions) {
    ImrsRow* row = row_of(id);
    if (row == nullptr) return std::vector<uint64_t>{};
    std::vector<uint64_t> out;
    RowVersion* v = row->latest.load();
    for (int i = 0; i < versions && v != nullptr; ++i, v = v->older.load()) {
      out.push_back(v->commit_ts.load());
    }
    return out;
  };
  EXPECT_EQ(stamped(3, 1), (std::vector<uint64_t>{cts}));
  EXPECT_EQ(stamped(1, 2), (std::vector<uint64_t>{cts, cts}));
  // Row 2's delete marker is its head; the hash index no longer serves it.
  EXPECT_EQ(stamped(2, 1), (std::vector<uint64_t>{cts}));
  EXPECT_TRUE(row_of(2)->latest.load()->is_delete);
  EXPECT_TRUE(ReadValue(2).status().IsNotFound());
  EXPECT_EQ(*ReadValue(1), "updated-twice");
}

// --- snapshot isolation ----------------------------------------------------------------

TEST_F(EngineTest, UncommittedWritesInvisibleToOthers) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "old").ok());
  auto writer = db_->Begin();
  ASSERT_TRUE(UpdateValue(1, "new", writer.get()).ok());

  auto reader = db_->Begin();
  std::string row;
  ASSERT_TRUE(db_->SelectByKey(reader.get(), table_, Key(1), &row).ok());
  RecordView v(&table_->schema(), Slice(row));
  EXPECT_EQ(v.GetString(2).ToString(), "old");
  ASSERT_TRUE(db_->Commit(reader.get()).ok());
  ASSERT_TRUE(db_->Commit(writer.get()).ok());
}

TEST_F(EngineTest, SnapshotReadsAreStableAcrossConcurrentCommit) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "v1").ok());
  auto reader = db_->Begin();  // snapshot before the update commits

  ASSERT_TRUE(UpdateValue(1, "v2").ok());  // separate committed txn

  std::string row;
  ASSERT_TRUE(db_->SelectByKey(reader.get(), table_, Key(1), &row).ok());
  RecordView v(&table_->schema(), Slice(row));
  EXPECT_EQ(v.GetString(2).ToString(), "v1");  // still the old version
  ASSERT_TRUE(db_->Commit(reader.get()).ok());

  EXPECT_EQ(*ReadValue(1), "v2");  // new snapshot sees the update
}

TEST_F(EngineTest, TransactionSeesItsOwnWrites) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(InsertRow(1, 10, "mine", txn.get()).ok());
  std::string row;
  ASSERT_TRUE(db_->SelectByKey(txn.get(), table_, Key(1), &row).ok());
  RecordView v(&table_->schema(), Slice(row));
  EXPECT_EQ(v.GetString(2).ToString(), "mine");

  ASSERT_TRUE(UpdateValue(1, "mine-v2", txn.get()).ok());
  ASSERT_TRUE(db_->SelectByKey(txn.get(), table_, Key(1), &row).ok());
  RecordView v2(&table_->schema(), Slice(row));
  EXPECT_EQ(v2.GetString(2).ToString(), "mine-v2");
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(EngineTest, RowInsertedAfterSnapshotIsInvisible) {
  Open();
  auto reader = db_->Begin();
  ASSERT_TRUE(InsertRow(1, 10, "late").ok());
  std::string row;
  EXPECT_TRUE(
      db_->SelectByKey(reader.get(), table_, Key(1), &row).IsNotFound());
  ASSERT_TRUE(db_->Commit(reader.get()).ok());
}

TEST_F(EngineTest, DeletedRowStillVisibleToOlderSnapshot) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "going").ok());
  auto reader = db_->Begin();
  {
    auto deleter = db_->Begin();
    ASSERT_TRUE(db_->Delete(deleter.get(), table_, Key(1)).ok());
    ASSERT_TRUE(db_->Commit(deleter.get()).ok());
  }
  std::string row;
  ASSERT_TRUE(db_->SelectByKey(reader.get(), table_, Key(1), &row).ok());
  ASSERT_TRUE(db_->Commit(reader.get()).ok());
  EXPECT_TRUE(ReadValue(1).status().IsNotFound());
}

// --- ILM data movement -------------------------------------------------------------------

TEST_F(EngineTest, UpdateMigratesPageStoreRowIntoImrs) {
  Open();
  db_->ilm()->SetForcePageStore(true);
  ASSERT_TRUE(InsertRow(1, 10, "cold").ok());
  db_->ilm()->SetForcePageStore(false);
  ASSERT_EQ(db_->rid_map()->Size(), 0);

  ASSERT_TRUE(UpdateValue(1, "hot-now").ok());
  EXPECT_EQ(db_->rid_map()->Size(), 1);
  // Verify the source classification.
  bool found_migrated = false;
  db_->rid_map()->ForEach([&](Rid, ImrsRow* row) {
    if (row->source == RowSource::kMigrated) found_migrated = true;
  });
  EXPECT_TRUE(found_migrated);
  EXPECT_EQ(*ReadValue(1), "hot-now");
}

TEST_F(EngineTest, OldSnapshotReadsPreMigrationImageFromPageStore) {
  Open();
  db_->ilm()->SetForcePageStore(true);
  ASSERT_TRUE(InsertRow(1, 10, "disk-image").ok());
  db_->ilm()->SetForcePageStore(false);

  auto reader = db_->Begin();  // snapshot before migration
  ASSERT_TRUE(UpdateValue(1, "imrs-image").ok());

  // The IMRS version is too new for this reader; it must fall back to the
  // (stale but correct-for-it) page-store image.
  std::string row;
  ASSERT_TRUE(db_->SelectByKey(reader.get(), table_, Key(1), &row).ok());
  RecordView v(&table_->schema(), Slice(row));
  EXPECT_EQ(v.GetString(2).ToString(), "disk-image");
  ASSERT_TRUE(db_->Commit(reader.get()).ok());
}

TEST_F(EngineTest, AbortedMigrationLeavesPageStoreTruthIntact) {
  Open();
  db_->ilm()->SetForcePageStore(true);
  ASSERT_TRUE(InsertRow(1, 10, "disk-truth").ok());
  db_->ilm()->SetForcePageStore(false);

  // The update migrates the row into the IMRS, then aborts: the IMRS copy
  // must vanish and the page-store image remains authoritative.
  auto txn = db_->Begin();
  ASSERT_TRUE(UpdateValue(1, "never-happened", txn.get()).ok());
  EXPECT_EQ(db_->rid_map()->Size(), 1);  // migrated (uncommitted)
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
  EXPECT_EQ(db_->rid_map()->Size(), 0);
  EXPECT_EQ(*ReadValue(1), "disk-truth");
  // And the row can be migrated again cleanly afterwards.
  ASSERT_TRUE(UpdateValue(1, "second-try").ok());
  EXPECT_EQ(*ReadValue(1), "second-try");
}

TEST_F(EngineTest, AbortedSelectCachingRollsBack) {
  Open();
  db_->ilm()->SetForcePageStore(true);
  ASSERT_TRUE(InsertRow(1, 10, "cold-row").ok());
  db_->ilm()->SetForcePageStore(false);

  auto txn = db_->Begin();
  std::string row;
  ASSERT_TRUE(db_->SelectByKey(txn.get(), table_, Key(1), &row).ok());
  EXPECT_EQ(db_->rid_map()->Size(), 1);  // cached within the transaction
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
  EXPECT_EQ(db_->rid_map()->Size(), 0);  // caching undone with the txn
  EXPECT_EQ(*ReadValue(1), "cold-row");  // (this read re-caches — fine)
}

TEST_F(EngineTest, PointSelectCachesPageStoreRow) {
  Open();
  db_->ilm()->SetForcePageStore(true);
  ASSERT_TRUE(InsertRow(1, 10, "readable").ok());
  db_->ilm()->SetForcePageStore(false);

  EXPECT_EQ(*ReadValue(1), "readable");
  EXPECT_EQ(db_->rid_map()->Size(), 1);
  bool found_cached = false;
  db_->rid_map()->ForEach([&](Rid, ImrsRow* row) {
    if (row->source == RowSource::kCached) found_cached = true;
  });
  EXPECT_TRUE(found_cached);
  // Subsequent reads hit the IMRS.
  const obs::MetricsRegistry& m = *db_->metrics_registry();
  const int64_t imrs_ops_before = m.Sum("engine.imrs_ops");
  EXPECT_EQ(*ReadValue(1), "readable");
  EXPECT_GT(m.Sum("engine.imrs_ops"), imrs_ops_before);
}

TEST_F(EngineTest, SelectCachingCanBeDisabled) {
  DatabaseOptions options;
  options.ilm.select_caching = false;
  Open(options);
  db_->ilm()->SetForcePageStore(true);
  ASSERT_TRUE(InsertRow(1, 10, "stays-cold").ok());
  db_->ilm()->SetForcePageStore(false);
  EXPECT_EQ(*ReadValue(1), "stays-cold");
  EXPECT_EQ(db_->rid_map()->Size(), 0);
}

TEST_F(EngineTest, ImrsFullFallsBackToPageStore) {
  DatabaseOptions options;
  options.imrs_cache_bytes = 16 * 1024;  // absurdly small
  Open(options);
  // Insert more data than the IMRS can hold: later inserts must land in
  // the page store instead of failing.
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(InsertRow(i, 1, std::string(50, 'x')).ok()) << i;
  }
  EXPECT_GT(db_->metrics_registry()->Sum("engine.page_ops"), 0);
  // Everything is readable regardless of where it landed.
  for (int64_t i = 0; i < 200; i += 20) {
    EXPECT_TRUE(ReadValue(i).ok()) << i;
  }
}

TEST_F(EngineTest, PackRelocatesColdRowsAndKeepsThemReadable) {
  DatabaseOptions options;
  options.imrs_cache_bytes = 64 * 1024;
  options.ilm.pack_cycle_pct = 0.20;
  Open(options);

  // Fill the IMRS beyond its steady threshold.
  int64_t id = 0;
  while (db_->imrs_allocator()->Utilization() < 0.80) {
    ASSERT_TRUE(InsertRow(id++, 1, std::string(40, 'p')).ok());
  }
  // Queue maintenance (GC) then pack cycles.
  db_->RunGcOnce();
  const int64_t before_bytes = db_->imrs_allocator()->InUseBytes();
  for (int i = 0; i < 10; ++i) {
    db_->RunIlmTickOnce();
    db_->RunGcOnce();
  }
  EXPECT_GT(db_->metrics_registry()->Sum("pack.rows_packed"), 0);
  EXPECT_GT(db_->metrics_registry()->Sum("pack.bytes_packed"), 0);
  EXPECT_LT(db_->imrs_allocator()->InUseBytes(), before_bytes);

  // Every row is still readable (some from the page store now).
  for (int64_t i = 0; i < id; i += 7) {
    ASSERT_TRUE(ReadValue(i).ok()) << "row " << i;
  }
  EXPECT_LT(db_->rid_map()->Size(), id);  // some rows really left the IMRS
}

TEST_F(EngineTest, GcPurgesDeletedRowsCompletely) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "transient").ok());
  db_->RunGcOnce();  // row enters its ILM queue

  auto txn = db_->Begin();
  ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(1)).ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());

  // Advance the horizon past the delete, then purge.
  ASSERT_TRUE(InsertRow(2, 10, "clock-mover").ok());
  db_->RunGcOnce();
  db_->RunGcOnce();

  EXPECT_EQ(db_->rid_map()->Lookup(Rid{0, 0, 0}), nullptr);
  EXPECT_GT(db_->metrics_registry()->Sum("gc.rows_purged"), 0);
  // The primary index entry is gone too (a fresh insert of the key works
  // and a lookup honestly misses).
  EXPECT_TRUE(ReadValue(1).status().IsNotFound());
  ASSERT_TRUE(InsertRow(1, 10, "reborn").ok());
  EXPECT_EQ(*ReadValue(1), "reborn");
}

// --- scans ------------------------------------------------------------------------------

TEST_F(EngineTest, PrimaryScanReturnsRange) {
  Open();
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(InsertRow(i, i % 5, "row" + std::to_string(i)).ok());
  }
  auto txn = db_->Begin();
  std::vector<ScanRow> rows;
  ASSERT_TRUE(db_->ScanIndex(txn.get(), table_, -1, Key(10), Key(20), 0,
                             &rows)
                  .ok());
  EXPECT_EQ(rows.size(), 10u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(EngineTest, SecondaryScanFindsGroupMembers) {
  Open();
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(InsertRow(i, i % 3, "x").ok());
  }
  auto txn = db_->Begin();
  std::string lower, upper;
  KeyEncoder::AppendInt(&lower, 1);
  KeyEncoder::AppendInt(&upper, 2);
  std::vector<ScanRow> rows;
  ASSERT_TRUE(db_->ScanIndex(txn.get(), table_, 0, Slice(lower), Slice(upper),
                             0, &rows)
                  .ok());
  EXPECT_EQ(rows.size(), 10u);
  for (const ScanRow& r : rows) {
    RecordView v(&table_->schema(), Slice(r.payload));
    EXPECT_EQ(v.GetInt64(1), 1);
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(EngineTest, ScanStraddlesBothStores) {
  Open();
  db_->ilm()->SetForcePageStore(true);
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(InsertRow(i, 1, "cold").ok());
  }
  db_->ilm()->SetForcePageStore(false);
  for (int64_t i = 10; i < 20; ++i) {
    ASSERT_TRUE(InsertRow(i, 1, "hot").ok());
  }
  auto txn = db_->Begin();
  std::vector<ScanRow> rows;
  ASSERT_TRUE(
      db_->ScanIndex(txn.get(), table_, -1, Key(0), Key(20), 0, &rows).ok());
  ASSERT_EQ(rows.size(), 20u);
  int imrs = 0, page = 0;
  for (const ScanRow& r : rows) {
    (r.from_imrs ? imrs : page)++;
  }
  EXPECT_EQ(imrs, 10);
  EXPECT_EQ(page, 10);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(EngineTest, ScanSkipsRowsDeletedForThisSnapshot) {
  Open();
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(InsertRow(i, 1, "x").ok());
  }
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(5)).ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());

  auto reader = db_->Begin();
  std::vector<ScanRow> rows;
  ASSERT_TRUE(
      db_->ScanIndex(reader.get(), table_, -1, Key(0), Key(10), 0, &rows).ok());
  EXPECT_EQ(rows.size(), 9u);
  ASSERT_TRUE(db_->Commit(reader.get()).ok());
}

TEST_F(EngineTest, ScanLimitCountsOnlyVisibleRows) {
  // An IMRS delete keeps its index entry until GC purges the row: the
  // committed, unpurged tombstone of row 0 must not use up the limit.
  Open();
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(InsertRow(i, 1, "x").ok());
  }
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(0)).ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());

  auto reader = db_->Begin();
  std::vector<ScanRow> rows;
  ASSERT_TRUE(db_->ScanIndex(reader.get(), table_, -1, Slice(), Slice(),
                             /*limit=*/1, &rows)
                  .ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].from_imrs);
  EXPECT_EQ(RecordView(&table_->schema(), Slice(rows[0].payload)).GetInt64(0),
            1);

  // A visitor that returns false stops the scan at the row it was handed.
  std::vector<int64_t> ids;
  ASSERT_TRUE(db_->ScanIndex(reader.get(), table_, -1, Slice(), Slice(), 0,
                             [&](const ScanRow& r) {
                               ids.push_back(
                                   RecordView(&table_->schema(),
                                              Slice(r.payload))
                                       .GetInt64(0));
                               return false;
                             })
                  .ok());
  EXPECT_EQ(ids, std::vector<int64_t>{1});
  ASSERT_TRUE(db_->Commit(reader.get()).ok());
}

// --- concurrency ---------------------------------------------------------------------------

TEST_F(EngineTest, WriteConflictTimesOutAndAborts) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "contested").ok());
  auto holder = db_->Begin();
  ASSERT_TRUE(UpdateValue(1, "holder", holder.get()).ok());

  auto contender = db_->Begin();
  Status s = UpdateValue(1, "contender", contender.get());
  EXPECT_TRUE(s.IsAborted());
  ASSERT_TRUE(db_->Abort(contender.get()).ok());
  ASSERT_TRUE(db_->Commit(holder.get()).ok());
  EXPECT_EQ(*ReadValue(1), "holder");
}

TEST_F(EngineTest, ConcurrentDisjointWritersAllSucceed) {
  Open();
  constexpr int kThreads = 4;
  constexpr int kRows = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRows; ++i) {
        const int64_t id = static_cast<int64_t>(t) * 10000 + i;
        if (!InsertRow(id, t, "w").ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto txn = db_->Begin();
  std::vector<ScanRow> rows;
  ASSERT_TRUE(db_->ScanIndex(txn.get(), table_, -1, Slice(), Slice(), 0,
                             &rows)
                  .ok());
  EXPECT_EQ(rows.size(), static_cast<size_t>(kThreads * kRows));
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(EngineTest, ConcurrentCountersUnderContention) {
  Open();
  ASSERT_TRUE(InsertRow(1, 0, "0").ok());
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        auto txn = db_->Begin();
        Status s = db_->Update(txn.get(), table_, Key(1),
                               [&](RowEditor& e) {
                                 const int cur =
                                     std::stoi(e.GetString(2).ToString());
                                 e.SetString(2, std::to_string(cur + 1));
                               });
        if (s.ok()) s = db_->Commit(txn.get());
        else { Status a = db_->Abort(txn.get()); (void)a; }
        if (s.ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Exclusive locks make increments exact for committed transactions.
  EXPECT_EQ(std::stoi(*ReadValue(1)), committed.load());
  EXPECT_GT(committed.load(), 0);
}

// --- misc -------------------------------------------------------------------------------------

TEST_F(EngineTest, MultiPartitionTableRoutesByColumn) {
  DatabaseOptions options;
  Open(options);
  TableOptions topt;
  topt.name = "parted";
  topt.schema = Schema({Column::Int64("id"), Column::Int64("region")});
  topt.primary_key = {0};
  topt.num_partitions = 4;
  topt.partition_column = 1;
  Result<Table*> created = db_->CreateTable(topt);
  ASSERT_TRUE(created.ok());
  Table* parted = *created;
  ASSERT_EQ(parted->num_partitions(), 4u);

  for (int64_t i = 0; i < 40; ++i) {
    auto txn = db_->Begin();
    RecordBuilder b(&parted->schema());
    b.AddInt64(i).AddInt64(i % 4);
    ASSERT_TRUE(db_->Insert(txn.get(), parted, b.Finish()).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  // Each partition owns exactly its region's rows.
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(parted->partition(p).ilm->metrics.imrs_rows.Load(), 10);
  }
  // Point lookups work across partitions.
  for (int64_t i = 0; i < 40; i += 7) {
    auto txn = db_->Begin();
    std::string row;
    EXPECT_TRUE(db_->SelectByKey(txn.get(), parted,
                                 parted->pk_encoder().KeyForInts({i}), &row)
                    .ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
}

TEST_F(EngineTest, RangePartitionedTableRoutesByBounds) {
  DatabaseOptions options;
  Open(options);
  TableOptions topt;
  topt.name = "orders_by_month";
  topt.schema = Schema({Column::Int64("id"), Column::Int64("month")});
  topt.primary_key = {0};
  topt.partition_column = 1;
  topt.range_bounds = {202603, 202606};  // [,202603) [202603,202606) [202606,)
  Result<Table*> created = db_->CreateTable(topt);
  ASSERT_TRUE(created.ok());
  Table* orders = *created;
  ASSERT_EQ(orders->num_partitions(), 3u);
  EXPECT_TRUE(orders->range_partitioned());

  EXPECT_EQ(orders->PartitionIndexForValue(202601), 0u);
  EXPECT_EQ(orders->PartitionIndexForValue(202602), 0u);
  EXPECT_EQ(orders->PartitionIndexForValue(202603), 1u);
  EXPECT_EQ(orders->PartitionIndexForValue(202605), 1u);
  EXPECT_EQ(orders->PartitionIndexForValue(202606), 2u);
  EXPECT_EQ(orders->PartitionIndexForValue(202612), 2u);

  // Rows land in (and are counted against) the right partition.
  const int64_t months[] = {202601, 202604, 202607};
  int64_t id = 0;
  for (int64_t month : months) {
    for (int i = 0; i < 5; ++i) {
      auto txn = db_->Begin();
      RecordBuilder b(&orders->schema());
      b.AddInt64(id++).AddInt64(month);
      ASSERT_TRUE(db_->Insert(txn.get(), orders, b.Finish()).ok());
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
  }
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(orders->partition(p).ilm->metrics.imrs_rows.Load(), 5)
        << "partition " << p;
  }
  // Point lookups resolve across partitions.
  for (int64_t i = 0; i < id; ++i) {
    auto txn = db_->Begin();
    std::string row;
    EXPECT_TRUE(db_->SelectByKey(txn.get(), orders,
                                 orders->pk_encoder().KeyForInts({i}), &row)
                    .ok())
        << i;
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
}

TEST_F(EngineTest, RangePartitionValidation) {
  Open();
  TableOptions topt;
  topt.name = "bad";
  topt.schema = Schema({Column::Int64("id"), Column::Int64("m")});
  topt.primary_key = {0};
  topt.range_bounds = {10, 5};  // not ascending
  topt.partition_column = 1;
  EXPECT_TRUE(db_->CreateTable(topt).status().IsInvalidArgument());
  topt.range_bounds = {5, 10};
  topt.partition_column = -1;  // bounds without a column
  topt.name = "bad2";
  EXPECT_TRUE(db_->CreateTable(topt).status().IsInvalidArgument());
}

TEST_F(EngineTest, TunerDisablesColdRangePartitionsOnly) {
  // Sec. V's motivating case: in a date-range-partitioned table only the
  // most recent partition is hot; the tuner should disable IMRS use for
  // the stale partitions while the hot one stays enabled.
  DatabaseOptions options;
  options.imrs_cache_bytes = 512 * 1024;
  options.ilm.tuning_window_txns = 50;
  options.ilm.hysteresis_windows = 2;
  options.ilm.min_new_rows_for_disable = 10;
  Open(options);

  TableOptions topt;
  topt.name = "events";
  topt.schema = Schema({Column::Int64("id"), Column::Int64("month"),
                        Column::String("data", 48)});
  topt.primary_key = {0};
  topt.partition_column = 1;
  topt.range_bounds = {202606};  // old months | current month
  Table* events = *db_->CreateTable(topt);

  PartitionState* old_part = events->partition(0).ilm;
  PartitionState* hot_part = events->partition(1).ilm;

  int64_t id = 0;
  auto insert_event = [&](int64_t month) {
    auto txn = db_->Begin();
    RecordBuilder b(&events->schema());
    b.AddInt64(id++).AddInt64(month).AddString(std::string(40, 'e'));
    ASSERT_TRUE(db_->Insert(txn.get(), events, b.Finish()).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  };

  // Backfill keeps streaming into the old partition (never re-read), while
  // current-month rows are re-read constantly.
  for (int round = 0; round < 120 && old_part->imrs_enabled.load();
       ++round) {
    for (int i = 0; i < 40; ++i) insert_event(202601);  // cold backfill
    for (int i = 0; i < 20; ++i) {
      insert_event(202607);
      auto txn = db_->Begin();
      std::string row;
      Status s = db_->SelectByKey(txn.get(), events,
                                  events->pk_encoder().KeyForInts({id - 1}),
                                  &row);
      ASSERT_TRUE(s.ok());
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
    db_->RunGcOnce();
    db_->RunIlmTickOnce();
  }
  EXPECT_FALSE(old_part->imrs_enabled.load())
      << "stale range partition should lose IMRS enablement";
  EXPECT_TRUE(hot_part->imrs_enabled.load())
      << "current range partition must stay enabled";
}

TEST_F(EngineTest, HashIndexServesPointLookups) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "fast").ok());
  const obs::MetricsRegistry& m = *db_->metrics_registry();
  const int64_t hits_before = m.Sum("hash_index.hits");
  EXPECT_EQ(*ReadValue(1), "fast");
  EXPECT_GT(m.Sum("hash_index.hits"), hits_before);
}

TEST_F(EngineTest, StatsReflectActivity) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "x").ok());
  ASSERT_TRUE(UpdateValue(1, "y").ok());
  const obs::MetricsRegistry& m = *db_->metrics_registry();
  EXPECT_EQ(m.Sum("txn.committed"), 2);
  EXPECT_GT(m.Sum("engine.imrs_ops"), 0);
  EXPECT_GT(m.Sum("wal.records_appended", {"sysimrslogs", "", "", ""}), 0);
  EXPECT_GT(m.Sum("imrs_cache.in_use_bytes"), 0);
}

TEST_F(EngineTest, CheckpointFlushesAndBoundsTheLogs) {
  Open();
  db_->ilm()->SetForcePageStore(true);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(InsertRow(i, 1, "flushme").ok());
  }
  const obs::MetricLabels syslogs{"syslogs", "", "", ""};
  obs::MetricsRegistry* metrics = db_->metrics_registry();
  const int64_t appended_before = metrics->Sum("wal.bytes_appended", syslogs);
  EXPECT_GT(db_->syslogs()->SizeBytes(), 0);
  ASSERT_TRUE(db_->Checkpoint().ok());
  // Only what the checkpoint itself appended (its begin and end records)
  // is left: the inserts before its rollover were dropped.
  EXPECT_EQ(db_->syslogs()->SizeBytes(),
            metrics->Sum("wal.bytes_appended", syslogs) - appended_before);
  int records = 0;
  ASSERT_TRUE(db_->syslogs()
                  ->Replay([&](const LogRecord& rec) {
                    EXPECT_EQ(rec.type, records == 0
                                            ? LogRecordType::kCheckpointBegin
                                            : LogRecordType::kCheckpointEnd);
                    ++records;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(records, 2);
  // Data remains readable after a cold cache restart.
  ASSERT_TRUE(db_->buffer_cache()->DropAll().ok());
  db_->ilm()->SetForcePageStore(false);
  EXPECT_TRUE(ReadValue(5).ok());
}

// --- Sec. X future-work features: pinning and pre-warm ---------------------------

TEST_F(EngineTest, PinnedTableIsNeverPacked) {
  DatabaseOptions options;
  options.imrs_cache_bytes = 64 * 1024;
  options.ilm.pack_cycle_pct = 0.25;
  Open(options);

  TableOptions popt;
  popt.name = "pinned";
  popt.schema = Schema({Column::Int64("id"), Column::String("v", 40)});
  popt.primary_key = {0};
  popt.pin_in_imrs = true;
  Table* pinned = *db_->CreateTable(popt);

  // A few pinned rows plus enough unpinned churn to force packing.
  for (int64_t i = 0; i < 20; ++i) {
    auto txn = db_->Begin();
    RecordBuilder b(&pinned->schema());
    b.AddInt64(i).AddString("pin");
    ASSERT_TRUE(db_->Insert(txn.get(), pinned, b.Finish()).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  int64_t id = 0;
  while (db_->imrs_allocator()->Utilization() < 0.85) {
    ASSERT_TRUE(InsertRow(id++, 1, std::string(40, 'u')).ok());
  }
  db_->RunGcOnce();
  for (int i = 0; i < 10; ++i) db_->RunIlmTickOnce();

  // Unpinned rows churned.
  EXPECT_GT(db_->metrics_registry()->Sum("pack.rows_packed"), 0);
  EXPECT_EQ(pinned->partition(0).ilm->metrics.rows_packed.Load(), 0);
  EXPECT_EQ(pinned->partition(0).ilm->metrics.imrs_rows.Load(), 20);
}

TEST_F(EngineTest, PinnedTableAdmitsUnderBypass) {
  Open();
  TableOptions popt;
  popt.name = "pinned";
  popt.schema = Schema({Column::Int64("id"), Column::String("v", 16)});
  popt.primary_key = {0};
  popt.pin_in_imrs = true;
  Table* pinned = *db_->CreateTable(popt);
  // Even with the partition tuner-disabled and under ILM rules that would
  // reject admission, pinning wins.
  pinned->partition(0).ilm->imrs_enabled.store(false);
  EXPECT_TRUE(db_->ilm()->ShouldInsertToImrs(pinned->partition(0).ilm));
  EXPECT_TRUE(db_->ilm()->ShouldMigrateOnUpdate(pinned->partition(0).ilm,
                                                false, false));
}

TEST_F(EngineTest, PrewarmLoadsPageStoreRowsIntoImrs) {
  Open();
  db_->ilm()->SetForcePageStore(true);
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(InsertRow(i, 1, "cold-" + std::to_string(i)).ok());
  }
  db_->ilm()->SetForcePageStore(false);
  ASSERT_EQ(db_->rid_map()->Size(), 0);

  Result<int64_t> warmed = db_->PrewarmTable(table_);
  ASSERT_TRUE(warmed.ok());
  EXPECT_EQ(*warmed, 50);
  EXPECT_EQ(db_->rid_map()->Size(), 50);
  // Warmed rows read correctly and from the IMRS.
  auto txn = db_->Begin();
  std::string row;
  ASSERT_TRUE(db_->SelectByKey(txn.get(), table_, Key(7), &row).ok());
  RecordView v(&table_->schema(), Slice(row));
  EXPECT_EQ(v.GetString(2).ToString(), "cold-7");
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(EngineTest, PrewarmIsIdempotentAndStopsWhenFull) {
  DatabaseOptions options;
  options.imrs_cache_bytes = 24 * 1024;
  Open(options);
  db_->ilm()->SetForcePageStore(true);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(InsertRow(i, 1, std::string(40, 'w')).ok());
  }
  db_->ilm()->SetForcePageStore(false);

  Result<int64_t> first = db_->PrewarmTable(table_);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(*first, 0);
  EXPECT_LT(*first, 500);  // the 24 KiB cache cannot hold all 500

  Result<int64_t> second = db_->PrewarmTable(table_);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 0);  // already-resident rows are skipped
}

TEST_F(EngineTest, TableCatalogLookups) {
  Open();
  EXPECT_EQ(db_->GetTable("kv"), table_);
  EXPECT_EQ(db_->GetTable("absent"), nullptr);
  EXPECT_EQ(db_->GetTable(table_->id()), table_);
  EXPECT_EQ(db_->GetTable(999u), nullptr);
  EXPECT_EQ(db_->Tables().size(), 1u);
}

// Golden report: a fixed single-threaded workload (no background threads,
// logical timestamps only) makes every printed counter deterministic except
// the commit latency percentiles, which are masked.
TEST_F(EngineTest, StatsPrinterProducesAllSections) {
  DatabaseOptions options;
  options.imrs_cache_bytes = 64 * 1024;
  options.ilm.pack_cycle_pct = 0.20;
  Open(options);
  int64_t id = 0;
  for (; db_->imrs_allocator()->Utilization() < 0.80; ++id) {
    ASSERT_TRUE(InsertRow(id, id % 7, std::string(40, 'g')).ok());
  }
  for (int64_t i = 0; i < id; i += 5) ASSERT_TRUE(UpdateValue(i, "u").ok());
  for (int64_t i = 1; i < id; i += 9) {
    auto txn = db_->Begin();
    ASSERT_TRUE(db_->Delete(txn.get(), table_, Key(i)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  // Ticks drive the ILM manager directly: RunIlmTickOnce would add the
  // paranoid build's post-pack validation walk to the buffer-cache counts.
  db_->RunGcOnce();
  for (int i = 0; i < 10; ++i) {
    db_->ilm()->BackgroundTick(db_->Now());
    db_->RunGcOnce();
  }
  for (int64_t i = 0; i < id; i += 3) (void)ReadValue(i);

  const std::string report = std::regex_replace(
      FormatDatabaseStats(*db_->metrics_registry()),
      std::regex("p50/p95/p99 [0-9]+/[0-9]+/[0-9]+ us"),
      "p50/p95/p99 #/#/# us");
  EXPECT_EQ(report,
            "transactions : 485 committed, 0 aborted, 0 active\n"
            "op routing   : 401 IMRS / 51 page-store (hit rate 88.7%)\n"
            "IMRS cache   : 30 / 64 KiB in use (47.6%), 166 rows mapped\n"
            "buffer cache : 1081 fixes, 99.4% hits, 0 evictions, "
            "0 latch waits\n"
            "locks        : 621 acquisitions (519 fast), 0 waits, "
            "0 timeouts, 0 cond. denials\n"
            "index        : 51 searches, 548 inserts, 1 splits, "
            "0 OLC restarts, 1 pessimistic, 0/0 pages retired/reclaimed\n"
            "GC           : 86 versions freed (14 KiB), 31 rows purged, "
            "51 pending\n"
            "Pack         : 10 cycles, 128 rows (23 KiB) packed, "
            "0 skipped hot, 2 pack txns, 0 bypasses\n"
            "syslogs      : 130 records, 12 KiB, 0 syncs (0 elided), "
            "0/0 failed appends/syncs\n"
            "sysimrslogs  : 952 records in 413 groups, 67 KiB, 0 syncs "
            "(0 elided), 0/0 failed appends/syncs\n"
            "commit(sys)  : 2 groups in 0 batches (0.0/batch, 0.0 KiB avg, "
            "max 0), latency p50/p95/p99 #/#/# us\n"
            "commit(imrs) : 413 groups in 0 batches (0.0/batch, 0.0 KiB avg, "
            "max 0), latency p50/p95/p99 #/#/# us\n");

  const std::string breakdown = FormatTableBreakdown(db_.get());
  EXPECT_NE(breakdown.find("kv/0"), std::string::npos);
  EXPECT_NE(breakdown.find("enabled"), std::string::npos);
}

TEST_F(EngineTest, StatsPrinterShowsPinnedAndDisabledModes) {
  Open();
  TableOptions popt;
  popt.name = "pinned_t";
  popt.schema = Schema({Column::Int64("id")});
  popt.primary_key = {0};
  popt.pin_in_imrs = true;
  Table* pinned = *db_->CreateTable(popt);
  (void)pinned;
  table_->partition(0).ilm->imrs_enabled.store(false);
  const std::string breakdown = FormatTableBreakdown(db_.get());
  EXPECT_NE(breakdown.find("pinned"), std::string::npos);
  EXPECT_NE(breakdown.find("disabled"), std::string::npos);
}

// Regression: a partition retired mid-run (metrics unregistered before the
// final print) used to vanish from the breakdown, dropping its pack-skip
// counts. The registry's snapshot-at-unregistration semantics keep it.
TEST_F(EngineTest, StatsPrinterKeepsRetiredPartitionCounts) {
  Open();
  ASSERT_TRUE(InsertRow(1, 10, "x").ok());
  PartitionState* state = table_->partition(0).ilm;
  state->metrics.rows_skipped_hot.Add(7);
  state->UnregisterMetrics(db_->metrics_registry());

  const std::string breakdown = FormatTableBreakdown(db_.get());
  EXPECT_NE(breakdown.find("kv/0"), std::string::npos);
  EXPECT_NE(breakdown.find("retired"), std::string::npos);
  // The skipped column survives with its final value.
  EXPECT_NE(breakdown.find(" 7\n"), std::string::npos) << breakdown;

  // Lookup still serves the retained sample directly.
  obs::MetricSample sample;
  obs::MetricLabels labels{"ilm", "kv", "0", ""};
  ASSERT_TRUE(db_->metrics_registry()->Lookup("partition.rows_skipped_hot",
                                              labels, &sample));
  EXPECT_TRUE(sample.retained);
  EXPECT_EQ(sample.value, 7);
}


// --- sysimrslogs redo groups -------------------------------------------------------

// One committed sysimrslogs group: the records before a kImrsCommit, then it.
struct RedoGroup {
  std::vector<LogRecord> records;
  LogRecord commit;
};

std::vector<RedoGroup> ReplayImrsGroups(Database* db) {
  std::vector<RedoGroup> groups;
  RedoGroup open;
  Status s = db->sysimrslogs()->Replay([&](const LogRecord& rec) {
    if (rec.type == LogRecordType::kImrsCommit) {
      open.commit = rec;
      groups.push_back(std::move(open));
      open = RedoGroup();
    } else {
      open.records.push_back(rec);
    }
    return true;
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(open.records.empty()) << "records after the last commit";
  return groups;
}

LogRecord RedoRecord(LogRecordType type, uint64_t txn_id, uint32_t table_id,
                     uint64_t rid, uint8_t source, std::string before,
                     std::string after) {
  LogRecord rec;
  rec.type = type;
  rec.txn_id = txn_id;
  rec.table_id = table_id;
  rec.partition_id = 0;
  rec.rid = rid;
  rec.source = source;
  rec.before = std::move(before);
  rec.after = std::move(after);
  return rec;
}

LogRecord CommitRecord(const Transaction& txn, uint8_t pagestore_flag) {
  LogRecord rec;
  rec.type = LogRecordType::kImrsCommit;
  rec.txn_id = txn.id();
  rec.cts = txn.commit_ts();
  rec.source = pagestore_flag;
  return rec;
}

void ExpectSameRecord(const LogRecord& got, const LogRecord& want,
                      const std::string& where) {
  EXPECT_EQ(static_cast<int>(got.type), static_cast<int>(want.type)) << where;
  EXPECT_EQ(got.txn_id, want.txn_id) << where;
  EXPECT_EQ(got.table_id, want.table_id) << where;
  EXPECT_EQ(got.partition_id, want.partition_id) << where;
  EXPECT_EQ(got.rid, want.rid) << where;
  EXPECT_EQ(got.source, want.source) << where;
  EXPECT_EQ(got.cts, want.cts) << where;
  EXPECT_EQ(got.before, want.before) << where;
  EXPECT_EQ(got.after, want.after) << where;
}

// Pins every field of every sysimrslogs record the access paths and Pack
// emit, group by group: what recovery replays must not change when the way
// a transaction collects its IMRS changes does.
TEST_F(EngineTest, ImrsRedoGroupsAreGolden) {
  DatabaseOptions options;
  options.imrs_cache_bytes = 64 * 1024;
  options.ilm.pack_cycle_pct = 0.20;
  Open(options);
  const uint32_t tid = table_->id();
  auto rid_of = [&](int64_t id) {
    Result<uint64_t> rid = table_->primary_index()->Search(Key(id));
    EXPECT_TRUE(rid.ok()) << id;
    return rid.ok() ? *rid : 0;
  };
  auto edited = [&](std::string image, const std::string& value) {
    RowEditor(&table_->schema(), &image).SetString(2, value);
    return image;
  };
  const auto kInserted = static_cast<uint8_t>(RowSource::kInserted);
  std::vector<RedoGroup> want;

  // An IMRS insert into a table with a non-unique secondary index.
  auto t1 = db_->Begin();
  ASSERT_TRUE(InsertRow(1, 10, "one", t1.get()).ok());
  ASSERT_TRUE(db_->Commit(t1.get()).ok());
  want.push_back({{RedoRecord(LogRecordType::kImrsInsert, t1->id(), tid,
                              rid_of(1), kInserted, "",
                              Record(1, 10, "one"))},
                  CommitRecord(*t1, 0)});

  // Two page-store rows (syslogs only, no IMRS group).
  db_->ilm()->SetForcePageStore(true);
  ASSERT_TRUE(InsertRow(2, 20, "two").ok());
  ASSERT_TRUE(InsertRow(3, 30, "three").ok());
  db_->ilm()->SetForcePageStore(false);

  // A page-store row cached on select.
  auto t2 = db_->Begin();
  std::string row;
  ASSERT_TRUE(db_->SelectByKey(t2.get(), table_, Key(2), &row).ok());
  ASSERT_TRUE(db_->Commit(t2.get()).ok());
  ASSERT_NE(db_->rid_map()->Lookup(Rid::Decode(rid_of(2))), nullptr);
  want.push_back({{RedoRecord(LogRecordType::kImrsInsert, t2->id(), tid,
                              rid_of(2),
                              static_cast<uint8_t>(RowSource::kCached), "",
                              Record(2, 20, "two"))},
                  CommitRecord(*t2, 0)});

  // A page-store row migrated on update.
  auto t3 = db_->Begin();
  ASSERT_TRUE(UpdateValue(3, "three-hot", t3.get()).ok());
  ASSERT_TRUE(db_->Commit(t3.get()).ok());
  const std::string three_hot = edited(Record(3, 30, "three"), "three-hot");
  want.push_back({{RedoRecord(LogRecordType::kImrsInsert, t3->id(), tid,
                              rid_of(3),
                              static_cast<uint8_t>(RowSource::kMigrated), "",
                              three_hot)},
                  CommitRecord(*t3, 0)});

  // One IMRS row updated twice and another deleted, in one transaction.
  auto t4 = db_->Begin();
  ASSERT_TRUE(UpdateValue(1, "one-b", t4.get()).ok());
  ASSERT_TRUE(UpdateValue(1, "one-c", t4.get()).ok());
  ASSERT_TRUE(db_->Delete(t4.get(), table_, Key(2)).ok());
  ASSERT_TRUE(db_->Commit(t4.get()).ok());
  const std::string one_b = edited(Record(1, 10, "one"), "one-b");
  want.push_back(
      {{RedoRecord(LogRecordType::kImrsUpdate, t4->id(), tid, rid_of(1), 0,
                   "", one_b),
        RedoRecord(LogRecordType::kImrsUpdate, t4->id(), tid, rid_of(1), 0,
                   "", edited(one_b, "one-c")),
        RedoRecord(LogRecordType::kImrsDelete, t4->id(), tid, rid_of(2), 0,
                   Record(2, 20, "two"), "")},
       CommitRecord(*t4, 0)});

  // Fill the IMRS past its steady threshold so one tick packs.
  int64_t id = 100;
  while (db_->imrs_allocator()->Utilization() < 0.80) {
    auto t = db_->Begin();
    const std::string rec = Record(id, 1, std::string(40, 'p'));
    ASSERT_TRUE(db_->Insert(t.get(), table_, rec).ok());
    ASSERT_TRUE(db_->Commit(t.get()).ok());
    if (db_->rid_map()->Lookup(Rid::Decode(rid_of(id))) != nullptr) {
      want.push_back({{RedoRecord(LogRecordType::kImrsInsert, t->id(), tid,
                                  rid_of(id), kInserted, "", rec)},
                      CommitRecord(*t, 0)});
    }
    ++id;
  }
  db_->RunGcOnce();
  std::set<uint64_t> resident_before;
  db_->rid_map()->ForEach(
      [&](Rid rid, ImrsRow*) { resident_before.insert(rid.Encode()); });
  const uint64_t last_user_txn = db_->txn_manager()->BegunCount();
  const uint64_t cts_before_pack = db_->Now();
  db_->RunIlmTickOnce();
  ASSERT_GT(db_->metrics_registry()->Sum("pack.rows_packed"), 0);
  std::set<uint64_t> packed = resident_before;
  db_->rid_map()->ForEach(
      [&](Rid rid, ImrsRow*) { packed.erase(rid.Encode()); });
  ASSERT_FALSE(packed.empty());

  const std::vector<RedoGroup> got = ReplayImrsGroups(db_.get());
  ASSERT_GT(got.size(), want.size());
  for (size_t g = 0; g < want.size(); ++g) {
    const std::string where = "group " + std::to_string(g);
    ASSERT_EQ(got[g].records.size(), want[g].records.size()) << where;
    for (size_t r = 0; r < want[g].records.size(); ++r) {
      ExpectSameRecord(got[g].records[r], want[g].records[r],
                       where + " record " + std::to_string(r));
    }
    ExpectSameRecord(got[g].commit, want[g].commit, where + " commit");
  }

  // The remaining groups are Pack batches: one kImrsPack per row that left
  // the IMRS, committed with the has-page-store-changes flag.
  std::set<uint64_t> logged_packs;
  uint64_t prev_cts = cts_before_pack;
  int64_t records = 0;
  for (size_t g = want.size(); g < got.size(); ++g) {
    const std::string where = "pack group " + std::to_string(g);
    const LogRecord& commit = got[g].commit;
    ASSERT_FALSE(got[g].records.empty()) << where;
    EXPECT_GT(commit.txn_id, last_user_txn) << where;
    EXPECT_GT(commit.cts, prev_cts) << where;
    prev_cts = commit.cts;
    LogRecord want_commit;
    want_commit.type = LogRecordType::kImrsCommit;
    want_commit.txn_id = commit.txn_id;
    want_commit.cts = commit.cts;
    want_commit.source = 1;
    ExpectSameRecord(commit, want_commit, where + " commit");
    for (const LogRecord& rec : got[g].records) {
      EXPECT_EQ(packed.count(rec.rid), 1u) << where;
      EXPECT_TRUE(logged_packs.insert(rec.rid).second) << where;
      ExpectSameRecord(rec,
                       RedoRecord(LogRecordType::kImrsPack, commit.txn_id,
                                  tid, rec.rid, 0, "", ""),
                       where);
    }
    records += static_cast<int64_t>(got[g].records.size()) + 1;
  }
  EXPECT_LE(prev_cts, db_->Now());
  EXPECT_EQ(logged_packs, packed);

  // Every group was appended with its own record count.
  for (size_t g = 0; g < want.size(); ++g) {
    records += static_cast<int64_t>(want[g].records.size()) + 1;
  }
  const obs::MetricLabels imrs_log{"sysimrslogs", "", "", ""};
  const obs::MetricsRegistry& m = *db_->metrics_registry();
  EXPECT_EQ(m.Sum("wal.records_appended", imrs_log), records);
  EXPECT_EQ(m.Sum("wal.groups_appended", imrs_log),
            static_cast<int64_t>(got.size()));
}

}  // namespace
}  // namespace btrim
