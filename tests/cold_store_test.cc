// Cold-columnar store tests (DESIGN.md Sec. 15): segment codec edge cases
// (dictionary overflow, delta on non-monotone data, empty strings), framed
// storage durability (torn tails, the erase journal), and the engine-level
// contract — packed rows keep their values across reads, writes, crash
// recovery, and any pack worker count.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cold/cold_page.h"
#include "cold/cold_store.h"
#include "common/coding.h"
#include "engine/database.h"
#include "testing/test_util.h"

namespace btrim {
namespace {

Rid MakeRid(uint32_t n) { return Rid{1, n / 100 + 1, static_cast<uint16_t>(n % 100)}; }

// --- segment codec ----------------------------------------------------------

class ColdCodecTest : public ::testing::Test {
 protected:
  ColdCodecTest()
      : schema_({
            Column::Int64("id"),
            Column::String("tag", 64),
            Column::Int64("counter"),
            Column::Double("ratio"),
        }) {}

  std::string Row(int64_t id, const std::string& tag, int64_t counter,
                  double ratio) {
    RecordBuilder b(&schema_);
    b.AddInt64(id).AddString(tag).AddInt64(counter).AddDouble(ratio);
    return b.Finish().ToString();
  }

  std::shared_ptr<ColdSegment> Build(const std::vector<std::string>& rows,
                                     std::vector<ColdColumnStats>* stats) {
    ColdPageBuilder builder(&schema_);
    for (uint32_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(builder.Add(MakeRid(i), Slice(rows[i])).ok());
    }
    std::string blob = builder.Finish(/*table_id=*/7, /*partition_id=*/0,
                                      /*seq=*/0, stats);
    Result<std::shared_ptr<ColdSegment>> seg =
        ColdSegment::Parse(std::move(blob), &schema_);
    EXPECT_TRUE(seg.ok()) << seg.status().ToString();
    return seg.ok() ? *seg : nullptr;
  }

  Schema schema_;
};

TEST_F(ColdCodecTest, EmptyStringColumnRoundTrips) {
  // All-empty strings are the codec's "all NULL" analog: the dictionary
  // holds one empty entry and the column must still round-trip.
  std::vector<std::string> rows;
  for (int64_t i = 0; i < 200; ++i) rows.push_back(Row(i, "", i, 0.5));
  std::vector<ColdColumnStats> stats;
  auto seg = Build(rows, &stats);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(stats[1].encoding, ColdEncoding::kDict);
  EXPECT_EQ(stats[1].distinct, 1u);
  for (uint32_t r = 0; r < seg->row_count(); ++r) {
    EXPECT_EQ(seg->StringAt(1, r), Slice(""));
    EXPECT_EQ(seg->IntAt(0, r), static_cast<int64_t>(r));
  }
  std::string materialized;
  seg->MaterializeRow(3, &materialized);
  EXPECT_EQ(materialized, rows[3]);
}

TEST_F(ColdCodecTest, LowCardinalityStringsDictionaryCompress) {
  std::vector<std::string> rows;
  for (int64_t i = 0; i < 512; ++i) {
    rows.push_back(Row(i, "status-" + std::to_string(i % 4), i, 1.0));
  }
  std::vector<ColdColumnStats> stats;
  auto seg = Build(rows, &stats);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(stats[1].encoding, ColdEncoding::kDict);
  EXPECT_EQ(stats[1].distinct, 4u);
  EXPECT_LT(stats[1].encoded_bytes, stats[1].raw_bytes);
  for (uint32_t r = 0; r < seg->row_count(); ++r) {
    EXPECT_EQ(seg->StringAt(1, r).ToString(),
              "status-" + std::to_string(r % 4));
  }
}

TEST_F(ColdCodecTest, DictOverflowFallsBackToPlain) {
  // 70k distinct values exceed the 2-byte code space; the builder must fall
  // back to plain rather than emit a >65535-entry dictionary.
  std::vector<std::string> rows;
  for (int64_t i = 0; i < 70000; ++i) {
    rows.push_back(Row(i, "unique-tag-" + std::to_string(i), i, 0.0));
  }
  std::vector<ColdColumnStats> stats;
  auto seg = Build(rows, &stats);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(stats[1].encoding, ColdEncoding::kPlain);
  EXPECT_EQ(seg->StringAt(1, 69999).ToString(), "unique-tag-69999");
  EXPECT_EQ(seg->StringAt(1, 0).ToString(), "unique-tag-0");
}

TEST_F(ColdCodecTest, MonotoneIntsUseDeltaNonMonotoneDoNot) {
  // Column 0 ascends (delta-eligible); column 2 zig-zags (must not be
  // delta-encoded — a delta decoder over it would reconstruct garbage).
  std::vector<std::string> rows;
  for (int64_t i = 0; i < 300; ++i) {
    const int64_t zigzag = (i % 2 == 0) ? i : -i;
    rows.push_back(Row(1000 + i, "t", zigzag, 0.0));
  }
  std::vector<ColdColumnStats> stats;
  auto seg = Build(rows, &stats);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(stats[0].encoding, ColdEncoding::kDelta);
  EXPECT_NE(stats[2].encoding, ColdEncoding::kDelta);
  std::vector<int64_t> ids;
  ASSERT_TRUE(seg->DecodeInts(0, &ids).ok());
  std::vector<int64_t> zig;
  ASSERT_TRUE(seg->DecodeInts(2, &zig).ok());
  for (int64_t i = 0; i < 300; ++i) {
    EXPECT_EQ(ids[i], 1000 + i);
    EXPECT_EQ(zig[i], (i % 2 == 0) ? i : -i);
    EXPECT_EQ(seg->IntAt(2, static_cast<uint32_t>(i)), zig[i]);
  }
}

TEST_F(ColdCodecTest, CorruptDirectoryEntryIsRejectedNotIndexed) {
  // A frame can checksum cleanly yet carry a directory whose width/encoding
  // the accessors would index out of bounds with (writer version drift,
  // in-memory corruption). Corrupt a dir byte, re-checksum, and expect
  // Parse to reject the blob as Corruption instead of handing it out.
  std::vector<std::string> rows;
  for (int64_t i = 0; i < 16; ++i) rows.push_back(Row(i, "t", i, 0.0));
  ColdPageBuilder builder(&schema_);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(builder.Add(MakeRid(i), Slice(rows[i])).ok());
  }
  const std::string blob = builder.Finish(7, 0, 0, nullptr);
  // Layout: 44-byte header (payload checksum at offset 40), then 16 u64
  // RIDs, then 20-byte dir entries ([0] = encoding byte, [1] = width).
  const size_t kHeader = 44;
  const size_t kChecksumOff = 40;
  const size_t dir0 = kHeader + 16 * 8;
  auto corrupt = [&](size_t off, char value) {
    std::string c = blob;
    c[off] = value;
    uint32_t h = 2166136261u;  // FNV-1a: keep the checksum valid so only
    for (size_t i = kHeader; i < c.size(); ++i) {  // the dir guards can object
      h ^= static_cast<unsigned char>(c[i]);
      h *= 16777619u;
    }
    EncodeFixed32(&c[kChecksumOff], h);
    return ColdSegment::Parse(std::move(c), &schema_);
  };
  ASSERT_TRUE(ColdSegment::Parse(std::string(blob), &schema_).ok());
  auto bad_encoding = corrupt(dir0, 7);  // past kDelta
  ASSERT_FALSE(bad_encoding.ok());
  EXPECT_TRUE(bad_encoding.status().IsCorruption());
  auto bad_width = corrupt(dir0 + 1, 3);  // not in {1,2,4,8}
  ASSERT_FALSE(bad_width.ok());
  EXPECT_TRUE(bad_width.status().IsCorruption());
  auto bad_len = corrupt(dir0 + 1, 2);  // legal width, rows*width != len
  ASSERT_FALSE(bad_len.ok());
  EXPECT_TRUE(bad_len.status().IsCorruption());
}

// --- framed storage: torn tails and the erase journal -----------------------

class ColdStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::ScratchPath(
        std::string("btrim_cold_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    schema_ = std::make_unique<Schema>(Schema({
        Column::Int64("id"),
        Column::String("value", 64),
    }));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string SegPath() { return dir_ + "/coldstore.seg"; }

  std::unique_ptr<ColdStore> OpenStore(size_t segment_rows = 1024) {
    auto store = std::make_unique<ColdStore>(segment_rows);
    store->RegisterTable(1, schema_.get());
    Result<std::unique_ptr<FileLogStorage>> storage =
        FileLogStorage::Open(SegPath());
    EXPECT_TRUE(storage.ok());
    store->AttachStorage(std::move(*storage));
    return store;
  }

  std::string Row(int64_t id) {
    RecordBuilder b(schema_.get());
    b.AddInt64(id).AddString("value-" + std::to_string(id));
    return b.Finish().ToString();
  }

  std::string dir_;
  std::unique_ptr<Schema> schema_;
};

TEST_F(ColdStorageTest, TornTailFrameIsDroppedIntactFramesSurvive) {
  {
    auto store = OpenStore();
    for (int64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(store->Place(1, 0, MakeRid(i), Slice(Row(i))).ok());
    }
    ASSERT_TRUE(store->Flush().ok());  // segment 1 (rows 0..49)
    for (int64_t i = 50; i < 100; ++i) {
      ASSERT_TRUE(store->Place(1, 0, MakeRid(i), Slice(Row(i))).ok());
    }
    ASSERT_TRUE(store->Flush().ok());  // segment 2 (rows 50..99)
  }
  // Tear the tail: chop into the second frame's blob.
  const auto full = std::filesystem::file_size(SegPath());
  std::filesystem::resize_file(SegPath(), full - 17);

  auto store = OpenStore();
  ASSERT_TRUE(store->Load().ok());
  EXPECT_EQ(store->sealed_segments(), 1);
  EXPECT_EQ(store->rows(), 50);
  std::string out;
  EXPECT_TRUE(store->ReadRow(MakeRid(7), &out).ok());
  EXPECT_EQ(out, Row(7));
  EXPECT_TRUE(store->ReadRow(MakeRid(77), &out).IsNotFound());

  // The load cut the torn bytes off: a segment flushed after it survives
  // the next reload.
  for (int64_t i = 200; i < 210; ++i) {
    ASSERT_TRUE(store->Place(1, 0, MakeRid(i), Slice(Row(i))).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  store = OpenStore();
  ASSERT_TRUE(store->Load().ok());
  EXPECT_EQ(store->rows(), 60);
  EXPECT_TRUE(store->ReadRow(MakeRid(205), &out).ok());
}

// A damaged frame with intact frames after it is not a torn flush: the
// load reports it and cuts nothing, so the later segments stay on disk.
TEST_F(ColdStorageTest, DamagedFrameBeforeIntactOnesIsCorruption) {
  {
    auto store = OpenStore();
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(store->Place(1, 0, MakeRid(i), Slice(Row(i))).ok());
      if (i % 50 == 49) {
        ASSERT_TRUE(store->Flush().ok());  // two segments
      }
    }
  }
  const auto full = std::filesystem::file_size(SegPath());
  {
    // Flip the last payload byte of the first frame.
    std::fstream f(SegPath(), std::ios::binary | std::ios::in | std::ios::out);
    char header[8];
    ASSERT_TRUE(f.read(header, sizeof(header)));
    const std::streamoff last = 8 + DecodeFixed32(header + 4) - 1;
    char byte = 0;
    ASSERT_TRUE(f.seekg(last).get(byte));
    ASSERT_TRUE(f.seekp(last).put(static_cast<char>(byte ^ 0x5a)));
  }
  auto store = OpenStore();
  EXPECT_TRUE(store->Load().IsCorruption());
  EXPECT_EQ(std::filesystem::file_size(SegPath()), full);
}

TEST_F(ColdStorageTest, EraseJournalSurvivesReload) {
  {
    auto store = OpenStore();
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(store->Place(1, 0, MakeRid(i), Slice(Row(i))).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
    // Erase a flushed row; the segment frame is immutable, so only the
    // journal (written by the next Flush) makes this durable.
    EXPECT_TRUE(store->Erase(MakeRid(3)));
    ASSERT_TRUE(store->Flush().ok());
  }
  auto store = OpenStore();
  ASSERT_TRUE(store->Load().ok());
  EXPECT_EQ(store->rows(), 19);
  EXPECT_FALSE(store->Exists(MakeRid(3)));
  std::string out;
  EXPECT_TRUE(store->ReadRow(MakeRid(4), &out).ok());
}

TEST_F(ColdStorageTest, LaterFrameSupersedesEarlierPlacement) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->Place(1, 0, MakeRid(1), Slice(Row(1))).ok());
    ASSERT_TRUE(store->Flush().ok());
    RecordBuilder b(schema_.get());
    b.AddInt64(1).AddString("rewritten");
    ASSERT_TRUE(store->Place(1, 0, MakeRid(1), b.Finish()).ok());
    ASSERT_TRUE(store->Flush().ok());
  }
  auto store = OpenStore();
  ASSERT_TRUE(store->Load().ok());
  EXPECT_EQ(store->rows(), 1);
  std::string out;
  ASSERT_TRUE(store->ReadRow(MakeRid(1), &out).ok());
  RecordView v(schema_.get(), Slice(out));
  EXPECT_EQ(v.GetString(1).ToString(), "rewritten");
}

TEST_F(ColdStorageTest, EraseThenReplaceSurvivesAutoSealAndReload) {
  // Regression: a builder-full auto-seal must drain the erase journal
  // BEFORE appending its segment frame. If the erase frame lands after a
  // segment that re-places the erased rid, Load's file-order replay kills
  // the live row.
  {
    auto store = OpenStore(/*segment_rows=*/8);
    for (int64_t i = 0; i < 8; ++i) {  // fills the builder -> auto-seal
      ASSERT_TRUE(store->Place(1, 0, MakeRid(i), Slice(Row(i))).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
    EXPECT_EQ(store->sealed_segments(), 1);
    // Erase a sealed row (queues its erase-journal entry), then re-place it
    // and fill the builder so it auto-seals with NO Flush in between.
    EXPECT_TRUE(store->Erase(MakeRid(3)));
    RecordBuilder b(schema_.get());
    b.AddInt64(3).AddString("re-placed");
    ASSERT_TRUE(store->Place(1, 0, MakeRid(3), b.Finish()).ok());
    for (int64_t i = 8; i < 15; ++i) {
      ASSERT_TRUE(store->Place(1, 0, MakeRid(i), Slice(Row(i))).ok());
    }
    EXPECT_EQ(store->sealed_segments(), 2);  // the builder auto-sealed
    ASSERT_TRUE(store->Flush().ok());
  }
  auto store = OpenStore(/*segment_rows=*/8);
  ASSERT_TRUE(store->Load().ok());
  EXPECT_EQ(store->rows(), 15);
  std::string out;
  ASSERT_TRUE(store->ReadRow(MakeRid(3), &out).ok())
      << "erase frame resurrected after the re-placing segment";
  RecordView v(schema_.get(), Slice(out));
  EXPECT_EQ(v.GetString(1).ToString(), "re-placed");
}

// --- engine integration -----------------------------------------------------

constexpr int kPartitions = 4;
constexpr int64_t kRows = 2000;

DatabaseOptions ColdOptions(const std::string& dir, int pack_workers) {
  DatabaseOptions options;
  options.in_memory = dir.empty();
  options.data_dir = dir;
  options.buffer_cache_frames = 256;
  options.imrs_cache_bytes = 2ull << 20;
  options.lock_timeout_ms = 100;
  options.cold_columnar = true;
  options.cold_segment_rows = 128;
  options.pack_workers = pack_workers;
  // Keep pack active for the whole drain; freeze the auto-tuner.
  options.ilm.steady_cache_pct = 0.01;
  options.ilm.aggressive_fraction = 0.05;
  options.ilm.pack_cycle_pct = 0.20;
  options.ilm.pack_batch_rows = 16;
  options.ilm.tuning_window_txns = 1ull << 40;
  return options;
}

TableOptions ColdTableOptions() {
  TableOptions topt;
  topt.name = "coldee";
  topt.schema = Schema({
      Column::Int64("id"),
      Column::Int64("part"),
      Column::Int64("amount"),
      Column::String("value", 128),
  });
  topt.primary_key = {0};
  topt.num_partitions = kPartitions;
  topt.partition_column = 1;
  topt.secondary_indexes.push_back(IndexDef{"by_part", {1, 0}, false});
  return topt;
}

std::string ColdValue(int64_t id) {
  return "row-" + std::to_string(id) + "-" + std::string(60, 'c');
}

void InsertRows(Database* db, Table* table) {
  for (int64_t id = 0; id < kRows;) {
    auto txn = db->Begin();
    for (int64_t i = 0; i < 50 && id < kRows; ++i, ++id) {
      RecordBuilder b(&table->schema());
      b.AddInt64(id).AddInt64(id % kPartitions).AddInt64(id * 3)
          .AddString(ColdValue(id));
      ASSERT_TRUE(db->Insert(txn.get(), table, b.Finish()).ok()) << id;
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
}

void DrainPack(Database* db) {
  db->RunGcOnce();
  int64_t last_rows = -1;
  int stalled = 0;
  for (int iter = 0; iter < 500 && stalled < 3; ++iter) {
    db->RunIlmTickOnce();
    const int64_t rows = db->metrics_registry()->Sum("pack.rows_packed");
    stalled = rows == last_rows ? stalled + 1 : 0;
    last_rows = rows;
  }
}

TEST(ColdEngineTest, PackedRowsLandColdAndStayReadable) {
  auto db = std::move(*Database::Open(ColdOptions("", /*pack_workers=*/1)));
  Table* table = *db->CreateTable(ColdTableOptions());
  InsertRows(db.get(), table);
  DrainPack(db.get());

  ASSERT_GT(db->cold()->rows(), 0) << "pack should relocate rows cold";
  EXPECT_GT(db->cold()->sealed_segments(), 0);
  EXPECT_TRUE(db->ValidateInvariants().ok());

  // Point reads resolve cold homes; writes turn cold rows hot again.
  for (int64_t id = 0; id < kRows; id += 97) {
    auto txn = db->Begin();
    std::string row;
    ASSERT_TRUE(db->SelectByKey(txn.get(), table,
                                table->pk_encoder().KeyForInts({id}), &row)
                    .ok())
        << id;
    RecordView v(&table->schema(), Slice(row));
    EXPECT_EQ(v.GetString(3).ToString(), ColdValue(id)) << id;
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  {
    auto txn = db->Begin();
    ASSERT_TRUE(db->Update(txn.get(), table,
                           table->pk_encoder().KeyForInts({int64_t{4}}),
                           [&](RowEditor& e) { e.SetString(3, "updated"); })
                    .ok());
    ASSERT_TRUE(db->Delete(txn.get(), table,
                           table->pk_encoder().KeyForInts({int64_t{8}}))
                    .ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  {
    auto txn = db->Begin();
    std::string row;
    ASSERT_TRUE(db->SelectByKey(txn.get(), table,
                                table->pk_encoder().KeyForInts({int64_t{4}}),
                                &row)
                    .ok());
    RecordView v(&table->schema(), Slice(row));
    EXPECT_EQ(v.GetString(3).ToString(), "updated");
    EXPECT_TRUE(db->SelectByKey(txn.get(), table,
                                table->pk_encoder().KeyForInts({int64_t{8}}),
                                &row)
                    .IsNotFound());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  EXPECT_TRUE(db->ValidateInvariants().ok());
}

// Aborting a write to a cold-columnar row restores its cold home: an update
// (cold erase + heap insert) and a delete (cold erase + index drop deferred
// to commit) each leave the row exactly as Pack left it.
TEST(ColdEngineTest, AbortedWritesRestoreColdHomes) {
  auto db = std::move(*Database::Open(ColdOptions("", /*pack_workers=*/1)));
  Table* table = *db->CreateTable(ColdTableOptions());
  InsertRows(db.get(), table);
  DrainPack(db.get());

  auto key = [&](int64_t id) { return table->pk_encoder().KeyForInts({id}); };
  auto rid_of = [&](int64_t id) {
    return Rid::Decode(*table->primary_index()->Search(key(id)));
  };
  std::vector<int64_t> cold_ids;
  for (int64_t id = 0; id < kRows && cold_ids.size() < 2; ++id) {
    const Rid rid = rid_of(id);
    if (db->cold()->Exists(rid) && db->rid_map()->Lookup(rid) == nullptr) {
      cold_ids.push_back(id);
    }
  }
  ASSERT_EQ(cold_ids.size(), 2u) << "pack should relocate rows cold";
  const int64_t updated = cold_ids[0];
  const int64_t deleted = cold_ids[1];

  // Keep the update on the page-store path (no migration into the IMRS).
  db->ilm()->SetForcePageStore(true);
  {
    auto txn = db->Begin();
    ASSERT_TRUE(db->Update(txn.get(), table, key(updated),
                           [&](RowEditor& e) {
                             e.SetString(3, "never-committed");
                           })
                    .ok());
    EXPECT_FALSE(db->cold()->Exists(rid_of(updated)));
    EXPECT_TRUE(table->PartitionForRid(rid_of(updated))
                    ->heap->Exists(rid_of(updated)));
    ASSERT_TRUE(db->Abort(txn.get()).ok());
  }
  {
    auto txn = db->Begin();
    ASSERT_TRUE(db->Delete(txn.get(), table, key(deleted)).ok());
    EXPECT_FALSE(db->cold()->Exists(rid_of(deleted)));
    ASSERT_TRUE(db->Abort(txn.get()).ok());
  }

  for (int64_t id : cold_ids) {
    const Rid rid = rid_of(id);
    EXPECT_TRUE(db->cold()->Exists(rid)) << id;
    EXPECT_FALSE(table->PartitionForRid(rid)->heap->Exists(rid)) << id;
    EXPECT_EQ(db->rid_map()->Lookup(rid), nullptr) << id;
  }
  Status valid = db->ValidateInvariants();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  for (int64_t id : cold_ids) {
    auto txn = db->Begin();
    std::string row;
    ASSERT_TRUE(db->SelectByKey(txn.get(), table, key(id), &row).ok()) << id;
    RecordView v(&table->schema(), Slice(row));
    EXPECT_EQ(v.GetString(3).ToString(), ColdValue(id)) << id;
    EXPECT_EQ(v.GetInt(2), id * 3) << id;
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  db->ilm()->SetForcePageStore(false);
}

TEST(ColdEngineTest, ScanTableMergesHotAndColdUnderProjection) {
  auto db = std::move(*Database::Open(ColdOptions("", /*pack_workers=*/1)));
  Table* table = *db->CreateTable(ColdTableOptions());
  InsertRows(db.get(), table);
  DrainPack(db.get());
  ASSERT_GT(db->cold()->rows(), 0);

  int64_t expected_sum = 0;
  for (int64_t id = 0; id < kRows; ++id) expected_sum += id * 3;

  // Projected scan: only the `amount` column.
  HtapScanOptions proj;
  proj.columns = {2};
  HtapScanStats stats;
  int64_t sum = 0;
  {
    auto txn = db->Begin();
    ASSERT_TRUE(db->ScanTable(txn.get(), table, proj,
                              [&](const HtapRow& row) {
                                sum += row.Int(2);
                                return true;
                              },
                              &stats)
                    .ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  EXPECT_EQ(sum, expected_sum);
  EXPECT_EQ(stats.rows_emitted, kRows);
  EXPECT_EQ(stats.rows_emitted,
            stats.rows_from_imrs + stats.rows_from_cold +
                stats.rows_from_heap);
  EXPECT_GT(stats.rows_from_cold, 0);

  // Projection pushdown must scan strictly fewer cold bytes than a full
  // scan of the same segments (the wide string column is pruned).
  HtapScanStats full_stats;
  {
    auto txn = db->Begin();
    ASSERT_TRUE(db->ScanTable(txn.get(), table, HtapScanOptions{},
                              [](const HtapRow&) { return true; },
                              &full_stats)
                    .ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  EXPECT_EQ(full_stats.rows_emitted, kRows);
  EXPECT_GT(full_stats.bytes_scanned_cold, 0);
  EXPECT_LT(stats.bytes_scanned_cold, full_stats.bytes_scanned_cold);
}

// Cold rows survive a crash, and so do updates that change the length of a
// string column on an IMRS row, a heap row and a cold-columnar row.
TEST(ColdEngineTest, ColdRowsSurviveCrashRecovery) {
  const std::string dir = testing::ScratchPath("btrim_cold_recovery");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto key = [](Table* table, int64_t id) {
    return table->pk_encoder().KeyForInts({id});
  };
  auto row_image = [](Table* table, int64_t id, const std::string& value) {
    RecordBuilder b(&table->schema());
    b.AddInt64(id).AddInt64(id % kPartitions).AddInt64(id * 3)
        .AddString(value);
    return b.Finish().ToString();
  };
  const int64_t imrs_id = kRows, heap_id = kRows + 1;
  std::map<int64_t, std::string> updated;  // id -> new value
  {
    auto db = std::move(*Database::Open(ColdOptions(dir, 1)));
    Table* table = *db->CreateTable(ColdTableOptions());
    InsertRows(db.get(), table);
    DrainPack(db.get());
    ASSERT_GT(db->cold()->rows(), 0);
    for (const int64_t id : {imrs_id, heap_id}) {
      db->ilm()->SetForcePageStore(id == heap_id);  // kept in the heap
      auto txn = db->Begin();
      ASSERT_TRUE(
          db->Insert(txn.get(), table, row_image(table, id, ColdValue(id)))
              .ok());
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    auto rid_of = [&](int64_t id) {
      return Rid::Decode(*table->primary_index()->Search(key(table, id)));
    };
    int64_t cold_id = 1;  // not one of the ids read back below
    while (cold_id < kRows && (cold_id % 59 == 0 ||
                               !db->cold()->Exists(rid_of(cold_id)) ||
                               db->rid_map()->Lookup(rid_of(cold_id)))) {
      ++cold_id;
    }
    ASSERT_LT(cold_id, kRows);
    ASSERT_NE(db->rid_map()->Lookup(rid_of(imrs_id)), nullptr);
    ASSERT_TRUE(table->PartitionForRid(rid_of(heap_id))
                    ->heap->Exists(rid_of(heap_id)));
    updated = {{imrs_id, std::string(120, 'i')},
               {heap_id, "h"},
               {cold_id, ColdValue(cold_id) + "-grown-by-an-update"}};
    auto txn = db->Begin();
    for (const auto& [id, value] : updated) {
      ASSERT_TRUE(db->Update(txn.get(), table, key(table, id),
                             [&](RowEditor& e) { e.SetString(3, value); })
                      .ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
    // Crash: drop the Database without checkpoint or clean shutdown.
  }
  auto db = std::move(*Database::Open(ColdOptions(dir, 1)));
  Table* table = *db->CreateTable(ColdTableOptions());
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_TRUE(db->ValidateInvariants().ok());
  auto read = [&](int64_t id) {
    auto txn = db->Begin();
    std::string row;
    Status s = db->SelectByKey(txn.get(), table, key(table, id), &row);
    EXPECT_TRUE(s.ok()) << "row " << id << ": " << s.ToString();
    EXPECT_TRUE(db->Commit(txn.get()).ok());
    return row;
  };
  for (int64_t id = 0; id < kRows; id += 59) {
    EXPECT_EQ(read(id), row_image(table, id, ColdValue(id))) << id;
  }
  for (const auto& [id, value] : updated) {
    EXPECT_EQ(read(id), row_image(table, id, value)) << id;
  }
  // New inserts must not collide with recovered cold rids.
  {
    auto txn = db->Begin();
    RecordBuilder b(&table->schema());
    b.AddInt64(kRows + 2).AddInt64(0).AddInt64(0).AddString("fresh");
    ASSERT_TRUE(db->Insert(txn.get(), table, b.Finish()).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  EXPECT_TRUE(db->ValidateInvariants().ok());
  std::filesystem::remove_all(dir);
}

// Per-partition cold state must not depend on the pack worker count: rows
// are staged rid-ordered per partition and sealed at a deterministic row
// count, so only the cross-partition frame order in the segment file may
// differ between schedules.
TEST(ColdEngineTest, ColumnarEmissionDeterministicAcrossWorkers) {
  using PartitionImage = std::map<uint64_t, std::string>;
  auto fingerprint = [](Database* db) {
    std::map<std::pair<uint32_t, uint32_t>, PartitionImage> image;
    db->cold()->ForEachLive([&](uint32_t table_id, uint32_t partition_id,
                                Rid rid, const std::string& payload) {
      image[{table_id, partition_id}][rid.Encode()] = payload;
    });
    return image;
  };
  auto run = [&](int workers) {
    auto db = std::move(*Database::Open(ColdOptions("", workers)));
    Table* table = *db->CreateTable(ColdTableOptions());
    InsertRows(db.get(), table);
    DrainPack(db.get());
    EXPECT_TRUE(db->ValidateInvariants().ok());
    return fingerprint(db.get());
  };
  auto serial = run(1);
  int64_t total = 0;
  for (const auto& [part, rows] : serial) total += rows.size();
  EXPECT_GT(total, 0) << "workload should produce cold rows";
  EXPECT_EQ(run(4), serial) << "cold state diverged with 4 pack workers";
}

}  // namespace
}  // namespace btrim
