// Unit tests for the dual-log WAL layer: record codec, log storage
// backends, group appends, and replay semantics.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"
#include "page/page.h"
#include "testing/alloc_counter.h"
#include "testing/test_util.h"
#include "wal/log.h"
#include "wal/log_record.h"

namespace btrim {
namespace {

LogRecord SampleRecord(LogRecordType type, uint64_t txn = 7) {
  LogRecord rec;
  rec.type = type;
  rec.txn_id = txn;
  rec.table_id = 3;
  rec.partition_id = 1;
  rec.rid = Rid{2, 10, 5}.Encode();
  rec.cts = 99;
  rec.source = 2;
  rec.before = "before-image";
  rec.after = "after-image";
  return rec;
}

// Reads one of `log`'s wal.* counters through a metrics registry.
int64_t LogCounter(const Log& log, const char* name) {
  obs::MetricsRegistry metrics;
  EXPECT_TRUE(log.RegisterMetrics(&metrics, "syslogs").ok());
  return metrics.Sum(name);
}

void ExpectEqualRecords(const LogRecord& a, const LogRecord& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.txn_id, b.txn_id);
  EXPECT_EQ(a.table_id, b.table_id);
  EXPECT_EQ(a.partition_id, b.partition_id);
  EXPECT_EQ(a.rid, b.rid);
  EXPECT_EQ(a.cts, b.cts);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.before, b.before);
  EXPECT_EQ(a.after, b.after);
}

// --- codec ----------------------------------------------------------------------

class LogRecordRoundTrip
    : public ::testing::TestWithParam<LogRecordType> {};

TEST_P(LogRecordRoundTrip, SerializeParse) {
  LogRecord rec = SampleRecord(GetParam());
  std::string buf;
  AppendLogRecord(&buf, rec);
  Slice input(buf);
  LogRecord parsed;
  ASSERT_TRUE(ParseLogRecord(&input, &parsed).ok());
  ExpectEqualRecords(parsed, rec);
  EXPECT_TRUE(input.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, LogRecordRoundTrip,
    ::testing::Values(LogRecordType::kPsInsert, LogRecordType::kPsUpdate,
                      LogRecordType::kPsDelete, LogRecordType::kPsCommit,
                      LogRecordType::kPsAbort, LogRecordType::kCheckpoint,
                      LogRecordType::kImrsInsert, LogRecordType::kImrsUpdate,
                      LogRecordType::kImrsDelete, LogRecordType::kImrsPack,
                      LogRecordType::kImrsCommit));

TEST(LogRecordTest, EmptyImagesRoundTrip) {
  LogRecord rec;
  rec.type = LogRecordType::kPsCommit;
  rec.txn_id = 1;
  std::string buf;
  AppendLogRecord(&buf, rec);
  Slice input(buf);
  LogRecord parsed;
  ASSERT_TRUE(ParseLogRecord(&input, &parsed).ok());
  EXPECT_TRUE(parsed.before.empty());
  EXPECT_TRUE(parsed.after.empty());
}

TEST(LogRecordTest, SequentialRecordsParseInOrder) {
  std::string buf;
  for (uint64_t i = 0; i < 10; ++i) {
    AppendLogRecord(&buf, SampleRecord(LogRecordType::kPsInsert, i));
  }
  Slice input(buf);
  for (uint64_t i = 0; i < 10; ++i) {
    LogRecord rec;
    ASSERT_TRUE(ParseLogRecord(&input, &rec).ok());
    EXPECT_EQ(rec.txn_id, i);
  }
  LogRecord rec;
  EXPECT_TRUE(ParseLogRecord(&input, &rec).IsNotFound());
}

TEST(LogRecordTest, TornTailDetected) {
  std::string buf;
  AppendLogRecord(&buf, SampleRecord(LogRecordType::kPsUpdate));
  // Chop off the last bytes to simulate a torn write.
  buf.resize(buf.size() - 5);
  Slice input(buf);
  LogRecord rec;
  EXPECT_TRUE(ParseLogRecord(&input, &rec).IsNotFound());
}

TEST(LogRecordTest, CorruptBodyDetectedByChecksum) {
  std::string buf;
  AppendLogRecord(&buf, SampleRecord(LogRecordType::kPsUpdate));
  buf[buf.size() / 2] ^= 0x40;  // flip a bit in the body
  Slice input(buf);
  LogRecord rec;
  EXPECT_TRUE(ParseLogRecord(&input, &rec).IsNotFound());
}

// Golden bytes for the on-disk framing. Recovery of logs written by older
// builds depends on these exact bytes; an encoder change that moves any of
// them breaks every existing log. The integers are little-endian (the
// codec copies host-order words, and every supported target is LE).
std::string FromHex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(LogRecordTest, GoldenBytesImrsInsert) {
  LogRecord rec;
  rec.type = LogRecordType::kImrsInsert;
  rec.txn_id = 0x1122334455667788ull;
  rec.table_id = 3;
  rec.partition_id = 1;
  rec.rid = 0x0000000200000a05ull;
  rec.source = 1;
  rec.after = "row-after";
  std::string buf;
  AppendLogRecord(&buf, rec);
  EXPECT_EQ(buf, FromHex("33000000" "d19eaead"  // body_len, checksum
                         "10" "8877665544332211" "03000000" "01000000"
                         "050a000002000000" "0000000000000000" "01"
                         "00000000"                        // before: empty
                         "09000000" "726f772d6166746572"));  // "row-after"
}

TEST(LogRecordTest, GoldenBytesPsUpdate) {
  LogRecord rec;
  rec.type = LogRecordType::kPsUpdate;
  rec.txn_id = 42;
  rec.table_id = 7;
  rec.partition_id = 2;
  rec.rid = 0xdeadbeefull;
  rec.before = "old";
  rec.after = "new-value";
  std::string buf;
  AppendLogRecord(&buf, rec);
  EXPECT_EQ(buf, FromHex("36000000" "917a23ce"
                         "02" "2a00000000000000" "07000000" "02000000"
                         "efbeadde00000000" "0000000000000000" "00"
                         "03000000" "6f6c64"
                         "09000000" "6e65772d76616c7565"));
}

TEST(LogRecordTest, GoldenBytesImrsCommitEmptyImages) {
  LogRecord rec;
  rec.type = LogRecordType::kImrsCommit;
  rec.txn_id = 42;
  rec.cts = 0x0102030405060708ull;
  std::string buf;
  AppendLogRecord(&buf, rec);
  EXPECT_EQ(buf, FromHex("2a000000" "cb5c86b1"
                         "14" "2a00000000000000" "00000000" "00000000"
                         "0000000000000000" "0807060504030201" "00"
                         "00000000" "00000000"));
}

TEST(LogRecordTest, GoldenBytesLargeImageAppendsToNonEmptyDst) {
  LogRecord rec;
  rec.type = LogRecordType::kImrsUpdate;
  rec.txn_id = 9;
  rec.table_id = 4;
  rec.rid = 77;
  rec.after.resize(5000);
  for (size_t i = 0; i < rec.after.size(); ++i) {
    rec.after[i] = static_cast<char>((i * 31 + 7) & 0xff);
  }
  std::string buf = "existing";
  AppendLogRecord(&buf, rec);
  const std::string expected =
      "existing" +
      FromHex("b2130000" "fddc3439"
              "11" "0900000000000000" "04000000" "00000000"
              "4d00000000000000" "0000000000000000" "00"
              "00000000" "88130000") +
      rec.after;
  ASSERT_EQ(buf.size(), expected.size());
  EXPECT_TRUE(buf == expected);  // no 5 KiB diff dump on failure
}

TEST(LogRecordTest, AppendIntoReservedBufferDoesNotAllocate) {
  // The frame is encoded straight into `dst`: no temporary body string.
  LogRecord rec = SampleRecord(LogRecordType::kImrsUpdate);
  rec.after.assign(4096, 'x');
  std::string buf;
  buf.reserve(64 << 10);
  const int64_t before = testing::HeapAllocations();
  for (int i = 0; i < 8; ++i) AppendLogRecord(&buf, rec);
  EXPECT_EQ(testing::HeapAllocations(), before);
  Slice input(buf);
  LogRecord parsed;
  ASSERT_TRUE(ParseLogRecord(&input, &parsed).ok());
  ExpectEqualRecords(parsed, rec);
}

// --- storage backends ---------------------------------------------------------------

TEST(MemLogStorageTest, AppendReadRollOverDrop) {
  MemLogStorage storage;
  ASSERT_TRUE(storage.Append("hello ").ok());
  ASSERT_TRUE(storage.Append("world").ok());
  EXPECT_EQ(storage.Size(), 11);
  std::string content;
  ASSERT_TRUE(storage.ReadAll(&content).ok());
  EXPECT_EQ(content, "hello world");
  Result<uint64_t> mark = storage.RollOver();
  ASSERT_TRUE(mark.ok());
  ASSERT_TRUE(storage.Append("!").ok());
  ASSERT_TRUE(storage.DropBefore(*mark).ok());
  EXPECT_EQ(storage.Size(), 1);
  ASSERT_TRUE(storage.ReadAll(&content).ok());
  EXPECT_EQ(content, "!");
}

// A mark in the middle of a chunk: reading resumes exactly at it, the
// chunks wholly below it are gone, and an older mark drops nothing more.
TEST(MemLogStorageTest, DropResumesExactlyAtTheMark) {
  constexpr size_t kChunk = MemLogStorage::kChunkBytes;
  MemLogStorage storage;
  ASSERT_TRUE(storage.Append(std::string(2 * kChunk + kChunk / 2, 'a')).ok());
  Result<uint64_t> first = storage.RollOver();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 2 * kChunk + kChunk / 2);
  std::string expected = "0123456789";
  expected += std::string(kChunk, 'b');  // straddles into a fresh chunk
  ASSERT_TRUE(storage.Append(Slice(expected)).ok());
  ASSERT_TRUE(storage.DropBefore(*first).ok());
  EXPECT_EQ(storage.Size(), static_cast<int64_t>(expected.size()));
  std::string content;
  ASSERT_TRUE(storage.ReadAll(&content).ok());
  EXPECT_TRUE(content == expected);

  Result<uint64_t> second = storage.RollOver();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(storage.Append("tail").ok());
  ASSERT_TRUE(storage.DropBefore(*second).ok());
  ASSERT_TRUE(storage.DropBefore(*first).ok());  // older mark: no-op
  ASSERT_TRUE(storage.ReadAll(&content).ok());
  EXPECT_EQ(content, "tail");
  EXPECT_EQ(storage.Size(), 4);
}

// Appends that straddle a chunk boundary, one larger than three chunks, and
// one that ends exactly on a boundary: ReadAll returns exactly the appended
// bytes, and Size counts them.
TEST(MemLogStorageTest, AppendsSpanChunkBoundaries) {
  constexpr size_t kChunk = MemLogStorage::kChunkBytes;
  MemLogStorage storage;
  std::string expected;
  auto append = [&](const std::string& bytes) {
    ASSERT_TRUE(storage.Append(Slice(bytes)).ok());
    expected += bytes;
    EXPECT_EQ(storage.Size(), static_cast<int64_t>(expected.size()));
  };
  append(std::string(kChunk - 10, 'a'));     // inside chunk 0
  append("0123456789abcdefghij");            // straddles 0 -> 1
  append(std::string(3 * kChunk + 5, 'x'));  // spans four chunks
  append(std::string(kChunk - expected.size() % kChunk, 'y'));  // to the edge
  append("z");                               // first byte of a fresh chunk
  append("");
  std::string content;
  ASSERT_TRUE(storage.ReadAll(&content).ok());
  EXPECT_TRUE(content == expected);  // not EXPECT_EQ: no 5 MiB failure dump

  Result<uint64_t> mark = storage.RollOver();
  ASSERT_TRUE(mark.ok());
  ASSERT_TRUE(storage.DropBefore(*mark).ok());
  EXPECT_EQ(storage.Size(), 0);
  ASSERT_TRUE(storage.ReadAll(&content).ok());
  EXPECT_TRUE(content.empty());
  ASSERT_TRUE(storage.Append("after").ok());
  ASSERT_TRUE(storage.ReadAll(&content).ok());
  EXPECT_EQ(content, "after");
  EXPECT_EQ(storage.Size(), 5);
}

// Records that straddle chunk boundaries read back as the exact serialized
// bytes, and replay returns every record intact.
TEST(MemLogStorageTest, ChunkedLogReplaysIdentically) {
  auto storage = std::make_unique<MemLogStorage>();
  MemLogStorage* raw = storage.get();
  Log log(std::move(storage));
  std::vector<LogRecord> written;
  std::string serialized;
  for (uint64_t i = 0; i < 40; ++i) {
    LogRecord rec = SampleRecord(LogRecordType::kImrsInsert, i);
    // 70-140 KiB images: the 40 records span several 1 MiB chunks.
    rec.after = std::string((70 + i * 13 % 70) << 10,
                            static_cast<char>('a' + i % 26));
    ASSERT_TRUE(log.AppendRecord(rec).ok());
    AppendLogRecord(&serialized, rec);
    written.push_back(rec);
  }
  ASSERT_GT(serialized.size(), 2 * MemLogStorage::kChunkBytes);
  std::string content;
  ASSERT_TRUE(raw->ReadAll(&content).ok());
  EXPECT_TRUE(content == serialized);
  EXPECT_EQ(log.SizeBytes(), static_cast<int64_t>(serialized.size()));
  size_t n = 0;
  ASSERT_TRUE(log.Replay([&](const LogRecord& rec) {
                   EXPECT_LT(n, written.size());
                   if (n < written.size()) ExpectEqualRecords(rec, written[n]);
                   ++n;
                   return true;
                 })
                  .ok());
  EXPECT_EQ(n, written.size());
  Result<uint64_t> mark = log.RollOver();
  ASSERT_TRUE(mark.ok());
  ASSERT_TRUE(log.DropBefore(*mark).ok());
  EXPECT_EQ(log.SizeBytes(), 0);
}

TEST(FileLogStorageTest, PersistsAcrossReopen) {
  const std::string path = testing::ScratchPath("btrim_wal_test.log");
  std::filesystem::remove(path);
  {
    Result<std::unique_ptr<FileLogStorage>> storage =
        FileLogStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    ASSERT_TRUE((*storage)->Append("abc").ok());
    ASSERT_TRUE((*storage)->Sync().ok());
  }
  {
    Result<std::unique_ptr<FileLogStorage>> storage =
        FileLogStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    EXPECT_EQ((*storage)->Size(), 3);
    std::string content;
    ASSERT_TRUE((*storage)->ReadAll(&content).ok());
    EXPECT_EQ(content, "abc");
  }
  std::filesystem::remove(path);
}

// Sorted names of the files in `dir`.
std::vector<std::string> FileNames(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// The active segment keeps its name; each rollover archives it as a
// numbered .wal file that a reopen finds again, in order; a drop unlinks
// the archives below its mark and nothing else.
TEST(FileLogStorageTest, RollOverArchivesAndDropUnlinks) {
  const std::string dir = testing::ScratchPath("btrim_wal_rollover");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/syslogs.wal";
  uint64_t first = 0;
  uint64_t second = 0;
  {
    Result<std::unique_ptr<FileLogStorage>> storage =
        FileLogStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    ASSERT_TRUE((*storage)->Append("abc").ok());
    Result<uint64_t> mark = (*storage)->RollOver();
    ASSERT_TRUE(mark.ok());
    first = *mark;
    ASSERT_TRUE((*storage)->Append("de").ok());
    mark = (*storage)->RollOver();
    ASSERT_TRUE(mark.ok());
    second = *mark;
    ASSERT_TRUE((*storage)->Append("f").ok());
    ASSERT_TRUE((*storage)->Sync().ok());
    EXPECT_EQ((*storage)->Size(), 6);
  }
  EXPECT_EQ(FileNames(dir), (std::vector<std::string>{
                                "syslogs.1.wal", "syslogs.2.wal",
                                "syslogs.wal"}));
  Result<std::unique_ptr<FileLogStorage>> storage = FileLogStorage::Open(path);
  ASSERT_TRUE(storage.ok());
  std::string content;
  ASSERT_TRUE((*storage)->ReadAll(&content).ok());
  EXPECT_EQ(content, "abcdef");
  EXPECT_EQ((*storage)->Size(), 6);

  ASSERT_TRUE((*storage)->DropBefore(first).ok());
  EXPECT_EQ(FileNames(dir), (std::vector<std::string>{"syslogs.2.wal",
                                                      "syslogs.wal"}));
  ASSERT_TRUE((*storage)->ReadAll(&content).ok());
  EXPECT_EQ(content, "def");
  ASSERT_TRUE((*storage)->DropBefore(second).ok());
  EXPECT_EQ(FileNames(dir), (std::vector<std::string>{"syslogs.wal"}));
  ASSERT_TRUE((*storage)->ReadAll(&content).ok());
  EXPECT_EQ(content, "f");
  EXPECT_EQ((*storage)->Size(), 1);

  // Numbering continues past the dropped archives.
  Result<uint64_t> third = (*storage)->RollOver();
  ASSERT_TRUE(third.ok());
  EXPECT_GT(*third, second);
  ASSERT_TRUE((*storage)->Append("g").ok());
  ASSERT_TRUE((*storage)->ReadAll(&content).ok());
  EXPECT_EQ(content, "fg");
  (*storage).reset();  // close before removing the directory
  std::filesystem::remove_all(dir);
}

// --- Log -------------------------------------------------------------------------------

TEST(LogTest, AppendAndReplay) {
  Log log(std::make_unique<MemLogStorage>());
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, i)).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(log.Replay([&](const LogRecord& rec) {
                   seen.push_back(rec.txn_id);
                   return true;
                 })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(LogCounter(log, "wal.records_appended"), 5);
  EXPECT_GT(LogCounter(log, "wal.bytes_appended"), 0);
}

TEST(LogTest, ReplayStopsWhenCallbackReturnsFalse) {
  Log log(std::make_unique<MemLogStorage>());
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, i)).ok());
  }
  int count = 0;
  ASSERT_TRUE(log.Replay([&](const LogRecord&) { return ++count < 2; }).ok());
  EXPECT_EQ(count, 2);
}

TEST(LogTest, GroupAppendIsContiguous) {
  Log log(std::make_unique<MemLogStorage>());
  // Interleave a group with single records: the group's records replay
  // adjacently.
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, 1)).ok());
  std::string group;
  AppendLogRecord(&group, SampleRecord(LogRecordType::kImrsInsert, 42));
  AppendLogRecord(&group, SampleRecord(LogRecordType::kImrsCommit, 42));
  ASSERT_TRUE(log.AppendGroup(group, 2).ok());
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, 2)).ok());

  std::vector<uint64_t> seen;
  ASSERT_TRUE(log.Replay([&](const LogRecord& rec) {
                   seen.push_back(rec.txn_id);
                   return true;
                 })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 42, 42, 2}));
  EXPECT_EQ(LogCounter(log, "wal.groups_appended"), 1);
  EXPECT_EQ(LogCounter(log, "wal.records_appended"), 4);
}

TEST(LogTest, DropBeforeTheRollOverEmptiesReplay) {
  Log log(std::make_unique<MemLogStorage>());
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert)).ok());
  Result<uint64_t> mark = log.RollOver();
  ASSERT_TRUE(mark.ok());
  ASSERT_TRUE(log.DropBefore(*mark).ok());
  int count = 0;
  ASSERT_TRUE(log.Replay([&](const LogRecord&) {
                   ++count;
                   return true;
                 })
                  .ok());
  EXPECT_EQ(count, 0);
  EXPECT_EQ(log.SizeBytes(), 0);
}

TEST(LogTest, CommitSyncsTheStorage) {
  const std::string path = testing::ScratchPath("btrim_wal_sync_test.log");
  std::filesystem::remove(path);
  auto storage = FileLogStorage::Open(path);
  ASSERT_TRUE(storage.ok());
  Log log(std::move(*storage));
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsCommit)).ok());
  ASSERT_TRUE(log.Commit().ok());
  EXPECT_EQ(LogCounter(log, "wal.syncs"), 1);
  std::filesystem::remove(path);
}

// A rollover syncs everything appended before it, so a Commit right after
// it has nothing left to make durable.
TEST(LogTest, RollOverCoversEarlierAppends) {
  const std::string dir = testing::ScratchPath("btrim_wal_rollover_sync");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    auto storage = FileLogStorage::Open(dir + "/syslogs.wal");
    ASSERT_TRUE(storage.ok());
    Log log(std::move(*storage));
    ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsCommit)).ok());
    ASSERT_TRUE(log.RollOver().ok());
    EXPECT_EQ(LogCounter(log, "wal.syncs"), 1);
    ASSERT_TRUE(log.Commit().ok());
    EXPECT_EQ(LogCounter(log, "wal.syncs"), 1);
    EXPECT_EQ(LogCounter(log, "wal.syncs_elided"), 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(LogTest, RedundantCommitsElideTheSync) {
  const std::string path = testing::ScratchPath("btrim_wal_elide_test.log");
  std::filesystem::remove(path);
  auto storage = FileLogStorage::Open(path);
  ASSERT_TRUE(storage.ok());
  Log log(std::move(*storage));

  // Nothing appended yet: Commit has nothing to make durable.
  ASSERT_TRUE(log.Commit().ok());
  EXPECT_EQ(LogCounter(log, "wal.syncs"), 0);
  EXPECT_EQ(LogCounter(log, "wal.syncs_elided"), 1);

  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsCommit)).ok());
  ASSERT_TRUE(log.Commit().ok());
  EXPECT_EQ(LogCounter(log, "wal.syncs"), 1);

  // Clean log: the second Commit is a no-op.
  ASSERT_TRUE(log.Commit().ok());
  EXPECT_EQ(LogCounter(log, "wal.syncs"), 1);
  EXPECT_EQ(LogCounter(log, "wal.syncs_elided"), 2);

  // New append dirties the log again.
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsCommit)).ok());
  ASSERT_TRUE(log.Commit().ok());
  EXPECT_EQ(LogCounter(log, "wal.syncs"), 2);
  EXPECT_EQ(LogCounter(log, "wal.syncs_elided"), 2);
  std::filesystem::remove(path);
}

TEST(LogTest, SingleRecordAppendsDoNotDoubleSerialize) {
  Log log(std::make_unique<MemLogStorage>());
  std::string scratch;
  ASSERT_TRUE(
      log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, 1), &scratch)
          .ok());
  const size_t one_record = scratch.size();
  EXPECT_GT(one_record, 0u);
  // The scratch buffer holds exactly the serialized record (reused, not
  // re-allocated, across calls) and the log received exactly those bytes.
  ASSERT_TRUE(
      log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, 2), &scratch)
          .ok());
  EXPECT_EQ(scratch.size(), one_record);
  EXPECT_EQ(LogCounter(log, "wal.bytes_appended"),
            static_cast<int64_t>(2 * one_record));
}

TEST(LogTest, ReplayIgnoresTornTail) {
  auto storage = std::make_unique<MemLogStorage>();
  MemLogStorage* raw = storage.get();
  Log log(std::move(storage));
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, 1)).ok());
  const int64_t whole = log.SizeBytes();
  // A partial record at the tail (e.g. crash mid-write).
  ASSERT_TRUE(raw->Append(std::string(7, '\x01')).ok());
  int count = 0;
  ASSERT_TRUE(log.Replay([&](const LogRecord&) {
                   ++count;
                   return true;
                 })
                  .ok());
  EXPECT_EQ(count, 1);
  // The replay cut the torn bytes off, so a later append replays too.
  EXPECT_EQ(log.SizeBytes(), whole);
  ASSERT_TRUE(log.AppendRecord(SampleRecord(LogRecordType::kPsInsert, 2)).ok());
  std::vector<uint64_t> seen;
  ASSERT_TRUE(log.Replay([&](const LogRecord& rec) {
                   seen.push_back(rec.txn_id);
                   return true;
                 })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
}

// Reopen over a torn active segment: the replay cuts the torn bytes off the
// file, so a record appended by the reopened log is found by the next one.
TEST(FileLogStorageTest, ReplayCutsTornTailBeforeTheNextAppend) {
  const std::string path = testing::ScratchPath("btrim_wal_torn.log");
  std::filesystem::remove(path);
  auto open_log = [&] {
    Result<std::unique_ptr<FileLogStorage>> storage =
        FileLogStorage::Open(path);
    EXPECT_TRUE(storage.ok());
    return std::make_unique<Log>(std::move(*storage));
  };
  auto replay = [](Log* log) {
    std::vector<uint64_t> seen;
    EXPECT_TRUE(log->Replay([&](const LogRecord& rec) {
                     seen.push_back(rec.txn_id);
                     return true;
                   })
                    .ok());
    return seen;
  };
  {
    std::unique_ptr<Log> log = open_log();
    ASSERT_TRUE(
        log->AppendRecord(SampleRecord(LogRecordType::kPsInsert, 1)).ok());
    ASSERT_TRUE(log->SyncStorage().ok());
  }
  const uintmax_t whole = std::filesystem::file_size(path);
  std::ofstream(path, std::ios::binary | std::ios::app) << "torn";
  {
    std::unique_ptr<Log> log = open_log();
    EXPECT_EQ(replay(log.get()), std::vector<uint64_t>{1});
    EXPECT_EQ(std::filesystem::file_size(path), whole);
    ASSERT_TRUE(
        log->AppendRecord(SampleRecord(LogRecordType::kPsInsert, 2)).ok());
    ASSERT_TRUE(log->SyncStorage().ok());
  }
  std::unique_ptr<Log> log = open_log();
  EXPECT_EQ(replay(log.get()), (std::vector<uint64_t>{1, 2}));
  log.reset();
  std::filesystem::remove(path);
}

// Txn ids of the records `log` replays, and the replay's status.
std::vector<uint64_t> ReplayIds(Log* log, Status* status) {
  std::vector<uint64_t> seen;
  *status = log->Replay([&](const LogRecord& rec) {
    seen.push_back(rec.txn_id);
    return true;
  });
  return seen;
}

std::string Frame(uint64_t txn) {
  std::string frame;
  AppendLogRecord(&frame, SampleRecord(LogRecordType::kPsInsert, txn));
  return frame;
}

// RollOver renames the active segment before it syncs it, so a crash in
// between can leave the newest archive ending in a torn frame. Nothing
// after the rename was acked (a Sync waits for the rollover), so recovery
// cuts the archive there and empties the active segment.
TEST(FileLogStorageTest, TornTailOfTheNewestArchiveIsCut) {
  const std::string dir = testing::ScratchPath("btrim_wal_torn_archive");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/syslogs.wal";
  auto open_log = [&] {
    Result<std::unique_ptr<FileLogStorage>> storage =
        FileLogStorage::Open(path);
    EXPECT_TRUE(storage.ok());
    return std::make_unique<Log>(std::move(*storage));
  };
  Status s;
  {
    std::unique_ptr<Log> log = open_log();
    ASSERT_TRUE(log->AppendSerialized(Frame(1), 1).ok());
    const std::string torn = Frame(2);
    ASSERT_TRUE(log->AppendSerialized(Slice(torn.data(), torn.size() / 2), 1)
                    .ok());
    ASSERT_TRUE(log->RollOver().ok());
    ASSERT_TRUE(log->AppendSerialized(Frame(3), 1).ok());  // never acked
    ASSERT_TRUE(log->SyncStorage().ok());
  }
  const std::string archive = dir + "/syslogs.1.wal";
  {
    std::unique_ptr<Log> log = open_log();
    EXPECT_EQ(ReplayIds(log.get(), &s), std::vector<uint64_t>{1});
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(std::filesystem::file_size(archive), Frame(1).size());
    EXPECT_EQ(std::filesystem::file_size(path), 0u);
    ASSERT_TRUE(log->AppendSerialized(Frame(4), 1).ok());
    ASSERT_TRUE(log->SyncStorage().ok());
  }
  std::unique_ptr<Log> log = open_log();
  EXPECT_EQ(ReplayIds(log.get(), &s), (std::vector<uint64_t>{1, 4}));
  EXPECT_TRUE(s.ok()) << s.ToString();
  log.reset();
  std::filesystem::remove_all(dir);
}

// A bad frame in an archive older than the newest is damage, not a crash's
// torn tail: every later rollover synced before it returned.
TEST(FileLogStorageTest, BadFrameInsideAnOlderArchiveIsCorruption) {
  const std::string dir = testing::ScratchPath("btrim_wal_bad_archive");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Result<std::unique_ptr<FileLogStorage>> storage =
      FileLogStorage::Open(dir + "/syslogs.wal");
  ASSERT_TRUE(storage.ok());
  Log log(std::move(*storage));
  ASSERT_TRUE(log.AppendSerialized(Frame(1), 1).ok());
  ASSERT_TRUE(log.AppendSerialized("garbage", 1).ok());
  ASSERT_TRUE(log.RollOver().ok());
  ASSERT_TRUE(log.AppendSerialized(Frame(2), 1).ok());
  ASSERT_TRUE(log.RollOver().ok());
  ASSERT_TRUE(log.AppendSerialized(Frame(3), 1).ok());
  const int64_t size = log.SizeBytes();
  Status s;
  ReplayIds(&log, &s);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(log.SizeBytes(), size);  // nothing cut
  std::filesystem::remove_all(dir);
}

// A frame failing its checksum with more bytes of its segment after it is
// damage: replay reports it and cuts nothing, so the synced frames behind
// it stay on disk. The same frame at the very end is a torn tail.
TEST(FileLogStorageTest, BadFrameFollowedByMoreOfItsSegmentIsCorruption) {
  const std::string dir = testing::ScratchPath("btrim_wal_bad_middle");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string damaged = Frame(2);
  damaged.back() ^= 0x5a;
  for (const bool archived : {false, true}) {
    const std::string path =
        dir + (archived ? "/archived.wal" : "/active.wal");
    Result<std::unique_ptr<FileLogStorage>> storage =
        FileLogStorage::Open(path);
    ASSERT_TRUE(storage.ok());
    Log log(std::move(*storage));
    ASSERT_TRUE(log.AppendSerialized(Frame(1), 1).ok());
    ASSERT_TRUE(log.AppendSerialized(damaged, 1).ok());
    ASSERT_TRUE(log.AppendSerialized(Frame(3), 1).ok());
    if (archived) {
      ASSERT_TRUE(log.RollOver().ok());
    }
    const int64_t size = log.SizeBytes();
    Status s;
    EXPECT_EQ(ReplayIds(&log, &s), std::vector<uint64_t>{1});
    EXPECT_TRUE(s.IsCorruption()) << archived << ": " << s.ToString();
    EXPECT_EQ(log.SizeBytes(), size) << archived;
  }
  MemLogStorage mem;
  ASSERT_TRUE(mem.Append(Frame(1)).ok());
  ASSERT_TRUE(mem.Append(damaged).ok());
  ASSERT_TRUE(mem.Append(Frame(3)).ok());
  EXPECT_TRUE(mem.TrimTail(Frame(1).size(), Frame(1).size() + damaged.size())
                  .IsCorruption());
  EXPECT_EQ(mem.Size(), static_cast<int64_t>(3 * damaged.size()));

  // At the end of the active segment the damaged frame is a torn tail.
  Result<std::unique_ptr<FileLogStorage>> storage =
      FileLogStorage::Open(dir + "/tail.wal");
  ASSERT_TRUE(storage.ok());
  Log log(std::move(*storage));
  ASSERT_TRUE(log.AppendSerialized(Frame(1), 1).ok());
  ASSERT_TRUE(log.AppendSerialized(damaged, 1).ok());
  Status s;
  EXPECT_EQ(ReplayIds(&log, &s), std::vector<uint64_t>{1});
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(log.SizeBytes(), static_cast<int64_t>(Frame(1).size()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace btrim
