// Determinism tests for the parallel pack pipeline: a pack drain executed
// with N workers must produce exactly the state a 1-worker (inline, serial)
// drain produces. The per-partition budgets are apportioned on the driver
// thread before the fan-out and each partition's queue is drained
// independently under its pack lock, so worker count may change only the
// schedule, never the outcome.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"

namespace btrim {
namespace {

constexpr int kPartitions = 8;
constexpr int64_t kRows = 4000;

// Post-drain fingerprint of everything pack is allowed to affect.
struct PackOutcome {
  int64_t rows_packed = 0;
  int64_t bytes_packed = 0;
  int64_t rid_map_size = 0;
  std::vector<int64_t> partition_rows_packed;
  std::vector<int64_t> partition_imrs_rows;
};

// Skewed partition assignment (some partitions get twice the rows) so the
// packability-index apportioning hands out genuinely different budgets —
// a uniform spread would let a broken apportioner pass by accident.
int64_t PartitionFor(int64_t id) {
  return (id % 16 < 8) ? id % kPartitions : id % (kPartitions / 2);
}

std::string ValueFor(int64_t id) {
  return "row-" + std::to_string(id) + "-" + std::string(60, 'v');
}

PackOutcome RunWorkload(int pack_workers) {
  DatabaseOptions options;
  options.in_memory = true;
  options.imrs_cache_bytes = 4ull << 20;
  options.pack_workers = pack_workers;
  // Keep pack active (and the TSF off) for the whole drain; freeze the
  // auto-tuner so partition enablement cannot shift mid-test.
  options.ilm.steady_cache_pct = 0.01;
  options.ilm.aggressive_fraction = 0.05;
  options.ilm.pack_cycle_pct = 0.20;
  options.ilm.pack_batch_rows = 16;
  options.ilm.tuning_window_txns = 1ull << 40;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));

  TableOptions topt;
  topt.name = "packee";
  topt.schema = Schema({
      Column::Int64("id"),
      Column::Int64("part"),
      Column::String("value", 128),
  });
  topt.primary_key = {0};
  topt.num_partitions = kPartitions;
  topt.partition_column = 1;
  Table* table = *db->CreateTable(topt);

  for (int64_t id = 0; id < kRows;) {
    auto txn = db->Begin();
    for (int64_t i = 0; i < 50 && id < kRows; ++i, ++id) {
      RecordBuilder b(&table->schema());
      b.AddInt64(id).AddInt64(PartitionFor(id)).AddString(ValueFor(id));
      EXPECT_TRUE(db->Insert(txn.get(), table, b.Finish()).ok()) << id;
    }
    EXPECT_TRUE(db->Commit(txn.get()).ok());
  }

  // Rows enter the ILM queues via the GC pass over freshly committed rows.
  db->RunGcOnce();

  // Drain: tick until pack stops advancing.
  int64_t last_rows = -1;
  int stalled = 0;
  for (int iter = 0; iter < 500 && stalled < 3; ++iter) {
    db->RunIlmTickOnce();
    const int64_t rows = db->metrics_registry()->Sum("pack.rows_packed");
    stalled = rows == last_rows ? stalled + 1 : 0;
    last_rows = rows;
  }

  // Whatever worker count ran, the cross-structure invariants must hold and
  // every row must still be readable with its original value.
  EXPECT_TRUE(db->ValidateInvariants().ok());
  for (int64_t id = 0; id < kRows; id += 13) {
    auto txn = db->Begin();
    std::string row;
    Status s = db->SelectByKey(txn.get(), table,
                               table->pk_encoder().KeyForInts({id}), &row);
    EXPECT_TRUE(s.ok()) << "row " << id << ": " << s.ToString();
    if (s.ok()) {
      RecordView view(&table->schema(), row);
      EXPECT_EQ(view.GetString(2), ValueFor(id)) << id;
    }
    EXPECT_TRUE(db->Commit(txn.get()).ok());
  }

  PackOutcome out;
  out.rows_packed = db->metrics_registry()->Sum("pack.rows_packed");
  out.bytes_packed = db->metrics_registry()->Sum("pack.bytes_packed");
  out.rid_map_size = db->rid_map()->Size();
  for (int p = 0; p < kPartitions; ++p) {
    out.partition_rows_packed.push_back(
        table->partition(p).ilm->metrics.rows_packed.Load());
    out.partition_imrs_rows.push_back(
        table->partition(p).ilm->metrics.imrs_rows.Load());
  }
  return out;
}

void ExpectSameOutcome(const PackOutcome& serial, const PackOutcome& parallel,
                       int workers) {
  SCOPED_TRACE("workers=" + std::to_string(workers));
  EXPECT_EQ(parallel.rows_packed, serial.rows_packed);
  EXPECT_EQ(parallel.bytes_packed, serial.bytes_packed);
  EXPECT_EQ(parallel.rid_map_size, serial.rid_map_size);
  // Per-partition agreement is the apportioning invariant: the UI/CUI/PI
  // split decides each partition's budget on the driver thread, so worker
  // count cannot move bytes between partitions.
  EXPECT_EQ(parallel.partition_rows_packed, serial.partition_rows_packed);
  EXPECT_EQ(parallel.partition_imrs_rows, serial.partition_imrs_rows);
}

TEST(PackParallelTest, SerialDrainActuallyPacks) {
  PackOutcome serial = RunWorkload(1);
  EXPECT_GT(serial.rows_packed, 0);
  EXPECT_GT(serial.bytes_packed, 0);
  EXPECT_LT(serial.rid_map_size, kRows);
  // The skew must be visible in the outcome for the determinism comparison
  // to mean anything.
  int64_t min_packed = serial.partition_rows_packed[0];
  int64_t max_packed = serial.partition_rows_packed[0];
  for (int64_t v : serial.partition_rows_packed) {
    min_packed = std::min(min_packed, v);
    max_packed = std::max(max_packed, v);
  }
  EXPECT_NE(min_packed, max_packed)
      << "workload skew should produce uneven per-partition packing";
}

TEST(PackParallelTest, WorkerCountDoesNotChangeOutcome) {
  PackOutcome serial = RunWorkload(1);
  for (int workers : {2, 4}) {
    PackOutcome parallel = RunWorkload(workers);
    ExpectSameOutcome(serial, parallel, workers);
  }
}

}  // namespace
}  // namespace btrim
