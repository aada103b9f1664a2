// TPC-C substrate tests: generator conformance, transaction correctness,
// and database-consistency invariants after a driven run.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "testing/alloc_counter.h"
#include "tpcc/driver.h"
#include "tpcc/loader.h"
#include "tpcc/tpcc_random.h"

namespace btrim {
namespace tpcc {
namespace {

Scale TinyScale() {
  Scale s;
  s.warehouses = 1;
  s.districts_per_warehouse = 4;
  s.customers_per_district = 30;
  s.items = 100;
  s.orders_per_district = 30;
  return s;
}

class TpccTest : public ::testing::Test {
 protected:
  void Open(bool ilm_enabled = true, int64_t lock_timeout_ms = 200) {
    DatabaseOptions options;
    options.buffer_cache_frames = 2048;
    options.imrs_cache_bytes = 64 << 20;
    options.ilm.ilm_enabled = ilm_enabled;
    options.lock_timeout_ms = lock_timeout_ms;
    Result<std::unique_ptr<Database>> opened = Database::Open(options);
    ASSERT_TRUE(opened.ok());
    db_ = std::move(*opened);

    scale_ = TinyScale();
    Result<Tables> tables = CreateTables(db_.get(), scale_);
    ASSERT_TRUE(tables.ok()) << tables.status().ToString();
    tables_ = *tables;
    ASSERT_TRUE(LoadDatabase(db_.get(), tables_, scale_).ok());

    ctx_.db = db_.get();
    ctx_.tables = tables_;
    ctx_.scale = scale_;
    ctx_.next_history_id = static_cast<int64_t>(scale_.warehouses) *
                               scale_.districts_per_warehouse *
                               scale_.customers_per_district +
                           1;
  }

  /// Counts visible rows of `table` via a full primary scan.
  int64_t CountRows(Table* table) {
    auto txn = db_->Begin();
    std::vector<ScanRow> rows;
    Status s = db_->ScanIndex(txn.get(), table, -1, Slice(), Slice(), 0,
                              &rows);
    Status c = db_->Commit(txn.get());
    (void)c;
    EXPECT_TRUE(s.ok());
    return static_cast<int64_t>(rows.size());
  }

  std::unique_ptr<Database> db_;
  Scale scale_;
  Tables tables_;
  TpccContext ctx_;
};

// --- random primitives -------------------------------------------------------------

TEST(TpccRandomTest, NURandStaysInRange) {
  TpccRandom rnd(1);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rnd.NURand(1023, 1, 3000);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 3000);
  }
}

TEST(TpccRandomTest, NURandIsSkewed) {
  // NURand produces a non-uniform distribution: the most popular single
  // value should appear far above the uniform expectation.
  TpccRandom rnd(2);
  std::map<int64_t, int> histogram;
  constexpr int kTrials = 30000;
  for (int i = 0; i < kTrials; ++i) {
    histogram[rnd.NURand(255, 0, 999)]++;
  }
  int max_count = 0;
  for (const auto& [v, c] : histogram) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 3 * kTrials / 1000);  // > 3x uniform share
}

TEST(TpccRandomTest, LastNameSyllables) {
  EXPECT_EQ(TpccRandom::LastName(0), "BARBARBAR");
  EXPECT_EQ(TpccRandom::LastName(371), "PRICALLYOUGHT");
  EXPECT_EQ(TpccRandom::LastName(999), "EINGEINGEING");
}

TEST(TpccRandomTest, StringsHonourLengthBounds) {
  TpccRandom rnd(3);
  for (int i = 0; i < 200; ++i) {
    const std::string a = rnd.AString(5, 12);
    EXPECT_GE(a.size(), 5u);
    EXPECT_LE(a.size(), 12u);
    const std::string n = rnd.NString(4, 4);
    EXPECT_EQ(n.size(), 4u);
    for (char c : n) EXPECT_TRUE(c >= '0' && c <= '9');
  }
  EXPECT_EQ(rnd.Zip().size(), 9u);
}

// --- loader --------------------------------------------------------------------------

TEST_F(TpccTest, LoaderPopulatesSpecCardinalities) {
  Open();
  const int64_t districts = static_cast<int64_t>(scale_.warehouses) *
                            scale_.districts_per_warehouse;
  EXPECT_EQ(CountRows(tables_.warehouse), scale_.warehouses);
  EXPECT_EQ(CountRows(tables_.district), districts);
  EXPECT_EQ(CountRows(tables_.customer),
            districts * scale_.customers_per_district);
  EXPECT_EQ(CountRows(tables_.history),
            districts * scale_.customers_per_district);
  EXPECT_EQ(CountRows(tables_.item), scale_.items);
  EXPECT_EQ(CountRows(tables_.stock),
            static_cast<int64_t>(scale_.warehouses) * scale_.items);
  EXPECT_EQ(CountRows(tables_.orders), districts * scale_.orders_per_district);
  // The newest third of each district's orders is undelivered.
  EXPECT_EQ(CountRows(tables_.new_orders),
            districts * (scale_.orders_per_district / 3));
  // 5..15 lines per order.
  const int64_t lines = CountRows(tables_.order_line);
  EXPECT_GE(lines, districts * scale_.orders_per_district * 5);
  EXPECT_LE(lines, districts * scale_.orders_per_district * 15);
}

TEST_F(TpccTest, LoaderTargetsPageStore) {
  Open();
  // Bulk load leaves the IMRS empty: the workload pulls hot data in later.
  EXPECT_EQ(db_->rid_map()->Size(), 0);
  EXPECT_EQ(db_->imrs_allocator()->InUseBytes(), 0);
}

TEST_F(TpccTest, DistrictNextOidMatchesLoadedOrders) {
  Open();
  auto txn = db_->Begin();
  std::string drow;
  ASSERT_TRUE(db_->SelectByKey(txn.get(), tables_.district,
                               tables_.district->pk_encoder().KeyForInts(
                                   {1, 1}),
                               &drow)
                  .ok());
  RecordView v(&tables_.district->schema(), Slice(drow));
  EXPECT_EQ(v.GetInt(dist::kNextOId), scale_.orders_per_district + 1);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

// --- transactions ----------------------------------------------------------------------

TEST_F(TpccTest, NewOrderCreatesOrderRows) {
  Open();
  TpccRandom rnd(11);
  const int64_t orders_before = CountRows(tables_.orders);
  const int64_t new_orders_before = CountRows(tables_.new_orders);

  TxnResult r = RunNewOrder(&ctx_, &rnd, 1);
  ASSERT_TRUE(r.committed || r.user_abort) << r.status.ToString();
  if (r.committed) {
    EXPECT_EQ(CountRows(tables_.orders), orders_before + 1);
    EXPECT_EQ(CountRows(tables_.new_orders), new_orders_before + 1);
  }
}

TEST_F(TpccTest, NewOrderAdvancesDistrictCounter) {
  Open();
  TpccRandom rnd(12);
  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    TxnResult r = RunNewOrder(&ctx_, &rnd, 1);
    if (r.committed) ++committed;
  }
  ASSERT_GT(committed, 0);
  // Sum of (d_next_o_id - initial) across districts == committed orders.
  int64_t advanced = 0;
  auto txn = db_->Begin();
  for (int d = 1; d <= scale_.districts_per_warehouse; ++d) {
    std::string drow;
    ASSERT_TRUE(db_->SelectByKey(txn.get(), tables_.district,
                                 tables_.district->pk_encoder().KeyForInts(
                                     {1, d}),
                                 &drow)
                    .ok());
    RecordView v(&tables_.district->schema(), Slice(drow));
    advanced += v.GetInt(dist::kNextOId) - (scale_.orders_per_district + 1);
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_EQ(advanced, committed);
}

TEST_F(TpccTest, PaymentUpdatesYtdChain) {
  Open();
  TpccRandom rnd(13);
  auto read_w_ytd = [&]() {
    auto txn = db_->Begin();
    std::string wrow;
    EXPECT_TRUE(db_->SelectByKey(txn.get(), tables_.warehouse,
                                 tables_.warehouse->pk_encoder().KeyForInts(
                                     {1}),
                                 &wrow)
                    .ok());
    Status c = db_->Commit(txn.get());
    (void)c;
    RecordView v(&tables_.warehouse->schema(), Slice(wrow));
    return v.GetDouble(wh::kYtd);
  };
  const double before = read_w_ytd();
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    TxnResult r = RunPayment(&ctx_, &rnd, 1);
    if (r.committed) ++committed;
  }
  ASSERT_GT(committed, 0);
  EXPECT_GT(read_w_ytd(), before);
  // Payments also append history rows.
  const int64_t districts = static_cast<int64_t>(scale_.warehouses) *
                            scale_.districts_per_warehouse;
  EXPECT_EQ(CountRows(tables_.history),
            districts * scale_.customers_per_district + committed);
}

TEST_F(TpccTest, OrderStatusIsReadOnly) {
  Open();
  TpccRandom rnd(14);
  const obs::MetricsRegistry& m = *db_->metrics_registry();
  const int64_t committed_before = m.Sum("txn.committed");
  TxnResult r = RunOrderStatus(&ctx_, &rnd, 1);
  EXPECT_TRUE(r.committed) << r.status.ToString();
  EXPECT_EQ(m.Sum("txn.committed"), committed_before + 1);
  // No table grew.
  EXPECT_EQ(CountRows(tables_.orders),
            static_cast<int64_t>(scale_.warehouses) *
                scale_.districts_per_warehouse * scale_.orders_per_district);
}

TEST_F(TpccTest, DeliveryDrainsNewOrders) {
  Open();
  TpccRandom rnd(15);
  const int64_t pending_before = CountRows(tables_.new_orders);
  TxnResult r = RunDelivery(&ctx_, &rnd, 1);
  ASSERT_TRUE(r.committed) << r.status.ToString();
  // One order per district delivered.
  EXPECT_EQ(CountRows(tables_.new_orders),
            pending_before - scale_.districts_per_warehouse);
}

TEST_F(TpccTest, DeliverySetsCarrierOnOldestOrder) {
  Open();
  TpccRandom rnd(16);
  // The oldest undelivered order in district 1 (loaded as delivered for
  // the first 2/3) is orders_per_district*2/3 + 1.
  const int oldest =
      scale_.orders_per_district - scale_.orders_per_district / 3 + 1;
  TxnResult r = RunDelivery(&ctx_, &rnd, 1);
  ASSERT_TRUE(r.committed);
  auto txn = db_->Begin();
  std::string orow;
  ASSERT_TRUE(db_->SelectByKey(txn.get(), tables_.orders,
                               tables_.orders->pk_encoder().KeyForInts(
                                   {1, 1, oldest}),
                               &orow)
                  .ok());
  RecordView v(&tables_.orders->schema(), Slice(orow));
  EXPECT_GT(v.GetInt(ord::kCarrierId), 0);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(TpccTest, DeliveryDeliversOldestOrderOfEveryDistrict) {
  // No background threads run, so nothing purges the IMRS tombstones that
  // deliveries of NewOrder-inserted rows leave in new_orders. Every
  // delivery must still take the oldest undelivered order of each district
  // with one pending. The first rounds drain the loaded (page-store) rows;
  // the later ones reach the IMRS rows behind them.
  Open();
  TpccRandom rnd(18);
  for (int i = 0; i < 60; ++i) RunNewOrder(&ctx_, &rnd, 1);

  // District -> its pending o_ids, oldest first.
  auto pending = [&] {
    std::map<int, std::vector<int>> by_district;
    auto txn = db_->Begin();
    EXPECT_TRUE(db_->ScanIndex(txn.get(), tables_.new_orders, -1, Slice(),
                               Slice(), 0,
                               [&](const ScanRow& r) {
                                 RecordView v(&tables_.new_orders->schema(),
                                              Slice(r.payload));
                                 by_district[static_cast<int>(
                                                 v.GetInt(no::kDId))]
                                     .push_back(static_cast<int>(
                                         v.GetInt(no::kOId)));
                                 return true;
                               })
                    .ok());
    EXPECT_TRUE(db_->Commit(txn.get()).ok());
    return by_district;
  };

  const int loaded = scale_.orders_per_district / 3;
  for (int round = 0; round < loaded + 3; ++round) {
    const std::map<int, std::vector<int>> before = pending();
    ASSERT_EQ(before.size(),
              static_cast<size_t>(scale_.districts_per_warehouse))
        << "round " << round << ": every district keeps pending orders";
    TxnResult r = RunDelivery(&ctx_, &rnd, 1);
    ASSERT_TRUE(r.committed) << r.status.ToString();
    const std::map<int, std::vector<int>> after = pending();
    for (const auto& [d_id, o_ids] : before) {
      const std::vector<int> rest(o_ids.begin() + 1, o_ids.end());
      const auto it = after.find(d_id);
      EXPECT_EQ(it == after.end() ? std::vector<int>{} : it->second, rest)
          << "round " << round << ", district " << d_id;
    }
  }
}

TEST_F(TpccTest, StockLevelIsReadOnly) {
  Open();
  TpccRandom rnd(17);
  TxnResult r = RunStockLevel(&ctx_, &rnd, 1);
  EXPECT_TRUE(r.committed) << r.status.ToString();
}

// --- driver + consistency ----------------------------------------------------------------

TEST_F(TpccTest, DriverRunsTheMixAndMaintainsInvariants) {
  Open();
  db_->StartBackground();
  DriverOptions dopt;
  dopt.workers = 2;
  dopt.total_txns = 1500;
  dopt.window_txns = 0;
  TpccDriver driver(&ctx_, dopt);
  DriverStats stats = driver.Run();
  db_->StopBackground();

  EXPECT_GE(stats.committed, dopt.total_txns);
  // The mix is honoured approximately (NewOrder ~45%, Payment ~43%).
  EXPECT_GT(stats.by_type[0], stats.committed * 30 / 100);
  EXPECT_GT(stats.by_type[1], stats.committed * 28 / 100);
  EXPECT_GT(stats.by_type[2], 0);
  EXPECT_GT(stats.by_type[3], 0);
  EXPECT_GT(stats.by_type[4], 0);

  // Consistency condition 1 (spec 3.3.2.1): for every district,
  // d_next_o_id - 1 == max(o_id) == max(no_o_id is <= that).
  auto txn = db_->Begin();
  for (int d = 1; d <= scale_.districts_per_warehouse; ++d) {
    std::string drow;
    ASSERT_TRUE(db_->SelectByKey(txn.get(), tables_.district,
                                 tables_.district->pk_encoder().KeyForInts(
                                     {1, d}),
                                 &drow)
                    .ok());
    RecordView dv(&tables_.district->schema(), Slice(drow));
    const int64_t next_o_id = dv.GetInt(dist::kNextOId);

    std::vector<ScanRow> orders;
    std::string lower, upper;
    KeyEncoder::AppendInt(&lower, 1);
    KeyEncoder::AppendInt(&lower, d);
    KeyEncoder::AppendInt(&upper, 1);
    KeyEncoder::AppendInt(&upper, d + 1);
    ASSERT_TRUE(db_->ScanIndex(txn.get(), tables_.orders, -1, Slice(lower),
                               Slice(upper), 0, &orders)
                    .ok());
    int64_t max_o_id = 0;
    for (const ScanRow& r : orders) {
      RecordView ov(&tables_.orders->schema(), Slice(r.payload));
      max_o_id = std::max<int64_t>(max_o_id, ov.GetInt(ord::kOId));
    }
    EXPECT_EQ(max_o_id, next_o_id - 1) << "district " << d;

    // Every new_orders entry refers to an existing order.
    std::vector<ScanRow> pending;
    ASSERT_TRUE(db_->ScanIndex(txn.get(), tables_.new_orders, -1,
                               Slice(lower), Slice(upper), 0, &pending)
                    .ok());
    for (const ScanRow& r : pending) {
      RecordView nv(&tables_.new_orders->schema(), Slice(r.payload));
      EXPECT_LE(nv.GetInt(no::kOId), max_o_id);
    }
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());

  // Every committed NewOrder added ol_cnt order lines (spec 3.3.2.8-ish):
  // each order's ol_cnt matches its actual line count.
  auto txn2 = db_->Begin();
  std::vector<ScanRow> all_orders;
  ASSERT_TRUE(db_->ScanIndex(txn2.get(), tables_.orders, -1, Slice(), Slice(),
                             50, &all_orders)
                  .ok());
  for (const ScanRow& r : all_orders) {
    RecordView ov(&tables_.orders->schema(), Slice(r.payload));
    std::string lower, upper;
    KeyEncoder::AppendInt(&lower, ov.GetInt(ord::kWId));
    KeyEncoder::AppendInt(&lower, ov.GetInt(ord::kDId));
    KeyEncoder::AppendInt(&lower, ov.GetInt(ord::kOId));
    upper = lower;
    KeyEncoder::AppendInt(&lower, 0);
    KeyEncoder::AppendInt(&upper, 1 << 20);
    std::vector<ScanRow> lines;
    ASSERT_TRUE(db_->ScanIndex(txn2.get(), tables_.order_line, -1,
                               Slice(lower), Slice(upper), 0, &lines)
                    .ok());
    EXPECT_EQ(static_cast<int64_t>(lines.size()), ov.GetInt(ord::kOlCnt));
  }
  ASSERT_TRUE(db_->Commit(txn2.get()).ok());
}

TEST_F(TpccTest, HotTablesMigrateIntoImrs) {
  Open();
  TpccRandom rnd(19);
  for (int i = 0; i < 100; ++i) {
    RunPayment(&ctx_, &rnd, 1);
  }
  // warehouse and district rows are updated by every payment: they must be
  // IMRS-resident by now.
  PartitionState* wh_state = tables_.warehouse->partition(0).ilm;
  PartitionState* dist_state = tables_.district->partition(0).ilm;
  EXPECT_EQ(wh_state->metrics.imrs_rows.Load(), scale_.warehouses);
  EXPECT_GT(dist_state->metrics.imrs_rows.Load(), 0);
  EXPECT_GT(wh_state->metrics.reuse_update.Load(), 0);
}

TEST_F(TpccTest, IlmOffKeepsEverythingTouchedInMemory) {
  Open(/*ilm_enabled=*/false);
  TpccRandom rnd(20);
  for (int i = 0; i < 50; ++i) {
    RunNewOrder(&ctx_, &rnd, 1);
    RunPayment(&ctx_, &rnd, 1);
  }
  // With ILM off nothing is ever packed.
  EXPECT_EQ(db_->metrics_registry()->Sum("pack.rows_packed"), 0);
  EXPECT_GT(db_->rid_map()->Size(), 0);
}

TEST(TpccPartitionedTest, WarehousePartitioningRunsAndIsolatesMetrics) {
  DatabaseOptions options;
  options.buffer_cache_frames = 2048;
  options.imrs_cache_bytes = 64 << 20;
  options.lock_timeout_ms = 200;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));

  Scale scale = TinyScale();
  scale.warehouses = 3;
  scale.partition_by_warehouse = true;
  Result<Tables> tables = CreateTables(db.get(), scale);
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->stock->num_partitions(), 3u);
  ASSERT_EQ(tables->item->num_partitions(), 1u);  // no warehouse column
  ASSERT_TRUE(LoadDatabase(db.get(), *tables, scale).ok());

  TpccContext ctx;
  ctx.db = db.get();
  ctx.tables = *tables;
  ctx.scale = scale;
  ctx.next_history_id = static_cast<int64_t>(scale.warehouses) *
                            scale.districts_per_warehouse *
                            scale.customers_per_district +
                        1;

  DriverOptions dopt;
  dopt.workers = 2;
  dopt.total_txns = 600;
  dopt.window_txns = 0;
  TpccDriver driver(&ctx, dopt);
  DriverStats stats = driver.Run();
  EXPECT_GE(stats.committed, 600);

  // Each warehouse partition of stock accumulated its own IMRS activity
  // (the hash routing w_id % 3 spreads warehouses 1..3 over partitions).
  int64_t total_rows = 0;
  int partitions_with_activity = 0;
  for (size_t p = 0; p < 3; ++p) {
    PartitionState* state = tables->stock->partition(p).ilm;
    total_rows += state->metrics.imrs_rows.Load();
    if (state->metrics.Snapshot().NewRows() > 0) ++partitions_with_activity;
  }
  EXPECT_GT(total_rows, 0);
  EXPECT_EQ(partitions_with_activity, 3);
}

TEST_F(TpccTest, DriverReportsCommitLatencies) {
  Open();
  DriverOptions dopt;
  dopt.workers = 2;
  dopt.total_txns = 300;
  dopt.window_txns = 0;
  TpccDriver driver(&ctx_, dopt);
  DriverStats stats = driver.Run();
  EXPECT_GT(stats.latency_p50_us, 0);
  EXPECT_GE(stats.latency_p95_us, stats.latency_p50_us);
  EXPECT_GE(stats.latency_p99_us, stats.latency_p95_us);
  EXPECT_GT(stats.latency_mean_us, 0.0);
}

// NewOrder takes its item and stock locks in key order, so terminals sharing
// a warehouse — and, at this scale's 100 items, sharing stock rows
// constantly — never wait in a cycle, and the lock manager never strands a
// waiter past a release: no lock wait may end in a timeout.
TEST_F(TpccTest, ConcurrentNewOrdersOnOneWarehouseNeverTimeOut) {
  Open(/*ilm_enabled=*/true, DatabaseOptions().lock_timeout_ms);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> committed{0};
  std::vector<std::thread> terminals;
  for (int t = 0; t < 4; ++t) {
    terminals.emplace_back([&, t] {
      TpccRandom rnd(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        if (RunNewOrder(&ctx_, &rnd, 1).committed) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop.store(true);
  for (std::thread& t : terminals) t.join();
  EXPECT_GT(committed.load(), 0);
  EXPECT_EQ(db_->metrics_registry()->Sum("locks.timeouts"), 0);
}

// Heap allocations per warm transaction of each type, single-threaded with
// no background threads, so every allocation counted is the transaction's
// own. Deterministic for a given seed; the ceilings pin what one write set
// per transaction (no per-write hook objects, redo encoded at commit) buys.
TEST_F(TpccTest, WarmTransactionsStayUnderAllocationCeilings) {
  Open();
  struct TxnType {
    const char* name;
    TxnResult (*run)(TpccContext*, TpccRandom*, int);
    double ceiling;  // <= 0: reported only
  };
  const TxnType types[] = {
      {"NewOrder", RunNewOrder, 300},
      {"Payment", RunPayment, 55},
      {"OrderStatus", RunOrderStatus, 104},
      {"Delivery", RunDelivery, 0},
      {"StockLevel", RunStockLevel, 450},
  };
  constexpr int kWarmup = 300;
  constexpr int kMeasured = 2000;
  for (const TxnType& type : types) {
    TpccRandom rnd(7);
    for (int i = 0; i < kWarmup; ++i) type.run(&ctx_, &rnd, 1);
    const int64_t before = testing::HeapAllocations();
    for (int i = 0; i < kMeasured; ++i) type.run(&ctx_, &rnd, 1);
    const double per_txn =
        static_cast<double>(testing::HeapAllocations() - before) / kMeasured;
    std::printf("%-12s %7.1f allocations per warm transaction\n", type.name,
                per_txn);
    if (type.ceiling > 0) {
      EXPECT_LE(per_txn, type.ceiling) << type.name;
    }
  }
}

TEST_F(TpccTest, DeterministicSeedsGiveDeterministicTransactions) {
  Open();
  TpccRandom a(42), b(42);
  EXPECT_EQ(a.Uniform(1, 1000), b.Uniform(1, 1000));
  EXPECT_EQ(a.NURand(8191, 1, 100000), b.NURand(8191, 1, 100000));
  EXPECT_EQ(a.AString(5, 20), b.AString(5, 20));
}

}  // namespace
}  // namespace tpcc
}  // namespace btrim
