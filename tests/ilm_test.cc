// Unit tests for the ILM layer: metrics windows, relaxed-LRU queues, the
// timestamp-filter learner, the auto partition tuner, the Pack subsystem's
// level/apportioning/selection logic, and the IlmManager admission rules.

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ilm/ilm_manager.h"
#include "ilm/ilm_queue.h"
#include "ilm/metrics.h"
#include "ilm/pack.h"
#include "ilm/tsf.h"
#include "ilm/tuner.h"
#include "obs/metrics_registry.h"

namespace btrim {
namespace {

// --- metrics -------------------------------------------------------------------

TEST(MetricsTest, SnapshotCapturesCounters) {
  PartitionMetrics m;
  m.reuse_select.Add(3);
  m.reuse_update.Add(2);
  m.reuse_delete.Add(1);
  m.inserts_imrs.Add(10);
  m.imrs_bytes.Add(4096);
  m.imrs_rows.Add(7);
  MetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(s.ReuseOps(), 6);
  EXPECT_EQ(s.NewRows(), 10);
  EXPECT_EQ(s.imrs_bytes, 4096);
  EXPECT_EQ(s.imrs_rows, 7);
}

TEST(MetricsTest, WindowDeltaSubtractsCountersKeepsGauges) {
  PartitionMetrics m;
  m.reuse_select.Add(100);
  m.imrs_bytes.Add(1000);
  MetricsSnapshot w1 = m.Snapshot();
  m.reuse_select.Add(40);
  m.imrs_bytes.Add(500);  // gauge moves to 1500
  MetricsSnapshot w2 = m.Snapshot();
  MetricsSnapshot d = w2.WindowDelta(w1);
  EXPECT_EQ(d.reuse_select, 40);  // delta
  EXPECT_EQ(d.imrs_bytes, 1500);  // current gauge value
}

TEST(MetricsTest, ReuseRatePerRow) {
  MetricsSnapshot s;
  s.reuse_select = 30;
  s.imrs_rows = 10;
  EXPECT_DOUBLE_EQ(PartitionState::ReuseRate(s), 3.0);
  s.imrs_rows = 0;
  EXPECT_DOUBLE_EQ(PartitionState::ReuseRate(s), 0.0);
}

// --- IlmQueue ------------------------------------------------------------------

TEST(IlmQueueTest, FifoOrderHeadToTail) {
  IlmQueue q;
  ImrsRow rows[3];
  for (auto& r : rows) q.PushTail(&r);
  EXPECT_EQ(q.Size(), 3);
  EXPECT_EQ(q.PopHead(), &rows[0]);
  EXPECT_EQ(q.PopHead(), &rows[1]);
  EXPECT_EQ(q.PopHead(), &rows[2]);
  EXPECT_EQ(q.PopHead(), nullptr);
}

TEST(IlmQueueTest, PushSetsFlagPopClearsIt) {
  IlmQueue q;
  ImrsRow row;
  q.PushTail(&row);
  EXPECT_TRUE(row.HasFlag(kRowInQueue));
  EXPECT_EQ(q.PopHead(), &row);
  EXPECT_FALSE(row.HasFlag(kRowInQueue));
}

TEST(IlmQueueTest, DoublePushIsIdempotent) {
  IlmQueue q;
  ImrsRow row;
  q.PushTail(&row);
  q.PushTail(&row);
  EXPECT_EQ(q.Size(), 1);
}

TEST(IlmQueueTest, HotRowReinsertionMovesToTail) {
  IlmQueue q;
  ImrsRow a, b;
  q.PushTail(&a);
  q.PushTail(&b);
  ImrsRow* popped = q.PopHead();  // a
  q.PushTail(popped);             // a goes behind b
  EXPECT_EQ(q.PopHead(), &b);
  EXPECT_EQ(q.PopHead(), &a);
}

TEST(IlmQueueTest, RemoveFromMiddle) {
  IlmQueue q;
  ImrsRow a, b, c;
  q.PushTail(&a);
  q.PushTail(&b);
  q.PushTail(&c);
  q.Remove(&b);
  EXPECT_EQ(q.Size(), 2);
  EXPECT_EQ(q.PopHead(), &a);
  EXPECT_EQ(q.PopHead(), &c);
  // Removing an unlinked row is a no-op.
  q.Remove(&b);
  EXPECT_EQ(q.Size(), 0);
}

TEST(IlmQueueTest, ForEachWalksHeadFirst) {
  IlmQueue q;
  ImrsRow rows[5];
  for (auto& r : rows) q.PushTail(&r);
  std::vector<ImrsRow*> seen;
  q.ForEach([&](ImrsRow* r) {
    seen.push_back(r);
    return true;
  });
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen.front(), &rows[0]);
  EXPECT_EQ(seen.back(), &rows[4]);
  // Early stop.
  int count = 0;
  q.ForEach([&](ImrsRow*) { return ++count < 2; });
  EXPECT_EQ(count, 2);
}

// --- TSF -----------------------------------------------------------------------

class TsfTest : public ::testing::Test {
 protected:
  TsfTest() {
    config_.steady_cache_pct = 0.70;
    config_.tsf_observe_pct = 0.02;
    config_.tsf_relearn_interval = 1000;
  }
  IlmConfig config_;
};

TEST_F(TsfTest, LearnsTauFromGrowthRate) {
  TsfLearner tsf(config_);
  const int64_t cap = 1000000;
  // First observe starts the cycle at (ts=100, util=0).
  tsf.Observe(100, 0, cap);
  EXPECT_EQ(tsf.Tau(), 0u);
  // 2% growth after 50 ticks: Ʈ = 50 * 0.70 / 0.02 = 1750.
  tsf.Observe(150, 20000, cap);
  EXPECT_EQ(tsf.Tau(), 1750u);
  EXPECT_EQ(tsf.learn_cycles(), 1);
}

TEST_F(TsfTest, SubThresholdGrowthKeepsWaiting) {
  TsfLearner tsf(config_);
  tsf.Observe(100, 0, 1000000);
  tsf.Observe(150, 10000, 1000000);  // only 1% grown
  EXPECT_EQ(tsf.Tau(), 0u);
  tsf.Observe(200, 20000, 1000000);  // now 2%
  EXPECT_EQ(tsf.Tau(), (200 - 100) * 35u);  // 100 * 0.7 / 0.02
}

TEST_F(TsfTest, ShrinkingUtilizationRestartsObservation) {
  TsfLearner tsf(config_);
  tsf.Observe(100, 50000, 1000000);
  // Pack shrank usage: restart at (200, 30000).
  tsf.Observe(200, 30000, 1000000);
  // Growth of 2% from the restart point.
  tsf.Observe(260, 50000, 1000000);
  EXPECT_EQ(tsf.Tau(), (260 - 200) * 35u);
}

TEST_F(TsfTest, RelearnsAfterInterval) {
  TsfLearner tsf(config_);
  tsf.Observe(100, 0, 1000000);
  tsf.Observe(150, 20000, 1000000);
  const uint64_t first = tsf.Tau();
  // Too early to relearn: observations ignored.
  tsf.Observe(500, 0, 1000000);
  tsf.Observe(600, 90000, 1000000);
  EXPECT_EQ(tsf.Tau(), first);
  // After the relearn interval a new cycle starts and updates Ʈ.
  tsf.Observe(1200, 0, 1000000);
  tsf.Observe(1300, 20000, 1000000);
  EXPECT_NE(tsf.Tau(), first);
}

TEST_F(TsfTest, IsRecentUsesTau) {
  TsfLearner tsf(config_);
  tsf.Observe(0, 0, 1000000);
  tsf.Observe(100, 20000, 1000000);  // Ʈ = 3500
  ASSERT_EQ(tsf.Tau(), 3500u);
  EXPECT_TRUE(tsf.IsRecent(/*row_last_access=*/1000, /*now=*/4000));
  EXPECT_FALSE(tsf.IsRecent(/*row_last_access=*/1000, /*now=*/5000));
}

TEST_F(TsfTest, NoTauMeansNothingIsRecent) {
  TsfLearner tsf(config_);
  EXPECT_FALSE(tsf.IsRecent(99, 100));
}

TEST_F(TsfTest, ResetClearsState) {
  TsfLearner tsf(config_);
  tsf.Observe(0, 0, 1000000);
  tsf.Observe(100, 20000, 1000000);
  ASSERT_GT(tsf.Tau(), 0u);
  tsf.Reset();
  EXPECT_EQ(tsf.Tau(), 0u);
  EXPECT_EQ(tsf.learn_cycles(), 0);
}

// --- tuner ----------------------------------------------------------------------

class TunerTest : public ::testing::Test {
 protected:
  TunerTest() {
    config_.hysteresis_windows = 2;
    config_.min_cache_util_for_tuning = 0.50;
    config_.small_footprint_pct = 0.01;
    config_.min_new_rows_for_disable = 10;
    config_.disable_reuse_threshold = 0.5;
    config_.reenable_contention_threshold = 32;
    config_.reenable_reuse_factor = 2.0;
    part_ = std::make_unique<PartitionState>();
    part_->table_id = 1;
    part_->name = "t/0";
    tuner_ = std::make_unique<PartitionTuner>(&config_);
  }

  /// Applies one window of activity and runs the tuner.
  TuningReport Window(int64_t new_rows, int64_t reuse, int64_t contention,
                      int64_t cache_used = 800000,
                      int64_t cache_cap = 1000000) {
    part_->metrics.inserts_imrs.Add(new_rows);
    part_->metrics.reuse_select.Add(reuse);
    part_->metrics.page_contention.Add(contention);
    return tuner_->RunWindow({part_.get()}, cache_used, cache_cap);
  }

  IlmConfig config_;
  std::unique_ptr<PartitionState> part_;
  std::unique_ptr<PartitionTuner> tuner_;
};

TEST_F(TunerTest, FirstWindowOnlyBaselines) {
  TuningReport r = Window(100, 0, 0);
  EXPECT_EQ(r.partitions_evaluated, 0);
  EXPECT_TRUE(part_->imrs_enabled.load());
}

TEST_F(TunerTest, LowReuseDisablesAfterHysteresis) {
  part_->metrics.imrs_bytes.Add(50000);  // > 1% of 1 MB cache
  part_->metrics.imrs_rows.Add(100);
  Window(0, 0, 0);  // baseline
  TuningReport r1 = Window(/*new_rows=*/50, /*reuse=*/5, 0);
  EXPECT_EQ(r1.disable_votes, 1);
  EXPECT_TRUE(part_->imrs_enabled.load());  // hysteresis not yet met
  TuningReport r2 = Window(50, 5, 0);
  EXPECT_EQ(r2.partitions_disabled, 1);
  EXPECT_FALSE(part_->imrs_enabled.load());
  EXPECT_EQ(tuner_->total_disables(), 1);
}

TEST_F(TunerTest, HighReusePartitionStaysEnabled) {
  part_->metrics.imrs_bytes.Add(50000);
  part_->metrics.imrs_rows.Add(100);
  Window(0, 0, 0);
  for (int i = 0; i < 5; ++i) {
    Window(/*new_rows=*/50, /*reuse=*/500, 0);  // reuse rate 5.0
  }
  EXPECT_TRUE(part_->imrs_enabled.load());
  EXPECT_EQ(tuner_->total_disables(), 0);
}

TEST_F(TunerTest, SmallFootprintGuardPreventsDisable) {
  part_->metrics.imrs_bytes.Add(500);  // < 1% of cache
  part_->metrics.imrs_rows.Add(10);
  Window(0, 0, 0);
  for (int i = 0; i < 5; ++i) Window(50, 0, 0);
  EXPECT_TRUE(part_->imrs_enabled.load());
}

TEST_F(TunerTest, FreeCacheGuardPreventsDisable) {
  part_->metrics.imrs_bytes.Add(50000);
  part_->metrics.imrs_rows.Add(100);
  Window(0, 0, 0, /*cache_used=*/100000);  // 10% utilization
  for (int i = 0; i < 5; ++i) {
    Window(50, 0, 0, /*cache_used=*/100000);
  }
  EXPECT_TRUE(part_->imrs_enabled.load());
}

TEST_F(TunerTest, SlowGrowthGuardPreventsDisable) {
  part_->metrics.imrs_bytes.Add(50000);
  part_->metrics.imrs_rows.Add(100);
  Window(0, 0, 0);
  for (int i = 0; i < 5; ++i) {
    Window(/*new_rows=*/2, /*reuse=*/0, 0);  // below min_new_rows
  }
  EXPECT_TRUE(part_->imrs_enabled.load());
}

TEST_F(TunerTest, InterruptedVoteStreakResets) {
  part_->metrics.imrs_bytes.Add(50000);
  part_->metrics.imrs_rows.Add(100);
  Window(0, 0, 0);
  Window(50, 0, 0);    // vote 1
  Window(50, 500, 0);  // high reuse interrupts
  Window(50, 0, 0);    // vote 1 again
  EXPECT_TRUE(part_->imrs_enabled.load());
  Window(50, 0, 0);  // vote 2 -> flip
  EXPECT_FALSE(part_->imrs_enabled.load());
}

TEST_F(TunerTest, ContentionReenablesDisabledPartition) {
  part_->imrs_enabled.store(false);
  Window(0, 0, 0);  // baseline
  TuningReport r1 = Window(0, 0, /*contention=*/100);
  EXPECT_EQ(r1.enable_votes, 1);
  EXPECT_FALSE(part_->imrs_enabled.load());
  TuningReport r2 = Window(0, 0, 100);
  EXPECT_EQ(r2.partitions_reenabled, 1);
  EXPECT_TRUE(part_->imrs_enabled.load());
  EXPECT_EQ(tuner_->total_reenables(), 1);
}

TEST_F(TunerTest, ReuseGrowthReenablesDisabledPartition) {
  part_->metrics.imrs_bytes.Add(50000);
  part_->metrics.imrs_rows.Add(100);
  Window(0, 0, 0);
  // Disable with reuse-at-disable = 5.
  Window(50, 5, 0);
  Window(50, 5, 0);
  ASSERT_FALSE(part_->imrs_enabled.load());
  // Reuse doubles versus the disablement window.
  Window(0, 20, 0);
  Window(0, 20, 0);
  EXPECT_TRUE(part_->imrs_enabled.load());
}

// --- Pack ------------------------------------------------------------------------

/// Fake PackClient: "packs" rows by flagging them and reporting fixed byte
/// counts; can refuse everything to exercise requeueing.
class FakePackClient : public PackClient {
 public:
  PackBatchOutcome PackBatch(PartitionState* partition,
                             const std::vector<ImrsRow*>& batch,
                             std::vector<ImrsRow*>* requeue) override {
    (void)partition;
    PackBatchOutcome outcome;
    for (ImrsRow* row : batch) {
      if (refuse_all_ || fail_io_) {
        requeue->push_back(row);
        continue;
      }
      row->SetFlag(kRowPacked);
      packed_.push_back(row);
      outcome.bytes_released += bytes_per_row_;
    }
    outcome.io_error = fail_io_;
    ++batches_;
    return outcome;
  }

  std::vector<ImrsRow*> packed_;
  int batches_ = 0;
  int64_t bytes_per_row_ = 100;
  bool refuse_all_ = false;
  bool fail_io_ = false;
};

class PackTest : public ::testing::Test {
 protected:
  PackTest()
      : alloc_(1 << 20),
        tsf_(config_),
        pack_(&config_, &alloc_, &tsf_, &client_) {}

  static std::unique_ptr<PartitionState> MakePartition(uint32_t table_id,
                                                       int64_t bytes,
                                                       int64_t rows) {
    auto part = std::make_unique<PartitionState>();
    part->table_id = table_id;
    part->name = "t" + std::to_string(table_id);
    part->metrics.imrs_bytes.Add(bytes);
    part->metrics.imrs_rows.Add(rows);
    return part;
  }

  /// Fills the allocator to roughly the given utilization fraction.
  void FillAllocator(double fraction) {
    const auto target = static_cast<int64_t>(
        fraction * static_cast<double>(alloc_.CapacityBytes()));
    while (alloc_.InUseBytes() + 8192 < target) {
      void* p = alloc_.Allocate(8192 - 16);
      ASSERT_NE(p, nullptr);
    }
  }

  IlmConfig config_;
  FragmentAllocator alloc_;
  TsfLearner tsf_;
  FakePackClient client_;
  PackSubsystem pack_;
};

TEST_F(PackTest, LevelsFollowUtilization) {
  // steady = 0.70, aggressive line = 0.70 + 0.30 * 0.5 = 0.85.
  EXPECT_EQ(pack_.LevelForUtilization(0.10), PackLevel::kIdle);
  EXPECT_EQ(pack_.LevelForUtilization(0.69), PackLevel::kIdle);
  EXPECT_EQ(pack_.LevelForUtilization(0.70), PackLevel::kSteady);
  EXPECT_EQ(pack_.LevelForUtilization(0.84), PackLevel::kSteady);
  EXPECT_EQ(pack_.LevelForUtilization(0.86), PackLevel::kAggressive);
}

TEST_F(PackTest, IdleBelowThresholdPacksNothing) {
  auto part = MakePartition(1, 1000, 10);
  ImrsRow row;
  part->QueueFor(RowSource::kInserted).PushTail(&row);
  PackCycleResult r = pack_.RunPackCycle({part.get()}, 100);
  EXPECT_EQ(r.level, PackLevel::kIdle);
  EXPECT_EQ(r.rows_packed, 0);
  EXPECT_EQ(client_.batches_, 0);
}

TEST_F(PackTest, SteadyLevelPacksColdRows) {
  FillAllocator(0.75);
  auto part = MakePartition(1, alloc_.InUseBytes(), 50);
  std::vector<ImrsRow> rows(50);
  for (auto& r : rows) {
    part->QueueFor(RowSource::kInserted).PushTail(&r);
  }
  PackCycleResult r = pack_.RunPackCycle({part.get()}, /*now=*/1000);
  EXPECT_EQ(r.level, PackLevel::kSteady);
  EXPECT_GT(r.rows_packed, 0);
  EXPECT_GT(r.bytes_packed, 0);
  EXPECT_EQ(part->metrics.rows_packed.Load(), r.rows_packed);
}

TEST_F(PackTest, TsfProtectsRecentRowsInHighReusePartitions) {
  FillAllocator(0.75);
  // Learn a TSF (2% growth over 100 ticks with steady 0.70 -> 3500).
  tsf_.Observe(0, 0, alloc_.CapacityBytes());
  tsf_.Observe(100, alloc_.CapacityBytes() / 40, alloc_.CapacityBytes());
  ASSERT_GT(tsf_.Tau(), 0u);

  auto part = MakePartition(1, alloc_.InUseBytes(), 10);
  // High window reuse so the TSF applies (low_reuse_rate default 0.5).
  part->metrics.reuse_select.Add(1000);

  const uint64_t now = 4000;
  std::vector<ImrsRow> rows(20);
  for (size_t i = 0; i < rows.size(); ++i) {
    // Half recent (hot), half old (cold).
    rows[i].last_access_ts.store(i % 2 == 0 ? now - 10 : 1);
    part->QueueFor(RowSource::kInserted).PushTail(&rows[i]);
  }
  PackCycleResult r = pack_.RunPackCycle({part.get()}, now);
  EXPECT_EQ(r.rows_packed, 10);
  EXPECT_EQ(r.rows_skipped_hot, 10);
  // Hot rows were moved back to the tail, not lost.
  EXPECT_EQ(part->TotalQueuedRows(), 10);
}

TEST_F(PackTest, LowReusePartitionIgnoresTsf) {
  FillAllocator(0.75);
  tsf_.Observe(0, 0, alloc_.CapacityBytes());
  tsf_.Observe(100, alloc_.CapacityBytes() / 40, alloc_.CapacityBytes());

  auto part = MakePartition(1, alloc_.InUseBytes(), 10);
  // No reuse: the history-table pattern (Sec. VI.D.2).
  const uint64_t now = 4000;
  std::vector<ImrsRow> rows(10);
  for (auto& r : rows) {
    r.last_access_ts.store(now - 1);  // recently inserted...
    part->QueueFor(RowSource::kInserted).PushTail(&r);
  }
  PackCycleResult r = pack_.RunPackCycle({part.get()}, now);
  // ...but packed anyway because the partition's reuse rate is ~0.
  EXPECT_EQ(r.rows_packed, 10);
  EXPECT_EQ(r.rows_skipped_hot, 0);
}

TEST_F(PackTest, AggressiveLevelIgnoresHotness) {
  FillAllocator(0.90);
  tsf_.Observe(0, 0, alloc_.CapacityBytes());
  tsf_.Observe(100, alloc_.CapacityBytes() / 40, alloc_.CapacityBytes());

  auto part = MakePartition(1, alloc_.InUseBytes(), 10);
  part->metrics.reuse_select.Add(1000);
  const uint64_t now = 4000;
  std::vector<ImrsRow> rows(10);
  for (auto& r : rows) {
    r.last_access_ts.store(now - 1);  // all hot
    part->QueueFor(RowSource::kInserted).PushTail(&r);
  }
  PackCycleResult r = pack_.RunPackCycle({part.get()}, now);
  EXPECT_EQ(r.level, PackLevel::kAggressive);
  EXPECT_EQ(r.rows_packed, 10);
  EXPECT_EQ(r.rows_skipped_hot, 0);
}

TEST_F(PackTest, BypassActivatesWhenAggressiveCannotKeepUp) {
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(pack_.RegisterMetrics(&metrics, "ilm").ok());
  FillAllocator(0.90);
  auto part = MakePartition(1, alloc_.InUseBytes(), 10);
  // No queued rows: utilization cannot drop.
  PackCycleResult r1 = pack_.RunPackCycle({part.get()}, 1);
  EXPECT_EQ(r1.level, PackLevel::kAggressive);
  EXPECT_FALSE(r1.bypass_active);  // needs growth across two cycles
  FillAllocator(0.95);
  PackCycleResult r2 = pack_.RunPackCycle({part.get()}, 2);
  EXPECT_TRUE(r2.bypass_active);
  EXPECT_TRUE(pack_.BypassActive());
  EXPECT_EQ(metrics.Sum("pack.bypass_activations"), 1);
}

TEST_F(PackTest, ApportioningTaxesFatColdPartitions) {
  FillAllocator(0.75);
  // Hot partition: small footprint, high reuse. Cold: big footprint, none.
  auto hot = MakePartition(1, 1000, 10);
  hot->metrics.reuse_select.Add(10000);
  auto cold = MakePartition(2, 900000, 9000);

  std::vector<ImrsRow> hot_rows(10), cold_rows(200);
  const uint64_t now = 1000;
  for (auto& r : hot_rows) {
    r.table_id = 1;
    hot->QueueFor(RowSource::kInserted).PushTail(&r);
  }
  for (auto& r : cold_rows) {
    r.table_id = 2;
    cold->QueueFor(RowSource::kInserted).PushTail(&r);
  }
  PackCycleResult r = pack_.RunPackCycle({hot.get(), cold.get()}, now);
  EXPECT_GT(r.rows_packed, 0);
  int64_t hot_packed = 0, cold_packed = 0;
  for (ImrsRow* row : client_.packed_) {
    (row->table_id == 1 ? hot_packed : cold_packed)++;
  }
  // The packability index must send (almost) everything to the cold one.
  EXPECT_GT(cold_packed, 10 * std::max<int64_t>(hot_packed, 1));
}

TEST_F(PackTest, UniformApportioningSplitsEvenly) {
  config_.apportion_mode = ApportionMode::kUniform;
  FillAllocator(0.75);
  auto a = MakePartition(1, 500000, 10);
  a->metrics.reuse_select.Add(10000);  // would be protected under PI
  auto b = MakePartition(2, 400000, 10);
  std::vector<ImrsRow> rows_a(100), rows_b(100);
  for (auto& r : rows_a) {
    r.table_id = 1;
    a->QueueFor(RowSource::kInserted).PushTail(&r);
  }
  for (auto& r : rows_b) {
    r.table_id = 2;
    b->QueueFor(RowSource::kInserted).PushTail(&r);
  }
  pack_.RunPackCycle({a.get(), b.get()}, 1000);
  int64_t packed_a = 0, packed_b = 0;
  for (ImrsRow* row : client_.packed_) {
    (row->table_id == 1 ? packed_a : packed_b)++;
  }
  // Naive mode packs from both regardless of reuse.
  EXPECT_GT(packed_a, 0);
  EXPECT_GT(packed_b, 0);
}

TEST_F(PackTest, RefusedRowsAreRequeued) {
  FillAllocator(0.75);
  client_.refuse_all_ = true;
  auto part = MakePartition(1, alloc_.InUseBytes(), 10);
  std::vector<ImrsRow> rows(10);
  for (auto& r : rows) {
    part->QueueFor(RowSource::kInserted).PushTail(&r);
  }
  PackCycleResult r = pack_.RunPackCycle({part.get()}, 1000);
  EXPECT_EQ(r.rows_packed, 0);
  EXPECT_EQ(part->TotalQueuedRows(), 10);  // all back in the queue
}

TEST_F(PackTest, StaleQueueEntriesAreDropped) {
  FillAllocator(0.75);
  auto part = MakePartition(1, alloc_.InUseBytes(), 10);
  std::vector<ImrsRow> rows(4);
  rows[0].SetFlag(kRowPurged);
  rows[2].SetFlag(kRowPacked);
  for (auto& r : rows) {
    part->QueueFor(RowSource::kInserted).PushTail(&r);
  }
  pack_.RunPackCycle({part.get()}, 1000);
  // Only the two live rows reached the client.
  EXPECT_EQ(client_.packed_.size(), 2u);
}

TEST_F(PackTest, GlobalQueueModePacksAcrossPartitions) {
  config_.queue_mode = QueueMode::kSingleGlobal;
  FillAllocator(0.75);
  auto a = MakePartition(1, 500000, 100);
  auto b = MakePartition(2, 300000, 100);
  std::vector<ImrsRow> rows(60);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].table_id = static_cast<uint32_t>(i % 2) + 1;
    pack_.global_queue()->PushTail(&rows[i]);
  }
  PackCycleResult r = pack_.RunPackCycle({a.get(), b.get()}, 1000);
  EXPECT_GT(r.rows_packed, 0);
  EXPECT_GT(client_.batches_, 0);
}

// --- parameterized sweeps -----------------------------------------------------------

/// The pack-level boundaries hold for every steady threshold: idle below
/// the knob, steady up to threshold + (1-threshold)/2, aggressive above.
class PackLevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(PackLevelSweep, BoundariesTrackThreshold) {
  IlmConfig config;
  config.steady_cache_pct = GetParam() / 100.0;
  FragmentAllocator alloc(1 << 20);
  TsfLearner tsf(config);
  FakePackClient client;
  PackSubsystem pack(&config, &alloc, &tsf, &client);

  const double steady = config.steady_cache_pct;
  const double aggressive = steady + (1.0 - steady) * 0.5;
  EXPECT_EQ(pack.LevelForUtilization(steady - 0.01), PackLevel::kIdle);
  EXPECT_EQ(pack.LevelForUtilization(steady + 0.001), PackLevel::kSteady);
  EXPECT_EQ(pack.LevelForUtilization(aggressive - 0.01), PackLevel::kSteady);
  EXPECT_EQ(pack.LevelForUtilization(aggressive + 0.01),
            PackLevel::kAggressive);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PackLevelSweep,
                         ::testing::Values(50, 60, 70, 80, 90));

/// The tuner flips only after exactly `hysteresis_windows` consecutive
/// votes, for every configured hysteresis depth.
class TunerHysteresisSweep : public ::testing::TestWithParam<int> {};

TEST_P(TunerHysteresisSweep, FlipAfterExactlyNVotes) {
  const int h = GetParam();
  IlmConfig config;
  config.hysteresis_windows = h;
  config.min_new_rows_for_disable = 1;
  PartitionTuner tuner(&config);
  PartitionState part;
  part.metrics.imrs_bytes.Add(500000);  // big footprint
  part.metrics.imrs_rows.Add(100);

  auto window = [&](int64_t new_rows) {
    part.metrics.inserts_imrs.Add(new_rows);
    return tuner.RunWindow({&part}, /*cache_used=*/900000,
                           /*cache_capacity=*/1000000);
  };
  window(0);  // baseline
  for (int i = 1; i < h; ++i) {
    window(100);
    ASSERT_TRUE(part.imrs_enabled.load()) << "flipped after " << i << " of "
                                          << h << " votes";
  }
  window(100);
  EXPECT_FALSE(part.imrs_enabled.load());
  EXPECT_EQ(tuner.total_disables(), 1);
}

INSTANTIATE_TEST_SUITE_P(Depths, TunerHysteresisSweep,
                         ::testing::Values(1, 2, 3, 5, 8));

/// Ʈ = dt * P / p for every observation percentage.
class TsfFormulaSweep : public ::testing::TestWithParam<int> {};

TEST_P(TsfFormulaSweep, TauMatchesClosedForm) {
  const double p = GetParam() / 100.0;
  IlmConfig config;
  config.steady_cache_pct = 0.70;
  config.tsf_observe_pct = p;
  TsfLearner tsf(config);
  const int64_t cap = 1000000;
  tsf.Observe(1000, 0, cap);
  // Grow exactly p of capacity over 200 ticks.
  const int64_t grown = static_cast<int64_t>(p * cap);
  tsf.Observe(1200, grown, cap);
  const double expected = 200.0 * 0.70 / p;
  EXPECT_NEAR(static_cast<double>(tsf.Tau()), expected, expected * 0.01);
}

INSTANTIATE_TEST_SUITE_P(ObservePcts, TsfFormulaSweep,
                         ::testing::Values(1, 2, 5, 10));

/// Queue integrity under concurrent producers/consumers (GC threads push,
/// pack thread pops / re-tails).
TEST(IlmQueueConcurrency, PushPopRemainsCoherent) {
  IlmQueue queue;
  constexpr int kProducers = 2;
  constexpr int kRowsPerProducer = 4000;
  std::vector<std::unique_ptr<ImrsRow[]>> rows;
  for (int t = 0; t < kProducers; ++t) {
    rows.push_back(std::make_unique<ImrsRow[]>(kRowsPerProducer));
  }

  std::atomic<bool> done{false};
  std::atomic<int64_t> popped{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kProducers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRowsPerProducer; ++i) {
        queue.PushTail(&rows[static_cast<size_t>(t)][i]);
      }
    });
  }
  threads.emplace_back([&] {
    // Consumer: pop; occasionally push back (the hot-row re-tail path).
    uint64_t x = 12345;
    while (!done.load() || queue.Size() > 0) {
      ImrsRow* row = queue.PopHead();
      if (row == nullptr) continue;
      x = x * 6364136223846793005ull + 1;
      if ((x >> 33) % 8 == 0) {
        queue.PushTail(row);
      } else {
        popped.fetch_add(1);
      }
    }
  });
  for (int t = 0; t < kProducers; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true);
  threads.back().join();
  EXPECT_EQ(popped.load(), kProducers * kRowsPerProducer);
  EXPECT_EQ(queue.Size(), 0);
}

// --- IlmManager -------------------------------------------------------------------

class IlmManagerTest : public ::testing::Test {
 protected:
  IlmManagerTest() : alloc_(1 << 20) {}
  FragmentAllocator alloc_;
  FakePackClient client_;
};

TEST_F(IlmManagerTest, RegistryFindsPartitions) {
  IlmManager ilm(IlmConfig{}, &alloc_, &client_);
  PartitionState* p = ilm.RegisterPartition(3, 1, "orders/1");
  EXPECT_EQ(ilm.FindPartition(3, 1), p);
  EXPECT_EQ(ilm.FindPartition(3, 2), nullptr);
  EXPECT_EQ(ilm.Partitions().size(), 1u);
}

TEST_F(IlmManagerTest, IlmOffAdmitsEverything) {
  IlmConfig config;
  config.ilm_enabled = false;
  IlmManager ilm(config, &alloc_, &client_);
  PartitionState* p = ilm.RegisterPartition(1, 0, "t/0");
  p->imrs_enabled.store(false);  // even a "disabled" partition
  EXPECT_TRUE(ilm.ShouldInsertToImrs(p));
  EXPECT_TRUE(ilm.ShouldMigrateOnUpdate(p, false, false));
  EXPECT_TRUE(ilm.ShouldCacheOnSelect(p, false));
}

TEST_F(IlmManagerTest, DisabledPartitionRejectsAdmission) {
  IlmManager ilm(IlmConfig{}, &alloc_, &client_);
  PartitionState* p = ilm.RegisterPartition(1, 0, "t/0");
  EXPECT_TRUE(ilm.ShouldInsertToImrs(p));
  p->imrs_enabled.store(false);
  EXPECT_FALSE(ilm.ShouldInsertToImrs(p));
  EXPECT_FALSE(ilm.ShouldMigrateOnUpdate(p, true, true));
  EXPECT_FALSE(ilm.ShouldCacheOnSelect(p, true));
}

TEST_F(IlmManagerTest, MigrationNeedsUniqueAccessOrContention) {
  IlmManager ilm(IlmConfig{}, &alloc_, &client_);
  PartitionState* p = ilm.RegisterPartition(1, 0, "t/0");
  EXPECT_TRUE(ilm.ShouldMigrateOnUpdate(p, true, false));
  EXPECT_TRUE(ilm.ShouldMigrateOnUpdate(p, false, true));
  EXPECT_FALSE(ilm.ShouldMigrateOnUpdate(p, false, false));
}

TEST_F(IlmManagerTest, SelectCachingToggle) {
  IlmConfig config;
  config.select_caching = false;
  IlmManager ilm(config, &alloc_, &client_);
  PartitionState* p = ilm.RegisterPartition(1, 0, "t/0");
  EXPECT_FALSE(ilm.ShouldCacheOnSelect(p, true));
}

TEST_F(IlmManagerTest, ForcePageStoreOverridesEverything) {
  IlmConfig config;
  config.ilm_enabled = false;  // ILM_OFF would admit everything...
  IlmManager ilm(config, &alloc_, &client_);
  PartitionState* p = ilm.RegisterPartition(1, 0, "t/0");
  ilm.SetForcePageStore(true);  // ...except during bulk load
  EXPECT_FALSE(ilm.ShouldInsertToImrs(p));
  EXPECT_FALSE(ilm.ShouldMigrateOnUpdate(p, true, true));
  ilm.SetForcePageStore(false);
  EXPECT_TRUE(ilm.ShouldInsertToImrs(p));
}

TEST_F(IlmManagerTest, EnqueueRoutesToPartitionQueueBySource) {
  IlmManager ilm(IlmConfig{}, &alloc_, &client_);
  PartitionState* p = ilm.RegisterPartition(1, 0, "t/0");
  ImrsRow inserted, cached;
  inserted.table_id = cached.table_id = 1;
  inserted.source = RowSource::kInserted;
  cached.source = RowSource::kCached;
  ilm.EnqueueRow(&inserted);
  ilm.EnqueueRow(&cached);
  EXPECT_EQ(p->QueueFor(RowSource::kInserted).Size(), 1);
  EXPECT_EQ(p->QueueFor(RowSource::kCached).Size(), 1);
  EXPECT_EQ(p->QueueFor(RowSource::kMigrated).Size(), 0);
  ilm.UnlinkRow(&inserted);
  EXPECT_EQ(p->QueueFor(RowSource::kInserted).Size(), 0);
}

TEST_F(IlmManagerTest, GlobalQueueModeRoutesToGlobalQueue) {
  IlmConfig config;
  config.queue_mode = QueueMode::kSingleGlobal;
  IlmManager ilm(config, &alloc_, &client_);
  ilm.RegisterPartition(1, 0, "t/0");
  ImrsRow row;
  row.table_id = 1;
  ilm.EnqueueRow(&row);
  EXPECT_EQ(ilm.pack()->global_queue()->Size(), 1);
}

TEST_F(IlmManagerTest, BackgroundTickRunsTuningOnWindowBoundaries) {
  IlmConfig config;
  config.tuning_window_txns = 100;
  IlmManager ilm(config, &alloc_, &client_);
  PartitionState* p = ilm.RegisterPartition(1, 0, "t/0");
  ilm.BackgroundTick(100);  // first due window: baseline snapshot taken
  EXPECT_TRUE(p->tuner.have_last_window);
  const MetricsSnapshot baseline = p->tuner.last_window;
  ilm.BackgroundTick(150);  // within the window: no tuning
  p->metrics.reuse_select.Add(5);
  EXPECT_EQ(p->tuner.last_window.reuse_select, baseline.reuse_select);
  ilm.BackgroundTick(200);  // next window: snapshot advances
  EXPECT_EQ(p->tuner.last_window.reuse_select, baseline.reuse_select + 5);
}

}  // namespace
}  // namespace btrim
