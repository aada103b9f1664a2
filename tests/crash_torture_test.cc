// Crash-point torture tests for recovery (default-suite slice).
//
// These tests replay the deterministic torture workload (src/testing/
// torture.h) with a scripted crash at selected storage operations, then
// recover and verify that acknowledged commits survive exactly, the
// at-most-one indeterminate transaction resolves atomically, and nothing
// aborted resurfaces. The full sweep (every sync boundary plus hundreds of
// seeded points per seed) lives in tools/torture; this suite keeps a
// representative slice fast enough for every `ctest` run.
//
// Every assertion message carries (seed, crash_op): replay a failure with
//   tools/torture --seed S --crash-op K
// (add BTRIM_TORTURE_VERBOSE=1 for a transaction-by-transaction narration).

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "testing/torture.h"

namespace btrim {
namespace {

// Allocates a per-test scratch directory, removed on destruction unless the
// test failed (a failing run's data dir is the replay evidence).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(::testing::TempDir() + "/btrim_crash_torture_" + tag) {}
  ~ScratchDir() {
    if (!::testing::Test::HasFailure()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  const std::string& path() const { return path_; }

 private:
  const std::string path_;
};

// Crash at every sync boundary of the seed-1 workload. Syncs are the
// durability lines: immediately before one, the un-synced state is at its
// largest; crashing *on* it exercises the torn-tail flush.
TEST(CrashTortureTest, EverySyncBoundarySeedOne) {
  ScratchDir dir("sync_sweep");
  testing::TortureConfig config;
  config.dir = dir.path();
  config.workload_seed = 1;

  std::vector<TraceEntry> trace;
  Result<uint64_t> total = testing::CountStorageOps(config, &trace);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  ASSERT_GT(*total, 0u);

  int sync_points = 0;
  for (uint64_t i = 0; i < trace.size(); ++i) {
    if (trace[i].op != FaultOp::kSync) continue;
    ++sync_points;
    testing::TortureStats stats;
    Status s = testing::RunCrashPoint(config, i, &stats);
    EXPECT_TRUE(s.ok()) << "seed=" << config.workload_seed << " crash_op=" << i
                        << " (" << trace[i].target
                        << "): " << s.ToString();
  }
  // The workload checkpoints and sync-commits, so sync boundaries must be
  // plentiful — a near-empty sweep means the harness went quiet, not that
  // recovery got perfect.
  EXPECT_GT(sync_points, 50);
}

// Crash at every storage operation of one checkpoint: each rollover, the
// begin records, the snapshot chunks, the page write-back and syncs, the end
// records and each drop. The seed-1 workload has packed rows (mixed-store
// commits: the page-store insert and the IMRS removal commit together) and
// committed transactions spanning both stores before its second
// checkpoint, which is the one swept here, so recovery must arbitrate those
// groups against what the crash left of syslogs.
TEST(CrashTortureTest, EveryOpOfOneCheckpoint) {
  ScratchDir dir("one_checkpoint");
  testing::TortureConfig config;
  config.dir = dir.path();
  config.workload_seed = 1;

  std::vector<TraceEntry> trace;
  Result<uint64_t> total = testing::CountStorageOps(config, &trace);
  ASSERT_TRUE(total.ok()) << total.status().ToString();

  // A checkpoint's ops run from its syslogs rollover to its sysimrslogs
  // drop.
  std::vector<uint64_t> starts;
  for (uint64_t i = 0; i < trace.size(); ++i) {
    if (trace[i].op == FaultOp::kRollOver && trace[i].target == "syslogs") {
      starts.push_back(i);
    }
  }
  ASSERT_GE(starts.size(), 2u);
  const uint64_t first = starts[1];
  uint64_t last = first;
  while (last < trace.size() && !(trace[last].op == FaultOp::kDrop &&
                                  trace[last].target == "sysimrslogs")) {
    ++last;
  }
  ASSERT_LT(last, trace.size());

  int kinds[6] = {};
  for (uint64_t i = first; i <= last; ++i) {
    ++kinds[static_cast<int>(trace[i].op)];
  }
  EXPECT_EQ(kinds[static_cast<int>(FaultOp::kRollOver)], 2);
  EXPECT_EQ(kinds[static_cast<int>(FaultOp::kDrop)], 2);
  // Begin and end records in both logs, plus at least one snapshot chunk.
  EXPECT_GE(kinds[static_cast<int>(FaultOp::kAppend)], 5);
  EXPECT_GE(kinds[static_cast<int>(FaultOp::kSync)], 4);

  for (uint64_t crash_op = first; crash_op <= last; ++crash_op) {
    testing::TortureStats stats;
    Status s = testing::RunCrashPoint(config, crash_op, &stats);
    EXPECT_TRUE(s.ok()) << "seed=" << config.workload_seed
                        << " crash_op=" << crash_op << " ("
                        << FaultOpName(trace[crash_op].op) << " "
                        << trace[crash_op].target << "): " << s.ToString();
    EXPECT_TRUE(stats.crash_fired) << "crash_op=" << crash_op;
  }
}

// Property-style randomized sweep: 50 seeds, each with a handful of seeded
// crash points drawn over that seed's own op sequence. Failures print the
// exact (seed, crash_op) pair for replay.
TEST(CrashTortureTest, FiftySeedsRandomCrashPoints) {
  constexpr uint64_t kSeeds = 50;
  constexpr int kPointsPerSeed = 3;

  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ScratchDir dir("prop_" + std::to_string(seed));
    testing::TortureConfig config;
    config.dir = dir.path();
    config.workload_seed = seed;

    Result<uint64_t> total = testing::CountStorageOps(config);
    ASSERT_TRUE(total.ok())
        << "seed=" << seed << ": " << total.status().ToString();
    ASSERT_GT(*total, 0u) << "seed=" << seed;

    Random rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    for (int p = 0; p < kPointsPerSeed; ++p) {
      const uint64_t crash_op = rng.Uniform(*total);
      testing::TortureStats stats;
      Status s = testing::RunCrashPoint(config, crash_op, &stats);
      EXPECT_TRUE(s.ok()) << "seed=" << seed << " crash_op=" << crash_op
                          << ": " << s.ToString();
      // The sweep must exercise real recoveries, not no-op ones.
      EXPECT_TRUE(stats.crash_fired)
          << "seed=" << seed << " crash_op=" << crash_op;
    }
  }
}

// Overlapped-checkpoint torture: checkpoints run on their own thread while
// the writer keeps committing, so crash points land inside an in-flight
// checkpoint — after the begin barrier became durable, mid-snapshot-walk,
// or with the end record torn. The recovery contract is unchanged and
// interleaving-independent: the recovered state must be a consistent cut
// (exactly the acknowledged commits), never a mix of snapshot and live
// state. Crash points are drawn from sysimrslogs operations of a traced
// run — that is where begin records, snapshot chunks, and end records go —
// plus seeded extras over the whole op range.
TEST(CrashTortureTest, OverlappedCheckpointCrashPoints) {
  constexpr int kLogPoints = 12;
  constexpr int kRandomPoints = 6;

  ScratchDir dir("overlap");
  testing::TortureConfig config;
  config.dir = dir.path();
  config.workload_seed = 3;
  config.overlapped_checkpoints = true;

  std::vector<TraceEntry> trace;
  Result<uint64_t> total = testing::CountStorageOps(config, &trace);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  ASSERT_GT(*total, 0u);

  // Indexes of operations against the IMRS log (interleaving shifts them a
  // little run to run, but they stay dense inside checkpoint activity).
  std::vector<uint64_t> log_ops;
  for (uint64_t i = 0; i < trace.size(); ++i) {
    if (trace[i].target.find("sysimrslogs") != std::string::npos) {
      log_ops.push_back(i);
    }
  }
  ASSERT_GT(log_ops.size(), 0u);

  std::vector<uint64_t> points;
  const size_t stride = std::max<size_t>(1, log_ops.size() / kLogPoints);
  for (size_t i = 0; i < log_ops.size(); i += stride) {
    points.push_back(log_ops[i]);
  }
  Random rng(0x0bef0bef);
  for (int p = 0; p < kRandomPoints; ++p) points.push_back(rng.Uniform(*total));

  for (uint64_t crash_op : points) {
    testing::TortureStats stats;
    Status s = testing::RunCrashPoint(config, crash_op, &stats);
    EXPECT_TRUE(s.ok()) << "seed=" << config.workload_seed
                        << " crash_op=" << crash_op << " (overlap): "
                        << s.ToString();
  }
}

// Multi-seed overlapped sweep (the in-suite slice of the nightly >= 5-seed
// sweep): every seed must complete at least one overlapped checkpoint when
// the crash point is beyond the workload, and seeded mid-workload crashes
// must recover to a consistent cut.
TEST(CrashTortureTest, OverlappedCheckpointFiveSeedSweep) {
  constexpr uint64_t kSeeds = 5;
  constexpr int kPointsPerSeed = 2;

  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ScratchDir dir("overlap_seed_" + std::to_string(seed));
    testing::TortureConfig config;
    config.dir = dir.path();
    config.workload_seed = seed;
    config.overlapped_checkpoints = true;

    Result<uint64_t> total = testing::CountStorageOps(config);
    ASSERT_TRUE(total.ok())
        << "seed=" << seed << ": " << total.status().ToString();

    // No crash: the overlapped checkpoints themselves must succeed.
    {
      testing::TortureStats stats;
      Status s = testing::RunCrashPoint(config, *total * 2 + 1000, &stats);
      EXPECT_TRUE(s.ok()) << "seed=" << seed << ": " << s.ToString();
      EXPECT_FALSE(stats.crash_fired) << "seed=" << seed;
      EXPECT_GT(stats.checkpoints_completed, 0) << "seed=" << seed;
    }

    Random rng(seed * 0x9e3779b97f4a7c15ULL + 7);
    for (int p = 0; p < kPointsPerSeed; ++p) {
      const uint64_t crash_op = rng.Uniform(*total);
      testing::TortureStats stats;
      Status s = testing::RunCrashPoint(config, crash_op, &stats);
      EXPECT_TRUE(s.ok()) << "seed=" << seed << " crash_op=" << crash_op
                          << " (overlap): " << s.ToString();
    }
  }
}

// Crashing after the workload's last operation is the degenerate case: the
// crash never fires, every transaction is acknowledged, and recovery must
// reproduce all of them.
TEST(CrashTortureTest, CrashBeyondWorkloadIsFullRecovery) {
  ScratchDir dir("beyond");
  testing::TortureConfig config;
  config.dir = dir.path();
  config.workload_seed = 2;

  Result<uint64_t> total = testing::CountStorageOps(config);
  ASSERT_TRUE(total.ok()) << total.status().ToString();

  testing::TortureStats stats;
  Status s = testing::RunCrashPoint(config, *total + 1000, &stats);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(stats.crash_fired);
  EXPECT_GT(stats.txns_acked, 0);
  EXPECT_GT(stats.keys_verified, 0);
}

// Crashing on the very first storage operation leaves nothing durable —
// recovery of the empty directory must come up clean and empty.
TEST(CrashTortureTest, CrashOnFirstOpRecoversEmpty) {
  ScratchDir dir("first");
  testing::TortureConfig config;
  config.dir = dir.path();
  config.workload_seed = 2;

  testing::TortureStats stats;
  Status s = testing::RunCrashPoint(config, 0, &stats);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(stats.crash_fired);
  EXPECT_EQ(stats.txns_acked, 0);
}

}  // namespace
}  // namespace btrim
