#ifndef BTRIM_COMMON_FAULT_PLAN_H_
#define BTRIM_COMMON_FAULT_PLAN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace btrim {

/// Kind of storage operation reaching a fault-injected decorator.
enum class FaultOp : uint8_t {
  kRead = 0,    ///< Device::ReadPage
  kWrite = 1,   ///< Device::WritePage
  kSync = 2,    ///< Device::Sync / LogStorage::Sync
  kAppend = 3,    ///< LogStorage::Append
  kRollOver = 4,  ///< LogStorage::RollOver
  kDrop = 5,      ///< LogStorage::DropBefore
};

const char* FaultOpName(FaultOp op);

/// What a decorator must do with the current operation.
enum class FaultOutcome : uint8_t {
  kNone = 0,  ///< perform the operation normally
  kError,     ///< fail with IOError, no side effects
  kTorn,      ///< apply a seeded partial write, then fail with IOError
  kCrash,     ///< simulated crash: this and all later operations fail
};

/// One traced storage operation (see FaultPlan::EnableTrace).
struct TraceEntry {
  FaultOp op;
  std::string target;
};

/// Injection counters (what the plan actually did to the run).
struct FaultPlanStats {
  int64_t ops_seen = 0;
  int64_t errors_injected = 0;
  int64_t torn_writes = 0;
  bool crashed = false;
  uint64_t crash_op = 0;  ///< global index of the crashing operation
};

/// A seeded, deterministic fault schedule shared by every fault-injecting
/// storage decorator of one database instance (FaultyDevice,
/// FaultyLogStorage).
///
/// Every storage operation flowing through an attached decorator consults
/// the plan exactly once via OnOp(), which assigns the operation a global,
/// monotonically increasing index (the *op index*). Faults are scripted
/// against that index — `CrashAtOp(k)` crashes the k-th operation of the
/// run, whatever it happens to be — which is what makes a torture run
/// reproducible from (seed, crash_op) alone: the same seed generates the
/// same workload, the workload issues the same operation sequence, and the
/// plan fires at the same point.
///
/// Crash semantics: once a crash fires, *every* subsequent operation on any
/// decorator sharing the plan fails with IOError, and the decorators never
/// flush their pending (un-synced) state to the inner storage — exactly the
/// state a real power loss leaves behind under the "sync barrier =
/// durability line" model (see DESIGN.md).
///
/// Thread-safe; the RNG draws are serialized, so single-threaded workloads
/// are fully deterministic.
class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// --- scripting -----------------------------------------------------------

  /// Crash at global op `op_index` (0-based). The op itself fails.
  void CrashAtOp(uint64_t op_index);

  /// One-shot IOError at global op `op_index`.
  void FailAtOp(uint64_t op_index);

  /// Torn write at global op `op_index`: the decorator applies a seeded
  /// partial image to its pending state and returns IOError. Ops that
  /// cannot tear (reads, syncs, rollovers, drops) degrade to a plain error.
  void TornWriteAtOp(uint64_t op_index);

  /// IOError on the nth (1-based) operation of `op` kind whose decorator
  /// target contains `target_substr` (empty matches every target).
  void FailNth(FaultOp op, const std::string& target_substr, uint64_t nth);

  /// Seeded random IOError with probability `p` per matching operation.
  void SetErrorProbability(FaultOp op, double p);

  /// When enabled, OnOp records the kind of every operation; the trace of a
  /// fault-free run enumerates the crash points a torture sweep replays.
  void EnableTrace(bool on);

  /// --- decorator side ------------------------------------------------------

  /// Consumes one op index and returns the scripted outcome. `target` is
  /// the decorator's name (e.g. "syslogs", "kv.heap0.2.dat").
  FaultOutcome OnOp(const std::string& target, FaultOp op);

  /// True once a crash outcome has fired (checked by decorators before any
  /// inner-storage access; lock-free).
  bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }

  /// Seeded draw in [0, n), shared across decorators (torn-write shapes).
  uint64_t DrawUniform(uint64_t n);

  uint64_t ops_seen() const;
  FaultPlanStats GetStats() const;
  std::vector<TraceEntry> Trace() const;

  /// The Status injected operations fail with.
  static Status InjectedError(const std::string& target, FaultOp op);
  static Status CrashedError();

 private:
  struct NthTrigger {
    FaultOp op;
    std::string target_substr;
    uint64_t remaining;  // fires when it reaches 0
  };

  mutable Mutex mu_{LockRank::kFaultPlan, "common.fault_plan"};
  Random rng_ BTRIM_GUARDED_BY(mu_);
  uint64_t next_op_ BTRIM_GUARDED_BY(mu_) = 0;
  std::vector<uint64_t> crash_ops_ BTRIM_GUARDED_BY(mu_);
  std::vector<uint64_t> fail_ops_ BTRIM_GUARDED_BY(mu_);
  std::vector<uint64_t> torn_ops_ BTRIM_GUARDED_BY(mu_);
  std::vector<NthTrigger> nth_triggers_ BTRIM_GUARDED_BY(mu_);
  double error_probability_[6] BTRIM_GUARDED_BY(mu_) = {};
  bool trace_enabled_ BTRIM_GUARDED_BY(mu_) = false;
  std::vector<TraceEntry> trace_ BTRIM_GUARDED_BY(mu_);

  std::atomic<bool> crashed_{false};
  uint64_t crash_op_ BTRIM_GUARDED_BY(mu_) = 0;
  int64_t errors_injected_ BTRIM_GUARDED_BY(mu_) = 0;
  int64_t torn_writes_ BTRIM_GUARDED_BY(mu_) = 0;
};

}  // namespace btrim

#endif  // BTRIM_COMMON_FAULT_PLAN_H_
