#ifndef BTRIM_COMMON_THREAD_POOL_H_
#define BTRIM_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace btrim {

/// Fixed-size worker pool for background fan-out (parallel pack cycles, GC
/// shard drains, recovery replay shards). Shared by every background
/// subsystem of one Database, so one knob sizes it:
/// DatabaseOptions::pack_workers.
///
/// Semantics:
///  - `workers <= 1` creates no threads at all: RunTasks executes every
///    task inline on the caller, in order. This is the determinism anchor —
///    a 1-worker pipeline is byte-for-byte the old serial behavior, which
///    tests/pack_parallel_test.cc leans on.
///  - RunTasks is a barrier: it returns only after every submitted task has
///    finished. Concurrent RunTasks calls from different callers are fine;
///    each blocks on its own completion count.
///  - Tasks must not call RunTasks on the same pool (a task occupying a
///    worker while waiting for workers deadlocks at full occupancy).
///
/// CurrentWorkerId() identifies the executing lane for per-worker metrics:
/// 0 on any non-pool thread (inline mode, drivers), 1..N on pool workers.
class ThreadPool {
 public:
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of pool threads (0 in inline mode).
  int worker_count() const { return static_cast<int>(threads_.size()); }

  /// Runs `tasks` to completion. Parallel across pool workers when they
  /// exist, inline on the caller otherwise.
  void RunTasks(std::vector<std::function<void()>> tasks);

  /// Fire-and-forget: enqueues one task and returns immediately (inline
  /// mode runs it on the caller before returning). No completion channel —
  /// callers needing one build it into the task (the net server signals
  /// per-connection state under its own lock). Tasks queued at destruction
  /// time still run: the destructor drains the queue before joining.
  void Submit(std::function<void()> fn);

  /// Executing lane of the current thread: 0 = not a pool worker.
  static int CurrentWorkerId();

  /// --- metric sources (registered by the owning Database) ----------------

  const ShardedCounter* tasks_executed() const { return &tasks_executed_; }
  const LatencyHistogram* queue_wait_histogram() const { return &queue_wait_; }
  int64_t QueueDepth() const;

 private:
  struct Batch;
  struct Task {
    std::function<void()> fn;
    int64_t enqueue_us = 0;
    /// Completion channel of the RunTasks call that submitted this task.
    Batch* batch = nullptr;
  };
  /// Guarded by the pool-wide mu_ (never by its own lock): workers signal
  /// completion through the long-lived done_cv_ member, so no worker ever
  /// touches a synchronization object whose lifetime ends with RunTasks.
  struct Batch {
    size_t remaining = 0;
  };

  void WorkerLoop(int worker_id);
  static int64_t NowMicros();

  mutable Mutex mu_{LockRank::kThreadPool, "common.thread_pool"};
  CondVar work_cv_;
  CondVar done_cv_;
  std::deque<Task> queue_ BTRIM_GUARDED_BY(mu_);
  bool stopping_ BTRIM_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;

  mutable ShardedCounter tasks_executed_;
  mutable LatencyHistogram queue_wait_;
};

}  // namespace btrim

#endif  // BTRIM_COMMON_THREAD_POOL_H_
