#ifndef BTRIM_ILM_TSF_H_
#define BTRIM_ILM_TSF_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "ilm/config.h"

namespace btrim {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// The timestamp filter learner (paper Sec. VI.D).
///
/// Ʈ approximates the number of transactions (commit-timestamp ticks) it
/// takes the workload to grow IMRS utilization by the *steady cache
/// utilization* percentage P. A row whose last access lies within the most
/// recent Ʈ transactions is hot and is skipped by Pack:
///
///     is_cold(row) ≝ now − last_access_ts > Ʈ
///
/// Learning (Sec. VI.D.1): record (ts₀, util₀) at cycle start; when
/// utilization has grown by a small fraction p of capacity, record ts₁ and
/// set
///
///     Ʈ = (ts₁ − ts₀) · P / p
///
/// The filter is re-learned periodically, and the observation restarts
/// whenever utilization *shrinks* (pack activity would otherwise corrupt
/// the growth-rate estimate).
class TsfLearner {
 public:
  explicit TsfLearner(const IlmConfig& config);

  TsfLearner(const TsfLearner&) = delete;
  TsfLearner& operator=(const TsfLearner&) = delete;

  /// Feeds an observation of (commit clock, IMRS bytes in use). Called from
  /// background threads; cheap when no learning step completes.
  void Observe(uint64_t now, int64_t used_bytes, int64_t capacity_bytes);

  /// Current filter value (0 until first learning completes: with no
  /// estimate, no row is TSF-protected and Pack falls back to queue order).
  uint64_t Tau() const { return tau_.load(std::memory_order_relaxed); }

  /// Recency check (Sec. VI.D.2 "Recency of access"). True if the row was
  /// accessed within the last Ʈ commits.
  bool IsRecent(uint64_t row_last_access, uint64_t now) const {
    const uint64_t tau = Tau();
    if (tau == 0) return false;
    return now - row_last_access <= tau;
  }

  /// Completed learning observations.
  int64_t learn_cycles() const { return learn_cycles_.load(); }
  /// Commit-ts of the last completed learning (0 before the first).
  uint64_t last_learn_ts() const { return last_learn_ts_.load(); }

  /// Registers the filter value and learning progress as derived gauges
  /// into the unified metrics registry under `tsf.*`.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         const std::string& subsystem) const;

  /// Resets learning state (tests, config reload).
  void Reset();

 private:
  const double observe_pct_;
  const double steady_pct_;
  const uint64_t relearn_interval_;

  std::atomic<uint64_t> tau_{0};

  mutable SpinLock mu_{LockRank::kTsfModel, "ilm.tsf"};
  bool observing_ BTRIM_GUARDED_BY(mu_) = false;
  uint64_t ts0_ BTRIM_GUARDED_BY(mu_) = 0;
  int64_t util0_ BTRIM_GUARDED_BY(mu_) = 0;
  // Written under mu_; read lock-free by the accessors, like tau_.
  std::atomic<uint64_t> last_learn_ts_{0};
  std::atomic<int64_t> learn_cycles_{0};
};

}  // namespace btrim

#endif  // BTRIM_ILM_TSF_H_
