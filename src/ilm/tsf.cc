#include "ilm/tsf.h"

#include "obs/metrics_registry.h"

namespace btrim {

TsfLearner::TsfLearner(const IlmConfig& config)
    : observe_pct_(config.tsf_observe_pct),
      steady_pct_(config.steady_cache_pct),
      relearn_interval_(config.tsf_relearn_interval) {}

void TsfLearner::Observe(uint64_t now, int64_t used_bytes,
                         int64_t capacity_bytes) {
  if (capacity_bytes <= 0) return;
  SpinLockGuard guard(mu_);

  if (!observing_) {
    // Start a new observation when due (first time, or relearn interval
    // elapsed).
    if (last_learn_ts_ == 0 || now - last_learn_ts_ >= relearn_interval_) {
      observing_ = true;
      ts0_ = now;
      util0_ = used_bytes;
    }
    return;
  }

  if (used_bytes < util0_) {
    // Utilization shrank (pack ran); restart so the estimate reflects pure
    // workload-driven growth.
    ts0_ = now;
    util0_ = used_bytes;
    return;
  }

  const double grown =
      static_cast<double>(used_bytes - util0_) /
      static_cast<double>(capacity_bytes);
  if (grown < observe_pct_) return;

  const uint64_t dt = now - ts0_;
  if (dt == 0) return;  // growth without commits — wait for clock movement

  // Ʈ = (ts1 - ts0) * P / p.
  const double tau = static_cast<double>(dt) * steady_pct_ / grown;
  tau_.store(static_cast<uint64_t>(tau), std::memory_order_relaxed);
  last_learn_ts_ = now;
  ++learn_cycles_;
  observing_ = false;
}

Status TsfLearner::RegisterMetrics(obs::MetricsRegistry* registry,
                                   const std::string& subsystem) const {
  const obs::MetricLabels l{subsystem, "", "", ""};
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "tsf.tau", l, [this] { return static_cast<int64_t>(Tau()); }));
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "tsf.learn_cycles", l, [this] { return learn_cycles(); }));
  BTRIM_RETURN_IF_ERROR(registry->RegisterGaugeFn(
      "tsf.last_learn_ts", l,
      [this] { return static_cast<int64_t>(last_learn_ts()); }));
  return Status::OK();
}

void TsfLearner::Reset() {
  SpinLockGuard guard(mu_);
  tau_.store(0, std::memory_order_relaxed);
  observing_ = false;
  ts0_ = 0;
  util0_ = 0;
  last_learn_ts_ = 0;
  learn_cycles_ = 0;
}

}  // namespace btrim
