#ifndef BTRIM_OBS_TIME_SERIES_SAMPLER_H_
#define BTRIM_OBS_TIME_SERIES_SAMPLER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics_registry.h"

namespace btrim {
namespace obs {

/// Snapshots a MetricsRegistry into ring-buffered time-series samples.
///
/// Sampling is on demand: SampleNow(marker) from any thread. The TPC-C
/// driver and the bench harness call it at transaction-count windows, so
/// the EXPERIMENTS figures' time axis (windows of committed transactions)
/// comes straight from the sampler; btrim_server calls it on its own
/// wall-clock cadence.
///
/// The ring keeps the newest `capacity` samples; `seq` keeps growing, so a
/// reader can tell when old windows were overwritten. All methods are
/// thread-safe; sampling is low-frequency, so one mutex is plenty.
class TimeSeriesSampler {
 public:
  /// One sampler window.
  struct Sample {
    int64_t seq = 0;        ///< monotone sample number (never wraps)
    int64_t wall_us = 0;    ///< microseconds since sampler construction
    int64_t marker = -1;    ///< caller-supplied (e.g. committed txns); -1
                            ///< when the caller has none
    std::vector<MetricSample> metrics;
  };

  /// Microsecond clock, injectable for deterministic windowing tests.
  using ClockFn = std::function<int64_t()>;

  /// Keeps the newest `capacity` (> 0) samples; older ones drop off.
  TimeSeriesSampler(const MetricsRegistry* registry, size_t capacity);

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Takes one sample immediately. Returns its seq.
  int64_t SampleNow(int64_t marker = -1);

  /// Copies the ring contents, oldest first.
  std::vector<Sample> Samples() const;

  /// Total samples ever taken (>= Samples().size()).
  int64_t total_samples() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// JSON array of the ring:
  ///   [{"seq":..,"wall_us":..,"marker":..,"metrics":[...]}, ...]
  std::string ToJson() const;

  /// Replaces the wall clock (tests). Call before sampling.
  void SetClockForTest(ClockFn clock);

 private:
  int64_t NowUs() const BTRIM_REQUIRES(mu_);

  const MetricsRegistry* const registry_;
  const size_t capacity_;

  mutable Mutex mu_{LockRank::kSamplerRing, "obs.sampler_ring"};
  std::vector<Sample> ring_ BTRIM_GUARDED_BY(mu_);  // ring_[seq % capacity]
  std::atomic<int64_t> next_seq_{0};
  ClockFn clock_ BTRIM_GUARDED_BY(mu_);  // null = steady_clock since ctor
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace obs
}  // namespace btrim

#endif  // BTRIM_OBS_TIME_SERIES_SAMPLER_H_
