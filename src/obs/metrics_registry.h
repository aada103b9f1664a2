#ifndef BTRIM_OBS_METRICS_REGISTRY_H_
#define BTRIM_OBS_METRICS_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metric.h"

namespace btrim {
namespace obs {

/// The unified metrics registry (DESIGN.md Sec. 10).
///
/// Every subsystem registers its counters, gauges and latency histograms
/// here once, at construction/wiring time; stats printing, the time-series
/// sampler, the JSON exporter and the CI gates all read from this one
/// place instead of re-plumbing per-subsystem stats structs.
///
/// Registration hands the registry a *source*: either a pointer to a live
/// ShardedCounter / AtomicGauge / LatencyHistogram (hot-path metrics keep
/// their existing zero-overhead update paths; the registry only reads), or
/// an arbitrary int64 callback for derived values. Sources must outlive
/// the registry entry — Unregister before destroying the source.
///
/// Unregistration uses snapshot-at-unregistration semantics: the final
/// value is folded into a retained sample that Snapshot()/Lookup() keep
/// reporting (flagged `retained`). This is what fixes the historical
/// stats_printer bug where a partition retired mid-run dropped its
/// pack-skip counts from the final report.
///
/// Thread safety: all methods are safe to call concurrently. Snapshot()
/// evaluates sources under the registry mutex; sources themselves use
/// relaxed atomics, so snapshots may transiently under-count while writers
/// are active (the same contract as ShardedCounter).
class MetricsRegistry {
 public:
  using ValueFn = std::function<int64_t()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// --- registration ---------------------------------------------------------
  ///
  /// AlreadyExists when (name, labels) is live; registering over a retained
  /// (unregistered) entry replaces it.

  Status RegisterCounter(const std::string& name, MetricLabels labels,
                         const ShardedCounter* counter);
  Status RegisterCounterFn(const std::string& name, MetricLabels labels,
                           ValueFn fn);
  Status RegisterGauge(const std::string& name, MetricLabels labels,
                       const AtomicGauge* gauge);
  Status RegisterGaugeFn(const std::string& name, MetricLabels labels,
                         ValueFn fn);
  Status RegisterHistogram(const std::string& name, MetricLabels labels,
                           const LatencyHistogram* histogram);

  /// Retires one entry: evaluates it a final time and keeps the result as
  /// a retained sample. No-op if absent.
  void Unregister(const std::string& name, const MetricLabels& labels);

  /// Retires every live entry whose non-empty `labels` fields all match
  /// (empty fields are wildcards). Retiring a whole partition is one call:
  ///   UnregisterMatching({.table = "orders", .partition = "0"}).
  void UnregisterMatching(const MetricLabels& labels);

  /// --- reading --------------------------------------------------------------

  /// Evaluates one metric (live or retained). False when absent.
  bool Lookup(const std::string& name, const MetricLabels& labels,
              MetricSample* out) const;

  /// Sums the values of every live and retained `name` entry whose labels
  /// agree with the non-empty fields of `match` (the UnregisterMatching
  /// wildcard rule); 0 when none match. Evaluates only entries of `name`.
  /// A histogram contributes its sample count — read its percentiles
  /// through Lookup. Typical reads:
  ///   Sum("index.searches")                      every B+Tree, summed
  ///   Sum("wal.syncs", {"syslogs", "", "", ""})  one log
  int64_t Sum(const std::string& name, const MetricLabels& match = {}) const;

  /// Evaluates everything, live entries first-hand and retained entries
  /// from their final snapshot, in deterministic (name, labels) order.
  std::vector<MetricSample> Snapshot() const;

  /// JSON array of Snapshot() in the stable export schema.
  std::string ToJson() const;

  /// Live + retained entry count (tests).
  size_t size() const;

 private:
  struct Entry {
    std::string name;
    MetricType type = MetricType::kCounter;
    MetricLabels labels;
    ValueFn fn;                                   // counters / gauges
    const LatencyHistogram* histogram = nullptr;  // histograms
    bool retained = false;
    int64_t retained_value = 0;
    LatencyHistogram::Snapshot retained_hist;
  };

  static std::string Key(const std::string& name, const MetricLabels& labels);
  Status RegisterEntry(const std::string& name, MetricLabels labels,
                       Entry entry);
  static MetricSample Evaluate(const Entry& entry);
  /// True when every non-empty field of `want` equals the one in `have`.
  static bool Matches(const MetricLabels& want, const MetricLabels& have);
  static void Retain(Entry* entry);

  /// Snapshot() and Sum() evaluate gauge callbacks under mu_, and those
  /// callbacks take subsystem locks (GC shard queues, ILM queues, the thread
  /// pool) — hence the early kMetricsRegistry rank: registry -> subsystem
  /// nesting is legal, subsystem -> registry is an ordering violation.
  mutable Mutex mu_{LockRank::kMetricsRegistry, "obs.registry"};
  /// Ordered map keyed on name + '\x1f' + labels for deterministic export.
  std::map<std::string, Entry> entries_ BTRIM_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace btrim

#endif  // BTRIM_OBS_METRICS_REGISTRY_H_
