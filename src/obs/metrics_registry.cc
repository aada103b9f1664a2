#include "obs/metrics_registry.h"

namespace btrim {
namespace obs {

std::string MetricsRegistry::Key(const std::string& name,
                                 const MetricLabels& labels) {
  std::string key;
  key.reserve(name.size() + labels.subsystem.size() + labels.table.size() +
              labels.partition.size() + labels.tenant.size() + 4);
  key.append(name);
  key.push_back('\x1f');
  key.append(labels.subsystem);
  key.push_back('\x1f');
  key.append(labels.table);
  key.push_back('\x1f');
  key.append(labels.partition);
  key.push_back('\x1f');
  key.append(labels.tenant);
  return key;
}

Status MetricsRegistry::RegisterEntry(const std::string& name,
                                      MetricLabels labels, Entry entry) {
  entry.name = name;
  entry.labels = std::move(labels);
  const std::string key = Key(name, entry.labels);
  MutexGuard guard(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end() && !it->second.retained) {
    return Status::AlreadyExists("metric already registered: " + name +
                                 " [" + entry.labels.subsystem + "/" +
                                 entry.labels.table + "/" +
                                 entry.labels.partition + "]");
  }
  entries_[key] = std::move(entry);
  return Status::OK();
}

Status MetricsRegistry::RegisterCounter(const std::string& name,
                                        MetricLabels labels,
                                        const ShardedCounter* counter) {
  Entry e;
  e.type = MetricType::kCounter;
  e.fn = [counter] { return counter->Load(); };
  return RegisterEntry(name, std::move(labels), std::move(e));
}

Status MetricsRegistry::RegisterCounterFn(const std::string& name,
                                          MetricLabels labels, ValueFn fn) {
  Entry e;
  e.type = MetricType::kCounter;
  e.fn = std::move(fn);
  return RegisterEntry(name, std::move(labels), std::move(e));
}

Status MetricsRegistry::RegisterGauge(const std::string& name,
                                      MetricLabels labels,
                                      const AtomicGauge* gauge) {
  Entry e;
  e.type = MetricType::kGauge;
  e.fn = [gauge] { return gauge->Load(); };
  return RegisterEntry(name, std::move(labels), std::move(e));
}

Status MetricsRegistry::RegisterGaugeFn(const std::string& name,
                                        MetricLabels labels, ValueFn fn) {
  Entry e;
  e.type = MetricType::kGauge;
  e.fn = std::move(fn);
  return RegisterEntry(name, std::move(labels), std::move(e));
}

Status MetricsRegistry::RegisterHistogram(const std::string& name,
                                          MetricLabels labels,
                                          const LatencyHistogram* histogram) {
  Entry e;
  e.type = MetricType::kHistogram;
  e.histogram = histogram;
  return RegisterEntry(name, std::move(labels), std::move(e));
}

void MetricsRegistry::Retain(Entry* entry) {
  if (entry->retained) return;
  if (entry->type == MetricType::kHistogram) {
    entry->retained_hist = entry->histogram->GetSnapshot();
    entry->retained_value = entry->retained_hist.total;
    entry->histogram = nullptr;
  } else {
    entry->retained_value = entry->fn ? entry->fn() : 0;
    entry->fn = nullptr;
  }
  entry->retained = true;
}

void MetricsRegistry::Unregister(const std::string& name,
                                 const MetricLabels& labels) {
  MutexGuard guard(mu_);
  auto it = entries_.find(Key(name, labels));
  if (it != entries_.end()) Retain(&it->second);
}

bool MetricsRegistry::Matches(const MetricLabels& want,
                              const MetricLabels& have) {
  auto field_matches = [](const std::string& w, const std::string& h) {
    return w.empty() || w == h;
  };
  return field_matches(want.subsystem, have.subsystem) &&
         field_matches(want.table, have.table) &&
         field_matches(want.partition, have.partition) &&
         field_matches(want.tenant, have.tenant);
}

void MetricsRegistry::UnregisterMatching(const MetricLabels& labels) {
  MutexGuard guard(mu_);
  for (auto& [key, entry] : entries_) {
    (void)key;
    if (Matches(labels, entry.labels)) Retain(&entry);
  }
}

MetricSample MetricsRegistry::Evaluate(const Entry& entry) {
  MetricSample s;
  s.name = entry.name;
  s.type = entry.type;
  s.labels = entry.labels;
  s.retained = entry.retained;
  if (entry.retained) {
    s.value = entry.retained_value;
    s.hist = entry.retained_hist;
  } else if (entry.type == MetricType::kHistogram) {
    s.hist = entry.histogram->GetSnapshot();
    s.value = s.hist.total;
  } else {
    s.value = entry.fn ? entry.fn() : 0;
  }
  return s;
}

bool MetricsRegistry::Lookup(const std::string& name,
                             const MetricLabels& labels,
                             MetricSample* out) const {
  MutexGuard guard(mu_);
  auto it = entries_.find(Key(name, labels));
  if (it == entries_.end()) return false;
  *out = Evaluate(it->second);
  return true;
}

int64_t MetricsRegistry::Sum(const std::string& name,
                             const MetricLabels& match) const {
  // Keys are name + '\x1f' + labels, so one name's entries are contiguous.
  const std::string prefix = name + '\x1f';
  int64_t total = 0;
  MutexGuard guard(mu_);
  for (auto it = entries_.lower_bound(prefix);
       it != entries_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (Matches(match, it->second.labels)) total += Evaluate(it->second).value;
  }
  return total;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  MutexGuard guard(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    (void)key;
    out.push_back(Evaluate(entry));
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::string out;
  AppendMetricsJson(&out, Snapshot());
  return out;
}

size_t MetricsRegistry::size() const {
  MutexGuard guard(mu_);
  return entries_.size();
}

}  // namespace obs
}  // namespace btrim
