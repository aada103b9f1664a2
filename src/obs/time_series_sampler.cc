#include "obs/time_series_sampler.h"

#include <cinttypes>
#include <cstdio>

namespace btrim {
namespace obs {

TimeSeriesSampler::TimeSeriesSampler(const MetricsRegistry* registry,
                                     size_t capacity)
    : registry_(registry),
      capacity_(capacity),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_);
}

int64_t TimeSeriesSampler::NowUs() const {
  if (clock_) return clock_();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TimeSeriesSampler::SetClockForTest(ClockFn clock) {
  MutexGuard guard(mu_);
  clock_ = std::move(clock);
}

int64_t TimeSeriesSampler::SampleNow(int64_t marker) {
  // Evaluate the registry outside mu_ so a slow callback never blocks
  // concurrent Samples()/ToJson() readers longer than necessary.
  std::vector<MetricSample> metrics = registry_->Snapshot();
  MutexGuard guard(mu_);
  Sample s;
  s.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  s.wall_us = NowUs();
  s.marker = marker;
  s.metrics = std::move(metrics);
  const size_t slot = static_cast<size_t>(s.seq) % capacity_;
  if (ring_.size() <= slot) {
    ring_.resize(slot + 1);
  }
  ring_[slot] = std::move(s);
  return ring_[slot].seq;
}

std::vector<TimeSeriesSampler::Sample> TimeSeriesSampler::Samples() const {
  MutexGuard guard(mu_);
  std::vector<Sample> out;
  const int64_t taken = next_seq_.load(std::memory_order_relaxed);
  const int64_t capacity = static_cast<int64_t>(capacity_);
  const int64_t first = taken > capacity ? taken - capacity : 0;
  out.reserve(static_cast<size_t>(taken - first));
  for (int64_t seq = first; seq < taken; ++seq) {
    out.push_back(ring_[static_cast<size_t>(seq) % capacity_]);
  }
  return out;
}

std::string TimeSeriesSampler::ToJson() const {
  std::vector<Sample> samples = Samples();
  std::string out = "[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (i > 0) out.append(",\n  ");
    char buf[128];
    snprintf(buf, sizeof(buf),
             "{\"seq\": %" PRId64 ", \"wall_us\": %" PRId64
             ", \"marker\": %" PRId64 ", \"metrics\": ",
             s.seq, s.wall_us, s.marker);
    out.append(buf);
    AppendMetricsJson(&out, s.metrics);
    out.push_back('}');
  }
  out.push_back(']');
  return out;
}

}  // namespace obs
}  // namespace btrim
