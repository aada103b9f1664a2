"""The computations behind perfbench's numbers.

Reporting rules (see definition.json):
  * a timing is reported as a median and a p99, each with its sample count;
  * a percentile counts as supported only when at least MIN_BEYOND samples
    lie beyond it; an unsupported one is printed as n/a and exported as 0;
  * a ratio is printed with its numerator and denominator.

Registry snapshots are the engine's metrics export (a JSON array of
{"name", "type", "labels", "value"} objects; histograms carry "total",
"sum_us" and "buckets": [[upper_us, count], ...], bucket i covering
[upper/2, upper) and the first bucket [0, 2)). Metrics are summed over
their label sets.
"""

import math
import statistics

MIN_BEYOND = 10


def beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - max(1, math.ceil(q * n)) if n else 0


def supported(n, q):
    return beyond(n, q) >= MIN_BEYOND


def percentile(sorted_values, q):
    """Nearest-rank q-quantile of an ascending list (None when empty)."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Timing:
    """Median and p99 of latency samples (microseconds)."""

    def __init__(self, samples):
        self.values = sorted(samples)
        self.n = len(self.values)

    def at(self, q):
        """The q-quantile, or None when fewer than MIN_BEYOND lie beyond."""
        return percentile(self.values, q) if supported(self.n, q) else None


class Ratio:
    """num / den, kept with its base so it can be printed with it."""

    def __init__(self, num, den):
        self.num, self.den = num, den

    @property
    def value(self):
        return self.num / self.den if self.den else 0.0

    def base(self):
        return f"{fmt(self.num)} / {fmt(self.den)}"


def fmt(x):
    if isinstance(x, int) or (isinstance(x, float) and x.is_integer()
                              and abs(x) < 1e15):
        return str(int(x))
    return f"{x:.6g}"


def median(values):
    return statistics.median(values) if values else 0.0


class Histogram:
    """A registry histogram: bucket upper bound (us) -> count."""

    def __init__(self, buckets=None, sum_us=0):
        self.buckets = dict(buckets or {})
        self.sum_us = sum_us

    @property
    def total(self):
        return sum(self.buckets.values())

    def minus(self, other):
        keys = set(self.buckets) | set(other.buckets)
        return Histogram({k: self.buckets.get(k, 0) - other.buckets.get(k, 0)
                          for k in keys}, self.sum_us - other.sum_us)

    def at(self, q):
        """q-quantile interpolated linearly inside its bucket, or None when
        fewer than MIN_BEYOND samples lie beyond it."""
        total = self.total
        if not supported(total, q):
            return None
        target = max(1, math.ceil(q * total))
        seen = 0
        for upper in sorted(self.buckets):
            count = self.buckets[upper]
            if count <= 0:
                continue
            if seen + count >= target:
                lower = 0 if upper <= 2 else upper / 2
                return lower + (upper - lower) * (target - seen) / count
            seen += count
        return None


class Registry:
    """One registry snapshot, aggregated by metric name."""

    def __init__(self, samples):
        self.values = {}
        self.hists = {}
        for m in samples:
            name = m["name"]
            if m["type"] == "histogram":
                h = self.hists.setdefault(name, Histogram())
                for upper, count in m.get("buckets", []):
                    h.buckets[upper] = h.buckets.get(upper, 0) + count
                h.sum_us += m.get("sum_us", 0)
            else:
                self.values[name] = self.values.get(name, 0) + m["value"]

    def value(self, name):
        return self.values.get(name, 0)

    def hist(self, name):
        return self.hists.get(name, Histogram())


class Delta:
    """Counter and histogram deltas between two snapshots; gauges read at
    the end snapshot."""

    def __init__(self, start, end):
        self.start, self.end = start, end

    def count(self, name):
        return self.end.value(name) - self.start.value(name)

    def gauge(self, name):
        return self.end.value(name)

    def hist(self, name):
        return self.end.hist(name).minus(self.start.hist(name))
