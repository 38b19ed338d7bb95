#include "telemetry/metrics_registry.hpp"

#include <algorithm>
#include <cmath>

namespace edgesim::telemetry {

namespace detail {

std::size_t allocateStripe() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

}  // namespace detail

// ---- Histogram --------------------------------------------------------------

std::vector<std::uint64_t> Histogram::bucketCounts() const {
  std::vector<std::uint64_t> merged(kBuckets, 0);
  for (std::size_t s = 0; s < detail::kStripes; ++s) {
    const Stripe& stripe = stripes_[s];
    for (int b = 0; b < kBuckets; ++b) {
      merged[b] += stripe.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < detail::kStripes; ++s) {
    const Stripe& stripe = stripes_[s];
    for (int b = 0; b < kBuckets; ++b) {
      total += stripe.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::sum() const {
  std::int64_t nanos = 0;
  for (std::size_t s = 0; s < detail::kStripes; ++s) {
    nanos += stripes_[s].sumNanos.load(std::memory_order_relaxed);
  }
  return static_cast<double>(nanos) / 1e9;
}

double Histogram::quantile(double q) const {
  return quantileFromCounts(bucketCounts(), q);
}

double Histogram::bucketLowerBound(int index) {
  if (index <= 0) return 0.0;  // bucket 0 absorbs the underflow
  const int octave = index / kSubBuckets + kMinExp;
  const int sub = index % kSubBuckets;
  return std::ldexp(1.0 + 0.25 * sub, octave);
}

double Histogram::bucketUpperBound(int index) {
  const int octave = index / kSubBuckets + kMinExp;
  const int sub = index % kSubBuckets;
  return std::ldexp(1.0 + 0.25 * (sub + 1), octave);
}

double Histogram::quantileFromCounts(const std::vector<std::uint64_t>& counts,
                                     double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return std::nan("");
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [1, total]; the quantile lives in the bucket where the
  // cumulative count first reaches it.
  const double rank = std::max(1.0, q * static_cast<double>(total));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts[b];
    if (static_cast<double>(cumulative) >= rank) {
      const double lower = bucketLowerBound(static_cast<int>(b));
      const double upper = bucketUpperBound(static_cast<int>(b));
      const double within = (rank - static_cast<double>(before)) /
                            static_cast<double>(counts[b]);
      return lower + (upper - lower) * within;
    }
  }
  return bucketUpperBound(static_cast<int>(counts.size()) - 1);
}

std::uint64_t Histogram::deltaCounts(const std::vector<std::uint64_t>& counts,
                                     std::vector<std::uint64_t>& last,
                                     std::vector<std::uint64_t>& window) {
  if (last.size() != counts.size()) last.assign(counts.size(), 0);
  window.assign(counts.size(), 0);
  std::uint64_t samples = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    window[b] = counts[b] - last[b];
    samples += window[b];
  }
  last = counts;
  return samples;
}

// ---- MetricsRegistry --------------------------------------------------------

std::string MetricsRegistry::seriesKey(const std::string& name,
                                       const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = counters_.try_emplace(seriesKey(name, labels));
  if (inserted) {
    it->second = {name, labels, std::make_unique<Counter>()};
  }
  return *it->second.metric;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = gauges_.try_emplace(seriesKey(name, labels));
  if (inserted) {
    it->second = {name, labels, std::make_unique<Gauge>()};
  }
  return *it->second.metric;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = histograms_.try_emplace(seriesKey(name, labels));
  if (inserted) {
    it->second = {name, labels, std::make_unique<Histogram>()};
  }
  return *it->second.metric;
}

void MetricsRegistry::gaugeFn(const std::string& name, const Labels& labels,
                              std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  polled_[seriesKey(name, labels)] = {name, labels, std::move(fn), nullptr};
}

void MetricsRegistry::counterFn(const std::string& name, const Labels& labels,
                                std::function<std::uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  polled_[seriesKey(name, labels)] = {name, labels, nullptr, std::move(fn)};
}

std::uint64_t MetricsRegistry::counterValue(const std::string& name,
                                            const Labels& labels) const {
  const std::string key = seriesKey(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = polled_.find(key);
      it != polled_.end() && it->second.counter) {
    return it->second.counter();
  }
  const auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second.metric->value();
}

TelemetrySnapshot MetricsRegistry::snapshot(double simTimeSeconds) const {
  std::lock_guard<std::mutex> lock(mutex_);
  TelemetrySnapshot snap;
  snap.sequence = nextSequence_.fetch_add(1, std::memory_order_relaxed);
  snap.simTimeSeconds = simTimeSeconds;

  // Stored and polled series share one namespace per type; merge them in
  // key order.
  std::map<std::string, SnapshotCounter> counters;
  for (const auto& [key, series] : counters_) {
    counters[key] = {series.name, series.labels, series.metric->value()};
  }
  std::map<std::string, SnapshotGauge> gauges;
  for (const auto& [key, series] : gauges_) {
    gauges[key] = {series.name, series.labels,
                   static_cast<double>(series.metric->value())};
  }
  for (const auto& [key, series] : polled_) {
    if (series.counter) {
      counters[key] = {series.name, series.labels, series.counter()};
    } else {
      gauges[key] = {series.name, series.labels, series.gauge()};
    }
  }
  snap.counters.reserve(counters.size());
  for (auto& [key, counter] : counters) {
    snap.counters.push_back(std::move(counter));
  }
  snap.gauges.reserve(gauges.size());
  for (auto& [key, gauge] : gauges) snap.gauges.push_back(std::move(gauge));

  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, series] : histograms_) {
    SnapshotHistogram hist;
    hist.name = series.name;
    hist.labels = series.labels;
    const std::vector<std::uint64_t> counts = series.metric->bucketCounts();
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      if (counts[b] == 0) continue;
      cumulative += counts[b];
      hist.buckets.push_back(
          {Histogram::bucketUpperBound(static_cast<int>(b)), cumulative});
    }
    hist.count = cumulative;
    hist.sum = series.metric->sum();
    snap.histograms.push_back(std::move(hist));
  }
  return snap;
}

}  // namespace edgesim::telemetry
