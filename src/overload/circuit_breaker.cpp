#include "overload/circuit_breaker.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace edgesim::overload {

const char* breakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(std::string cluster, BreakerOptions options,
                               telemetry::MetricsRegistry* telemetry)
    : cluster_(std::move(cluster)),
      options_(options),
      sliceNanos_(std::max<std::int64_t>(
          1, options.window.toNanos() / std::max(1, options.slices))),
      slices_(static_cast<std::size_t>(std::max(1, options.slices))) {
  ES_ASSERT(options_.window > SimTime::zero());
  if (telemetry != nullptr) {
    stateGauge_ = &telemetry->gauge("edgesim_breaker_state",
                                    {{"cluster", cluster_}});
    telemetry->counterFn("edgesim_breaker_transitions_total",
                         {{"cluster", cluster_}, {"to", "open"}},
                         [this] { return timesOpened_; });
    toHalfOpen_ = &telemetry->counter(
        "edgesim_breaker_transitions_total",
        {{"cluster", cluster_}, {"to", "half-open"}});
    toClosed_ = &telemetry->counter("edgesim_breaker_transitions_total",
                                    {{"cluster", cluster_}, {"to", "closed"}});
    telemetry->counterFn("edgesim_breaker_short_circuits_total",
                         {{"cluster", cluster_}},
                         [this] { return shortCircuits_; });
    latencyHist_ = &telemetry->histogram("edgesim_breaker_latency_seconds",
                                         {{"cluster", cluster_}});
  }
}

CircuitBreaker::Slice& CircuitBreaker::sliceFor(SimTime now) {
  const std::int64_t index = sliceIndex(now);
  Slice& slice = slices_[static_cast<std::size_t>(
      index % static_cast<std::int64_t>(slices_.size()))];
  if (slice.index != index) {
    slice.index = index;
    slice.successes = 0;
    slice.failures = 0;
    slice.latencyBuckets.clear();
  }
  return slice;
}

void CircuitBreaker::expireSlices(SimTime now) {
  // A slot whose stored index has fallen out of the window no longer
  // contributes; sliceFor() recycles it on next write.  Invalidate eagerly
  // so windowed reads never see stale outcomes.
  const std::int64_t oldest =
      sliceIndex(now) - static_cast<std::int64_t>(slices_.size()) + 1;
  for (Slice& slice : slices_) {
    if (slice.index >= 0 && slice.index < oldest) slice.index = -1;
  }
}

void CircuitBreaker::clearWindow() {
  for (Slice& slice : slices_) slice.index = -1;
}

void CircuitBreaker::transition(BreakerState to, SimTime now) {
  if (state_ == to) return;
  state_ = to;
  if (stateGauge_ != nullptr) {
    stateGauge_->set(static_cast<std::int64_t>(to));
  }
  switch (to) {
    case BreakerState::kOpen:
      openedAt_ = now;
      ++timesOpened_;
      probesInFlight_ = 0;
      probeSuccesses_ = 0;
      ES_WARN("breaker", "%s: OPEN at t=%.3fs (cooldown %.1fs)",
              cluster_.c_str(), now.toSeconds(),
              options_.openCooldown.toSeconds());
      break;
    case BreakerState::kHalfOpen:
      probesInFlight_ = 0;
      probeSuccesses_ = 0;
      if (toHalfOpen_ != nullptr) toHalfOpen_->add();
      ES_INFO("breaker", "%s: HALF-OPEN at t=%.3fs (probes %d)",
              cluster_.c_str(), now.toSeconds(), options_.halfOpenProbes);
      break;
    case BreakerState::kClosed:
      clearWindow();
      if (toClosed_ != nullptr) toClosed_->add();
      ES_INFO("breaker", "%s: CLOSED at t=%.3fs", cluster_.c_str(),
              now.toSeconds());
      break;
  }
}

BreakerState CircuitBreaker::state(SimTime now) {
  if (state_ == BreakerState::kOpen &&
      now - openedAt_ >= options_.openCooldown) {
    transition(BreakerState::kHalfOpen, now);
  }
  return state_;
}

bool CircuitBreaker::allow(SimTime now) {
  switch (state(now)) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      ++shortCircuits_;
      return false;
    case BreakerState::kHalfOpen:
      if (probesInFlight_ < options_.halfOpenProbes) return true;
      ++shortCircuits_;
      return false;
  }
  return true;
}

void CircuitBreaker::beginProbe(SimTime now) {
  if (state(now) != BreakerState::kHalfOpen) return;
  ++probesInFlight_;
}

void CircuitBreaker::cancelProbe(SimTime now) {
  if (state(now) != BreakerState::kHalfOpen) return;
  probesInFlight_ = std::max(0, probesInFlight_ - 1);
}

void CircuitBreaker::maybeTrip(SimTime now) {
  expireSlices(now);
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::vector<std::uint64_t> latency;
  for (const Slice& slice : slices_) {
    if (slice.index < 0) continue;
    successes += slice.successes;
    failures += slice.failures;
    if (!slice.latencyBuckets.empty()) {
      if (latency.empty()) {
        latency.assign(telemetry::Histogram::kBuckets, 0);
      }
      for (std::size_t i = 0; i < slice.latencyBuckets.size(); ++i) {
        latency[i] += slice.latencyBuckets[i];
      }
    }
  }
  const std::uint64_t total = successes + failures;
  if (total < options_.minSamples) return;
  const double ratio =
      static_cast<double>(failures) / static_cast<double>(total);
  if (ratio >= options_.failureRatio) {
    ES_WARN("breaker", "%s: tripping on failure ratio %.2f (>= %.2f, n=%llu)",
            cluster_.c_str(), ratio, options_.failureRatio,
            static_cast<unsigned long long>(total));
    transition(BreakerState::kOpen, now);
    return;
  }
  if (options_.latencyThresholdSeconds > 0.0 && !latency.empty()) {
    const double q = telemetry::Histogram::quantileFromCounts(
        latency, options_.latencyQuantile);
    if (q > options_.latencyThresholdSeconds) {
      ES_WARN("breaker", "%s: tripping on latency q%.0f=%.3fs (> %.3fs)",
              cluster_.c_str(), options_.latencyQuantile * 100.0, q,
              options_.latencyThresholdSeconds);
      transition(BreakerState::kOpen, now);
    }
  }
}

void CircuitBreaker::recordSuccess(SimTime now, double latencySeconds) {
  if (latencyHist_ != nullptr) latencyHist_->observe(latencySeconds);
  switch (state(now)) {
    case BreakerState::kHalfOpen:
      probesInFlight_ = std::max(0, probesInFlight_ - 1);
      ++probeSuccesses_;
      if (probeSuccesses_ >= options_.closeAfterProbes) {
        transition(BreakerState::kClosed, now);
      }
      return;
    case BreakerState::kOpen:
      // Outcome of a request admitted before the trip: the window was
      // cleared, nothing to feed.
      return;
    case BreakerState::kClosed: {
      Slice& slice = sliceFor(now);
      ++slice.successes;
      if (options_.latencyThresholdSeconds > 0.0) {
        if (slice.latencyBuckets.empty()) {
          slice.latencyBuckets.assign(telemetry::Histogram::kBuckets, 0);
        }
        ++slice.latencyBuckets[static_cast<std::size_t>(
            telemetry::Histogram::bucketIndex(latencySeconds))];
      }
      maybeTrip(now);
      return;
    }
  }
}

void CircuitBreaker::recordFailure(SimTime now) {
  switch (state(now)) {
    case BreakerState::kHalfOpen:
      // A failed probe re-opens immediately; the cooldown restarts.
      transition(BreakerState::kOpen, now);
      return;
    case BreakerState::kOpen:
      return;
    case BreakerState::kClosed: {
      Slice& slice = sliceFor(now);
      ++slice.failures;
      maybeTrip(now);
      return;
    }
  }
}

std::uint64_t CircuitBreaker::windowSuccesses(SimTime now) {
  expireSlices(now);
  std::uint64_t total = 0;
  for (const Slice& slice : slices_) {
    if (slice.index >= 0) total += slice.successes;
  }
  return total;
}

std::uint64_t CircuitBreaker::windowFailures(SimTime now) {
  expireSlices(now);
  std::uint64_t total = 0;
  for (const Slice& slice : slices_) {
    if (slice.index >= 0) total += slice.failures;
  }
  return total;
}

}  // namespace edgesim::overload
