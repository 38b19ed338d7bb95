// Per-cluster circuit breaker (closed -> open -> half-open).
//
// PR 1's quarantine reacts AFTER a deployment has burned its whole retry
// budget; the breaker reacts DURING the window in which a cluster goes
// sick.  It keeps a rolling success/failure window plus a windowed latency
// distribution (telemetry::Histogram bucket deltas, the same mechanism the
// SLO watchdog uses) and trips when the failure ratio or the latency
// quantile over the window crosses its threshold:
//
//   closed     every request allowed; outcomes recorded into the window.
//   open       every request short-circuited (the scheduler routes around
//              the cluster); after `openCooldown` the breaker half-opens.
//   half-open  up to `halfOpenProbes` concurrent probe requests pass
//              through; `closeAfterProbes` consecutive probe successes
//              close the breaker, any probe failure re-opens it.
//
// All calls run on the simulation thread (the Dispatcher's control lane);
// the breaker advances its own state from the `now` it is handed, so it
// needs no timers and stays deterministic.  Telemetry (optional) exports
//   edgesim_breaker_state{cluster}              0 closed / 1 open / 2 half
//   edgesim_breaker_transitions_total{cluster,to}
//   edgesim_breaker_short_circuits_total{cluster}
//   edgesim_breaker_latency_seconds{cluster}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/metrics_registry.hpp"

namespace edgesim::overload {

struct BreakerOptions {
  /// Rolling observation window and its slice granularity.
  SimTime window = SimTime::seconds(10.0);
  int slices = 10;
  /// Minimum outcomes in the window before the breaker may trip.
  std::uint64_t minSamples = 8;
  /// Trip when failures / total >= this ratio over the window.
  double failureRatio = 0.5;
  /// Trip when the windowed latency quantile exceeds the threshold;
  /// a non-positive threshold disables the latency trip.
  double latencyQuantile = 0.95;
  double latencyThresholdSeconds = 0.0;
  /// Open -> half-open after this cooldown.
  SimTime openCooldown = SimTime::seconds(5.0);
  /// Concurrent probe requests admitted while half-open.
  int halfOpenProbes = 2;
  /// Consecutive probe successes needed to close again.
  int closeAfterProbes = 2;
};

enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* breakerStateName(BreakerState state);

class CircuitBreaker {
 public:
  CircuitBreaker(std::string cluster, BreakerOptions options,
                 telemetry::MetricsRegistry* telemetry = nullptr);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Current state, advancing open -> half-open when the cooldown elapsed.
  BreakerState state(SimTime now);

  /// Would a request routed to this cluster be admitted right now?  Does
  /// NOT reserve a probe slot (the scheduler asks for every candidate
  /// cluster; only the chosen one actually sends a probe).  Counts a
  /// short-circuit when the answer is no.
  bool allow(SimTime now);

  /// The chosen cluster is being probed while half-open: reserve a slot.
  /// No-op outside half-open.
  void beginProbe(SimTime now);
  /// A begun probe never produced an outcome (e.g. the deployment was
  /// refused by the deploy-token cap): release the slot without judging
  /// the cluster.  No-op outside half-open.
  void cancelProbe(SimTime now);

  /// Outcome of a request routed to this cluster.  In half-open these
  /// settle the probe; in closed they feed the rolling window and may trip
  /// the breaker.
  void recordSuccess(SimTime now, double latencySeconds);
  void recordFailure(SimTime now);

  const std::string& cluster() const { return cluster_; }
  std::uint64_t shortCircuits() const { return shortCircuits_; }
  std::uint64_t timesOpened() const { return timesOpened_; }

  /// Windowed totals (testing / introspection).
  std::uint64_t windowSuccesses(SimTime now);
  std::uint64_t windowFailures(SimTime now);

 private:
  struct Slice {
    std::int64_t index = -1;  // sliceIndex this slot currently holds
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    std::vector<std::uint64_t> latencyBuckets;  // telemetry::Histogram tiling
  };

  std::int64_t sliceIndex(SimTime now) const {
    return now.toNanos() / sliceNanos_;
  }
  Slice& sliceFor(SimTime now);
  void expireSlices(SimTime now);
  void transition(BreakerState to, SimTime now);
  void maybeTrip(SimTime now);
  void clearWindow();

  const std::string cluster_;
  const BreakerOptions options_;
  const std::int64_t sliceNanos_;

  BreakerState state_ = BreakerState::kClosed;
  SimTime openedAt_;
  int probesInFlight_ = 0;
  int probeSuccesses_ = 0;

  std::vector<Slice> slices_;  // ring keyed by sliceIndex % slices
  // The only counts of these outcomes; with telemetry the registry polls
  // them (sim thread only: snapshot there or at quiescence).
  std::uint64_t shortCircuits_ = 0;
  std::uint64_t timesOpened_ = 0;

  // Telemetry handles (null when telemetry is off).
  telemetry::Gauge* stateGauge_ = nullptr;
  telemetry::Counter* toHalfOpen_ = nullptr;
  telemetry::Counter* toClosed_ = nullptr;
  telemetry::Histogram* latencyHist_ = nullptr;
};

}  // namespace edgesim::overload
