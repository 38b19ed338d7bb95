// Anti-entropy rule reconciliation: periodically prove that the switch
// flow tables agree with FlowMemory's intended steering state, and repair
// the drift when they do not.
//
// The paper's transparency guarantee (§V) silently assumes the OpenFlow
// control channel is reliable: every FlowMod lands and every FlowRemoved is
// delivered.  Under control-channel loss, outage windows, or a switch
// restart (src/fault kControlChannel* / kSwitchRestart) that assumption
// breaks and the controller's view diverges from reality.  The acked
// FlowMod path (EdgeController) repairs *individual* lost installs; this
// sweeper is the backstop for everything else -- restarts that wipe whole
// tables, FlowRemoved notifications that never arrived, deletes that got
// dropped.
//
// One sweep, per attached switch:
//   1. snapshot the actual table via requestFlowStats (itself lossy: a
//      sweep deadline bounds the wait and lost replies are counted);
//   2. diff redirect entries (priority >= kRedirectPriority) against the
//      entries FlowMemory implies, keyed by (priority, match, actions);
//   3. re-install missing rules through the normal (tracked) install path,
//      refresh the memorized flow's last-seen in lieu of the FlowRemoved
//      that was lost with them, and delete orphan entries no memorized
//      flow explains.
//
// Invariants (see DESIGN.md §14):
//   * sweeps only shrink drift: repairs go through the same install /
//     remove primitives as normal operation, so a fault-free sweep over a
//     converged table is a pure no-op;
//   * after faults stop, tables converge to the intended state within two
//     sweeps (one to observe, one to confirm -- property-tested);
//   * off by default (reconcile_enabled / reconcile_period_ms), and a
//     disabled reconciler contributes zero events, series, or RNG draws.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"

namespace edgesim::core {

struct ReconcilerOptions {
  /// Sweep period.
  SimTime period = SimTime::seconds(1.0);
  /// Give up on a sweep's flow-stats round trips after this long; switches
  /// that did not answer are skipped (counted as stats timeouts).
  SimTime sweepTimeout = SimTime::millis(250);
};

class RuleReconciler {
 public:
  /// The only counts of the sweep outcomes; with telemetry the registry
  /// polls them as the edgesim_reconcile_* series (sim thread only:
  /// snapshot there or at quiescence).
  struct Stats {
    std::uint64_t sweeps = 0;
    std::uint64_t driftMissing = 0;    // memorized flows with lost entries
    std::uint64_t driftOrphans = 0;    // switch entries nothing explains
    std::uint64_t flowsReinstalled = 0;
    std::uint64_t orphansDeleted = 0;
    std::uint64_t flowRemovedResynthesized = 0;
    std::uint64_t statsTimeouts = 0;   // switches that missed the deadline
  };

  RuleReconciler(Simulation& sim, EdgeController& controller,
                 ReconcilerOptions options,
                 telemetry::MetricsRegistry* telemetry,
                 trace::TraceRecorder& trace);
  ~RuleReconciler();

  RuleReconciler(const RuleReconciler&) = delete;
  RuleReconciler& operator=(const RuleReconciler&) = delete;

  /// Arm the periodic sweep (idempotent).
  void start();
  void stop();

  /// Run one sweep immediately (tests / benches); `done` fires when the
  /// sweep settles -- all stats replies processed or the deadline hit.
  /// No-ops (done fires inline) while another sweep is still collecting.
  void sweepNow(std::function<void()> done = nullptr);

  const Stats& stats() const { return stats_; }
  const ReconcilerOptions& options() const { return options_; }

 private:
  struct SweepState {
    std::size_t remaining = 0;
    bool finished = false;
    SimTime startedAt;
    std::uint64_t missing = 0;  // this sweep's drift, for the trace span
    std::uint64_t orphans = 0;
    trace::RequestId rid = 0;
    trace::SpanId span = 0;
    EventHandle deadline;
    std::function<void()> done;
  };

  void sweep(std::function<void()> done);
  void processSwitch(openflow::OpenFlowSwitch& sw,
                     const std::vector<openflow::FlowEntry>& entries,
                     SweepState& state);
  void finishSweep(const std::shared_ptr<SweepState>& state);
  /// Diff key: redirect entries are identified by shape, not cookie --
  /// cookies change on every (re)install, the steering they encode must not.
  static std::string entryKey(const openflow::FlowEntry& entry);

  Simulation& sim_;
  EdgeController& controller_;
  ReconcilerOptions options_;
  trace::TraceRecorder& trace_;
  PeriodicTimer timer_;
  bool sweeping_ = false;
  Stats stats_;
  // Series registered eagerly: the reconciler only exists when enabled, so
  // default runs never see these names.
  telemetry::Histogram* sweepHist_ = nullptr;
};

}  // namespace edgesim::core
