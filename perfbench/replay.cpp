// perfbench -- host cost of replaying the bigFlows-derived trace through an
// unmodified, default-configured core::Testbed (see perfbench/README.md).
//
//   perfbench        --workload NAME --seed N --seconds S --trace 0
//   perfbench_traced --workload NAME --seed N --seconds S --trace 1
//
// Both passes run on one thread with the default ControllerOptions
// (workers = 0) and replay a fixed set of traces derived from --seed as
// often as --seconds allows.  The untraced pass reports the end-to-end
// metrics.  The traced pass steps the event core by hand and times the
// benchmark's own calls into public functions -- Simulation::step(), a
// forwarding ControllerApp in front of the EdgeController, const FlowMemory
// and FlowTable queries, Testbed::requestCatalog -- so it measures each layer
// from outside, without touching src/.
//
// Prints one `perfbench-env {...}` line and, last, the result object.
// Exits 1 when a correctness check fails, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/testbed.hpp"
#include "workload/bigflows.hpp"

#ifdef PERFBENCH_COUNT_ALLOCS
#include "alloc_count.hpp"
using perfbench::Uncounted;
#else
struct Uncounted {};  // the untraced binary counts no allocations
#endif

namespace {

using namespace edgesim;
using Clock = std::chrono::steady_clock;

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) / 2;
}

/// Nearest-rank percentile of an ascending vector.
template <typename T>
T percentile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return T{};
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

// ---- calibration -----------------------------------------------------------

volatile std::uint64_t calibrationSink = 0;

/// Thread CPU seconds of a fixed piece of work of the benchmark's own, of the
/// kind setup does: a heap, hash and ordered maps, small allocations, string
/// formatting.  Host contention slows it about as much as it slows setup and
/// the replay, so setup_s and host_us_per_request are taken relative to it.
/// Every container lives in a preallocated arena, so its cost does not depend
/// on the malloc heap a live Testbed leaves behind.
double calibrationS() {
  // The kernel allocates 1.4 MB; the arena is resident from the first run
  // on and adds a constant 2 MB to peak_rss_mb.
  static std::vector<std::byte> arena(2u << 20);
  const double start = threadCpuSeconds();
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Entry, std::pmr::vector<Entry>, std::greater<>> heap{
      std::greater<>{}, std::pmr::vector<Entry>(&pool)};
  std::pmr::vector<std::uint64_t> boxes(&pool);
  std::pmr::unordered_map<std::uint64_t, std::pmr::string> names(&pool);
  std::pmr::map<std::uint64_t, std::pmr::vector<std::uint32_t>> ordered(&pool);
  std::uint64_t x = 88172645463325252ULL;  // xorshift64 state
  std::uint64_t sum = 0;
  char text[32];
  for (std::uint32_t i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push({x, i});
    boxes.push_back(x);
    std::snprintf(text, sizeof text, "svc-%llu",
                  static_cast<unsigned long long>(x));
    names[x % 4096] = text;
    ordered[x % 1024].push_back(i);
    if (heap.size() > 2048) {
      sum += (sum ^ boxes[heap.top().second]) + names.size();
      heap.pop();
    }
  }
  calibrationSink = sum + ordered.size();
  return threadCpuSeconds() - start;
}

// calibrationS() on the reference machine of perfbench/README.md.  setup_s
// and host_us_per_request are ratios to calibration time times this, so they
// read in seconds of that machine.
constexpr double kCalibrationRefS = 0.0057;

// ---- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t services;
  std::size_t clients;
  std::size_t requests;
  double durationS;
  core::ClusterMode mode;
  /// Traces per run.  The per-request cost differs by up to ~20% from one
  /// trace seed to the next (table sizes, arrival order), so a run averages
  /// over `traces` seeds derived from --seed rather than reporting one.
  std::size_t traces;
};

// Why each one exists is in README.md.  Service and client counts are the
// workload's identity; a different run length would scale `requests` and
// `durationS` together.
constexpr Workload kWorkloads[] = {
    {"hot-services", 42, 20, 85400, 150.0, core::ClusterMode::kDockerOnly, 6},
    {"wide-fanout", 840, 200, 17080, 150.0, core::ClusterMode::kDockerOnly, 3},
    {"cold-churn", 100, 20, 2000, 3600.0, core::ClusterMode::kBoth, 6},
};

/// Seed of the run's trace `index` (0 <= index < Workload::traces).
std::uint64_t traceSeed(std::uint64_t seed, std::size_t index) {
  return seed * 1000 + index;
}

// A replay stops this long after its trace ends: longer than the client's
// 120 s total timeout, so every issued request has its answer by then.
constexpr double kDrainS = 150.0;

// The untraced replay runs in this many equal slices of simulated time, with
// calibrationS() before the first and after each one; see
// host_us_per_request in main().
constexpr std::int64_t kSlices = 20;

const std::string kCatalogKey = "nginx";
const std::string kSeries = "replay";

// ---- traced-pass probes ----------------------------------------------------

/// Everything the traced pass measures from outside the program.
struct LayerProbe {
  std::vector<float> stepUs;
  double stepTotalUs = 0;
  double sweepUs = 0;        // steps during which FlowMemory::size() fell
  double tableExpireUs = 0;  // steps during which FlowTable::size() fell
  double issueUs = 0;        // inside Testbed::requestCatalog
  double packetInUs = 0;
  double flowRemovedUs = 0;
  std::uint64_t packetIns = 0;
  std::size_t flowsPeak = 0;
  std::size_t tablePeak = 0;
  std::size_t pendingPeak = 0;
  std::vector<double> flowsForUs;
  std::vector<double> peekUs;
  std::uint64_t allocations = 0;
  std::uint64_t allocBytes = 0;
};

/// Stands between the switch and the EdgeController and times each call.
/// Installed with ovs().setController(): the switch's expiry timer is
/// already running, so no second timer starts.
class ForwardingApp final : public openflow::ControllerApp {
 public:
  ForwardingApp(core::EdgeController& inner, LayerProbe& probe)
      : inner_(inner), probe_(probe) {}

  void onPacketIn(openflow::OpenFlowSwitch& sw,
                  const openflow::PacketIn& event) override {
    const auto start = Clock::now();
    inner_.onPacketIn(sw, event);
    probe_.packetInUs += micros(Clock::now() - start);
    ++probe_.packetIns;
  }

  void onFlowRemoved(openflow::OpenFlowSwitch& sw,
                     const openflow::FlowRemoved& event) override {
    const auto start = Clock::now();
    inner_.onFlowRemoved(sw, event);
    probe_.flowRemovedUs += micros(Clock::now() - start);
  }

 private:
  core::EdgeController& inner_;
  LayerProbe& probe_;
};

/// Time the const FlowMemory::flowsFor and FlowTable::peek queries against
/// the live state, rotating over services and clients.
void sampleConstQueries(core::Testbed& bed,
                        const std::vector<workload::ServiceLoad>& services,
                        std::size_t sample, LayerProbe& probe) {
  const Endpoint service = services[sample % services.size()].address;
  // The EGS Docker cluster: first in the dispatcher's list in every mode.
  const std::string& cluster =
      bed.controller().dispatcher().adapters().front()->name();
  auto start = Clock::now();
  static_cast<void>(bed.controller().flowMemory().flowsFor(service, cluster));
  probe.flowsForUs.push_back(micros(Clock::now() - start));

  // A SYN from a port no connection uses: the lookup walks the whole table.
  Host& client = bed.client(sample % bed.clientCount());
  const auto& topology = bed.controller().attachedSwitches().at(&bed.ovs());
  const Packet syn =
      makeSyn(client.mac(), Endpoint(client.ip(), 1), service);
  const openflow::FlowTable& table = std::as_const(bed.ovs()).table();
  start = Clock::now();
  static_cast<void>(table.peek(syn, topology.portFor(client.ip())));
  probe.peekUs.push_back(micros(Clock::now() - start));
}

/// Step the event core by hand until the stop event, timing every step.
void steppedRun(core::Testbed& bed,
                const std::vector<workload::ServiceLoad>& services,
                SimTime end, LayerProbe& probe) {
  Simulation& sim = bed.sim();
  const core::FlowMemory& memory = bed.controller().flowMemory();
  const openflow::FlowTable& table = std::as_const(bed.ovs()).table();
  ForwardingApp app(bed.controller(), probe);
  bed.ovs().setController(&app);

  constexpr std::int64_t kSamples = 200;
  const SimTime samplePeriod = SimTime::nanos(end.toNanos() / kSamples);
  SimTime nextSample = samplePeriod;
  std::size_t sample = 0;
#ifdef PERFBENCH_COUNT_ALLOCS
  perfbench::startAllocCounting();
#endif
  while (!sim.stopped()) {
    const std::size_t flowsBefore = memory.size();
    const std::size_t tableBefore = table.size();
    const auto start = Clock::now();
    const bool ran = sim.step();
    const double us = micros(Clock::now() - start);
    if (!ran) break;
    if (probe.stepUs.size() == probe.stepUs.capacity()) {
      [[maybe_unused]] Uncounted growth;
      probe.stepUs.reserve(2 * probe.stepUs.size() + 1024);
    }
    probe.stepUs.push_back(static_cast<float>(us));
    probe.stepTotalUs += us;
    const std::size_t flows = memory.size();
    const std::size_t entries = table.size();
    if (flows < flowsBefore) probe.sweepUs += us;
    if (entries < tableBefore) probe.tableExpireUs += us;
    probe.flowsPeak = std::max(probe.flowsPeak, flows);
    probe.tablePeak = std::max(probe.tablePeak, entries);
    probe.pendingPeak = std::max(probe.pendingPeak, sim.pendingEvents());
    if (sim.now() >= nextSample) {
      [[maybe_unused]] Uncounted queries;
      sampleConstQueries(bed, services, sample++, probe);
      nextSample = nextSample + samplePeriod;
    }
  }
#ifdef PERFBENCH_COUNT_ALLOCS
  const perfbench::AllocTally tally = perfbench::stopAllocCounting();
  probe.allocations = tally.allocations;
  probe.allocBytes = tally.bytes;
#endif
  bed.ovs().setController(&bed.controller());
}

// ---- one replay ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Replay {
  // Setup, in thread CPU seconds.
  double workloadS = 0;
  double testbedS = 0;
  double registerS = 0;
  double scheduleS = 0;
  double setupS() const { return workloadS + testbedS + registerS + scheduleS; }
  double runS = 0;  // thread CPU seconds from the first event to the stop
  std::vector<double> sliceS;  // untraced: thread CPU seconds of each slice
  /// Untraced: each slice's CPU time divided by the mean of the calibration
  /// runs on either side of it, summed, times kCalibrationRefS.
  double scaledRunS = 0;

  std::uint64_t traceRequests = 0;
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t events = 0;
  std::int64_t p50Ns = 0;
  std::int64_t p99Ns = 0;
  std::vector<std::int64_t> okTotalNs;  // ascending
  std::map<std::string, std::uint64_t> errorCauses;
  std::vector<std::string> failures;
  std::vector<Metric> layers;  // traced pass only, in a fixed order

  double hostUsPerRequest() const {
    return share(runS * 1e6, static_cast<double>(issued));
  }
  bool sameOutputs(const Replay& other) const {
    return issued == other.issued && ok == other.ok &&
           errors == other.errors && events == other.events &&
           p50Ns == other.p50Ns && p99Ns == other.p99Ns;
  }
};

struct ClientTally {
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::vector<std::int64_t> okTotalNs;
  std::map<std::string, std::uint64_t> errorCauses;
  LayerProbe* probe = nullptr;
};

bool hasLabel(const telemetry::Labels& labels, const std::string& key,
              const std::string& value) {
  return std::find(labels.begin(), labels.end(), std::pair{key, value}) !=
         labels.end();
}

/// Sum over the counter's series that carry label key=value.
double counterWithLabel(const telemetry::TelemetrySnapshot& snap,
                        const std::string& name, const std::string& key,
                        const std::string& value) {
  std::uint64_t total = 0;
  for (const auto& c : snap.counters) {
    if (c.name == name && hasLabel(c.labels, key, value)) total += c.value;
  }
  return static_cast<double>(total);
}

/// Observations over the histogram's series that carry label key=value.
double histogramCountWithLabel(const telemetry::TelemetrySnapshot& snap,
                               const std::string& name,
                               const std::string& key,
                               const std::string& value) {
  std::uint64_t total = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == name && hasLabel(h.labels, key, value)) total += h.count;
  }
  return static_cast<double>(total);
}

/// Median, in ms, of one deployment phase over every cluster: the per-series
/// cumulative buckets share the registry's fixed bucket grid, so they merge
/// by upper bound.  0 when the phase never ran.
double phaseMedianMs(const telemetry::TelemetrySnapshot& snap,
                     const std::string& phase) {
  std::map<double, std::uint64_t> increments;
  std::uint64_t count = 0;
  for (const auto& h : snap.histograms) {
    if (h.name != "edgesim_deploy_phase_seconds" ||
        !hasLabel(h.labels, "phase", phase)) {
      continue;
    }
    std::uint64_t previous = 0;
    for (const auto& bucket : h.buckets) {
      increments[bucket.upperBound] += bucket.cumulative - previous;
      previous = bucket.cumulative;
    }
    count += h.count;
  }
  if (count == 0) return 0.0;
  const std::uint64_t rank = (count + 1) / 2;
  std::uint64_t seen = 0;
  for (const auto& [bound, n] : increments) {
    seen += n;
    if (seen >= rank) return bound * 1e3;
  }
  // The median lies in the implicit +Inf bucket: report the last finite bound.
  return increments.empty() ? 0.0 : increments.rbegin()->first * 1e3;
}

/// Per-layer metrics of a traced replay, read before the testbed goes away.
std::vector<Metric> layerMetrics(core::Testbed& bed, const LayerProbe& probe,
                                 const Replay& r) {
  std::vector<Metric> m;
  const auto add = [&m](std::string name, auto value, const char* unit) {
    m.push_back({std::move(name), static_cast<double>(value), unit});
  };
  const auto perRequest = [&r](auto count) {
    return share(static_cast<double>(count), static_cast<double>(r.issued));
  };
  const auto snap = bed.telemetry().snapshot(bed.sim().now().toSeconds());
  core::EdgeController& controller = bed.controller();
  core::Dispatcher& dispatcher = controller.dispatcher();
  openflow::OpenFlowSwitch& ovs = bed.ovs();
  const double total = probe.stepTotalUs;

  std::vector<float> steps = probe.stepUs;
  std::sort(steps.begin(), steps.end());
  const std::size_t tail = (steps.size() + 99) / 100;
  double tailUs = 0;
  for (std::size_t i = steps.size() - tail; i < steps.size(); ++i) {
    tailUs += static_cast<double>(steps[i]);
  }
  add("sim.events_per_request", perRequest(r.events), "count/req");
  add("sim.event_us_p50", percentile(steps, 0.50), "us");
  add("sim.event_us_p99", percentile(steps, 0.99), "us");
  add("sim.event_us_max", steps.empty() ? 0.0f : steps.back(), "us");
  add("sim.tail1pct_share", share(tailUs, total), "ratio");
  add("sim.pending_peak", probe.pendingPeak, "count");

  const double hits = counterWithLabel(
      snap, "edgesim_flow_memory_lookups_total", "result", "hit");
  const double misses = counterWithLabel(
      snap, "edgesim_flow_memory_lookups_total", "result", "miss");
  add("flow_memory.live_flows_peak", probe.flowsPeak, "count");
  add("flow_memory.hit_rate", share(hits, hits + misses), "ratio");
  add("flow_memory.evictions",
      snap.counterTotal("edgesim_flow_memory_evictions_total"), "count");
  add("flow_memory.expiring_sweep_share", share(probe.sweepUs, total),
      "ratio");
  add("flow_memory.flows_for_us", median(probe.flowsForUs), "us");

  const auto matched = static_cast<double>(ovs.matchedPackets());
  const auto packetIns = static_cast<double>(ovs.packetInCount());
  add("openflow.packet_ins", packetIns, "count");
  add("openflow.table_misses", ovs.tableMissCount(), "count");
  add("openflow.fast_path_share", share(matched, matched + packetIns),
      "ratio");
  add("openflow.buffer_evictions", ovs.bufferEvictions(), "count");
  add("openflow.table_entries_peak", probe.tablePeak, "count");
  add("openflow.table_expire_share", share(probe.tableExpireUs, total),
      "ratio");
  add("openflow.peek_us", median(probe.peekUs), "us");

  const double warm = histogramCountWithLabel(snap, "edgesim_resolve_seconds",
                                              "path", "warm");
  const double cold = histogramCountWithLabel(snap, "edgesim_resolve_seconds",
                                              "path", "cold");
  add("controller.packet_in_us",
      share(probe.packetInUs, static_cast<double>(probe.packetIns)), "us");
  add("controller.packet_in_share", share(probe.packetInUs, total), "ratio");
  add("controller.flow_removed_share", share(probe.flowRemovedUs, total),
      "ratio");
  add("controller.cold_share", share(cold, warm + cold), "ratio");
  add("controller.scale_downs", controller.scaleDowns(), "count");
  add("controller.flowmods_sent", controller.flowModsSent(), "count");
  add("controller.flowmods_timed_out", controller.flowModsTimedOut(),
      "count");

  double fastDecisions = 0;
  double cloudDecisions = 0;
  for (const core::ClusterAdapter* adapter : dispatcher.adapters()) {
    const auto n = static_cast<double>(
        snap.counterValue("edgesim_scheduler_decisions_total",
                          {{"cluster", adapter->name()}, {"role", "fast"}}));
    fastDecisions += n;
    if (adapter->isCloud()) cloudDecisions += n;
  }
  add("dispatcher.deployments", dispatcher.deploymentsTriggered(), "count");
  add("dispatcher.retries", dispatcher.retries(), "count");
  add("dispatcher.fallbacks", dispatcher.fallbacks(), "count");
  add("dispatcher.cloud_share", share(cloudDecisions, fastDecisions),
      "ratio");
  for (const char* phase : {"pull", "create", "scaleup-cmd", "wait"}) {
    add(std::string("dispatcher.phase_ms_p50.") + phase,
        phaseMedianMs(snap, phase), "ms");
  }

  add("substrate.deploys.docker",
      snap.counterValue("edgesim_deploys_total", {{"cluster", "docker-egs"}}),
      "count");
  add("substrate.deploys.k8s",
      snap.counterValue("edgesim_deploys_total", {{"cluster", "k8s-egs"}}),
      "count");
  const double attributed = probe.packetInUs + probe.flowRemovedUs +
                            probe.issueUs + probe.sweepUs +
                            probe.tableExpireUs;
  add("substrate.residual_share",
      std::max(0.0, 1.0 - share(attributed, total)), "ratio");

  add("net.packets_per_request", perRequest(bed.net().deliveredPackets()),
      "count/req");
  add("net.dropped_packets", bed.net().droppedPackets(), "count");
  add("net.client_issue_share", share(probe.issueUs, total), "ratio");

  add("trace.spans_per_request", perRequest(bed.trace().spanCount()),
      "count/req");
  add("alloc.per_request", perRequest(probe.allocations), "count/req");
  add("alloc.bytes_per_request", perRequest(probe.allocBytes), "B/req");
  return m;
}

enum class Pass {
  kSetupOnly,  // stop before the first simulated event
  kUntraced,
  kTraced,
  kInstrumentationOff,  // untraced, with TestbedOptions tracing/telemetry off
};

Replay replay(const Workload& w, std::uint64_t seed, Pass pass) {
  const bool traced = pass == Pass::kTraced;
  Replay r;
  double mark = threadCpuSeconds();
  const auto lap = [&mark] {
    const double now = threadCpuSeconds();
    const double elapsed = now - mark;
    mark = now;
    return elapsed;
  };

  workload::BigFlowsParams params;
  params.seed = seed;
  params.duration = SimTime::seconds(w.durationS);
  params.targetServices = w.services;
  params.targetRequests = w.requests;
  params.clientCount = w.clients;
  const auto services = workload::generateFilteredServices(params);
  r.workloadS = lap();

  core::TestbedOptions options;
  options.seed = seed;
  options.clientCount = w.clients;
  options.clusterMode = w.mode;
  options.tracing = pass != Pass::kInstrumentationOff;
  options.telemetry = pass != Pass::kInstrumentationOff;
  auto bed = std::make_unique<core::Testbed>(options);
  core::Testbed& b = *bed;
  r.testbedS = lap();

  for (const auto& service : services) {
    if (!b.registerCatalogService(kCatalogKey, service.address).ok()) {
      r.failures.push_back("registration failed for " +
                           service.address.toString());
      return r;
    }
  }
  b.warmImageCache(kCatalogKey);
  r.registerS = lap();

  LayerProbe probe;
  ClientTally tally;
  tally.probe = traced ? &probe : nullptr;
  const auto onAnswer = [&tally](Result<HttpExchange> result) {
    [[maybe_unused]] Uncounted bookkeeping;
    if (!result.ok()) {
      ++tally.errors;
      ++tally.errorCauses[result.error().toString()];
      return;
    }
    ++tally.ok;
    tally.okTotalNs.push_back(result.value().timings.timeTotal().toNanos());
  };
  for (const auto& service : services) {
    for (const auto& [time, clientIp] : service.requests) {
      const std::size_t client = ((clientIp.value & 0xff) - 1) % w.clients;
      b.sim().scheduleAt(time, [&b, &tally, onAnswer, client,
                                address = service.address] {
        ++tally.issued;
        if (tally.probe == nullptr) {
          b.requestCatalog(client, kCatalogKey, address, kSeries, onAnswer);
          return;
        }
        const auto start = Clock::now();
        b.requestCatalog(client, kCatalogKey, address, kSeries, onAnswer);
        tally.probe->issueUs += micros(Clock::now() - start);
      });
      ++r.traceRequests;
    }
  }
  const SimTime end = SimTime::seconds(w.durationS + kDrainS);
  b.sim().scheduleAt(end, [&b] { b.sim().stop(); });
  r.scheduleS = lap();
  if (pass == Pass::kSetupOnly) return r;

  if (traced) {
    steppedRun(b, services, end, probe);
  } else {
    // runUntil() slice by slice dispatches exactly the events run() would;
    // the determinism guard checks that against the stepped traced replay.
    // The calibration runs are not the replay's: lap() drops their time.
    double before = calibrationS();
    lap();
    for (std::int64_t i = 1; i <= kSlices && !b.sim().stopped(); ++i) {
      b.sim().runUntil(SimTime::nanos(end.toNanos() * i / kSlices));
      r.sliceS.push_back(lap());
      const double after = calibrationS();
      r.scaledRunS += r.sliceS.back() / ((before + after) / 2);
      before = after;
      lap();
    }
    r.scaledRunS *= kCalibrationRefS;
  }
  r.runS = lap();
  for (const double slice : r.sliceS) r.runS += slice;

  r.issued = tally.issued;
  r.ok = tally.ok;
  r.errors = tally.errors;
  r.events = b.sim().processedEvents();
  std::sort(tally.okTotalNs.begin(), tally.okTotalNs.end());
  r.p50Ns = percentile(tally.okTotalNs, 0.50);
  r.p99Ns = percentile(tally.okTotalNs, 0.99);
  r.okTotalNs = std::move(tally.okTotalNs);
  r.errorCauses = std::move(tally.errorCauses);

  const core::EdgeController& controller = b.controller();
  const auto str = [](auto n) { return std::to_string(n); };
  if (r.issued != r.traceRequests) {
    r.failures.push_back("issued " + str(r.issued) + " of " +
                         str(r.traceRequests) + " trace requests");
  }
  if (r.ok + r.errors != r.issued) {
    r.failures.push_back("unanswered requests: issued " + str(r.issued) +
                         " != ok " + str(r.ok) + " + errors " +
                         str(r.errors));
  }
  if (r.ok == 0) r.failures.push_back("no request answered OK");
  if (controller.flowModsSent() !=
          controller.flowModsAcked() + controller.flowModsTimedOut() ||
      controller.pendingInstallCount() != 0) {
    r.failures.push_back(
        "flow-mod accounting: sent " + str(controller.flowModsSent()) +
        " != acked " + str(controller.flowModsAcked()) + " + timed out " +
        str(controller.flowModsTimedOut()) + " (pending " +
        str(controller.pendingInstallCount()) + ")");
  }
  if (traced) r.layers = layerMetrics(b, probe, r);
  return r;
}

// ---- output ----------------------------------------------------------------

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) continue;
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += jsonString(metrics[i].name) + ": {\"value\": " +
            jsonNumber(metrics[i].value) + ", \"unit\": " +
            jsonString(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parseArgs(int argc, char** argv, Args& args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* endp = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) return false;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &endp, 10);
      if (value.empty() || *endp != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &endp);
      if (*endp != '\0' || !(args.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return args.workload != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload hot-services|wide-fanout|cold-churn "
                 "--seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
#ifndef PERFBENCH_COUNT_ALLOCS
  if (args.trace) {
    std::fprintf(stderr, "the traced pass runs in perfbench_traced\n");
    return 2;
  }
#endif
  std::printf(
      "perfbench-env {\"compiler\": %s, \"build_type\": %s, "
      "\"cxx_flags\": %s}\n",
      jsonString(PERFBENCH_COMPILER).c_str(),
      jsonString(PERFBENCH_BUILD_TYPE).c_str(),
      jsonString(PERFBENCH_CXX_FLAGS).c_str());

  const Workload& w = *args.workload;
  const auto start = Clock::now();
  const auto elapsedS = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  // Untraced pass: rounds over the run's traces while the next round still
  // ends within --seconds, and at least two, so every trace is repeated.
  // Traced pass: (untraced, traced, instrumentation off) triples cycling over
  // the traces, at least one.
  std::vector<std::vector<Replay>> rounds;
  struct Triple {
    Replay untraced;
    Replay traced;
    Replay off;
  };
  std::vector<Triple> triples;
  // Setup lasts milliseconds, so each replay is followed by a few
  // setup-only passes over its trace, each paired with a calibration run.
  constexpr int kExtraSetups = 8;
  std::vector<double> setups;
  std::vector<double> calibrations;
  std::vector<double> setupRatios;
  // Peak RSS of one replay in a fresh process: later replays of other traces
  // only add allocator fragmentation.
  double peakRss = 0;
  calibrationS();  // the first run faults the arena in
  if (!args.trace) {
    for (;;) {
      const double before = elapsedS();
      std::vector<Replay> round;
      for (std::size_t i = 0; i < w.traces; ++i) {
        const std::uint64_t seed = traceSeed(args.seed, i);
        round.push_back(replay(w, seed, Pass::kUntraced));
        if (peakRss == 0) peakRss = peakRssMb();
        for (int k = 0; k < kExtraSetups; ++k) {
          setups.push_back(replay(w, seed, Pass::kSetupOnly).setupS());
          calibrations.push_back(calibrationS());
          setupRatios.push_back(setups.back() / calibrations.back());
        }
      }
      rounds.push_back(std::move(round));
      const double now = elapsedS();
      if (rounds.size() >= 2 && now + (now - before) > args.seconds) break;
    }
  } else {
    for (std::size_t i = 0;; ++i) {
      const double before = elapsedS();
      const std::uint64_t seed = traceSeed(args.seed, i % w.traces);
      triples.push_back({replay(w, seed, Pass::kUntraced),
                         replay(w, seed, Pass::kTraced),
                         replay(w, seed, Pass::kInstrumentationOff)});
      const double now = elapsedS();
      if (now + (now - before) > args.seconds) break;
    }
  }

  std::vector<const Replay*> all;
  for (const auto& round : rounds) {
    for (const Replay& r : round) all.push_back(&r);
  }
  for (const Triple& t : triples) {
    all.insert(all.end(), {&t.untraced, &t.traced, &t.off});
  }
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> errorCauses;
  for (const Replay* r : all) {
    failures.insert(failures.end(), r->failures.begin(), r->failures.end());
    attempted += r->issued;
    failed += r->errors;
    for (const auto& [cause, n] : r->errorCauses) errorCauses[cause] += n;
  }
  // Determinism guard: a repeated trace, and a traced replay with its
  // forwarding app and probes, must reproduce the simulated outputs.
  for (const auto& round : rounds) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      if (!round[i].sameOutputs(rounds.front()[i]) ||
          round[i].sliceS.size() != rounds.front()[i].sliceS.size()) {
        failures.push_back("simulated outputs differ between repetitions of "
                           "trace " + std::to_string(i));
      }
    }
  }
  for (const Triple& t : triples) {
    if (!t.traced.sameOutputs(t.untraced) ||
        t.traced.layers.size() != triples.front().traced.layers.size()) {
      failures.push_back("traced replay differs from the untraced one");
    }
  }

  const auto medianOf = [](const auto& items, auto field) {
    std::vector<double> values;
    for (const auto& item : items) values.push_back(field(item));
    return median(values);
  };

  // A run that failed its checks reports no figures.
  std::vector<Metric> metrics;
  if (failures.empty() && !args.trace) {
    // The host moves between a fast and a slow state for seconds to minutes
    // at a time, under load from other tenants, and both the program and a
    // calibration kernel slow down with it.  So every slice is timed
    // relative to the calibration runs on either side of it, and a setup
    // relative to the calibration run right after it.
    std::vector<double> roundUs;
    std::vector<double> scaledRoundUs;
    for (const auto& round : rounds) {
      double cpuS = 0;
      double scaledS = 0;
      std::uint64_t issued = 0;
      for (const Replay& r : round) {
        cpuS += r.runS;
        scaledS += r.scaledRunS;
        issued += r.issued;
      }
      roundUs.push_back(share(cpuS * 1e6, static_cast<double>(issued)));
      scaledRoundUs.push_back(share(scaledS * 1e6, static_cast<double>(issued)));
    }
    // Client-side outputs pool the first round.
    std::uint64_t issued = 0;
    std::uint64_t ok = 0;
    std::vector<std::int64_t> okTotalNs;
    for (const Replay& r : rounds.front()) {
      issued += r.issued;
      ok += r.ok;
      okTotalNs.insert(okTotalNs.end(), r.okTotalNs.begin(),
                       r.okTotalNs.end());
    }
    std::sort(okTotalNs.begin(), okTotalNs.end());
    const auto ms = [](std::int64_t ns) {
      return static_cast<double>(ns) / 1e6;
    };
    metrics = {
        {"host_us_per_request", median(scaledRoundUs), "us"},
        {"setup_s", median(setupRatios) * kCalibrationRefS, "s"},
        {"peak_rss_mb", peakRss, "MB"},
        {"client_ok_rate",
         share(static_cast<double>(ok), static_cast<double>(issued)), "ratio"},
        {"sim_p50_ms", ms(percentile(okTotalNs, 0.50)), "sim_ms"},
        {"sim_p99_ms", ms(percentile(okTotalNs, 0.99)), "sim_ms"},
    };
    std::fprintf(stderr, "%s seed %llu: %zu round(s) of %zu traces\n", w.name,
                 static_cast<unsigned long long>(args.seed), rounds.size(),
                 w.traces);
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      std::fprintf(stderr, "  round: %.2f us/request, %.2f scaled\n",
                   roundUs[i], scaledRoundUs[i]);
    }
    std::fprintf(stderr, "  setup: median %.3f ms, calibration median %.3f ms\n",
                 median(setups) * 1e3, median(calibrations) * 1e3);
  } else if (failures.empty()) {
    // Counts repeat exactly for a trace; timings take the median.
    for (std::size_t i = 0; i < triples.front().traced.layers.size(); ++i) {
      Metric metric = triples.front().traced.layers[i];
      metric.value = medianOf(
          triples, [i](const Triple& t) { return t.traced.layers[i].value; });
      metrics.push_back(std::move(metric));
    }
    const auto setupMedian = [&](double Replay::*phase) {
      return medianOf(all, [phase](const Replay* r) { return r->*phase; });
    };
    metrics.push_back({"instrumentation.off_us_per_request",
                       medianOf(triples,
                                [](const Triple& t) {
                                  return t.off.hostUsPerRequest();
                                }),
                       "us"});
    metrics.push_back(
        {"setup.workload_s", setupMedian(&Replay::workloadS), "s"});
    metrics.push_back({"setup.testbed_s", setupMedian(&Replay::testbedS), "s"});
    metrics.push_back(
        {"setup.register_s", setupMedian(&Replay::registerS), "s"});
    metrics.push_back(
        {"setup.schedule_s", setupMedian(&Replay::scheduleS), "s"});
    metrics.push_back({"bench.trace_overhead_share",
                       medianOf(triples,
                                [](const Triple& t) {
                                  return t.traced.runS / t.untraced.runS - 1;
                                }),
                       "ratio"});
    std::fprintf(stderr, "%s seed %llu: %zu traced triple(s)\n", w.name,
                 static_cast<unsigned long long>(args.seed), triples.size());
  }

  for (const auto& [cause, n] : errorCauses) {
    std::fprintf(stderr, "  client error x%llu: %s\n",
                 static_cast<unsigned long long>(n), cause.c_str());
  }
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  printResult(failures.empty(), attempted, failed, metrics);
  return failures.empty() ? 0 : 1;
}
