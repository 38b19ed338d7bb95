// Concurrency suite for the sharded/threaded controller hot path.
//
// Run under ThreadSanitizer (cmake -DEDGESIM_SANITIZE=tsan, ctest
// -L concurrency) -- several tests here are primarily data-race probes:
// they hammer the shared structures from many threads and rely on TSan to
// flag any unsynchronized access, while their functional assertions pin
// the invariants the controller depends on:
//
//   * FlowMemory shards: no lost or duplicated installs, internally
//     consistent lookup snapshots, and exactly-once expiry per flow even
//     when touch() races expire() (the idle-timeout race).
//   * LaneExecutor: per-lane FIFO + mutual exclusion (asserted WITHOUT a
//     lock on the observation buffer, so a serialization bug is a TSan
//     race, not just a flaky ordering check) and cross-lane parallelism.
//   * EdgeController::submitRequest: mixed warm/cold storms resolve every
//     request exactly once, coalesce cold misses into one deployment, and
//     scale the idle service down exactly once afterwards.
//   * TraceRecorder / metrics::Recorder: request-ID allocation, span
//     recording and sample counters stay exact under contention.  These
//     are the regression tests for the formerly unguarded mutable state
//     (`++nextRequest_`, the samples map, the failure counter): on the
//     pre-shard code they fail under TSan and can lose updates.
//   * EdgeController::requestHandover: a handover storm from external
//     threads ping-ponging flows between clusters while warm-path lookups
//     hit the same FlowMemory shards from the worker pool; every callback
//     fires exactly once and the handover books balance exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/testbed.hpp"
#include "util/lane_executor.hpp"
#include "util/log.hpp"

namespace edgesim::core {
namespace {

using namespace timeliterals;

const Endpoint kSvc{Ipv4(203, 0, 113, 10), 80};
const Endpoint kNginxAddr{Ipv4(203, 0, 113, 10), 80};

Ipv4 clientIp(int i) {
  return Ipv4(10, 0, static_cast<std::uint8_t>(2 + i / 200),
              static_cast<std::uint8_t>(1 + i % 200));
}

// ---------------------------------------------------- FlowMemory shards ----

TEST(FlowMemoryConcurrency, ParallelInstallsAreNeitherLostNorDuplicated) {
  FlowMemory memory(60_s, 8);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&memory, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Ipv4 client = clientIp(t * kPerThread + i);
        memory.upsert(client, kSvc, Endpoint(Ipv4(10, 0, 1, 1), 30000),
                      "docker-egs", SimTime::millis(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Distinct keys: every install must land exactly once.
  EXPECT_EQ(memory.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(memory.flowsFor(kSvc, "docker-egs"),
            static_cast<std::size_t>(kThreads) * kPerThread);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    EXPECT_TRUE(memory.lookup(clientIp(i), kSvc).has_value());
  }
}

TEST(FlowMemoryConcurrency, ContendedUpsertOfOneKeyStaysConsistent) {
  FlowMemory memory(60_s, 8);
  constexpr int kThreads = 8;
  const Ipv4 client(10, 0, 2, 1);

  // Each thread repeatedly writes its OWN (instance, cluster) pair; any
  // lookup must observe one of those pairs, never a torn mix.
  std::vector<std::thread> threads;
  std::atomic<int> inconsistent{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Endpoint instance(Ipv4(10, 0, 1, static_cast<std::uint8_t>(t + 1)),
                              static_cast<std::uint16_t>(30000 + t));
      const std::string cluster = "cluster-" + std::to_string(t);
      for (int i = 0; i < 300; ++i) {
        memory.upsert(client, kSvc, instance, cluster, SimTime::millis(i));
        const auto seen = memory.lookup(client, kSvc);
        if (!seen.has_value()) {
          inconsistent.fetch_add(1);
          continue;
        }
        const int writer = seen->instance.port - 30000;
        if (writer < 0 || writer >= kThreads ||
            seen->cluster != "cluster-" + std::to_string(writer) ||
            seen->instance.ip != Ipv4(10, 0, 1,
                                      static_cast<std::uint8_t>(writer + 1))) {
          inconsistent.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(inconsistent.load(), 0);
  EXPECT_EQ(memory.size(), 1u);  // one key, however contended
}

TEST(FlowMemoryConcurrency, ExpiryRaceExpiresEachFlowExactlyOnce) {
  // touch() refreshes under a shared lock while expire() sweeps under the
  // exclusive one: whatever interleaving happens, a flow must end up
  // either expired exactly once or still memorized -- never both, never
  // twice (a double expiry would double the controller's scale-downs).
  FlowMemory memory(100_ms, 8);
  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    memory.upsert(clientIp(i), kSvc, Endpoint(Ipv4(10, 0, 1, 1), 30000),
                  "docker-egs", SimTime::zero());
  }

  std::vector<int> expiredCount(kKeys, 0);
  std::atomic<std::int64_t> logicalMillis{0};
  std::atomic<bool> stop{false};

  // Touchers keep half the keys warm at the advancing logical clock.
  std::vector<std::thread> touchers;
  for (int t = 0; t < 4; ++t) {
    touchers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const SimTime now =
            SimTime::millis(logicalMillis.load(std::memory_order_relaxed));
        for (int i = 0; i < kKeys; i += 2) {
          memory.touch(clientIp(i), kSvc, now);
        }
      }
    });
  }

  // Sweeper: advance the clock and expire concurrently with the touchers.
  for (int round = 1; round <= 40; ++round) {
    logicalMillis.store(round * 10, std::memory_order_relaxed);
    for (const auto& flow : memory.expire(SimTime::millis(round * 10))) {
      for (int i = 0; i < kKeys; ++i) {
        if (flow.client.ip == clientIp(i)) ++expiredCount[i];
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : touchers) thread.join();

  // Final sweep far in the future catches everything still memorized.
  for (const auto& flow : memory.expire(SimTime::seconds(3600.0))) {
    for (int i = 0; i < kKeys; ++i) {
      if (flow.client.ip == clientIp(i)) ++expiredCount[i];
    }
  }
  EXPECT_EQ(memory.size(), 0u);
  // A lost or doubled live-count decrement would leave the scale-down
  // check disagreeing with the flows actually memorized.
  EXPECT_EQ(memory.flowsFor(kSvc, "docker-egs"), memory.size());
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(expiredCount[i], 1) << "flow " << i
                                  << " expired a wrong number of times";
  }
}

// ------------------------------------------------------- LaneExecutor ----

TEST(LaneExecutorTest, SameLaneRunsFifoAndExclusive) {
  LaneExecutor pool(4);
  constexpr int kTasks = 2000;
  // Deliberately unsynchronized: the per-lane serialization guarantee is
  // the only thing keeping this write race-free.  TSan enforces it.
  std::vector<int> order;
  order.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.post(7, [&order, i] { order.push_back(i); });
  }
  pool.drain();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(order[i], i);
}

TEST(LaneExecutorTest, DifferentLanesRunInParallel) {
  LaneExecutor pool(2);
  // Lane 0 blocks until lane 1 has run: only possible if the lanes map to
  // different, concurrently running workers.
  std::promise<void> lane1Ran;
  std::future<void> lane1Future = lane1Ran.get_future();
  std::atomic<bool> lane0Done{false};
  pool.post(0, [&] {
    lane1Future.wait();
    lane0Done.store(true);
  });
  pool.post(1, [&] { lane1Ran.set_value(); });
  pool.drain();
  EXPECT_TRUE(lane0Done.load());
}

TEST(LaneExecutorTest, DrainCoversTransitivelyPostedWork) {
  LaneExecutor pool(3);
  std::atomic<int> executed{0};
  for (int i = 0; i < 10; ++i) {
    pool.post(static_cast<std::uint64_t>(i), [&pool, &executed, i] {
      executed.fetch_add(1);
      pool.post(static_cast<std::uint64_t>(i + 1),
                [&executed] { executed.fetch_add(1); });
    });
  }
  pool.drain();
  EXPECT_EQ(executed.load(), 20);
  EXPECT_GE(pool.tasksExecuted(), 20u);
}

// ----------------------------------------- controller submitRequest ----

TEST(ControllerConcurrency, MixedWarmColdStormResolvesEveryRequestOnce) {
  TestbedOptions options;
  options.seed = 11;
  options.clientCount = 4;  // testbed hosts are irrelevant to submitRequest
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.flowShards = 8;
  options.controller.workers = 4;
  options.controller.memoryIdleTimeout = 60_s;
  options.controller.memoryScanPeriod = 500_ms;
  Testbed bed(options);
  bed.warmImageCache("nginx");
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());

  EdgeController& controller = bed.controller();
  Simulation& sim = bed.sim();

  constexpr int kDrivers = 4;
  constexpr int kClientsPerDriver = 8;
  constexpr int kRoundsPerClient = 5;
  constexpr int kTotal = kDrivers * kClientsPerDriver * kRoundsPerClient;

  std::vector<std::atomic<int>> callbackCount(kTotal);
  std::vector<std::atomic<int>> driverDone(kDrivers);
  std::vector<std::atomic<int>> driverPhase(kDrivers);
  std::atomic<int> completed{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (int round = 0; round < kRoundsPerClient; ++round) {
        for (int c = 0; c < kClientsPerDriver; ++c) {
          const int requestIndex =
              (d * kClientsPerDriver + c) * kRoundsPerClient + round;
          driverPhase[d].store(round * 100 + c * 10 + 1);
          // Round 0 is a cold burst (all drivers race one deployment);
          // later rounds hit the memorized flow on the worker pool.
          controller.submitRequest(
              clientIp(d * kClientsPerDriver + c), kNginxAddr,
              [&, requestIndex, d](Result<Redirect> result) {
                if (!result.ok()) failures.fetch_add(1);
                callbackCount[requestIndex].fetch_add(1);
                driverDone[d].fetch_add(1, std::memory_order_release);
                completed.fetch_add(1);
              });
          driverPhase[d].store(round * 100 + c * 10 + 2);
        }
        // Closed loop: wait for this round's redirects before firing the
        // next, so rounds 1+ find the flow memorized (warm path).
        driverPhase[d].store(round * 100 + 91);
        const int target = (round + 1) * kClientsPerDriver;
        while (driverDone[d].load(std::memory_order_acquire) < target) {
          std::this_thread::yield();
        }
        driverPhase[d].store(round * 100 + 92);
      }
      driverPhase[d].store(9999);
    });
  }

  // The main thread IS the simulation thread: pump the event loop so cold
  // requests (marshalled via postExternal) deploy and resolve.  The
  // waitForExternal pacing matters twice over on a small machine: it yields
  // the CPU to the driver/worker threads, and it stops the simulated clock
  // from racing ahead of the real-time drivers (which would idle-expire the
  // very flows the warm path is about to hit).
  int guard = 0;
  while (completed.load(std::memory_order_acquire) < kTotal) {
    sim.waitForExternal(std::chrono::microseconds(200));
    sim.pump(10_ms);
    ASSERT_LT(++guard, 50000)
        << "requests stalled; " << completed.load() << "/" << kTotal
        << " deployments=" << controller.dispatcher().deploymentsTriggered()
        << " pending=" << controller.dispatcher().pendingDeployments()
        << " warm=" << controller.warmHits()
        << " scaleDowns=" << controller.scaleDowns()
        << " memory=" << controller.flowMemory().size()
        << " simNow=" << sim.now().toSeconds()
        << " packetIns=" << controller.packetInCount()
        << " tasks=" << controller.workerPool()->tasksExecuted()
        << " drivers=" << driverDone[0].load() << "/" << driverDone[1].load()
        << "/" << driverDone[2].load() << "/" << driverDone[3].load()
        << " inFlight=" << controller.workerPool()->tasksInFlight()
        << " phase=" << driverPhase[0].load() << "/" << driverPhase[1].load()
        << "/" << driverPhase[2].load() << "/" << driverPhase[3].load();
  }
  for (auto& thread : drivers) thread.join();
  controller.workerPool()->drain();
  sim.pump(10_ms);  // absorb any trailing posts

  EXPECT_EQ(failures.load(), 0);
  for (int i = 0; i < kTotal; ++i) {
    EXPECT_EQ(callbackCount[i].load(), 1) << "request " << i;
  }
  EXPECT_EQ(controller.packetInCount(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(controller.requestsResolved(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(controller.requestsFailed(), 0u);
  // One service on one edge cluster: however many cold requests raced, the
  // dispatcher's pending table must have coalesced them into one deployment.
  EXPECT_EQ(controller.dispatcher().deploymentsTriggered(), 1u);
  // The warm path answered from FlowMemory on the workers.
  EXPECT_GE(controller.warmHits(),
            static_cast<std::uint64_t>(kTotal - kDrivers * kClientsPerDriver));

  // Everyone idles out: the service must scale down EXACTLY once (a double
  // scale-down is the classic expiry race).
  sim.runUntil(sim.now() + 120_s);
  EXPECT_EQ(controller.scaleDowns(), 1u);
  EXPECT_EQ(controller.flowMemory().size(), 0u);
}

// ----------------------------------------------- handover storm (TSan) ----
//
// Handovers mutate FlowMemory (rebind) on the sim thread while the worker
// pool serves warm lookups on the SAME shards.  This storm ping-pongs every
// client's flow between the EGS and the far edge from external driver
// threads (requestHandover marshals through postExternal, the one
// thread-safe seam) while other drivers hammer submitRequest.  Under TSan a
// rebind/lookup race is a report; functionally, every callback must fire
// exactly once and the accounting must balance exactly.

TEST(ControllerConcurrency, HandoverStormRacesWarmLookupsSafely) {
  TestbedOptions options;
  options.seed = 13;
  options.clientCount = 4;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.farEdge = true;
  options.controller.flowShards = 8;
  options.controller.workers = 4;
  // Effectively never: each stalled pump() below advances sim time 10 ms,
  // so a slow wall-clock interleaving can rack up hundreds of sim seconds
  // and expiry would race the final one-binding-per-client check.
  options.controller.memoryIdleTimeout = 86400_s;
  // The storm ping-pongs every client between the two clusters, so there
  // are moments one cluster holds zero flows; vacated-instance scale-down
  // would then force a real (re-)deploy whose phase timeout can fire under
  // pump-driven sim time, quarantine the cluster, and abort handovers to
  // the cloud.  The test is about warm re-steers racing lookups, so keep
  // both predeployed instances up.
  options.controller.scaleDownIdleServices = false;
  options.controller.memoryScanPeriod = 1_s;
  Testbed bed(options);
  bed.warmImageCache("nginx");
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());

  EdgeController& controller = bed.controller();
  Simulation& sim = bed.sim();

  // Bring up instances on BOTH edge clusters so every handover is a warm
  // re-steer (no deploys to coalesce) ...
  bool farReady = false;
  ASSERT_TRUE(controller
                  .predeploy(kNginxAddr, "docker-far",
                             [&](Result<Endpoint> r) {
                               ASSERT_TRUE(r.ok());
                               farReady = true;
                             })
                  .ok());
  while (!farReady) sim.runUntil(sim.now() + 1_s);

  // ... and memorize one flow per client (cold burst, then quiesce).
  constexpr int kClients = 8;
  std::atomic<int> established{0};
  for (int c = 0; c < kClients; ++c) {
    controller.submitRequest(clientIp(c), kNginxAddr,
                             [&](Result<Redirect> r) {
                               ASSERT_TRUE(r.ok());
                               established.fetch_add(1);
                             });
  }
  int setupGuard = 0;
  while (established.load(std::memory_order_acquire) < kClients) {
    sim.waitForExternal(std::chrono::microseconds(200));
    sim.pump(10_ms);
    ASSERT_LT(++setupGuard, 50000) << "setup stalled";
  }

  constexpr int kHandoverDrivers = 2;
  constexpr int kLookupDrivers = 2;
  constexpr int kRounds = 10;
  constexpr int kHandoverCalls = kHandoverDrivers * kClients * kRounds;
  constexpr int kLookupCalls = kLookupDrivers * kClients * kRounds;

  std::atomic<int> handoverCallbacks{0};
  std::atomic<int> lookupCallbacks{0};
  std::atomic<int> lookupFailures{0};

  std::vector<std::thread> drivers;
  for (int d = 0; d < kHandoverDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (int round = 0; round < kRounds; ++round) {
        // Both drivers ping-pong the same clients in opposite phases, so
        // no-op ("already-on-target"), dedupe ("handover-in-flight") and
        // real re-steers all interleave on the same PendingKey map.
        const bool toFar = (round + d) % 2 == 0;
        for (int c = 0; c < kClients; ++c) {
          controller.requestHandover(
              clientIp(c), kNginxAddr, toFar ? "docker-far" : "docker-egs",
              [&](const HandoverResult&) { handoverCallbacks.fetch_add(1); });
        }
        std::this_thread::yield();
      }
    });
  }
  for (int d = 0; d < kLookupDrivers; ++d) {
    drivers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (int c = 0; c < kClients; ++c) {
          // Warm path: FlowMemory lookup on a pool worker, racing rebinds
          // of the very same shard entries.
          controller.submitRequest(clientIp(c), kNginxAddr,
                                   [&](Result<Redirect> r) {
                                     if (!r.ok()) lookupFailures.fetch_add(1);
                                     lookupCallbacks.fetch_add(1);
                                   });
        }
        std::this_thread::yield();
      }
    });
  }

  int guard = 0;
  while (handoverCallbacks.load(std::memory_order_acquire) < kHandoverCalls ||
         lookupCallbacks.load(std::memory_order_acquire) < kLookupCalls) {
    sim.waitForExternal(std::chrono::microseconds(200));
    sim.pump(10_ms);
    ASSERT_LT(++guard, 50000)
        << "storm stalled; handovers=" << handoverCallbacks.load() << "/"
        << kHandoverCalls << " lookups=" << lookupCallbacks.load() << "/"
        << kLookupCalls << " started=" << controller.handoversStarted()
        << " completed=" << controller.handoversCompleted()
        << " aborted=" << controller.handoversAbortedToCloud();
  }
  for (auto& thread : drivers) thread.join();
  controller.workerPool()->drain();
  sim.pump(10_ms);

  EXPECT_EQ(handoverCallbacks.load(), kHandoverCalls);
  EXPECT_EQ(lookupCallbacks.load(), kLookupCalls);
  EXPECT_EQ(lookupFailures.load(), 0);
  EXPECT_EQ(controller.requestsFailed(), 0u);
  // Exact books: every started handover ended exactly one way.  (No cloud
  // aborts are expected here -- both targets stay healthy -- but the
  // invariant is the 2-way balance, not the split.)
  EXPECT_EQ(controller.handoversStarted(),
            controller.handoversCompleted() +
                controller.handoversAbortedToCloud());
  EXPECT_GT(controller.handoversStarted(), 0u);
  // Every client still holds exactly one consistent binding.
  for (int c = 0; c < kClients; ++c) {
    const auto flow = controller.flowMemory().lookup(clientIp(c), kNginxAddr);
    ASSERT_TRUE(flow.has_value()) << "client " << c;
    EXPECT_TRUE(flow->cluster == "docker-egs" || flow->cluster == "docker-far")
        << flow->cluster;
  }
}

// ------------------------------------ recorder thread-safety probes ----

TEST(RecorderConcurrency, TraceRequestIdsAreUniqueUnderContention) {
  // Regression probe for the unguarded `++nextRequest_`: racing allocators
  // used to be able to hand out duplicate request IDs (and trip TSan).
  trace::TraceRecorder trace;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<trace::RequestId>> ids(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, &ids, t] {
      ids[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) ids[t].push_back(trace.newRequest());
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<trace::RequestId> unique;
  for (const auto& perThread : ids) {
    unique.insert(perThread.begin(), perThread.end());
  }
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(*unique.rbegin(), static_cast<trace::RequestId>(kThreads) *
                                  kPerThread);  // dense: no lost increments
}

TEST(RecorderConcurrency, TraceSpansFromManyThreadsAllSurviveToExport) {
  trace::TraceRecorder trace;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 500;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto rid = trace.newRequest();
        const auto span = trace.beginSpan(rid, "work", "test",
                                          SimTime::millis(i));
        trace.instant(rid, "tick", "test", SimTime::millis(i),
                      {{"thread", std::to_string(t)}});
        trace.endSpan(span, SimTime::millis(i + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(trace.spanCount(), spans.size());
  std::set<trace::SpanId> spanIds;
  for (const auto& span : spans) {
    EXPECT_FALSE(span.open);
    spanIds.insert(span.id);
    const auto* byId = trace.spanById(span.id);
    ASSERT_NE(byId, nullptr);
    EXPECT_EQ(byId->id, span.id);
  }
  EXPECT_EQ(spanIds.size(), spans.size());  // encoded IDs never collide
  EXPECT_EQ(trace.instants().size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(RecorderConcurrency, MetricsSamplesAndFailuresAreNotLost) {
  // Regression probe for the unguarded samples map / failure counter.
  metrics::Recorder recorder;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      const std::string series = "series/" + std::to_string(t % 4);
      for (int i = 0; i < kPerThread; ++i) {
        recorder.addSample(series, static_cast<double>(i));
        if (i % 10 == 0) {
          metrics::RequestRecord record;
          record.series = series;
          record.total = SimTime::millis(i);
          record.success = (t % 2 == 0);
          recorder.add(std::move(record));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::size_t samples = 0;
  for (const auto& name : recorder.seriesNames()) {
    samples += recorder.series(name)->count();
  }
  // addSample contributions plus the successful add() records.
  EXPECT_EQ(samples, static_cast<std::size_t>(kThreads) * kPerThread +
                         (kThreads / 2) * (kPerThread / 10));
  EXPECT_EQ(recorder.totalRecords(),
            static_cast<std::size_t>(kThreads) * (kPerThread / 10));
  EXPECT_EQ(recorder.failureCount(),
            static_cast<std::size_t>(kThreads / 2) * (kPerThread / 10));
}

}  // namespace
}  // namespace edgesim::core
