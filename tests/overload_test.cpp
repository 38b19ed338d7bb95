// Overload-governor suite: bounded admission, deadline budgets, deploy
// tokens, per-cluster circuit breakers and brownout.
//
// Part of the TSan `concurrency` label: the LaneExecutor shed storms
// hammer bounded admission from many posting threads while workers run,
// so any unsynchronized access in the shed path (eviction under the
// worker lock, completeShed after it) is a TSan race, and the functional
// assertions pin the accounting invariant the controller depends on:
//
//   tasksPosted == tasksExecuted + tasksShed          (LaneExecutor)
//   submitted   == resolved + failed + shed           (EdgeController)
//
// Breaker / governor / budget tests are deterministic sim-thread checks of
// the state machine: closed -> open on failure ratio or latency quantile,
// open -> half-open after cooldown, probe bookkeeping (including
// cancelProbe, the deploy-cap interaction), deploy-token caps refusing
// with kResourceExhausted and degrading to the cloud, budget expiry
// answering a shed degraded redirect while the deployment continues, and
// brownout entry/dwell/exit.  With the governor disabled (the default)
// nothing is constructed -- the parity test pins that.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/testbed.hpp"
#include "fault/fault_plan.hpp"
#include "overload/circuit_breaker.hpp"
#include "overload/governor.hpp"
#include "util/config.hpp"
#include "util/lane_executor.hpp"

namespace edgesim {
namespace {

using namespace timeliterals;
using core::ClusterMode;
using core::Redirect;
using core::Testbed;
using core::TestbedOptions;
using overload::BreakerOptions;
using overload::BreakerState;
using overload::CircuitBreaker;
using overload::OverloadGovernor;
using overload::OverloadOptions;
using overload::ShedReason;

Ipv4 clientIp(int i) {
  return Ipv4(10, 0, static_cast<std::uint8_t>(2 + i / 200),
              static_cast<std::uint8_t>(1 + i % 200));
}

// ------------------------------------------- LaneExecutor admission ----

TEST(LaneExecutorShed, UnboundedQueueNeverSheds) {
  LaneExecutor pool(2);  // legacy ctor: capacity 0
  EXPECT_EQ(pool.queueCapacity(), 0u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.post(static_cast<std::uint64_t>(i), [] {}));
  }
  pool.drain();
  EXPECT_EQ(pool.tasksExecuted(), 100u);
  EXPECT_EQ(pool.tasksShed(), 0u);
}

// Park the pool's single worker on a task that is already DEQUEUED (so it
// occupies no queue slot) and blocks until the returned promise is set.
std::promise<void> blockWorker(LaneExecutor& pool) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> started;
  std::future<void> running = started.get_future();
  pool.post(0, [opened, &started] {
    started.set_value();
    opened.wait();
  });
  running.wait();
  return gate;
}

TEST(LaneExecutorShed, RejectNewestShedsAtCapacityAndFiresOnShed) {
  LaneExecutor pool({/*workers=*/1, /*queueCapacity=*/2,
                     ShedPolicy::kRejectNewest});
  // Block the single worker so posts accumulate in its queue.
  std::promise<void> gate = blockWorker(pool);

  std::atomic<int> executed{0};
  std::atomic<int> shedCallbacks{0};
  int admitted = 0;
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    LaneExecutor::TaskMeta meta;
    meta.onShed = [&shedCallbacks] { shedCallbacks.fetch_add(1); };
    if (pool.post(0, [&executed] { executed.fetch_add(1); }, meta)) {
      ++admitted;
    } else {
      ++rejected;
    }
  }
  // Capacity 2: the first two fit behind the gate task, the rest shed --
  // and the shed callback fires synchronously on the posting thread.
  EXPECT_EQ(admitted, 2);
  EXPECT_EQ(rejected, 4);
  EXPECT_EQ(shedCallbacks.load(), 4);

  gate.set_value();
  pool.drain();
  EXPECT_EQ(executed.load(), 2);
  EXPECT_EQ(pool.tasksShed(), 4u);
  EXPECT_EQ(pool.tasksExecuted(), 3u);  // gate + 2 admitted
  EXPECT_EQ(pool.tasksInFlight(), 0);
}

TEST(LaneExecutorShed, DeadlineAwareEvictsTheNearestSoonerDeadline) {
  LaneExecutor pool({1, 2, ShedPolicy::kDeadlineAware});
  std::promise<void> gate = blockWorker(pool);

  std::vector<int> shedOrder;
  std::atomic<int> ran{0};
  auto meta = [&shedOrder](int id, std::int64_t deadline) {
    LaneExecutor::TaskMeta m;
    m.deadlineNanos = deadline;
    m.onShed = [&shedOrder, id] { shedOrder.push_back(id); };
    return m;
  };
  auto task = [&ran] { ran.fetch_add(1); };

  EXPECT_TRUE(pool.post(0, task, meta(1, 100)));
  EXPECT_TRUE(pool.post(0, task, meta(2, 200)));
  // Queue full.  Incoming deadline 150: task 1 (deadline 100) is nearer
  // AND sooner than 150, so it is evicted and the incoming admitted.
  EXPECT_TRUE(pool.post(0, task, meta(3, 150)));
  EXPECT_EQ(shedOrder, (std::vector<int>{1}));
  // Incoming deadline 50: nearest queued deadline is 150, NOT sooner than
  // 50 -- the incoming task is rejected instead.
  EXPECT_FALSE(pool.post(0, task, meta(4, 50)));
  EXPECT_EQ(shedOrder, (std::vector<int>{1, 4}));

  gate.set_value();
  pool.drain();
  EXPECT_EQ(ran.load(), 2);  // tasks 2 and 3
  EXPECT_EQ(pool.tasksShed(), 2u);
}

TEST(LaneExecutorShed, DeadlineAwareNeverEvictsNoDeadlineTasks) {
  LaneExecutor pool({1, 2, ShedPolicy::kDeadlineAware});
  std::promise<void> gate = blockWorker(pool);

  // Two queued tasks without deadlines: an urgent incoming task cannot
  // evict them and is rejected.
  EXPECT_TRUE(pool.post(0, [] {}));
  EXPECT_TRUE(pool.post(0, [] {}));
  LaneExecutor::TaskMeta urgent;
  urgent.deadlineNanos = 1;
  EXPECT_FALSE(pool.post(0, [] {}, urgent));

  gate.set_value();
  pool.drain();
  EXPECT_EQ(pool.tasksShed(), 1u);
}

// TSan probe: many threads post into bounded queues while the workers run
// and the observer counts sheds; whatever interleaving happens the global
// accounting must balance.
class LaneShedStorm : public ::testing::TestWithParam<int> {};

TEST_P(LaneShedStorm, AccountingBalancesUnderContention) {
  const bool deadlineAware = GetParam() != 0;
  LaneExecutor pool({2, 4, deadlineAware ? ShedPolicy::kDeadlineAware
                                         : ShedPolicy::kRejectNewest});
  std::atomic<std::int64_t> observedSheds{0};
  LaneExecutor::TaskObserver observer;
  observer.onTaskShed = [&observedSheds](std::int64_t) {
    observedSheds.fetch_add(1);
  };
  pool.setTaskObserver(std::move(observer));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> shedCallbacks{0};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected{0};

  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LaneExecutor::TaskMeta meta;
        meta.deadlineNanos = deadlineAware ? (t * kPerThread + i + 1) : 0;
        meta.onShed = [&shedCallbacks] { shedCallbacks.fetch_add(1); };
        if (pool.post(static_cast<std::uint64_t>(i % 8),
                      [&executed] { executed.fetch_add(1); }, meta)) {
          admitted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : posters) thread.join();
  pool.drain();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(admitted.load() + rejected.load(), kTotal);
  // Every posted task either executed or shed -- exactly once.
  EXPECT_EQ(executed.load() + shedCallbacks.load(), kTotal);
  EXPECT_EQ(pool.tasksExecuted() + pool.tasksShed(), kTotal);
  EXPECT_EQ(pool.tasksExecuted(), executed.load());
  EXPECT_EQ(pool.tasksShed(), shedCallbacks.load());
  EXPECT_EQ(observedSheds.load(),
            static_cast<std::int64_t>(pool.tasksShed()));
  EXPECT_EQ(pool.tasksInFlight(), 0);
  // Deadline-aware eviction can shed QUEUED tasks, so rejected (incoming
  // sheds) may undercount total sheds; reject-newest sheds only incoming.
  if (!deadlineAware) {
    EXPECT_EQ(pool.tasksShed(), rejected.load());
  } else {
    EXPECT_GE(pool.tasksShed(), rejected.load());
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, LaneShedStorm, ::testing::Values(0, 1));

// ----------------------------------------------- circuit breaker ----

BreakerOptions fastBreaker() {
  BreakerOptions options;
  options.window = 10_s;
  options.slices = 10;
  options.minSamples = 4;
  options.failureRatio = 0.5;
  options.openCooldown = 5_s;
  options.halfOpenProbes = 1;
  options.closeAfterProbes = 2;
  return options;
}

TEST(CircuitBreakerTest, TripsOnFailureRatioAndShortCircuits) {
  CircuitBreaker breaker("edge", fastBreaker());
  SimTime now = SimTime::seconds(1.0);
  breaker.recordSuccess(now, 0.01);
  breaker.recordSuccess(now, 0.01);
  breaker.recordFailure(now);
  EXPECT_EQ(breaker.state(now), BreakerState::kClosed);  // n=3 < minSamples
  breaker.recordFailure(now);  // ratio 2/4 >= 0.5 -> trip
  EXPECT_EQ(breaker.state(now), BreakerState::kOpen);
  EXPECT_EQ(breaker.timesOpened(), 1u);
  EXPECT_FALSE(breaker.allow(now));
  EXPECT_FALSE(breaker.allow(now));
  EXPECT_EQ(breaker.shortCircuits(), 2u);
}

TEST(CircuitBreakerTest, OutcomesExpireOutOfTheRollingWindow) {
  CircuitBreaker breaker("edge", fastBreaker());
  breaker.recordFailure(SimTime::seconds(1.0));
  breaker.recordFailure(SimTime::seconds(1.0));
  EXPECT_EQ(breaker.windowFailures(SimTime::seconds(1.0)), 2u);
  // 10 s window: by t=20 s the old failures no longer count, so two fresh
  // successes plus two fresh failures cannot reach the old ones.
  EXPECT_EQ(breaker.windowFailures(SimTime::seconds(20.0)), 0u);
  breaker.recordSuccess(SimTime::seconds(20.0), 0.01);
  breaker.recordSuccess(SimTime::seconds(20.0), 0.01);
  breaker.recordSuccess(SimTime::seconds(20.0), 0.01);
  breaker.recordFailure(SimTime::seconds(20.0));
  EXPECT_EQ(breaker.state(SimTime::seconds(20.0)), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, TripsOnLatencyQuantile) {
  BreakerOptions options = fastBreaker();
  options.latencyQuantile = 0.5;
  options.latencyThresholdSeconds = 0.1;
  CircuitBreaker breaker("edge", options);
  const SimTime now = SimTime::seconds(1.0);
  // All successes, but far over the latency threshold.
  breaker.recordSuccess(now, 1.0);
  breaker.recordSuccess(now, 1.0);
  breaker.recordSuccess(now, 1.0);
  EXPECT_EQ(breaker.state(now), BreakerState::kClosed);
  breaker.recordSuccess(now, 1.0);  // minSamples reached
  EXPECT_EQ(breaker.state(now), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, CooldownHalfOpensAndProbesCloseIt) {
  CircuitBreaker breaker("edge", fastBreaker());
  SimTime now = SimTime::seconds(1.0);
  for (int i = 0; i < 4; ++i) breaker.recordFailure(now);
  ASSERT_EQ(breaker.state(now), BreakerState::kOpen);

  now = now + 5_s;  // cooldown elapsed
  EXPECT_EQ(breaker.state(now), BreakerState::kHalfOpen);
  // One probe slot: allowed until reserved, short-circuited after.
  EXPECT_TRUE(breaker.allow(now));
  breaker.beginProbe(now);
  EXPECT_FALSE(breaker.allow(now));
  breaker.recordSuccess(now, 0.01);  // settles the probe: 1/2 successes
  EXPECT_EQ(breaker.state(now), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow(now));
  breaker.beginProbe(now);
  breaker.recordSuccess(now, 0.01);  // 2/2 -> closed, window cleared
  EXPECT_EQ(breaker.state(now), BreakerState::kClosed);
  EXPECT_EQ(breaker.windowFailures(now), 0u);
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker breaker("edge", fastBreaker());
  SimTime now = SimTime::seconds(1.0);
  for (int i = 0; i < 4; ++i) breaker.recordFailure(now);
  now = now + 5_s;
  ASSERT_EQ(breaker.state(now), BreakerState::kHalfOpen);
  breaker.beginProbe(now);
  breaker.recordFailure(now);
  EXPECT_EQ(breaker.state(now), BreakerState::kOpen);
  EXPECT_EQ(breaker.timesOpened(), 2u);
  // Cooldown restarted from the probe failure.
  EXPECT_EQ(breaker.state(now + 4_s), BreakerState::kOpen);
  EXPECT_EQ(breaker.state(now + 5_s), BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, CancelProbeReleasesTheSlotWithoutJudging) {
  CircuitBreaker breaker("edge", fastBreaker());
  SimTime now = SimTime::seconds(1.0);
  for (int i = 0; i < 4; ++i) breaker.recordFailure(now);
  now = now + 5_s;
  ASSERT_EQ(breaker.state(now), BreakerState::kHalfOpen);
  breaker.beginProbe(now);
  EXPECT_FALSE(breaker.allow(now));
  // The probe never produced an outcome (deploy-token refusal): the slot
  // frees up and the breaker stays half-open -- neither closed nor
  // re-opened.
  breaker.cancelProbe(now);
  EXPECT_EQ(breaker.state(now), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow(now));
}

// ---------------------------------------------------- governor ----

OverloadOptions enabledOptions() {
  OverloadOptions options;
  options.enabled = true;
  options.requestBudget = SimTime::zero();
  return options;
}

TEST(OverloadGovernorTest, ShedAccountingByReason) {
  OverloadGovernor governor(enabledOptions());
  governor.noteShed(ShedReason::kQueueFull);
  governor.noteShed(ShedReason::kQueueFull);
  governor.noteShed(ShedReason::kBudgetExpired);
  EXPECT_EQ(governor.shedCount(ShedReason::kQueueFull), 2u);
  EXPECT_EQ(governor.shedCount(ShedReason::kBudgetExpired), 1u);
  EXPECT_EQ(governor.shedCount(ShedReason::kDeployCap), 0u);
  EXPECT_EQ(governor.shedCount(), 3u);
}

TEST(OverloadGovernorTest, DeployTokensCapPerCluster) {
  OverloadOptions options = enabledOptions();
  options.maxDeploysPerCluster = 2;
  OverloadGovernor governor(options);
  EXPECT_TRUE(governor.tryAcquireDeployToken("edge"));
  EXPECT_TRUE(governor.tryAcquireDeployToken("edge"));
  EXPECT_FALSE(governor.tryAcquireDeployToken("edge"));
  // The cap is per cluster.
  EXPECT_TRUE(governor.tryAcquireDeployToken("far-edge"));
  EXPECT_EQ(governor.deployTokensInUse("edge"), 2);
  governor.releaseDeployToken("edge");
  EXPECT_TRUE(governor.tryAcquireDeployToken("edge"));
}

TEST(OverloadGovernorTest, ZeroCapMeansUnlimitedDeploys) {
  OverloadOptions options = enabledOptions();
  options.maxDeploysPerCluster = 0;
  OverloadGovernor governor(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(governor.tryAcquireDeployToken("edge"));
  }
  EXPECT_EQ(governor.deployTokensInUse("edge"), 0);
}

TEST(OverloadGovernorTest, BrownoutEntersOnShedBurstAndDwellsOut) {
  OverloadOptions options = enabledOptions();
  options.brownoutShedThreshold = 4;
  options.brownoutWindow = 1_s;
  options.brownoutMinDwell = 5_s;
  OverloadGovernor governor(options);

  EXPECT_FALSE(governor.brownoutActive(SimTime::seconds(0.0)));
  for (int i = 0; i < 4; ++i) governor.noteShed(ShedReason::kQueueFull);
  EXPECT_TRUE(governor.brownoutActive(SimTime::seconds(0.5)));
  EXPECT_EQ(governor.brownoutEntries(), 1u);
  // No further sheds: the window rolls under the threshold, but the
  // min-dwell keeps brownout active until 5 s after the last over-window.
  EXPECT_TRUE(governor.brownoutActive(SimTime::seconds(2.0)));
  EXPECT_TRUE(governor.brownoutActive(SimTime::seconds(5.0)));
  EXPECT_FALSE(governor.brownoutActive(SimTime::seconds(5.6)));
  EXPECT_EQ(governor.brownoutEntries(), 1u);
}

TEST(OverloadGovernorTest, BreakerVetoesClusterWhenOpen) {
  OverloadOptions options = enabledOptions();
  options.breaker = fastBreaker();
  OverloadGovernor governor(options);
  const SimTime now = SimTime::seconds(1.0);
  EXPECT_TRUE(governor.clusterAllowed("edge", now));
  for (int i = 0; i < 4; ++i) governor.breaker("edge").recordFailure(now);
  EXPECT_FALSE(governor.clusterAllowed("edge", now));
  EXPECT_TRUE(governor.clusterAllowed("other", now));
}

TEST(OverloadOptionsTest, FromConfigParsesEveryKey) {
  Config config;
  config.set("overload_enabled", "true");
  config.set("overload_lane_queue_capacity", "32");
  config.set("overload_shed_policy", "deadline-aware");
  config.set("overload_request_budget_ms", "750");
  config.set("overload_max_deploys_per_cluster", "2");
  config.set("overload_breaker_enabled", "true");
  config.set("overload_breaker_window_ms", "4000");
  config.set("overload_breaker_min_samples", "6");
  config.set("overload_breaker_failure_ratio", "0.25");
  config.set("overload_breaker_latency_threshold_ms", "150");
  config.set("overload_breaker_cooldown_ms", "2500");
  config.set("overload_brownout_shed_threshold", "10");
  config.set("overload_brownout_window_ms", "500");
  config.set("overload_brownout_min_dwell_ms", "3000");

  const OverloadOptions options = OverloadOptions::fromConfig(config);
  EXPECT_TRUE(options.enabled);
  EXPECT_EQ(options.laneQueueCapacity, 32u);
  EXPECT_EQ(options.shedPolicy, "deadline-aware");
  EXPECT_EQ(options.requestBudget, SimTime::millis(750));
  EXPECT_EQ(options.maxDeploysPerCluster, 2);
  EXPECT_TRUE(options.breakerEnabled);
  EXPECT_EQ(options.breaker.window, SimTime::seconds(4.0));
  EXPECT_EQ(options.breaker.minSamples, 6u);
  EXPECT_DOUBLE_EQ(options.breaker.failureRatio, 0.25);
  EXPECT_DOUBLE_EQ(options.breaker.latencyThresholdSeconds, 0.15);
  EXPECT_EQ(options.breaker.openCooldown, SimTime::millis(2500));
  EXPECT_EQ(options.brownoutShedThreshold, 10u);
  EXPECT_EQ(options.brownoutWindow, SimTime::millis(500));
  EXPECT_EQ(options.brownoutMinDwell, SimTime::seconds(3.0));
}

// --------------------------------------- end-to-end request path ----

const Endpoint kNginxAddr{Ipv4(203, 0, 113, 10), 80};

TEST(OverloadEndToEnd, GovernorDisabledByDefaultAndNothingSheds) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.workers = 2;
  Testbed bed(options);
  EXPECT_EQ(bed.governor(), nullptr);
  EXPECT_EQ(bed.controller().workerPool()->queueCapacity(), 0u);

  bed.warmImageCache("nginx");
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(60_s);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok());
  EXPECT_EQ(bed.controller().requestsShed(), 0u);
  EXPECT_EQ(bed.controller().requestsSubmitted(),
            bed.controller().requestsResolved() +
                bed.controller().requestsFailed() +
                bed.controller().requestsShed());
}

TEST(OverloadEndToEnd, QueueFullShedAnswersDegradedCloudRedirect) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.workers = 1;
  options.controller.overload.enabled = true;
  options.controller.overload.laneQueueCapacity = 1;
  options.controller.overload.requestBudget = SimTime::zero();
  options.controller.overload.brownoutShedThreshold = 0;
  Testbed bed(options);
  bed.warmImageCache("nginx");
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  ASSERT_NE(bed.governor(), nullptr);
  EXPECT_EQ(bed.controller().workerPool()->queueCapacity(), 1u);

  core::EdgeController& controller = bed.controller();
  // Block the single worker so the next submit fills the queue and the one
  // after that must shed.
  std::promise<void> gate = blockWorker(*controller.workerPool());

  std::optional<Result<Redirect>> first;
  std::optional<Result<Redirect>> second;
  controller.submitRequest(clientIp(0), kNginxAddr,
                           [&](Result<Redirect> r) { first = std::move(r); });
  controller.submitRequest(clientIp(1), kNginxAddr,
                           [&](Result<Redirect> r) { second = std::move(r); });
  // The shed answer is synchronous on the submitting thread: an immediate
  // degraded redirect to the cloud-hosted instance, no queueing.
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(second->ok());
  EXPECT_TRUE(second->value().shed);
  EXPECT_TRUE(second->value().degraded);
  EXPECT_EQ(second->value().cluster, "cloud");
  EXPECT_EQ(bed.governor()->shedCount(ShedReason::kQueueFull), 1u);

  gate.set_value();
  Simulation& sim = bed.sim();
  int guard = 0;
  while (!first.has_value()) {
    sim.waitForExternal(std::chrono::microseconds(200));
    sim.pump(10_ms);
    ASSERT_LT(++guard, 50000) << "first request stalled";
  }
  controller.workerPool()->drain();
  sim.pump(10_ms);
  EXPECT_TRUE(first->ok());
  EXPECT_FALSE(first->value().shed);

  EXPECT_EQ(controller.requestsSubmitted(), 2u);
  EXPECT_EQ(controller.requestsResolved(), 1u);
  EXPECT_EQ(controller.requestsShed(), 1u);
  EXPECT_EQ(controller.requestsFailed(), 0u);
}

TEST(OverloadEndToEnd, ExpiredBudgetFailsFastToCloudWhileDeployContinues) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.overload.enabled = true;
  // Cold image pull takes sim-seconds; a 100 ms budget always expires.
  options.controller.overload.requestBudget = 100_ms;
  options.controller.overload.brownoutShedThreshold = 0;
  // Keep the memorized flow alive until the end-of-run assertion.
  options.controller.memoryIdleTimeout = 300_s;
  Testbed bed(options);  // no warmImageCache: the pull IS the latency
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());

  core::EdgeController& controller = bed.controller();
  std::optional<Result<Redirect>> got;
  SimTime answeredAt;
  bed.sim().scheduleAt(1_s, [&] {
    controller.submitRequest(clientIp(0), kNginxAddr, [&](Result<Redirect> r) {
      got = std::move(r);
      answeredAt = bed.sim().now();
    });
  });
  bed.sim().runUntil(120_s);

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok());
  EXPECT_TRUE(got->value().shed);
  EXPECT_TRUE(got->value().degraded);
  EXPECT_EQ(got->value().cluster, "cloud");
  // Answered AT the budget, not after the deployment.
  EXPECT_EQ(answeredAt, SimTime::seconds(1.0) + 100_ms);
  EXPECT_EQ(bed.governor()->shedCount(ShedReason::kBudgetExpired), 1u);
  EXPECT_EQ(controller.requestsShed(), 1u);
  EXPECT_EQ(controller.requestsResolved(), 0u);
  // The deployment kept going in the background and memorized the flow for
  // the NEXT request.
  EXPECT_EQ(controller.dispatcher().deploymentsTriggered(), 1u);
  EXPECT_GE(controller.flowMemory().size(), 1u);
}

TEST(OverloadEndToEnd, DeployCapRefusalDegradesToCloudWithoutBreakerBlame) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.overload.enabled = true;
  options.controller.overload.requestBudget = SimTime::zero();
  options.controller.overload.maxDeploysPerCluster = 1;
  options.controller.overload.brownoutShedThreshold = 0;
  Testbed bed(options);
  const Endpoint addr2(Ipv4(203, 0, 113, 11), 80);
  bed.warmImageCache("nginx");
  bed.warmImageCache("asm");
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  ASSERT_TRUE(bed.registerCatalogService("asm", addr2).ok());

  core::EdgeController& controller = bed.controller();
  std::optional<Result<Redirect>> first;
  std::optional<Result<Redirect>> second;
  bed.sim().scheduleAt(1_s, [&] {
    controller.submitRequest(clientIp(0), kNginxAddr,
                             [&](Result<Redirect> r) { first = std::move(r); });
    controller.submitRequest(clientIp(1), addr2,
                             [&](Result<Redirect> r) { second = std::move(r); });
  });
  bed.sim().runUntil(120_s);

  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(first->ok());
  ASSERT_TRUE(second->ok());
  // The first deployment holds the single token; the second service's
  // deployment is refused and the request degrades to the cloud -- but it
  // is RESOLVED (degraded), not shed, and the breaker holds no grudge.
  EXPECT_FALSE(first->value().degraded);
  EXPECT_TRUE(second->value().degraded);
  EXPECT_FALSE(second->value().shed);
  EXPECT_EQ(second->value().cluster, "cloud");
  EXPECT_EQ(bed.governor()->shedCount(ShedReason::kDeployCap), 1u);
  EXPECT_EQ(controller.requestsResolved(), 2u);
  EXPECT_EQ(controller.requestsShed(), 0u);
  EXPECT_EQ(controller.requestsDegraded(), 1u);
  // Tokens drain back once the deployment settles, and docker-egs stays
  // breaker-closed (kResourceExhausted never feeds recordFailure).
  EXPECT_EQ(bed.governor()->deployTokensInUse("docker-egs"), 0);
  EXPECT_TRUE(bed.governor()->clusterAllowed("docker-egs", bed.sim().now()));
}

TEST(OverloadEndToEnd, BreakerOpensUnderInjectedFaultsAndRoutesAround) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.deployRetries = 0;
  options.controller.retryBackoff = 50_ms;
  options.controller.quarantineCooldown = SimTime::zero();  // breaker only
  options.controller.overload.enabled = true;
  options.controller.overload.requestBudget = SimTime::zero();
  options.controller.overload.brownoutShedThreshold = 0;
  options.controller.overload.breaker.window = 60_s;
  options.controller.overload.breaker.minSamples = 2;
  options.controller.overload.breaker.failureRatio = 0.5;
  options.controller.overload.breaker.openCooldown = 300_s;
  Testbed bed(options);

  fault::FaultPlan plan(7);
  fault::FaultSpec spec;
  spec.site = fault::FaultSite::kClusterRpc;
  spec.target = "docker-egs/pull";  // 100% pull failure on the edge
  plan.add(spec);
  bed.injectFaults(plan);

  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  core::EdgeController& controller = bed.controller();

  constexpr int kRequests = 4;
  std::vector<std::optional<Result<Redirect>>> got(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    bed.sim().scheduleAt(SimTime::seconds(1.0 + i * 10.0), [&, i] {
      controller.submitRequest(clientIp(i), kNginxAddr, [&, i](
                                                            Result<Redirect> r) {
        got[i] = std::move(r);
      });
    });
  }
  bed.sim().runUntil(120_s);

  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(got[i].has_value()) << "request " << i;
    ASSERT_TRUE(got[i]->ok()) << "request " << i;
    EXPECT_EQ(got[i]->value().cluster, "cloud") << "request " << i;
  }
  // The first two failed deployments feed the breaker (minSamples 2,
  // ratio 1.0) and trip it; requests 3 and 4 are then routed straight to
  // the cloud at SCHEDULING time -- the cloud is simply the best allowed
  // cluster (not a degraded fallback) and no further deployment happens.
  EXPECT_TRUE(got[0]->value().degraded);
  EXPECT_TRUE(got[1]->value().degraded);
  EXPECT_FALSE(got[2]->value().degraded);
  EXPECT_FALSE(got[3]->value().degraded);
  CircuitBreaker& breaker = bed.governor()->breaker("docker-egs");
  EXPECT_EQ(breaker.state(bed.sim().now()), BreakerState::kOpen);
  EXPECT_GE(breaker.timesOpened(), 1u);
  EXPECT_GE(breaker.shortCircuits(), 1u);
  // The registry polls the breaker's own counts.
  const auto snap = bed.telemetry().snapshot(bed.sim().now().toSeconds());
  EXPECT_EQ(snap.counterValue("edgesim_breaker_transitions_total",
                              {{"cluster", "docker-egs"}, {"to", "open"}}),
            breaker.timesOpened());
  EXPECT_EQ(snap.counterValue("edgesim_breaker_short_circuits_total",
                              {{"cluster", "docker-egs"}}),
            breaker.shortCircuits());
  EXPECT_EQ(controller.dispatcher().deploymentsTriggered(), 2u);
  EXPECT_EQ(controller.requestsResolved(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(controller.requestsShed(), 0u);
}

TEST(OverloadEndToEnd, BrownoutForcesImmediateRedirectsAfterShedBurst) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.overload.enabled = true;
  options.controller.overload.requestBudget = 50_ms;
  options.controller.overload.brownoutShedThreshold = 3;
  options.controller.overload.brownoutWindow = 10_s;
  options.controller.overload.brownoutMinDwell = 30_s;
  Testbed bed(options);  // cold pulls: every budget expires -> sheds
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  core::EdgeController& controller = bed.controller();

  // Three distinct budget-expiry sheds within the window arm brownout...
  std::atomic<int> answered{0};
  for (int i = 0; i < 3; ++i) {
    bed.sim().scheduleAt(SimTime::seconds(1.0 + i * 0.5), [&, i] {
      controller.submitRequest(clientIp(i), kNginxAddr,
                               [&](Result<Redirect>) { answered.fetch_add(1); });
    });
  }
  // ... so this cold request is answered from the cloud IMMEDIATELY (the
  // paper's "without waiting" redirect) instead of waiting out its budget.
  std::optional<Result<Redirect>> fourth;
  SimTime fourthAt;
  bed.sim().scheduleAt(SimTime::seconds(4.0), [&] {
    controller.submitRequest(clientIp(40), kNginxAddr, [&](Result<Redirect> r) {
      fourth = std::move(r);
      fourthAt = bed.sim().now();
    });
  });
  bed.sim().runUntil(120_s);

  EXPECT_EQ(answered.load(), 3);
  EXPECT_EQ(bed.governor()->brownoutEntries(), 1u);
  // The registry polls the governor's own counts.
  const auto snap = bed.telemetry().snapshot(bed.sim().now().toSeconds());
  EXPECT_EQ(snap.counterValue("edgesim_brownout_transitions_total",
                              {{"to", "active"}}),
            bed.governor()->brownoutEntries());
  EXPECT_EQ(snap.counterTotal("edgesim_shed_total"),
            bed.governor()->shedCount());
  ASSERT_TRUE(fourth.has_value());
  ASSERT_TRUE(fourth->ok());
  EXPECT_TRUE(fourth->value().degraded);
  EXPECT_FALSE(fourth->value().shed);  // resolved, just degraded
  EXPECT_EQ(fourth->value().cluster, "cloud");
  EXPECT_EQ(fourthAt, SimTime::seconds(4.0));  // zero sim-time wait
}

}  // namespace
}  // namespace edgesim
