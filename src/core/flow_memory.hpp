// FlowMemory (§V): the controller-side memory of installed redirect flows.
//
// The switch keeps *short* idle timeouts (cheap tables); the controller
// memorizes each flow so a returning client is redirected to the same
// instance without rescheduling.  Memorized flows carry their own, longer
// idle timeout; expiry both forgets stale clients and is the trigger for
// scaling down idle edge service instances.
//
// Concurrency model: the table is partitioned into `shards` independent
// sub-maps keyed by hash(client, service), each behind its own
// std::shared_mutex (striped locks).  The warm path -- lookup() + touch()
// on every remembered packet-in -- takes only the shard's SHARED lock;
// touch() refreshes last-seen with a CAS-max on an atomic, so concurrent
// readers never serialize against each other and never take a write lock.
// Mutations (upsert, rebind, expire, forget*) take the shard's exclusive
// lock.  Each shard also keeps a live count per (service, cluster), updated
// by every mutation under that same lock, so flowsFor() -- the scale-down
// check -- sums one hash entry per shard instead of scanning every flow.
//
// Determinism: with shards == 1 (the default) every operation hits one
// unordered_map through the exact op sequence of the pre-shard layout, so
// expire()'s iteration order -- and therefore scale-down order and traces
// -- is bit-identical to the single-threaded seed.  Sharded configurations
// iterate shards in index order, which is deterministic for a fixed shard
// count but groups flows differently; the determinism suite pins both.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/addr.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics_registry.hpp"

namespace edgesim::core {

struct MemorizedFlow {
  Endpoint client;    // client IP + source port is NOT part of the key;
                      // the client is identified by IP (port field unused)
  Endpoint service;   // registered service address
  Endpoint instance;  // chosen instance endpoint
  std::string cluster;
  SimTime lastSeen;
};

class FlowMemory {
 public:
  struct Key {
    Ipv4 client;
    Endpoint service;
    bool operator==(const Key&) const = default;
  };

  /// `telemetry` (optional) registers per-shard occupancy / hit / miss /
  /// eviction series; handles are resolved here once so the warm path only
  /// pays striped relaxed increments.
  explicit FlowMemory(SimTime idleTimeout, std::size_t shards = 1,
                      telemetry::MetricsRegistry* telemetry = nullptr);

  /// Record or refresh a flow.  Takes the shard's exclusive lock.
  void upsert(Ipv4 client, Endpoint service, Endpoint instance,
              const std::string& cluster, SimTime now);

  /// Refresh the last-seen time (e.g. on switch flow-removed with recent
  /// traffic, or on packet-in from a remembered client).  Warm path:
  /// shared lock + CAS-max, never blocks other readers.
  void touch(Ipv4 client, Endpoint service, SimTime now);

  /// Snapshot of the memorized flow, or nullopt.  Warm path: shared lock.
  std::optional<MemorizedFlow> lookup(Ipv4 client, Endpoint service) const;

  /// Drop flows idle for >= idleTimeout; returns the expired flows in
  /// shard order.  Exclusive lock per shard, taken one shard at a time.
  std::vector<MemorizedFlow> expire(SimTime now);

  /// Re-point an EXISTING flow at a new instance/cluster without touching
  /// its identity -- the handover path: the client keeps talking to the
  /// registered service address while the controller re-steers the flow.
  /// Returns false when no flow is memorized for (client, service) -- e.g.
  /// it expired while the handover was deploying the target instance.
  /// Takes the shard's exclusive lock.
  bool rebind(Ipv4 client, Endpoint service, Endpoint instance,
              const std::string& cluster, SimTime now);

  /// Snapshot of every flow memorized for `client`, in shard order; the
  /// handover trigger enumerates these when the client's attachment moves.
  std::vector<MemorizedFlow> flowsForClient(Ipv4 client) const;

  /// Snapshot of EVERY memorized flow, in shard order: the controller's
  /// intended steering state, which the RuleReconciler diffs against the
  /// switch tables.  Shared lock per shard, one shard at a time.
  std::vector<MemorizedFlow> snapshot() const;

  /// Forget all flows pointing at `instance` (e.g. instance scaled down).
  void forgetInstance(Endpoint instance);

  /// Forget all flows for `service` that do NOT point at `keepCluster` --
  /// used when a BEST deployment becomes ready (§IV-A2): clients re-resolve
  /// and land on the optimal cluster at their next flow setup.
  void forgetServiceExcept(Endpoint service, const std::string& keepCluster);

  /// Number of live flows referring to (service, cluster); the scale-down
  /// policy keys off this reaching zero.  O(shards): sums each shard's live
  /// count under its shared lock.
  std::size_t flowsFor(Endpoint service, const std::string& cluster) const;

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  SimTime idleTimeout() const { return idleTimeout_; }

  std::size_t shardCount() const { return shards_.size(); }
  /// Stable shard index for (client, service) -- the controller uses this
  /// as the LaneExecutor lane key so same-flow requests stay ordered.
  std::size_t shardIndex(Ipv4 client, Endpoint service) const {
    return KeyHash{}(Key{client, service}) % shards_.size();
  }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      const auto h1 = std::hash<Ipv4>{}(key.client);
      const auto h2 = std::hash<Endpoint>{}(key.service);
      return h1 ^ (h2 * 0x9e3779b97f4a7c15ULL);
    }
  };

  /// Map value: immutable routing fields plus the touch()-refreshed
  /// last-seen nanos.  The atomic lets the warm path refresh under a
  /// SHARED lock; all fields besides lastSeenNanos are only written under
  /// the shard's exclusive lock.
  struct StoredFlow {
    Endpoint client;
    Endpoint service;
    Endpoint instance;
    std::string cluster;
    std::atomic<std::int64_t> lastSeenNanos;

    MemorizedFlow snapshot() const {
      return MemorizedFlow{
          client, service, instance, cluster,
          SimTime::nanos(lastSeenNanos.load(std::memory_order_relaxed))};
    }
  };

  using FlowMap = std::unordered_map<Key, StoredFlow, KeyHash>;
  using LiveKey = std::pair<Endpoint, std::string>;  // (service, cluster)
  struct LiveKeyHash {
    std::size_t operator()(const LiveKey& key) const noexcept {
      const auto h1 = std::hash<Endpoint>{}(key.first);
      const auto h2 = std::hash<std::string>{}(key.second);
      return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
    }
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    FlowMap flows;
    /// Invariant: live[{s, c}] == number of `flows` entries with service s
    /// and cluster c.  Pairs with no live flow have no entry.
    std::unordered_map<LiveKey, std::size_t, LiveKeyHash> live;
    void countLive(const Endpoint& service, const std::string& cluster);
    /// Aborts when the pair has no live count: a bookkeeping bug.
    void uncountLive(const Endpoint& service, const std::string& cluster);
    // Telemetry handles (null when telemetry is off).  The counters stripe
    // internally, so the shared-lock warm path can bump them without
    // serializing against other readers of this shard.
    telemetry::Counter* hits = nullptr;
    telemetry::Counter* misses = nullptr;
    telemetry::Counter* expirations = nullptr;
    telemetry::Counter* invalidations = nullptr;
    telemetry::Gauge* occupancy = nullptr;
  };

  Shard& shardFor(const Key& key) {
    return *shards_[KeyHash{}(key) % shards_.size()];
  }
  const Shard& shardFor(const Key& key) const {
    return *shards_[KeyHash{}(key) % shards_.size()];
  }

  /// Erase one flow under the shard's exclusive lock, keeping size, live
  /// counts and telemetry in step; `reason` is the eviction counter to bump.
  FlowMap::iterator erase(Shard& shard, FlowMap::iterator it,
                          telemetry::Counter* reason);

  SimTime idleTimeout_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace edgesim::core
