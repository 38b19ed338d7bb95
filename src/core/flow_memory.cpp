#include "core/flow_memory.hpp"

#include <mutex>

#include "util/assert.hpp"

namespace edgesim::core {

FlowMemory::FlowMemory(SimTime idleTimeout, std::size_t shards,
                       telemetry::MetricsRegistry* telemetry)
    : idleTimeout_(idleTimeout) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    if (telemetry != nullptr) {
      const std::string index = std::to_string(i);
      shard->hits = &telemetry->counter("edgesim_flow_memory_lookups_total",
                                        {{"shard", index}, {"result", "hit"}});
      shard->misses = &telemetry->counter(
          "edgesim_flow_memory_lookups_total",
          {{"shard", index}, {"result", "miss"}});
      shard->expirations = &telemetry->counter(
          "edgesim_flow_memory_evictions_total",
          {{"shard", index}, {"reason", "expired"}});
      shard->invalidations = &telemetry->counter(
          "edgesim_flow_memory_evictions_total",
          {{"shard", index}, {"reason", "invalidated"}});
      shard->occupancy =
          &telemetry->gauge("edgesim_flow_memory_flows", {{"shard", index}});
    }
    shards_.push_back(std::move(shard));
  }
}

void FlowMemory::upsert(Ipv4 client, Endpoint service, Endpoint instance,
                        const std::string& cluster, SimTime now) {
  const Key key{client, service};
  Shard& shard = shardFor(key);
  std::unique_lock lock(shard.mutex);
  auto [it, inserted] = shard.flows.try_emplace(key);
  StoredFlow& stored = it->second;
  if (inserted) {
    shard.countLive(service, cluster);
    size_.fetch_add(1, std::memory_order_relaxed);
    if (shard.occupancy != nullptr) shard.occupancy->add(1);
  } else if (stored.cluster != cluster) {
    shard.uncountLive(service, stored.cluster);
    shard.countLive(service, cluster);
  }
  stored.client = Endpoint(client, 0);
  stored.service = service;
  stored.instance = instance;
  stored.cluster = cluster;
  stored.lastSeenNanos.store(now.toNanos(), std::memory_order_relaxed);
}

void FlowMemory::touch(Ipv4 client, Endpoint service, SimTime now) {
  const Key key{client, service};
  Shard& shard = shardFor(key);
  std::shared_lock lock(shard.mutex);
  const auto it = shard.flows.find(key);
  if (it == shard.flows.end()) return;
  // CAS-max: concurrent touches of one flow keep the latest timestamp
  // without ever upgrading to the exclusive lock.
  auto& lastSeen = it->second.lastSeenNanos;
  std::int64_t seen = lastSeen.load(std::memory_order_relaxed);
  const std::int64_t candidate = now.toNanos();
  while (seen < candidate &&
         !lastSeen.compare_exchange_weak(seen, candidate,
                                         std::memory_order_relaxed)) {
  }
}

bool FlowMemory::rebind(Ipv4 client, Endpoint service, Endpoint instance,
                        const std::string& cluster, SimTime now) {
  const Key key{client, service};
  Shard& shard = shardFor(key);
  std::unique_lock lock(shard.mutex);
  const auto it = shard.flows.find(key);
  if (it == shard.flows.end()) return false;
  StoredFlow& stored = it->second;
  if (stored.cluster != cluster) {
    shard.uncountLive(service, stored.cluster);
    shard.countLive(service, cluster);
  }
  stored.instance = instance;
  stored.cluster = cluster;
  stored.lastSeenNanos.store(now.toNanos(), std::memory_order_relaxed);
  return true;
}

std::vector<MemorizedFlow> FlowMemory::flowsForClient(Ipv4 client) const {
  std::vector<MemorizedFlow> flows;
  for (const auto& shardPtr : shards_) {
    const Shard& shard = *shardPtr;
    std::shared_lock lock(shard.mutex);
    for (const auto& [key, flow] : shard.flows) {
      if (key.client == client) flows.push_back(flow.snapshot());
    }
  }
  return flows;
}

std::vector<MemorizedFlow> FlowMemory::snapshot() const {
  std::vector<MemorizedFlow> flows;
  flows.reserve(size());
  for (const auto& shardPtr : shards_) {
    const Shard& shard = *shardPtr;
    std::shared_lock lock(shard.mutex);
    for (const auto& [key, flow] : shard.flows) {
      flows.push_back(flow.snapshot());
    }
  }
  return flows;
}

std::optional<MemorizedFlow> FlowMemory::lookup(Ipv4 client,
                                                Endpoint service) const {
  const Key key{client, service};
  const Shard& shard = shardFor(key);
  std::shared_lock lock(shard.mutex);
  const auto it = shard.flows.find(key);
  if (it == shard.flows.end()) {
    if (shard.misses != nullptr) shard.misses->add();
    return std::nullopt;
  }
  if (shard.hits != nullptr) shard.hits->add();
  return it->second.snapshot();
}

std::vector<MemorizedFlow> FlowMemory::expire(SimTime now) {
  std::vector<MemorizedFlow> expired;
  for (auto& shardPtr : shards_) {
    Shard& shard = *shardPtr;
    std::unique_lock lock(shard.mutex);
    for (auto it = shard.flows.begin(); it != shard.flows.end();) {
      const SimTime lastSeen = SimTime::nanos(
          it->second.lastSeenNanos.load(std::memory_order_relaxed));
      if (now - lastSeen >= idleTimeout_) {
        expired.push_back(it->second.snapshot());
        it = erase(shard, it, shard.expirations);
      } else {
        ++it;
      }
    }
  }
  return expired;
}

void FlowMemory::forgetInstance(Endpoint instance) {
  for (auto& shardPtr : shards_) {
    Shard& shard = *shardPtr;
    std::unique_lock lock(shard.mutex);
    for (auto it = shard.flows.begin(); it != shard.flows.end();) {
      if (it->second.instance == instance) {
        it = erase(shard, it, shard.invalidations);
      } else {
        ++it;
      }
    }
  }
}

void FlowMemory::forgetServiceExcept(Endpoint service,
                                     const std::string& keepCluster) {
  for (auto& shardPtr : shards_) {
    Shard& shard = *shardPtr;
    std::unique_lock lock(shard.mutex);
    for (auto it = shard.flows.begin(); it != shard.flows.end();) {
      if (it->second.service == service && it->second.cluster != keepCluster) {
        it = erase(shard, it, shard.invalidations);
      } else {
        ++it;
      }
    }
  }
}

std::size_t FlowMemory::flowsFor(Endpoint service,
                                 const std::string& cluster) const {
  const LiveKey key{service, cluster};
  std::size_t count = 0;
  for (const auto& shardPtr : shards_) {
    const Shard& shard = *shardPtr;
    std::shared_lock lock(shard.mutex);
    const auto it = shard.live.find(key);
    if (it != shard.live.end()) count += it->second;
  }
  return count;
}

void FlowMemory::Shard::countLive(const Endpoint& service,
                                  const std::string& cluster) {
  ++live[LiveKey{service, cluster}];
}

void FlowMemory::Shard::uncountLive(const Endpoint& service,
                                    const std::string& cluster) {
  const auto it = live.find(LiveKey{service, cluster});
  ES_ASSERT_MSG(it != live.end(),
                "FlowMemory: uncounting a pair with no live flow");
  if (--it->second == 0) live.erase(it);
}

FlowMemory::FlowMap::iterator FlowMemory::erase(Shard& shard,
                                                FlowMap::iterator it,
                                                telemetry::Counter* reason) {
  shard.uncountLive(it->second.service, it->second.cluster);
  size_.fetch_sub(1, std::memory_order_relaxed);
  if (reason != nullptr) reason->add();
  if (shard.occupancy != nullptr) shard.occupancy->add(-1);
  return shard.flows.erase(it);
}

}  // namespace edgesim::core
