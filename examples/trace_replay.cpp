// trace_replay -- replaying the bigFlows-derived workload (figs. 9/10)
// against the full testbed: 42 registered edge services, 1708 requests over
// five minutes from 20 clients, every service deployed on demand at its
// first request.
//
//   $ ./trace_replay
#include <algorithm>
#include <cstdio>

#include "core/testbed.hpp"
#include "workload/bigflows.hpp"

using namespace edgesim;
using namespace edgesim::core;

int main() {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);

  // One nginx-shaped edge service per trace destination.
  const auto services =
      workload::generateFilteredServices(workload::BigFlowsParams{});
  std::size_t generated = 0;
  SimTime lastRequest;
  for (const auto& service : services) {
    generated += service.requestCount();
    for (const auto& [time, clientIp] : service.requests) {
      lastRequest = std::max(lastRequest, time);
    }
  }
  std::printf("trace: %zu services, %zu requests over 5 minutes\n",
              services.size(), generated);

  for (const auto& service : services) {
    if (!bed.registerCatalogService("nginx", service.address).ok()) {
      std::fprintf(stderr, "registration failed for %s\n",
                   service.address.toString().c_str());
      return 1;
    }
  }
  bed.warmImageCache("nginx");

  // Schedule every request at its trace time from its trace client.
  for (const auto& service : services) {
    for (const auto& [time, clientIp] : service.requests) {
      const std::size_t clientIndex = (clientIp.value & 0xff) - 1;
      bed.sim().scheduleAt(time, [&bed, clientIndex, address = service.address] {
        bed.requestCatalog(clientIndex % bed.clientCount(), "nginx", address,
                           "replay");
      });
    }
  }

  // Drain: a client gives up on a request after its total timeout, so by
  // then every request issued by the trace has an outcome.
  bed.sim().runUntil(lastRequest + RequestOptions{}.totalTimeout);

  const auto* replay = bed.recorder().series("replay");
  if (replay == nullptr) {
    std::fprintf(stderr, "no requests recorded\n");
    return 1;
  }
  std::printf("completed %zu/%zu requests (%zu failed)\n", replay->count(),
              generated, bed.recorder().failureCount());
  std::printf("response time: median %.4f s, p95 %.4f s, max %.4f s\n",
              replay->median(), replay->p95(), replay->max());
  std::printf("deployments triggered on demand: %llu\n",
              static_cast<unsigned long long>(
                  bed.controller().dispatcher().deploymentsTriggered()));
  std::printf("packet-ins handled by the controller: %llu\n",
              static_cast<unsigned long long>(
                  bed.controller().packetInCount()));
  return 0;
}
