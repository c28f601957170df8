// The CTMSP router the paper deferred.
//
// Footnote 5: "If we did not [keep source and destination on one ring] then we would have
// the additional problem of creating a router that could keep up with the data rates that we
// were using. This is possible but has not been implemented." Here it is: a third RT/PC-class
// machine with one Token Ring adapter on each of two rings, forwarding a CTMSP connection
// driver-to-driver — the receive split point on ring A hands the packet (still in, or copied
// out of, the fixed DMA buffer) straight to the ring-B driver's priority queue. No user
// process, no IP, exactly the paper's transfer model applied to forwarding.

#ifndef SRC_CORE_ROUTER_H_
#define SRC_CORE_ROUTER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/scenario.h"
#include "src/dev/media_source.h"
#include "src/fault/fault_plan.h"
#include "src/measure/histogram.h"
#include "src/ring/token_ring.h"
#include "src/sim/simulation.h"
#include "src/testbed/station.h"
#include "src/testbed/stream.h"
#include "src/testbed/topology.h"

namespace ctms {

struct RouterConfig {
  int64_t packet_bytes = 2000;
  SimDuration packet_period = Milliseconds(12);
  // Media class for the forwarded stream (--mix uses the first entry; the router carries
  // one connection). Unset keeps the legacy unclassed stream bit-for-bit.
  std::optional<MediaClass> media_class;
  MemoryKind dma_buffer_kind = MemoryKind::kIoChannelMemory;
  // Forwarding mode: copy the packet into router mbufs between the two drivers (robust,
  // two CPU copies) or pass it zero-copy from rx DMA buffer to the B-side transmit
  // (pointer passing; the rx buffer is held until the B-side DMA has read it).
  bool forward_via_mbufs = true;
  // Store-and-forward router stations in series (rings = chain_hops + 1). 1 is the classic
  // two-ring footnote-5 setup; deeper chains model a multi-bridge campus backbone path.
  int64_t chain_hops = 1;
  SimDuration duration = Seconds(30);
  uint64_t seed = 1;
  FaultPlan faults;  // empty = no injector; runs stay bit-identical to plan-free ones
};

// One store-and-forward stage: the router station between ring k and ring k+1.
struct RouterHopStats {
  std::string station;
  uint64_t forwarded = 0;
  uint64_t queue_drops = 0;       // out-port CTMSP priority-queue overflow
  double cpu_utilization = 0.0;
  // Per-class forward counts keyed by MediaClassId wire value; empty for unclassed
  // traffic. The relay reads the id straight off the packet, no payload parsing.
  std::map<uint8_t, uint64_t> forwarded_by_class;
};

struct RouterReport {
  RouterConfig config;
  uint64_t packets_built = 0;
  uint64_t packets_forwarded = 0;  // onto the final ring (== hops.back().forwarded)
  uint64_t packets_delivered = 0;
  uint64_t packets_lost = 0;
  uint64_t sink_underruns = 0;
  std::vector<ClassQoE> classes;         // the stream's class; empty when unclassed
  std::vector<RouterHopStats> hops;      // one per router station, path order
  std::vector<double> ring_utilization;  // one per ring, path order (hops.size() + 1)
  Histogram end_to_end{"router end-to-end latency"};

  // The classic two-ring view: the flat singletons the report carried before chains
  // existed, now reading the per-hop vectors. Callers of the historical names keep the
  // historical numbers; for deeper chains they read the first hop / the edge rings.
  uint64_t router_queue_drops() const { return hops.empty() ? 0 : hops.front().queue_drops; }
  double router_cpu_utilization() const {
    return hops.empty() ? 0.0 : hops.front().cpu_utilization;
  }
  double ring_a_utilization() const {
    return ring_utilization.empty() ? 0.0 : ring_utilization.front();
  }
  double ring_b_utilization() const {
    return ring_utilization.size() < 2 ? 0.0 : ring_utilization.back();
  }

  bool KeepsUp() const {
    // Each store-and-forward stage holds one packet in flight at the end of the run, plus
    // two endpoints' worth of slack — exactly the historical 3 for the single-hop chain.
    return packets_built > 0 && packets_lost == 0 && sink_underruns == 0 &&
           packets_delivered + 2 + hops.size() >= packets_built;
  }
  std::string Summary() const;
};

class RouterExperiment {
 public:
  explicit RouterExperiment(RouterConfig config);

  RouterExperiment(const RouterExperiment&) = delete;
  RouterExperiment& operator=(const RouterExperiment&) = delete;

  RouterReport Run();

  Simulation& sim() { return topo_.sim(); }
  TokenRing& ring_a() { return topo_.ring(0); }
  TokenRing& ring_b() { return topo_.ring(1); }
  Machine& router_machine() { return routers_.front()->machine(); }
  RingTopology& topology() { return topo_; }

 private:
  RouterConfig config_;
  RingTopology topo_;

  Station* src_ = nullptr;
  // Router k bridges ring k (port 0) and ring k+1 (port 1); one entry per chain hop.
  std::vector<Station*> routers_;
  Station* dst_ = nullptr;

  std::unique_ptr<StreamEndpoints> stream_;
  std::vector<std::unique_ptr<CtmspRelay>> relays_;
};

}  // namespace ctms

#endif  // SRC_CORE_ROUTER_H_
