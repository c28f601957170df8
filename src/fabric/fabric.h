// The sharded multi-ring campus fabric — the scale-out answer to ROADMAP's "millions of
// users" north star, built from the pieces earlier PRs put in place: one slab/wheel event
// core per ring (PR 4), the campaign determinism contract (PR 5), and the packet journey
// recorder (PR 6).
//
// A Fabric owns N ring shards. Each shard is a complete RingTopology — its own Simulation,
// event core, Token Ring, stations, background traffic — so shards share no mutable state.
// Shards are joined by latency-bounded inter-ring links: a bridge station on each side
// captures CTMSP packets addressed to it (CtmspTap) and the fabric re-injects them on the
// far shard `link_latency` later, addressed to the next bridge on the route (or the
// destination sink).
//
// Synchronization is conservative-lookahead (Chandy–Misra–Bryant flavored). Rounds:
//   1. Compute each shard's safe horizon
//        H_i = min(duration, min over incident links (clock_j + link_latency))
//      from the clock snapshot — a neighbor can send nothing that arrives before that.
//   2. Run every shard's window Simulation::RunUntilBefore(H_i), in shard order.
//   3. Drain outboxes in fixed order (shard, then capture order) and schedule the arrivals
//      with At(arrival) on the receiving shards.
// Causality: a packet captured at local time t (>= the sender's round-start clock C_i)
// arrives at t + latency >= C_i + latency >= H_j, and shard j executed only events < H_j
// with its clock parked at exactly H_j — so the drain's At() is always legal.
// Liveness: the minimum-clock shard always has H > clock (latency > 0), so every round
// advances global time and the run terminates in ~duration/latency rounds.
//
// Rounds run on one thread: a 16x64 round holds ~57 events across all shards, too little
// work to pay for waking worker threads 40,000 times a run, so parallelism lives one level
// up, in campaign cells. Determinism (pinned by the golden-equivalence and campaign
// determinism tests): same seed => bit-identical reports and merged metrics. During a
// window a shard touches only its own Simulation and appends to its own outbox; everything
// cross-shard happens between windows, in index order.

#ifndef SRC_FABRIC_FABRIC_H_
#define SRC_FABRIC_FABRIC_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dev/media_source.h"
#include "src/fabric/routing.h"
#include "src/fault/fault_plan.h"
#include "src/hw/memory.h"
#include "src/sim/time.h"
#include "src/telemetry/journey.h"
#include "src/telemetry/metrics.h"
#include "src/testbed/station.h"
#include "src/testbed/stream.h"
#include "src/testbed/topology.h"

namespace ctms {

struct FabricConfig {
  int64_t rings = 4;              // shard count
  int64_t stations_per_ring = 8;  // total per ring; non-active ones attach passively
  FabricTopology topology = FabricTopology::kRingOfRings;
  SimDuration link_latency = Microseconds(500);  // > 0: it is the lookahead window

  int64_t packet_bytes = 2000;
  SimDuration packet_period = Milliseconds(12);
  // Declarative workload block (--mix): the resolved class list is assigned round-robin to
  // the per-shard flows (flow f gets class f mod len). Empty keeps every flow the legacy
  // unclassed stream bit-for-bit.
  std::vector<WorkloadEntry> workload;
  MemoryKind dma_buffer_kind = MemoryKind::kIoChannelMemory;

  SimDuration duration = Seconds(30);
  uint64_t seed = 1;

  // Fault plan applied to exactly one shard's topology (station names there: "src",
  // "sink", "bridge<k>"). Empty plan = strict no-op on every shard.
  FaultPlan faults;
  int64_t fault_shard = 0;
};

// One direction of one inter-ring link. `forwarded` counts packets the sending bridge
// captured into the link; `queue_drops` counts packets the receiving bridge's driver
// refused at re-injection (CTMSP priority-queue overflow) — the per-hop accounting that
// keeps bridge loss from being silent.
struct FabricHopStats {
  std::string name;  // "link<k>:s<a>->s<b>"
  int link = 0;
  int from = 0;
  int to = 0;
  uint64_t forwarded = 0;
  uint64_t queue_drops = 0;
  // Per-class forward counts keyed by MediaClassId wire value, read off the packet header
  // at the link boundary; empty when the traffic is unclassed.
  std::map<uint8_t, uint64_t> forwarded_by_class;
};

struct FabricReport {
  FabricConfig config;
  uint64_t packets_built = 0;      // across all flows
  uint64_t packets_delivered = 0;
  uint64_t packets_lost = 0;       // receiver-observed sequence gaps
  uint64_t sink_underruns = 0;
  uint64_t silent_flows = 0;       // flows that delivered nothing
  uint64_t sync_rounds = 0;        // conservative-lookahead rounds executed
  uint64_t events_executed = 0;    // summed over shards (deterministic per seed)
  std::vector<FabricHopStats> hops;      // 2 per link: a->b then b->a, link-index order
  std::vector<double> ring_utilization;  // one per shard
  std::vector<ClassQoE> classes;         // summed across shards; empty when unclassed

  // Every flow must deliver: a ring whose flows out and in deliver nothing fails the run
  // even while the other rings carry their traffic.
  bool Healthy() const {
    return packets_built > 0 && silent_flows == 0 && packets_lost == 0 &&
           sink_underruns == 0;
  }
  std::string Summary() const;
};

// N shards, one CTMSP stream per shard toward its successor ((i+1) mod N — local when
// N == 1), routed over the fabric topology. Build order is the determinism contract:
// shards (each: ring, src, sink, bridges in link order, passive fill, background), then
// streams in flow order, then per-shard fault plan.
class FabricExperiment {
 public:
  explicit FabricExperiment(FabricConfig config);
  ~FabricExperiment();

  FabricExperiment(const FabricExperiment&) = delete;
  FabricExperiment& operator=(const FabricExperiment&) = delete;

  FabricReport Run();

  // Folds every shard's registry into `out` under "shard<i>." — the campaign's "run<i>."
  // namespacing applied one level down, so a fabric run exports one registry like any other
  // experiment. (MetricsRegistry is pinned in place — slot pointers are cached — hence the
  // out-param instead of a return value.)
  void MergeMetricsInto(MetricsRegistry* out) const;

  size_t shard_count() const { return shards_.size(); }
  RingTopology& shard(size_t index) { return *shards_[index].topo; }
  const RoutingTable& routing() const { return routing_; }
  const std::vector<FabricLinkSpec>& links() const { return links_; }

 private:
  struct OutboxEntry {
    int link = 0;
    SimTime arrival = 0;
    // Payload still references the capturing shard's arena (charge-free: mbuf accounting
    // never crosses a shard boundary); DeliverOutboxes re-homes it via Adopt between
    // windows.
    Packet packet;
    std::optional<JourneyRecord> journey;
  };

  // One packet of a batch event: a train bound for one shard at one arrival instant.
  struct Delivery {
    TokenRingDriver* driver;
    Packet packet;
  };

  struct Shard {
    std::unique_ptr<RingTopology> topo;
    Station* src = nullptr;
    Station* sink = nullptr;
    std::vector<int> links;           // incident link indices, ascending
    std::vector<Station*> bridges;    // parallel to `links`
    std::vector<std::unique_ptr<CtmspTap>> taps;  // parallel to `links`
    std::vector<OutboxEntry> outbox;  // written only during this shard's window
    // Emptied batch vectors, handed back by this shard's batch events with their capacity
    // and reused by DeliverOutboxes.
    std::vector<std::vector<Delivery>> spare_batches;
  };

  // Directed-hop row index in hop_forwarded_ / the report: 2*link + (from == link.b).
  size_t HopRow(int link, int from) const;
  Station* BridgeFor(int shard, int link) const;
  void OnCapture(int shard, int link, const Packet& packet);
  void DeliverOutboxes();

  FabricConfig config_;
  std::vector<FabricLinkSpec> links_;
  RoutingTable routing_;
  std::vector<Shard> shards_;
  std::vector<uint64_t> hop_forwarded_;
  std::vector<std::map<uint8_t, uint64_t>> hop_forwarded_by_class_;  // parallel rows
  // Streams last: their endpoint drivers reference shard stations and must die first.
  std::vector<std::unique_ptr<StreamEndpoints>> streams_;
};

}  // namespace ctms

#endif  // SRC_FABRIC_FABRIC_H_
