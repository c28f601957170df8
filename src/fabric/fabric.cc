#include "src/fabric/fabric.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace ctms {

namespace {

Station::PortConfig BridgePort(const FabricConfig& config) {
  Station::PortConfig port;
  port.adapter.dma_buffer_kind = config.dma_buffer_kind;
  port.driver.ctms_mode = true;
  port.driver.rx_copy_ctmsp_to_mbufs = true;
  return port;
}

}  // namespace

FabricExperiment::FabricExperiment(FabricConfig config)
    : config_(std::move(config)),
      links_(BuildLinks(config_.topology, static_cast<int>(config_.rings))),
      routing_(links_, static_cast<int>(config_.rings)) {
  const int n = static_cast<int>(config_.rings);
  // Deterministic per-shard seeds from the fabric seed: one root draw per shard, in shard
  // order, so adding shards never perturbs the seeds of existing ones.
  Rng root(config_.seed);
  std::vector<uint64_t> shard_seeds;
  shard_seeds.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shard_seeds.push_back(root.NextU64());
  }

  hop_forwarded_.assign(links_.size() * 2, 0);
  hop_forwarded_by_class_.assign(links_.size() * 2, {});
  shards_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Shard& shard = shards_[static_cast<size_t>(i)];
    shard.topo = std::make_unique<RingTopology>(shard_seeds[static_cast<size_t>(i)]);
    RingTopology& topo = *shard.topo;
    TokenRing& ring = topo.AddRing();

    shard.src = &topo.AddStation("src");
    shard.src->AttachRing(&ring, &topo.probes(), BridgePort(config_));
    shard.sink = &topo.AddStation("sink");
    shard.sink->AttachRing(&ring, &topo.probes(), BridgePort(config_));

    for (size_t k = 0; k < links_.size(); ++k) {
      if (links_[k].a != i && links_[k].b != i) {
        continue;
      }
      Station& bridge = topo.AddStation("bridge" + std::to_string(k));
      bridge.AttachRing(&ring, &topo.probes(), BridgePort(config_));
      shard.links.push_back(static_cast<int>(k));
      shard.bridges.push_back(&bridge);
    }

    const int64_t active = 2 + static_cast<int64_t>(shard.bridges.size());
    if (config_.stations_per_ring > active) {
      ring.AddPassiveStations(static_cast<int>(config_.stations_per_ring - active));
    }

    shard.src->AttachBackgroundActivity(topo.sim().rng().Fork());
    shard.sink->AttachBackgroundActivity(topo.sim().rng().Fork());
    for (Station* bridge : shard.bridges) {
      bridge->AttachBackgroundActivity(topo.sim().rng().Fork());
    }

    BackgroundEnvironment& env = topo.environment();
    env.AddMacTraffic(&ring, MacFrameTraffic::Config{});
    env.AddKeepaliveChatter(&ring, Milliseconds(150));
  }

  // Bridge capture taps. After this, any CTMSP packet a shard's ring delivers to one of
  // its bridge stations lands in that shard's outbox.
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    for (size_t b = 0; b < shard.bridges.size(); ++b) {
      const int link = shard.links[b];
      shard.taps.push_back(std::make_unique<CtmspTap>(
          shard.bridges[b], /*in_port=*/0, [this, s, link](const Packet& packet) {
            OnCapture(static_cast<int>(s), link, packet);
          }));
    }
  }

  // One flow per shard toward its successor. The CTMSP destination device number carries
  // the destination shard index, which is what every bridge keys its routing on.
  const std::vector<MediaClass> flow_classes = ResolveWorkload(config_.workload);
  for (int f = 0; f < n; ++f) {
    const int g = (f + 1) % n;
    StreamEndpoints::Config endpoints;
    endpoints.connection.peer = shards_[static_cast<size_t>(g)].sink->address();
    endpoints.connection.destination_device = static_cast<uint16_t>(g);
    endpoints.source.packet_bytes = config_.packet_bytes;
    endpoints.source.period = config_.packet_period;
    endpoints.sink.playout_bytes = config_.packet_bytes;
    endpoints.sink.playout_period = config_.packet_period;
    // Each bridge adds a store-and-forward stage plus the link latency; prime the jitter
    // buffer deeper the longer the route (clamped under the sink's adaptive ceiling).
    endpoints.sink.prime_packets =
        static_cast<int>(std::min(5 + routing_.HopCount(f, g), 12));
    if (!flow_classes.empty()) {
      endpoints.media_class =
          flow_classes[static_cast<size_t>(f) % flow_classes.size()];
    }
    streams_.push_back(std::make_unique<StreamEndpoints>(
        shards_[static_cast<size_t>(f)].src, shards_[static_cast<size_t>(g)].sink,
        &shards_[static_cast<size_t>(f)].topo->probes(), endpoints));
  }

  if (config_.fault_shard >= 0 && config_.fault_shard < n) {
    shards_[static_cast<size_t>(config_.fault_shard)].topo->ApplyFaultPlan(config_.faults);
  }
}

FabricExperiment::~FabricExperiment() = default;

size_t FabricExperiment::HopRow(int link, int from) const {
  return static_cast<size_t>(link) * 2 +
         (links_[static_cast<size_t>(link)].b == from ? 1 : 0);
}

Station* FabricExperiment::BridgeFor(int shard, int link) const {
  const Shard& s = shards_[static_cast<size_t>(shard)];
  for (size_t b = 0; b < s.links.size(); ++b) {
    if (s.links[b] == link) {
      return s.bridges[b];
    }
  }
  return nullptr;
}

void FabricExperiment::OnCapture(int shard, int link, const Packet& packet) {
  // Runs inside the shard's event window: touch only this shard's state. The cross-shard
  // work happens in DeliverOutboxes once every window of the round has run.
  Shard& s = shards_[static_cast<size_t>(shard)];
  OutboxEntry entry;
  entry.link = link;
  entry.arrival = s.topo->sim().Now() + config_.link_latency;
  entry.packet = packet;
  entry.journey = s.topo->sim().telemetry().journeys.Detach(packet.journey);
  if (entry.journey.has_value() && entry.journey->origin_shard < 0) {
    entry.journey->origin_shard = shard;
  }
  s.outbox.push_back(std::move(entry));
}

void FabricExperiment::DeliverOutboxes() {
  // Runs between sync rounds, in fixed (shard, capture) order — the only place payload
  // handles cross a shard boundary. Consecutive entries bound for the same shard at the
  // same arrival instant (a packet train crossing one bridge) are batched into a single
  // event: same delivery order, one queue insertion per train.
  struct Delivery {
    TokenRingDriver* driver;
    Packet packet;
  };
  Simulation* batch_sim = nullptr;
  SimTime batch_arrival = 0;
  std::vector<Delivery> batch;
  const auto flush = [&]() {
    if (batch.empty()) {
      return;
    }
    batch_sim->At(batch_arrival, [deliveries = std::move(batch)]() {
      for (const Delivery& d : deliveries) {
        d.driver->OutputCtmsp(d.packet);
      }
    });
    batch.clear();
  };
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (OutboxEntry& entry : shards_[s].outbox) {
      const FabricLinkSpec& link = links_[static_cast<size_t>(entry.link)];
      const int to = link.a == static_cast<int>(s) ? link.b : link.a;
      ++hop_forwarded_[HopRow(entry.link, static_cast<int>(s))];
      if (entry.packet.media_class != 0) {
        ++hop_forwarded_by_class_[HopRow(entry.link, static_cast<int>(s))]
                                 [entry.packet.media_class];
      }

      Shard& target = shards_[static_cast<size_t>(to)];
      const int dest = static_cast<int>(entry.packet.port);
      Packet packet = std::move(entry.packet);
      // Re-home the payload under the destination shard's arena (fresh slot, no mbuf
      // charge — the source already credited its pool at transmit), then drop the origin-
      // shard reference.
      PayloadRef origin_ref = std::move(packet.payload);
      packet.payload = target.topo->sim().frames().Adopt(origin_ref);
      origin_ref.reset();
      if (dest == to) {
        packet.dst = target.sink->address();
      } else {
        packet.dst = BridgeFor(to, routing_.NextLink(to, dest))->address();
      }
      if (entry.journey.has_value()) {
        // Re-home the journey record under the destination shard's recorder; stamps stay
        // on the shared timebase, so the folded deltas remain end-to-end.
        packet.journey = target.topo->sim().telemetry().journeys.Adopt(
            std::move(*entry.journey), entry.arrival);
      }
      TokenRingDriver* driver = &BridgeFor(to, entry.link)->driver(0);
      Simulation* sim = &target.topo->sim();
      if (sim != batch_sim || entry.arrival != batch_arrival) {
        flush();
        batch_sim = sim;
        batch_arrival = entry.arrival;
      }
      batch.push_back(Delivery{driver, std::move(packet)});
    }
    shards_[s].outbox.clear();
  }
  flush();
}

FabricReport FabricExperiment::Run() {
  for (Shard& shard : shards_) {
    shard.topo->StartStations();
    shard.topo->environment().StartMacTraffic();
    shard.topo->environment().StartGhosts();
  }
  const int n = static_cast<int>(shards_.size());
  for (int f = 0; f < n; ++f) {
    const int g = (f + 1) % n;
    const RingAddress first_hop =
        g == f ? shards_[static_cast<size_t>(g)].sink->address()
               : BridgeFor(f, routing_.NextLink(f, g))->address();
    streams_[static_cast<size_t>(f)]->Start(first_hop);
  }

  const SimTime end = config_.duration;
  std::vector<SimTime> horizon(shards_.size(), 0);
  uint64_t rounds = 0;
  while (true) {
    bool all_done = true;
    for (const Shard& shard : shards_) {
      all_done = all_done && shard.topo->sim().Now() >= end;
    }
    if (all_done) {
      break;
    }
    // Every horizon comes from the round-start clock snapshot: computing one after an
    // earlier shard's window has run would break the causality argument in the header.
    for (size_t i = 0; i < shards_.size(); ++i) {
      SimTime h = end;
      for (int k : shards_[i].links) {
        const FabricLinkSpec& link = links_[static_cast<size_t>(k)];
        const int peer = link.a == static_cast<int>(i) ? link.b : link.a;
        h = std::min(h, shards_[static_cast<size_t>(peer)].topo->sim().Now() +
                            config_.link_latency);
      }
      horizon[i] = h;
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      shards_[i].topo->sim().RunUntilBefore(horizon[i]);
    }
    ++rounds;
    DeliverOutboxes();
  }

  FabricReport report;
  report.config = config_;
  report.sync_rounds = rounds;
  std::map<std::string, size_t> class_slot;
  for (int f = 0; f < n; ++f) {
    const StreamStats stats = streams_[static_cast<size_t>(f)]->Stats();
    report.packets_built += stats.built;
    report.packets_delivered += stats.delivered;
    report.packets_lost += stats.lost;
    report.sink_underruns += stats.underruns;
    if (stats.delivered == 0) {
      ++report.silent_flows;
    }
    if (!stats.media_class.empty()) {
      auto it = class_slot.find(stats.media_class);
      if (it == class_slot.end()) {
        it = class_slot.emplace(stats.media_class, report.classes.size()).first;
        FabricClassStats fresh;
        fresh.name = stats.media_class;
        report.classes.push_back(std::move(fresh));
      }
      FabricClassStats& qoe = report.classes[it->second];
      ++qoe.flows;
      qoe.built += stats.built;
      qoe.delivered += stats.delivered;
      qoe.lost += stats.lost;
      qoe.deadline_misses += stats.deadline_misses;
      qoe.underruns += stats.underruns;
      qoe.distortion += stats.distortion;
    }
  }
  for (size_t k = 0; k < links_.size(); ++k) {
    for (int side = 0; side < 2; ++side) {
      const int from = side == 0 ? links_[k].a : links_[k].b;
      const int to = side == 0 ? links_[k].b : links_[k].a;
      FabricHopStats hop;
      hop.name = "link" + std::to_string(k) + ":s" + std::to_string(from) + "->s" +
                 std::to_string(to);
      hop.link = static_cast<int>(k);
      hop.from = from;
      hop.to = to;
      hop.forwarded = hop_forwarded_[HopRow(static_cast<int>(k), from)];
      hop.forwarded_by_class = hop_forwarded_by_class_[HopRow(static_cast<int>(k), from)];
      hop.queue_drops =
          BridgeFor(to, static_cast<int>(k))->driver(0).ctmsp_queue().drops();
      report.hops.push_back(std::move(hop));
    }
  }
  for (const Shard& shard : shards_) {
    report.ring_utilization.push_back(shard.topo->ring(0).Utilization());
    report.events_executed += shard.topo->sim().events_executed();
  }
  return report;
}

void FabricExperiment::MergeMetricsInto(MetricsRegistry* out) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    out->MergeFrom(shards_[i].topo->sim().telemetry().metrics,
                   "shard" + std::to_string(i) + ".");
  }
}

std::string FabricReport::Summary() const {
  std::ostringstream os;
  uint64_t link_packets = 0;
  uint64_t link_drops = 0;
  for (const FabricHopStats& hop : hops) {
    link_packets += hop.forwarded;
    link_drops += hop.queue_drops;
  }
  os << "fabric (" << FabricTopologyName(config.topology) << ", " << config.rings
     << " rings x " << config.stations_per_ring << " stations): "
     << (Healthy() ? "HEALTHY" : "DEGRADED") << "\n";
  os << "  " << packets_built << " built, " << packets_delivered << " delivered, "
     << packets_lost << " lost, " << sink_underruns << " underruns; " << link_packets
     << " link transfers, " << link_drops << " bridge drops\n";
  os << "  " << sync_rounds << " sync rounds, " << events_executed << " events\n";
  for (const FabricClassStats& qoe : classes) {
    os << "  class " << qoe.name << " x" << qoe.flows << ": " << qoe.delivered << "/"
       << qoe.built << " delivered, " << qoe.lost << " lost, " << qoe.deadline_misses
       << " deadline misses, " << qoe.underruns << " underruns, distortion "
       << qoe.distortion << "\n";
  }
  for (const FabricHopStats& hop : hops) {
    if (hop.forwarded != 0 || hop.queue_drops != 0) {
      os << "  " << hop.name << ": " << hop.forwarded << " forwarded, " << hop.queue_drops
         << " drops\n";
    }
  }
  os << "  ring utilization:";
  for (size_t i = 0; i < ring_utilization.size(); ++i) {
    os << " s" << i << "=" << ring_utilization[i] * 100.0 << "%";
  }
  os << "\n";
  return os.str();
}

}  // namespace ctms
