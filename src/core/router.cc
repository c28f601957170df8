#include "src/core/router.h"

#include <sstream>
#include <utility>

namespace ctms {

namespace {

Station::PortConfig PortFor(const RouterConfig& config, bool rx_copy_to_mbufs) {
  Station::PortConfig port;
  port.adapter.dma_buffer_kind = config.dma_buffer_kind;
  port.driver.ctms_mode = true;
  port.driver.rx_copy_ctmsp_to_mbufs = rx_copy_to_mbufs;
  return port;
}

}  // namespace

RouterExperiment::RouterExperiment(RouterConfig config)
    : config_(std::move(config)), topo_(config_.seed) {
  const size_t hops = config_.chain_hops < 1 ? 1 : static_cast<size_t>(config_.chain_hops);
  for (size_t r = 0; r < hops + 1; ++r) {
    topo_.AddRing();
  }

  src_ = &topo_.AddStation("src");
  src_->AttachRing(&topo_.ring(0), &topo_.probes(), PortFor(config_, true));

  for (size_t k = 0; k < hops; ++k) {
    // The single-hop chain keeps the historical station name so every derived telemetry
    // name (cpu.router.…, driver.tr.router.…) — and with them the golden files — is
    // unchanged for the classic two-ring experiment.
    Station& router =
        topo_.AddStation(hops == 1 ? "router" : "router" + std::to_string(k));
    // The in-side port's rx copy policy is the forwarding-mode knob: via-mbufs copies the
    // packet out of the DMA buffer; zero-copy hands it over in place.
    router.AttachRing(&topo_.ring(k), &topo_.probes(),
                      PortFor(config_, config_.forward_via_mbufs));
    Station::PortConfig out_port = PortFor(config_, true);
    // Zero-copy forwarding also skips the out-side copy into the transmit DMA buffer.
    out_port.driver.zero_copy_tx = !config_.forward_via_mbufs;
    router.AttachRing(&topo_.ring(k + 1), &topo_.probes(), out_port);
    routers_.push_back(&router);
  }

  dst_ = &topo_.AddStation("dst");
  dst_->AttachRing(&topo_.ring(hops), &topo_.probes(), PortFor(config_, true));

  StreamEndpoints::Config endpoints;
  endpoints.source.packet_bytes = config_.packet_bytes;
  endpoints.source.period = config_.packet_period;
  endpoints.sink.playout_bytes = config_.packet_bytes;
  endpoints.sink.playout_period = config_.packet_period;
  endpoints.sink.prime_packets = 5;  // the extra hops add jitter
  endpoints.media_class = config_.media_class;
  stream_ = std::make_unique<StreamEndpoints>(src_, dst_, &topo_.probes(), endpoints);

  // Forwarding: each router's in-side split point hands CTMSP packets straight to its
  // out-side driver, addressed to the next router in the chain (or the destination).
  for (size_t k = 0; k < hops; ++k) {
    const RingAddress next_hop =
        k + 1 < hops ? routers_[k + 1]->address(0) : dst_->address();
    relays_.push_back(std::make_unique<CtmspRelay>(routers_[k], /*in_port=*/0,
                                                   /*out_port=*/1, next_hop));
  }

  src_->AttachBackgroundActivity(topo_.sim().rng().Fork());
  for (Station* router : routers_) {
    router->AttachBackgroundActivity(topo_.sim().rng().Fork());
  }
  dst_->AttachBackgroundActivity(topo_.sim().rng().Fork());

  BackgroundEnvironment& env = topo_.environment();
  for (size_t r = 0; r < hops + 1; ++r) {
    TokenRing* ring = &topo_.ring(r);
    ring->AddPassiveStations(10);
    env.AddMacTraffic(ring, MacFrameTraffic::Config{});
    env.AddKeepaliveChatter(ring, Milliseconds(150));
  }

  topo_.ApplyFaultPlan(config_.faults);
}

RouterReport RouterExperiment::Run() {
  topo_.StartAll();
  stream_->Start(routers_.front()->address(0));
  topo_.sim().RunFor(config_.duration);

  RouterReport report;
  report.config = config_;
  const StreamStats stats = stream_->Stats();
  report.packets_built = stats.built;
  report.packets_delivered = stats.delivered;
  report.packets_lost = stats.lost;
  report.sink_underruns = stats.underruns;
  report.classes = AggregateClasses({stats});
  for (size_t k = 0; k < routers_.size(); ++k) {
    RouterHopStats hop;
    hop.station = routers_[k]->name();
    hop.forwarded = relays_[k]->forwarded();
    hop.forwarded_by_class = relays_[k]->forwarded_by_class();
    hop.queue_drops = routers_[k]->driver(1).ctmsp_queue().drops();
    hop.cpu_utilization = routers_[k]->machine().cpu().Utilization();
    report.hops.push_back(std::move(hop));
  }
  report.packets_forwarded = report.hops.back().forwarded;
  for (size_t r = 0; r < routers_.size() + 1; ++r) {
    report.ring_utilization.push_back(topo_.ring(r).Utilization());
  }
  report.end_to_end = stream_->sink().latency();
  return report;
}

std::string RouterReport::Summary() const {
  std::ostringstream os;
  os << "router forwarding (" << (config.forward_via_mbufs ? "via mbufs" : "zero-copy")
     << ", " << hops.size() << (hops.size() == 1 ? " hop" : " hops")
     << "): " << (KeepsUp() ? "KEEPS UP" : "FALLS BEHIND") << "\n";
  os << "  " << packets_built << " built, " << packets_forwarded << " forwarded, "
     << packets_delivered << " delivered, " << packets_lost << " lost, "
     << router_queue_drops() << " router drops, " << sink_underruns << " underruns\n";
  if (hops.size() == 1) {
    os << "  router CPU " << router_cpu_utilization() * 100.0 << "%  ring A "
       << ring_a_utilization() * 100.0 << "%  ring B " << ring_b_utilization() * 100.0
       << "%\n";
  } else {
    for (size_t k = 0; k < hops.size(); ++k) {
      os << "  hop " << k << " (" << hops[k].station << "): " << hops[k].forwarded
         << " forwarded, " << hops[k].queue_drops << " drops, CPU "
         << hops[k].cpu_utilization * 100.0 << "%\n";
    }
    for (size_t r = 0; r < ring_utilization.size(); ++r) {
      os << "  ring " << r << " " << ring_utilization[r] * 100.0 << "%"
         << (r + 1 < ring_utilization.size() ? "" : "\n");
    }
  }
  for (const ClassQoE& qoe : classes) {
    os << "  class " << qoe.name << ": " << qoe.deadline_misses
       << " deadline misses, distortion " << qoe.distortion << "\n";
  }
  if (!end_to_end.empty()) {
    os << "  " << end_to_end.SummaryLine() << "\n";
  }
  return os.str();
}

}  // namespace ctms
