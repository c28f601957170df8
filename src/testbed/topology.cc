#include "src/testbed/topology.h"

#include <cassert>

namespace ctms {

MacFrameTraffic& BackgroundEnvironment::AddMacTraffic(TokenRing* ring,
                                                      MacFrameTraffic::Config config) {
  macs_.push_back(std::make_unique<MacFrameTraffic>(ring, sim_->rng().Fork(), config));
  return *macs_.back();
}

GhostTraffic& BackgroundEnvironment::AddGhostTraffic(TokenRing* ring,
                                                     GhostTraffic::Config config) {
  ghosts_.push_back(std::make_unique<GhostTraffic>(ring, sim_->rng().Fork(), config));
  return *ghosts_.back();
}

InsertionSchedule& BackgroundEnvironment::AddInsertions(TokenRing* ring,
                                                        InsertionSchedule::Config config) {
  insertions_.push_back(std::make_unique<InsertionSchedule>(ring, sim_->rng().Fork(), config));
  return *insertions_.back();
}

GhostTraffic& BackgroundEnvironment::AddKeepaliveChatter(TokenRing* ring,
                                                         SimDuration interarrival_mean) {
  GhostTraffic::Config keepalive;
  keepalive.interarrival_mean = interarrival_mean;
  keepalive.min_bytes = 60;
  keepalive.max_bytes = 300;
  return AddGhostTraffic(ring, keepalive);
}

GhostTraffic& BackgroundEnvironment::AddTransferBursts(TokenRing* ring,
                                                       SimDuration interarrival_mean) {
  GhostTraffic::Config transfer;
  transfer.interarrival_mean = interarrival_mean;
  transfer.min_bytes = 1522;
  transfer.max_bytes = 1522;
  transfer.burst_min = 4;
  transfer.burst_max = 16;
  transfer.burst_spacing = Microseconds(3300);
  return AddGhostTraffic(ring, transfer);
}

GhostTraffic& BackgroundEnvironment::AddControlPolls(TokenRing* ring, RingAddress target) {
  GhostTraffic::Config control;
  control.interarrival_mean = Milliseconds(600);
  control.min_bytes = 80;
  control.max_bytes = 200;
  control.burst_min = 1;
  control.burst_max = 2;
  control.burst_spacing = Microseconds(2500);
  control.target = target;
  control.protocol = ProtocolId::kIp;
  control.ip_proto = kIpProtoUdp;
  control.port = 5000;
  return AddGhostTraffic(ring, control);
}

GhostTraffic& BackgroundEnvironment::AddAfsFetchBursts(TokenRing* ring, RingAddress target) {
  GhostTraffic::Config fetch;
  fetch.interarrival_mean = Milliseconds(1300);
  fetch.min_bytes = 1522;
  fetch.max_bytes = 1522;
  fetch.burst_min = 4;
  fetch.burst_max = 12;
  fetch.burst_spacing = Microseconds(3300);
  fetch.target = target;
  fetch.protocol = ProtocolId::kIp;
  fetch.ip_proto = kIpProtoUdp;
  fetch.port = 7000;  // lands on the AFS daemon port; no one answers fetch data
  return AddGhostTraffic(ring, fetch);
}

CompetingProcess& BackgroundEnvironment::AddCompetingProcess(UnixKernel* kernel,
                                                             const std::string& name,
                                                             CompetingProcess::Config config) {
  competing_.push_back(std::make_unique<CompetingProcess>(kernel, name, config));
  return *competing_.back();
}

ControlServiceProcess& BackgroundEnvironment::AddControlService(UnixKernel* kernel,
                                                                UdpLayer* udp) {
  control_services_.push_back(
      std::make_unique<ControlServiceProcess>(kernel, udp, sim_->rng().Fork()));
  return *control_services_.back();
}

AfsClientDaemon& BackgroundEnvironment::AddAfsClient(UnixKernel* kernel, UdpLayer* udp,
                                                     AfsClientDaemon::Config config) {
  afs_clients_.push_back(
      std::make_unique<AfsClientDaemon>(kernel, udp, sim_->rng().Fork(), config));
  return *afs_clients_.back();
}

void BackgroundEnvironment::StartAll() {
  const auto start = [](auto& group) {
    for (auto& member : group) {
      member->Start();
    }
  };
  start(macs_);
  start(ghosts_);
  start(competing_);
  start(afs_clients_);
  start(insertions_);
}

RingTopology::RingTopology(uint64_t seed) : sim_(seed), environment_(&sim_) {
  // Mirror the probe instants onto a tracer track, so a Perfetto view of any experiment
  // shows the measurement points interleaved with the CPU/ring spans they bracket.
  const TrackId probes_track = sim_.telemetry().tracer.RegisterTrack("probes");
  probes_.Subscribe([this, probes_track](const ProbeEvent& event) {
    SpanTracer& tracer = sim_.telemetry().tracer;
    if (tracer.enabled()) {
      tracer.AddInstant(probes_track, ProbePointName(event.point), event.time,
                        {{"seq", static_cast<int64_t>(event.seq)}});
    }
  });
}

RingTopology::~RingTopology() {
  // All CPUs drain before any station dies: a queued job on one station may hold chains
  // from a peer's mbuf pool. (Each Station's own destructor repeats the cancel, harmlessly,
  // for the standalone-Station case.)
  for (auto& station : stations_) {
    station->CancelJobs();
  }
}

TokenRing& RingTopology::AddRing(TokenRing::Config config) {
  rings_.push_back(std::make_unique<TokenRing>(&sim_, config));
  sim_.telemetry().metrics.GetGauge("topology.rings")->Set(
      static_cast<int64_t>(rings_.size()));
  return *rings_.back();
}

Station& RingTopology::AddStation(const std::string& name) {
  assert(FindStation(name) == nullptr && "station names must be unique");
  stations_.push_back(std::make_unique<Station>(&sim_, name));
  sim_.telemetry().metrics.GetGauge("topology.stations")->Set(
      static_cast<int64_t>(stations_.size()));
  return *stations_.back();
}

Station* RingTopology::FindStation(const std::string& name) {
  for (auto& station : stations_) {
    if (station->name() == name) {
      return station.get();
    }
  }
  return nullptr;
}

FaultInjector* RingTopology::ApplyFaultPlan(const FaultPlan& plan) {
  if (plan.empty()) {
    return nullptr;  // strict no-op: empty plans must not perturb the RNG or telemetry
  }
  assert(fault_injector_ == nullptr && "one fault plan per topology");
  // The injector's RNG is forked exactly once, whatever the salt, so a salted and an
  // unsalted run consume the same number of draws from the root RNG: only the injector's
  // own jitter stream changes, never anything downstream of the root.
  Rng fork = sim_.rng().Fork();
  if (plan.rng_salt() != 0) {
    fork = Rng(fork.NextU64() ^ plan.rng_salt());
  }
  fault_injector_ = std::make_unique<FaultInjector>(&sim_, std::move(fork), plan);
  if (!rings_.empty()) {
    fault_injector_->BindRing(rings_.front().get());
  }
  for (auto& station : stations_) {
    for (size_t i = 0; i < station->port_count(); ++i) {
      fault_injector_->BindAdapter(station->name(), &station->adapter(i));
      fault_injector_->BindDriver(station->name(), &station->driver(i));
    }
  }
  return fault_injector_.get();
}

void RingTopology::StartAll() {
  for (auto& station : stations_) {
    station->Start();
  }
  environment_.StartAll();
}

}  // namespace ctms
