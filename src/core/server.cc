#include "src/core/server.h"

#include <sstream>
#include <utility>

namespace ctms {

ServerExperiment::ServerExperiment(ServerConfig config)
    : config_(std::move(config)), topo_(config_.seed) {
  const std::vector<MediaClass> classes = ResolveWorkload(config_.workload);
  if (!classes.empty()) {
    config_.clients = static_cast<int>(classes.size());
  }
  TokenRing& ring = topo_.AddRing();

  Station::PortConfig port;
  port.adapter.dma_buffer_kind = config_.dma_buffer_kind;
  port.driver.ctms_mode = true;

  server_ = &topo_.AddStation("server");
  disk_ = std::make_unique<MediaDisk>(&server_->machine());
  server_->AttachRing(&ring, &topo_.probes(), port);
  server_->AttachBackgroundActivity(topo_.sim().rng().Fork());

  for (int i = 0; i < config_.clients; ++i) {
    const std::string title = "movie" + std::to_string(i);
    disk_->CreateFile(title, config_.file_bytes);

    Client client;
    client.station = &topo_.AddStation("client" + std::to_string(i));
    client.station->AttachRing(&ring, &topo_.probes(), port);
    client.station->AttachBackgroundActivity(topo_.sim().rng().Fork());

    StreamEndpoints::MediaConfig media;
    media.disk = disk_.get();
    media.source.file = title;
    media.source.packet_bytes = config_.packet_bytes;
    media.source.period = config_.packet_period;
    media.source.read_chunk_bytes = config_.read_chunk_bytes;
    media.sink.playout_bytes = config_.packet_bytes;
    media.sink.playout_period = config_.packet_period;
    media.sink.prime_packets = 6;  // disk service jitter needs smoothing
    if (!classes.empty()) {
      media.media_class = classes[static_cast<size_t>(i)];
    }
    client.endpoints = std::make_unique<StreamEndpoints>(server_, client.station,
                                                         &topo_.probes(), media);
    clients_.push_back(std::move(client));
  }

  ring.AddPassiveStations(8);
  topo_.environment().AddMacTraffic(&ring, MacFrameTraffic::Config{});

  topo_.ApplyFaultPlan(config_.faults);
}

ServerReport ServerExperiment::Run() {
  topo_.StartAll();
  SimDuration stagger = 0;
  for (Client& client : clients_) {
    StreamEndpoints* endpoints = client.endpoints.get();
    topo_.sim().After(stagger, [endpoints]() { endpoints->Start(); });
    stagger += config_.packet_period / (config_.clients + 1);
  }
  topo_.sim().RunFor(config_.duration);

  ServerReport report;
  report.config = config_;
  for (Client& client : clients_) {
    report.clients.push_back(client.endpoints->Stats());
  }
  report.classes = AggregateClasses(report.clients);
  report.server_cpu_utilization = server_->machine().cpu().Utilization();
  report.disk_utilization = disk_->Utilization();
  report.disk_sequential_fraction =
      disk_->stats().reads == 0
          ? 0.0
          : static_cast<double>(disk_->stats().sequential_reads) /
                static_cast<double>(disk_->stats().reads);
  report.disk_worst_service = disk_->stats().worst_service;
  report.ring_utilization = topo_.ring().Utilization();
  return report;
}

bool ServerReport::AllSustained() const {
  for (const StreamStats& client : clients) {
    if (client.delivered == 0 || client.lost > 0 || client.underruns > 0 ||
        client.starvations > 0) {
      return false;
    }
  }
  return !clients.empty();
}

std::string ServerReport::Summary() const {
  std::ostringstream os;
  os << config.clients << " client(s), " << config.read_chunk_bytes / 1024
     << " KB read-ahead: " << (AllSustained() ? "ALL SUSTAINED" : "DEGRADED") << "\n";
  os << "  server CPU " << server_cpu_utilization * 100.0 << "%  disk "
     << disk_utilization * 100.0 << "% busy (" << disk_sequential_fraction * 100.0
     << "% sequential, worst service " << FormatDuration(disk_worst_service) << ")  ring "
     << ring_utilization * 100.0 << "%\n";
  int index = 0;
  for (const StreamStats& client : clients) {
    os << "  client " << index++;
    if (!client.media_class.empty()) {
      os << " [" << client.media_class << "]";
    }
    os << ": " << client.delivered << "/" << client.built << " delivered, " << client.lost
       << " lost, " << client.mbuf_drops + client.queue_drops << " source drops, "
       << client.starvations << " disk starvations, " << client.underruns << " underruns";
    if (!client.media_class.empty()) {
      os << ", " << client.deadline_misses << " deadline misses, distortion "
         << client.distortion;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ctms
