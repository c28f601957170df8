#include "src/core/media_mix.h"

#include <map>
#include <sstream>
#include <utility>

namespace ctms {
namespace {

std::vector<WorkloadEntry> DefaultWorkload() {
  return {{"voice", 4, 0}, {"vbr", 2, 0}, {"bulk", 1, 0}};
}

}  // namespace

MediaMixExperiment::MediaMixExperiment(MediaMixConfig config)
    : config_(std::move(config)), topo_(config_.seed) {
  if (config_.workload.empty()) {
    config_.workload = DefaultWorkload();
  }
  TokenRing& ring = topo_.AddRing();

  Station::PortConfig port;
  port.adapter.dma_buffer_kind = config_.dma_buffer_kind;
  port.driver.ctms_mode = true;
  port.driver.ctmsp_ring_priority = config_.ring_priority;

  if (config_.quality_controller) {
    QualityControllerConfig controller;
    controller.epoch = config_.controller_epoch;
    controller.top_priority = config_.ring_priority;
    controller_ = std::make_unique<QualityController>(&topo_.sim(), controller);
  }

  // Station names carry the class so driver.vca.<machine>.* and qoe.<class>.<machine>.*
  // telemetry stays readable; the per-class index keeps them unique.
  std::map<std::string, int> class_counts;
  for (const MediaClass& media_class : ResolveWorkload(config_.workload)) {
    const int k = class_counts[media_class.name]++;
    const std::string suffix = media_class.name + std::to_string(k);
    Stream stream;
    stream.tx = &topo_.AddStation("tx_" + suffix);
    stream.tx->AttachRing(&ring, &topo_.probes(), port);
    stream.tx->AttachBackgroundActivity(topo_.sim().rng().Fork());
    stream.rx = &topo_.AddStation("rx_" + suffix);
    stream.rx->AttachRing(&ring, &topo_.probes(), port);
    stream.rx->AttachBackgroundActivity(topo_.sim().rng().Fork());

    StreamEndpoints::Config endpoints;
    endpoints.connection.ring_priority = config_.ring_priority;
    endpoints.media_class = media_class;
    endpoints.sink.prime_packets = 5;  // shared-ring queueing needs a little more smoothing
    stream.endpoints = std::make_unique<StreamEndpoints>(stream.tx, stream.rx,
                                                         &topo_.probes(), endpoints);
    if (controller_ != nullptr) {
      QualityController::StreamBinding binding;
      binding.driver = &stream.tx->driver(0);
      binding.sink = &stream.endpoints->sink();
      binding.receiver = &stream.endpoints->receiver();
      controller_->AddStream(media_class, binding);
    }
    streams_.push_back(std::move(stream));
  }

  BackgroundEnvironment& env = topo_.environment();
  env.AddMacTraffic(&ring, MacFrameTraffic::Config{});
  env.AddKeepaliveChatter(&ring, Milliseconds(120));

  topo_.ApplyFaultPlan(config_.faults);
}

MediaMixReport MediaMixExperiment::Run() {
  topo_.StartAll();
  // Stagger stream starts across one base period so sources do not fire in lockstep.
  SimDuration stagger = 0;
  const SimDuration step = Milliseconds(12) / (static_cast<int>(streams_.size()) + 1);
  for (Stream& stream : streams_) {
    StreamEndpoints* endpoints = stream.endpoints.get();
    topo_.sim().After(stagger, [endpoints]() { endpoints->Start(); });
    stagger += step;
  }
  if (controller_ != nullptr) {
    // First epoch after the last stream is up, so the initial assignment covers everyone.
    topo_.sim().After(stagger, [this]() { controller_->Start(); });
  }
  topo_.sim().RunFor(config_.duration);

  MediaMixReport report;
  report.config = config_;
  for (Stream& stream : streams_) {
    report.streams.push_back(stream.endpoints->Stats());
  }
  report.classes = AggregateClasses(report.streams);
  for (ClassQoE& qoe : report.classes) {
    if (controller_ != nullptr) {
      qoe.ring_priority = controller_->PriorityOf(qoe.name);
    }
    report.aggregate_distortion += qoe.distortion;
  }
  report.ring_utilization = topo_.ring().Utilization();
  report.ring_priority_preemptions = topo_.ring().priority_preemptions();
  report.ring_reservations = topo_.ring().reservations();
  if (controller_ != nullptr) {
    report.controller_epochs = controller_->epochs();
    report.controller_updates = controller_->priority_updates();
  }
  return report;
}

bool MediaMixReport::Healthy() const {
  for (const StreamStats& stream : streams) {
    if (stream.built == 0 || stream.delivered == 0) {
      return false;
    }
  }
  return !streams.empty();
}

std::string MediaMixReport::Summary() const {
  std::ostringstream os;
  os << streams.size() << " streams in " << classes.size() << " classes: ring "
     << ring_utilization * 100.0 << "% busy, aggregate distortion " << aggregate_distortion
     << (config.quality_controller ? " (quality controller on)" : " (FIFO)") << "\n";
  for (const ClassQoE& qoe : classes) {
    os << "  class " << qoe.name << " x" << qoe.streams << ": " << qoe.delivered << "/"
       << qoe.built << " delivered, " << qoe.lost << " lost, " << qoe.deadline_misses
       << " deadline misses (rate " << qoe.deadline_miss_rate << "), " << qoe.underruns
       << " underruns, starved " << FormatDuration(qoe.starvation_time) << ", distortion "
       << qoe.distortion << ", latency mean " << FormatDuration(qoe.mean_latency) << " max "
       << FormatDuration(qoe.max_latency);
    if (qoe.ring_priority >= 0) {
      os << ", ring priority " << qoe.ring_priority;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ctms
