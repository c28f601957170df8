#include "src/core/experiment.h"

#include <sstream>
#include <utility>

namespace ctms {

namespace {

TokenRing::Config RingConfig(const CtmsConfig& config) {
  TokenRing::Config ring;
  ring.bits_per_second = config.ring_bits_per_second;
  return ring;  // station count is added via AddPassiveStations
}

Station::PortConfig PortConfig(const CtmsConfig& config) {
  Station::PortConfig port;
  port.adapter.dma_buffer_kind = config.dma_buffer_kind;
  port.driver.ctms_mode = true;
  port.driver.driver_priority = config.driver_priority;
  port.driver.ctmsp_ring_priority = config.ring_priority;
  port.driver.rx_copy_ctmsp_to_mbufs = config.rx_copy_dma_to_mbufs;
  port.driver.zero_copy_tx = config.tx_zero_copy;
  return port;
}

StreamEndpoints::Config StreamConfig(const CtmsConfig& config) {
  StreamEndpoints::Config stream;
  stream.connection.ring_priority = config.ring_priority;
  stream.connection.driver_priority = config.driver_priority;
  stream.connection.retransmit_on_purge = config.retransmit_on_purge;
  // The receiver only needs the transmit side's address; peer 0 is auto-filled.
  stream.receiver_connection = CtmspConnectionConfig{};
  stream.source.packet_bytes = config.packet_bytes;
  stream.source.period = config.packet_period;
  stream.source.copy_device_data = config.tx_copy_vca_to_mbufs;
  if (config.compression_ratio > 1) {
    stream.source.compression = config.compress_on_host
                                    ? VcaSourceDriver::CompressionSite::kHost
                                    : VcaSourceDriver::CompressionSite::kDsp;
    stream.source.compression_ratio = config.compression_ratio;
  }
  stream.source.vbr = config.vbr;
  stream.sink.copy_to_device = config.rx_copy_mbufs_to_device;
  // Playout consumes the mean transported rate (compression shrinks it).
  stream.sink.playout_bytes = config.compression_ratio > 1
                                  ? config.packet_bytes / config.compression_ratio
                                  : config.packet_bytes;
  stream.sink.playout_period = config.packet_period;
  stream.sink.prime_packets = config.jitter_buffer_packets;
  stream.sink.adaptive = config.adaptive_jitter_buffer;
  stream.recovery.mode = config.recovery;
  stream.recovery.fec_group = config.fec_group;
  stream.recovery.nack_delay = config.nack_delay;
  // Birth-stamp reconstruction for FEC repairs works off the stream cadence.
  stream.recovery.packet_period = config.packet_period;
  return stream;
}

SimDuration InlineProbeCost(MeasurementMethod method) {
  switch (method) {
    case MeasurementMethod::kPcAt:
      return Microseconds(5);  // write the port, toggle the strobe
    case MeasurementMethod::kRtPcPseudoDevice:
      return Microseconds(25);  // procedure call into the pseudo-device
    case MeasurementMethod::kGroundTruth:
    case MeasurementMethod::kLogicAnalyzer:
      return 0;
  }
  return 0;
}

}  // namespace

CtmsExperiment::CtmsExperiment(CtmsConfig config)
    : config_(std::move(config)), topo_(config_.seed) {
  TokenRing& ring = topo_.AddRing(RingConfig(config_));
  tx_ = &topo_.AddStation("tx");
  rx_ = &topo_.AddStation("rx");
  tx_->AttachRing(&ring, &topo_.probes(), PortConfig(config_));
  rx_->AttachRing(&ring, &topo_.probes(), PortConfig(config_));
  tx_->InstallIpStack();
  rx_->InstallIpStack();

  stream_ = std::make_unique<StreamEndpoints>(tx_, rx_, &topo_.probes(),
                                              StreamConfig(config_));

  ground_truth_ = std::make_unique<GroundTruthRecorder>(&topo_.probes());
  tap_ = std::make_unique<TapMonitor>(&ring);

  // Ring population: ours plus TAP's station, then enough passive stations for the
  // environment (the ITC ring had ~70 machines; a private lab ring just a handful).
  ring.AddPassiveStations(config_.public_network ? 67 : 1);

  topo_.probes().set_inline_cost(InlineProbeCost(config_.method));
  switch (config_.method) {
    case MeasurementMethod::kRtPcPseudoDevice:
      rtpc_ = std::make_unique<RtPcPseudoDevice>(&topo_.probes(), sim().rng().Fork());
      break;
    case MeasurementMethod::kPcAt:
      pcat_ = std::make_unique<PcAtTimestamper>(&topo_.probes(), &sim(), sim().rng().Fork());
      break;
    case MeasurementMethod::kLogicAnalyzer: {
      LogicAnalyzer::Config la;
      la.channels = {ProbePoint::kVcaIrq, ProbePoint::kVcaHandlerEntry};
      logic_ = std::make_unique<LogicAnalyzer>(&topo_.probes(), la);
      break;
    }
    case MeasurementMethod::kGroundTruth:
      break;
  }

  // CTMSP assumes a static point-to-point connection: addresses are known at setup.
  tx_->ip_stack()->arp.InstallStatic(rx_->address());
  rx_->ip_stack()->arp.InstallStatic(tx_->address());

  tx_->driver().SetCtmspTransmitNotify([this](uint32_t seq, int64_t bytes) {
    stream_->transmitter().RememberLast(seq, bytes);
  });

  if (config_.retransmit_on_purge) {
    tx_->driver().EnablePurgeDetect([this]() {
      auto retransmit = stream_->transmitter().OnPurgeDetected();
      if (retransmit.has_value()) {
        tx_->driver().RetransmitCtmsp(retransmit->first, retransmit->second);
      }
    });
  }

  // Host kernels are never silent, even in "stand alone mode". Multiprocessing test
  // machines additionally suffer rare long stalls from the real-time analysis software.
  KernelBackgroundActivity::Config activity_config;
  if (config_.multiprocessing) {
    activity_config.stall_interarrival_mean = Milliseconds(1200);
  }
  tx_->AttachBackgroundActivity(sim().rng().Fork(), activity_config);
  rx_->AttachBackgroundActivity(sim().rng().Fork(), activity_config);

  BackgroundEnvironment& env = topo_.environment();
  env.AddMacTraffic(&ring, MacFrameTraffic::Config{config_.mac_fraction});

  if (config_.public_network) {
    // Ghost-to-ghost keep-alive chatter (ARP + AFS keep-alives of 66 other machines) and
    // compile/file-transfer bursts of 1522-byte frames, both scaled by the load knob.
    env.AddKeepaliveChatter(&ring, static_cast<SimDuration>(
        static_cast<double>(Milliseconds(90)) / config_.load_scale));
    env.AddTransferBursts(&ring, static_cast<SimDuration>(
        static_cast<double>(Milliseconds(1200)) / config_.load_scale));
  }

  if (config_.multiprocessing) {
    env.AddCompetingProcess(&tx_->kernel(), "timeshare-tx");
    env.AddCompetingProcess(&rx_->kernel(), "timeshare-rx");
    env.AddControlService(&tx_->kernel(), &tx_->ip_stack()->udp);
    env.AddControlService(&rx_->kernel(), &rx_->ip_stack()->udp);
    // The central control machine polls each host over its socket connection.
    for (const RingAddress target : {tx_->address(), rx_->address()}) {
      env.AddControlPolls(&ring, target);
    }
    // AFS fetch bursts arriving AT the hosts (cache refills): each 1522-byte frame costs
    // the receive path ~1.5 ms of splimp work, delaying CTMSP rx classification and
    // thickening Figure 5-4's above-peak mass.
    for (const RingAddress target : {tx_->address(), rx_->address()}) {
      env.AddAfsFetchBursts(&ring, target);
    }
    // The hosts are AFS clients with their own keep-alives.
    AfsClientDaemon::Config afs;
    afs.server = ring.AllocateGhostAddress();
    env.AddAfsClient(&tx_->kernel(), &tx_->ip_stack()->udp, afs);
    env.AddAfsClient(&rx_->kernel(), &rx_->ip_stack()->udp, afs);
    tx_->ip_stack()->arp.InstallStatic(afs.server);
    rx_->ip_stack()->arp.InstallStatic(afs.server);
    // The test harness streams recorded measurement data to the control machine in real
    // time ("a set of computers that recorded and analyzed data in real time", section
    // 5.2.1). These larger uploads are what CTMSP packets most often queue behind: the
    // driver must finish an in-service upload frame completely before the priority queue
    // is consulted again — the mechanism behind Figure 5-2's second peak.
    AfsClientDaemon::Config upload;
    upload.server = afs.server;
    upload.mean_interval = Milliseconds(140);
    upload.min_bytes = 2000;
    upload.max_bytes = 2000;
    upload.port = 7001;
    upload.process_cost = Microseconds(350);
    env.AddAfsClient(&tx_->kernel(), &tx_->ip_stack()->udp, upload);
    env.AddAfsClient(&rx_->kernel(), &rx_->ip_stack()->udp, upload);
  }

  if (config_.insertion_mean > 0) {
    env.AddInsertions(&ring, InsertionSchedule::Config{config_.insertion_mean});
  }

  if (config_.degradation != DegradationMode::kDropOldest) {
    DegradationPolicy::Config policy;
    policy.mode = config_.degradation;
    policy.retry_budget = config_.retry_budget;
    policy.backoff = config_.retry_backoff;
    degradation_ = std::make_unique<DegradationPolicy>(policy);
    tx_->driver().SetCtmspFailureHandler([this](TxStatus status, uint32_t seq, int64_t bytes) {
      if (stream_stopped_) {
        // A packet already on the wire when the stream stopped can still fail; granting
        // it a retry would re-arm exactly the timers StopStream just cancelled.
        return;
      }
      const DegradationPolicy::Decision decision = degradation_->OnFailure(status, seq);
      if (decision.action != DegradationPolicy::Action::kRetransmit) {
        return;
      }
      if (decision.delay > 0) {
        // Track the pending backoff retry so StopStream/teardown can cancel it — an
        // untracked retry fires into a stopped stream's transmit path. The entry removes
        // itself when it fires, so the map holds only genuinely pending retries.
        const uint64_t token = next_retry_token_++;
        pending_retries_[token] =
            sim().After(decision.delay, [this, seq, bytes, token]() {
              pending_retries_.erase(token);
              tx_->driver().RetransmitCtmsp(seq, bytes);
            });
      } else {
        // Requeued inside the failure interrupt, before tx_in_progress_ clears — the retry
        // is the very next packet on the wire (kBlock's ordering guarantee).
        tx_->driver().RetransmitCtmsp(seq, bytes);
      }
    });
  }

  // Fault wiring comes last: every station and the stream already exist, and an empty plan
  // is a strict no-op so plan-free runs reproduce the golden numbers.
  if (FaultInjector* injector = topo_.ApplyFaultPlan(config_.faults)) {
    injector->BindVcaSource(tx_->name(), &stream_->vca_source());
  }
}

CtmsExperiment::~CtmsExperiment() { StopStream(); }

void CtmsExperiment::StopStream() {
  stream_stopped_ = true;
  stream_->vca_source().Stop();
  // A degradation retry still in backoff must die with the stream, not fire into it.
  for (const auto& [token, id] : pending_retries_) {
    sim().Cancel(id);
  }
  pending_retries_.clear();
}

void CtmsExperiment::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  topo_.StartAll();
  stream_->Start();
}

ExperimentReport CtmsExperiment::Run() {
  Start();
  sim().RunFor(config_.duration);
  return Report();
}

std::vector<ProbeEvent> CtmsExperiment::MeasuredEvents() const {
  switch (config_.method) {
    case MeasurementMethod::kGroundTruth:
      return ground_truth_->events();
    case MeasurementMethod::kRtPcPseudoDevice:
      return rtpc_->events();
    case MeasurementMethod::kPcAt:
      return pcat_->Decode();
    case MeasurementMethod::kLogicAnalyzer:
      return logic_->trace();
  }
  return {};
}

ExperimentReport CtmsExperiment::Report() {
  ExperimentReport report;
  report.config = config_;
  report.measured = BuildPaperHistograms(MeasuredEvents());
  report.ground_truth = BuildPaperHistograms(ground_truth_->events());

  const StreamStats stats = stream_->Stats();
  report.irq_count = stats.interrupts;
  report.packets_built = stats.built;
  report.packets_delivered = stats.delivered;
  report.packets_lost = stats.lost;
  report.duplicates = stats.duplicates;
  report.out_of_order = stats.out_of_order;
  report.source_mbuf_drops = stats.mbuf_drops;
  report.source_queue_drops = stats.queue_drops;
  report.retransmissions = stats.retransmissions;
  report.late_recovered = stats.late_recovered;
  report.repaired = stats.repaired;
  report.nacks_sent = stats.nacks_sent;
  report.resends = stats.resends;
  report.parity_overhead_bytes = stats.parity_overhead_bytes;

  report.sink_underruns = stats.underruns;
  report.sink_peak_buffer = stats.peak_buffered_bytes;
  report.sink_latency = stream_->sink().latency();

  report.tx_cpu_utilization = tx_->machine().cpu().Utilization();
  report.rx_cpu_utilization = rx_->machine().cpu().Utilization();
  report.ring_utilization = ring().Utilization();

  report.ring_purges = ring().purge_count();
  report.ring_insertions = ring().insertion_count();
  report.frames_lost_to_purge = ring().frames_lost_to_purge();

  report.tap_ctmsp = tap_->AnalyzeStream(ProtocolId::kCtmsp);
  report.tap_mac_fraction = tap_->MacFrameFraction();

  report.tx_cpu_copies = tx_->machine().copies().cpu_copies();
  report.rx_cpu_copies = rx_->machine().copies().cpu_copies();
  report.tx_dma_copies = tx_->machine().copies().dma_copies();
  report.rx_dma_copies = rx_->machine().copies().dma_copies();
  return report;
}

std::string ExperimentReport::Summary() const {
  std::ostringstream os;
  os << "scenario " << config.name << " (" << FormatDuration(config.duration) << ", "
     << config.OfferedKBytesPerSecond() << " KB/s offered, method "
     << MeasurementMethodName(config.method) << ")\n";
  os << "  stream: " << packets_built << " sent, " << packets_delivered << " delivered, "
     << packets_lost << " lost, " << duplicates << " dup, " << out_of_order << " ooo, "
     << retransmissions << " retransmitted\n";
  os << "  source drops: " << source_mbuf_drops << " mbuf, " << source_queue_drops
     << " queue\n";
  if (config.recovery != RecoveryMode::kNone) {
    os << "  recovery (" << RecoveryModeName(config.recovery) << "): " << repaired
       << " repaired, " << nacks_sent << " nacks, " << resends << " resends, "
       << parity_overhead_bytes << " parity bytes\n";
  }
  os << "  sink: " << sink_underruns << " underruns, peak buffer " << sink_peak_buffer
     << " bytes\n";
  os << "  cpu: tx " << tx_cpu_utilization * 100.0 << "% rx " << rx_cpu_utilization * 100.0
     << "%  ring " << ring_utilization * 100.0 << "%\n";
  os << "  ring: " << ring_purges << " purges, " << ring_insertions << " insertions, "
     << frames_lost_to_purge << " frames lost to purge\n";
  os << "  " << measured.handler_to_pre_tx.SummaryLine() << "\n";
  os << "  " << measured.pre_tx_to_rx.SummaryLine() << "\n";
  return os.str();
}

}  // namespace ctms
