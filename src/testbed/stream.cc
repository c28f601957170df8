#include "src/testbed/stream.h"

#include <algorithm>
#include <utility>

namespace ctms {

StreamEndpoints::StreamEndpoints(Station* tx, Station* rx, ProbeBus* probes, Config config)
    : tx_(tx),
      rx_(rx),
      tx_port_(config.tx_port),
      rx_port_(config.rx_port),
      media_class_(config.media_class) {
  if (media_class_.has_value()) {
    // The class cadence drives the sink's playout model and arms its QoE accounting; the
    // source adopts the same descriptor after construction.
    config.sink.playout_period = media_class_->period;
    config.sink.playout_bytes = media_class_->packet_bytes;
    config.sink.deadline = media_class_->deadline;
    config.sink.media_class = media_class_->name;
  }
  if (config.use_ctmsp) {
    CtmspConnectionConfig conn = config.connection;
    if (conn.peer == 0) {
      conn.peer = rx_->address(rx_port_);
    }
    CtmspConnectionConfig receiver_conn = config.receiver_connection.value_or(conn);
    if (receiver_conn.peer == 0) {
      receiver_conn.peer = tx_->address(tx_port_);
    }
    transmitter_ = std::make_unique<CtmspTransmitter>(conn);
    receiver_ = std::make_unique<CtmspReceiver>(receiver_conn);
  }
  vca_source_ = std::make_unique<VcaSourceDriver>(&tx_->kernel(), &tx_->driver(tx_port_),
                                                  probes, transmitter_.get(), config.source);
  if (media_class_.has_value()) {
    vca_source_->AdoptMediaClass(*media_class_);
  }
  sink_ = std::make_unique<VcaSinkDriver>(&rx_->kernel(), receiver_.get(), config.sink);
  if (config.use_ctmsp && config.wire_rx_input) {
    if (config.recovery.mode != RecoveryMode::kNone) {
      WireRecovery(config);
    } else {
      VcaSinkDriver* sink = sink_.get();
      rx_->driver(rx_port_).SetCtmspInput(
          [sink](const Packet& packet, bool in_dma, std::function<void()> release) {
            sink->OnCtmspDeliver(packet, in_dma, std::move(release));
          });
    }
  }
}

void StreamEndpoints::WireRecovery(const Config& config) {
  const std::string tx_name = tx_->kernel().machine()->name();
  const std::string rx_name = rx_->kernel().machine()->name();
  recovery_tx_ = std::make_unique<RecoveryTx>(tx_->sim(), tx_name, config.recovery);
  recovery_rx_ = std::make_unique<RecoveryRx>(rx_->sim(), rx_name, config.recovery);
  vca_source_->SetRecoveryTx(recovery_tx_.get());

  TokenRingDriver* tx_driver = &tx_->driver(tx_port_);
  recovery_tx_->SetResend([tx_driver](uint32_t seq, int64_t bytes) {
    // Same requeue the purge-retransmit policy uses: head of the CTMSP queue, so the
    // resend overtakes queued fresh data and lands inside the receiver's window.
    tx_driver->RetransmitCtmsp(seq, bytes);
  });

  // FEC repair: sequence accounting first (the loss becomes a delivery, exactly once),
  // presentation second. A repair the receiver rejects — already delivered, or past the
  // window — is discarded, or the same packet would reach playout twice.
  recovery_rx_->SetRepair([this](uint32_t seq, int64_t bytes, SimTime created_at) {
    if (receiver_->OnRepaired(seq)) {
      sink_->DeliverRepaired(bytes, created_at);
    }
  });

  if (RecoveryUsesNack(config.recovery.mode)) {
    // The CTMSP-2 control channel rides the ordinary ARP/IP/UDP path — reverse
    // signalling is low-rate and not deadline-bound, so it does not need CTMSP's ring
    // priorities. Stations without an IP stack (no experiment installed one) get one on
    // the stream's ports; the static ARP entries keep the control plane self-contained.
    if (tx_->ip_stack() == nullptr) {
      tx_->InstallIpStack(tx_port_);
    }
    if (rx_->ip_stack() == nullptr) {
      rx_->InstallIpStack(rx_port_);
    }
    tx_->ip_stack()->arp.InstallStatic(rx_->address(rx_port_));
    rx_->ip_stack()->arp.InstallStatic(tx_->address(tx_port_));

    const uint16_t control_port = config.control_port;
    const RingAddress tx_addr = tx_->address(tx_port_);
    const RingAddress rx_addr = rx_->address(rx_port_);
    // Control datagrams carry their kind in ctmsp_kind and the payload in seq/ack_seq/
    // fec_base (PROTOCOL.md 2.4.3). Fixed size: control length must not depend on state,
    // or a lossier run would perturb wire timing through its own feedback.
    constexpr int64_t kControlBytes = 48;
    auto send_control = [](Station* station, RingAddress dst, uint16_t port) {
      UdpLayer* udp = &station->ip_stack()->udp;
      Simulation* sim = station->sim();
      return [udp, sim, dst, port](Ctmsp2ControlKind kind, const Ctmsp2Status& payload) {
        Packet packet;
        packet.bytes = kControlBytes;
        packet.dst = dst;
        packet.port = port;
        packet.created_at = sim->Now();
        packet.ctmsp_kind = static_cast<uint8_t>(kind);
        packet.seq = payload.highest_seq;
        packet.ack_seq = static_cast<uint32_t>(payload.buffer_bytes);
        packet.fec_base = payload.losses;
        udp->Output(packet);
      };
    };
    session_ = std::make_unique<Ctmsp2Session>(tx_->sim(), Ctmsp2Session::Config{},
                                               send_control(tx_, rx_addr, control_port));
    responder_ = std::make_unique<Ctmsp2Responder>(Ctmsp2Responder::Config{},
                                                   send_control(rx_, tx_addr, control_port));
    session_->SetNackHandler(
        [this](uint32_t seq) { recovery_tx_->OnNack(seq); });
    recovery_rx_->SetNack([this](uint32_t seq) { responder_->SendNack(seq); });

    tx_->ip_stack()->udp.Bind(control_port, [this](const Packet& packet) {
      Ctmsp2Status payload;
      payload.highest_seq = packet.seq;
      payload.buffer_bytes = packet.ack_seq;
      payload.losses = packet.fec_base;
      session_->OnControl(static_cast<Ctmsp2ControlKind>(packet.ctmsp_kind), payload);
    });
    rx_->ip_stack()->udp.Bind(control_port, [this](const Packet& packet) {
      Ctmsp2Status payload;
      payload.highest_seq = packet.seq;
      payload.buffer_bytes = packet.ack_seq;
      payload.losses = packet.fec_base;
      responder_->OnControl(static_cast<Ctmsp2ControlKind>(packet.ctmsp_kind), payload);
    });
  }

  // The receive demux, recovery-aware: parity packets divert to the repair engine before
  // any sequence bookkeeping (their label seq must never touch the data window); data
  // packets feed gap detection first, then the ordinary delivery path, then the session
  // responder's STATUS cadence.
  rx_->driver(rx_port_).SetCtmspInput(
      [this](const Packet& packet, bool in_dma, std::function<void()> release) {
        if (packet.ctmsp_kind == kCtmspKindParity) {
          recovery_rx_->OnParity(packet);
          release();
          return;
        }
        recovery_rx_->OnData(packet);
        sink_->OnCtmspDeliver(packet, in_dma, std::move(release));
        if (responder_ != nullptr) {
          responder_->OnDataPacket(packet.seq, sink_->buffered_bytes(),
                                   static_cast<uint32_t>(receiver_->lost()));
        }
      });
}

StreamEndpoints::StreamEndpoints(Station* tx, Station* rx, ProbeBus* probes,
                                 MediaConfig config)
    : tx_(tx),
      rx_(rx),
      tx_port_(config.tx_port),
      rx_port_(config.rx_port),
      media_class_(config.media_class) {
  if (media_class_.has_value()) {
    config.sink.playout_period = media_class_->period;
    config.sink.playout_bytes = media_class_->packet_bytes;
    config.sink.deadline = media_class_->deadline;
    config.sink.media_class = media_class_->name;
  }
  CtmspConnectionConfig conn = config.connection;
  if (conn.peer == 0) {
    conn.peer = rx_->address(rx_port_);
  }
  transmitter_ = std::make_unique<CtmspTransmitter>(conn);
  receiver_ = std::make_unique<CtmspReceiver>(conn);
  media_source_ = std::make_unique<MediaServerSource>(&tx_->kernel(), config.disk,
                                                      &tx_->driver(tx_port_), probes,
                                                      transmitter_.get(), config.source);
  if (media_class_.has_value()) {
    media_source_->AdoptMediaClass(*media_class_);
  }
  sink_ = std::make_unique<VcaSinkDriver>(&rx_->kernel(), receiver_.get(), config.sink);
  VcaSinkDriver* sink = sink_.get();
  rx_->driver(rx_port_).SetCtmspInput(
      [sink](const Packet& packet, bool in_dma, std::function<void()> release) {
        sink->OnCtmspDeliver(packet, in_dma, std::move(release));
      });
}

void StreamEndpoints::Start(RingAddress destination) {
  if (session_ != nullptr) {
    // The CTMSP-2 handshake runs beside the first data packets; the responder only
    // signals (STATUS/NACK) once the ACCEPT lands.
    session_->Connect(nullptr);
  }
  const RingAddress dst = destination != 0 ? destination : rx_->address(rx_port_);
  if (media_source_ != nullptr) {
    media_source_->Start(dst);
    return;
  }
  vca_source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, dst);
}

StreamStats StreamEndpoints::Stats() const {
  StreamStats stats;
  if (vca_source_ != nullptr) {
    stats.interrupts = vca_source_->interrupts();
    stats.built = vca_source_->packets_built();
    stats.mbuf_drops = vca_source_->mbuf_drops();
    stats.queue_drops = vca_source_->queue_drops();
  }
  if (media_source_ != nullptr) {
    stats.built = media_source_->packets_sent();
    stats.mbuf_drops = media_source_->mbuf_drops();
    stats.queue_drops = media_source_->queue_drops();
    stats.starvations = media_source_->starvations();
  }
  if (receiver_ != nullptr) {
    stats.delivered = receiver_->delivered();
    stats.lost = receiver_->lost();
    stats.duplicates = receiver_->duplicates();
    stats.out_of_order = receiver_->out_of_order();
    stats.late_recovered = receiver_->late_recovered();
  } else {
    stats.delivered = sink_->packets_accepted();  // no CTMSP layer to count for us
  }
  if (transmitter_ != nullptr) {
    stats.retransmissions = transmitter_->retransmissions();
  }
  if (receiver_ != nullptr) {
    stats.repaired = receiver_->repaired();
  }
  if (recovery_rx_ != nullptr) {
    stats.nacks_sent = recovery_rx_->nacks_sent();
  }
  if (recovery_tx_ != nullptr) {
    stats.resends = recovery_tx_->resends();
    stats.parity_overhead_bytes = recovery_tx_->parity_overhead_bytes();
  }
  stats.underruns = sink_->underruns();
  stats.peak_buffered_bytes = sink_->peak_buffered_bytes();
  if (!sink_->latency().empty()) {
    const SummaryStats latency = sink_->latency().Summary();
    stats.mean_latency = static_cast<SimDuration>(latency.mean);
    stats.max_latency = latency.max;
  }
  if (media_class_.has_value()) {
    stats.media_class = media_class_->name;
    stats.deadline_misses = sink_->deadline_misses();
    stats.starvation_time = sink_->starvation_time();
    // The distortion proxy: class-weighted count of everything the user would perceive.
    // `lost` already includes source-side drops (sequence numbers are consumed before the
    // mbuf/queue stages), so transport and source congestion land in one number.
    stats.distortion = media_class_->loss_weight * static_cast<double>(stats.lost) +
                       media_class_->late_weight * static_cast<double>(stats.deadline_misses) +
                       media_class_->underrun_weight * static_cast<double>(stats.underruns);
  }
  return stats;
}

std::vector<ClassQoE> AggregateClasses(const std::vector<StreamStats>& streams) {
  std::vector<ClassQoE> classes;
  for (const StreamStats& stats : streams) {
    if (stats.media_class.empty()) {
      continue;
    }
    size_t slot = 0;
    while (slot < classes.size() && classes[slot].name != stats.media_class) {
      ++slot;
    }
    if (slot == classes.size()) {
      classes.push_back(ClassQoE{.name = stats.media_class});
    }
    ClassQoE& qoe = classes[slot];
    ++qoe.streams;
    qoe.built += stats.built;
    qoe.delivered += stats.delivered;
    qoe.lost += stats.lost;
    qoe.queue_drops += stats.queue_drops + stats.mbuf_drops;
    qoe.deadline_misses += stats.deadline_misses;
    qoe.underruns += stats.underruns;
    qoe.starvation_time += stats.starvation_time;
    qoe.distortion += stats.distortion;
    qoe.mean_latency += stats.mean_latency;  // summed here, divided by streams below
    qoe.max_latency = std::max(qoe.max_latency, stats.max_latency);
  }
  for (ClassQoE& qoe : classes) {
    if (qoe.delivered > 0) {
      qoe.deadline_miss_rate =
          static_cast<double>(qoe.deadline_misses) / static_cast<double>(qoe.delivered);
    }
    qoe.mean_latency /= qoe.streams;
  }
  return classes;
}

CtmspRelay::CtmspRelay(Station* station, size_t in_port, size_t out_port,
                       RingAddress next_hop) {
  TokenRingDriver* out = &station->driver(out_port);
  station->driver(in_port).SetCtmspInput([this, out, next_hop](const Packet& packet,
                                                               bool in_dma_buffer,
                                                               std::function<void()> release) {
    Packet forward = packet;
    forward.dst = next_hop;
    // Zero-copy multi-hop: keep the arena payload reference for the next hop. The mbuf
    // charge was already credited back at the first transmit, so forwarding never touches
    // a pool — this is CDTP's chain transfer, by handle.
    ++forwarded_;
    if (forward.media_class != 0) {
      ++forwarded_by_class_[forward.media_class];
    }
    // Via-mbufs in-port: the packet now lives in this station's mbufs and the out-port
    // driver copies it into its own fixed DMA buffer as usual. Zero-copy (in_dma_buffer):
    // the out-port transmit is just a descriptor flip, so the rx buffer can be released as
    // soon as it is queued. Queue overflow shows up in the out driver's statistics.
    out->OutputCtmsp(forward);
    release();
    (void)in_dma_buffer;
  });
}

CtmspTap::CtmspTap(Station* station, size_t in_port, Callback callback) {
  station->driver(in_port).SetCtmspInput(
      [this, callback = std::move(callback)](const Packet& packet, bool in_dma_buffer,
                                             std::function<void()> release) {
        Packet captured = packet;
        ++captured_;
        callback(captured);
        release();
        (void)in_dma_buffer;
      });
}

}  // namespace ctms
