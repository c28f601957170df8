#include "src/core/baseline.h"

#include <sstream>
#include <utility>

namespace ctms {

namespace {

constexpr uint16_t kStreamPort = 6000;

Station::PortConfig StockPortConfig(const BaselineConfig& config) {
  Station::PortConfig port;
  port.adapter.dma_buffer_kind = config.dma_buffer_kind;
  port.driver.ctms_mode = false;  // plain 4.3BSD driver: one FIFO queue, no split point
  return port;
}

}  // namespace

BaselineExperiment::BaselineExperiment(BaselineConfig config)
    : config_(std::move(config)), topo_(config_.seed) {
  TokenRing& ring = topo_.AddRing();
  tx_ = &topo_.AddStation("tx");
  tx_->AttachRing(&ring, &topo_.probes(), StockPortConfig(config_));
  tx_->InstallIpStack();
  rx_ = &topo_.AddStation("rx");
  rx_->AttachRing(&ring, &topo_.probes(), StockPortConfig(config_));
  rx_->InstallIpStack();

  StreamEndpoints::Config endpoints;
  endpoints.use_ctmsp = false;  // the relay processes carry the stream, not CTMSP
  endpoints.source.packet_bytes = config_.packet_bytes;
  endpoints.source.period = config_.packet_period;
  endpoints.sink.copy_to_device = true;
  // The stock path drives the unmodified byte-wide card interface (the paper's footnote 3
  // adapter); the CTMS driver's 16-bit transfers halve this.
  endpoints.sink.device_copy_per_byte = Microseconds(2);
  endpoints.sink.playout_bytes = config_.packet_bytes;
  endpoints.sink.playout_period = config_.packet_period;
  // The stock path's delivery jitter (relay scheduling, TCP windows) needs a deeper playout
  // prime than the CTMS path.
  endpoints.sink.prime_packets = 5;
  stream_ = std::make_unique<StreamEndpoints>(tx_, rx_, &topo_.probes(), endpoints);

  ring.AddPassiveStations(config_.public_network ? 67 : 1);

  tx_->ip_stack()->arp.InstallStatic(rx_->address());
  rx_->ip_stack()->arp.InstallStatic(tx_->address());

  if (config_.use_tcp) {
    tx_tcp_ = std::make_unique<TcpLite>(&tx_->kernel(), &tx_->ip_stack()->ip);
    rx_tcp_ = std::make_unique<TcpLite>(&rx_->kernel(), &rx_->ip_stack()->ip);
    TcpLiteEndpoint::Config tx_cfg;
    tx_cfg.local_port = kStreamPort;
    tx_cfg.remote_port = kStreamPort;
    tx_cfg.remote = rx_->address();
    tx_tcp_endpoint_ = tx_tcp_->CreateEndpoint(tx_cfg);
    TcpLiteEndpoint::Config rx_cfg = tx_cfg;
    rx_cfg.remote = tx_->address();
    rx_tcp_endpoint_ = rx_tcp_->CreateEndpoint(rx_cfg);
  }

  // The transmit-side relay: read() from the media device, write() to the stream socket.
  tx_relay_ = std::make_unique<RelayProcess>(
      &tx_->kernel(), "tx-relay", RelayProcess::Config{}, [this](const Packet& packet) {
        if (config_.use_tcp) {
          tx_tcp_endpoint_->Send(packet.bytes);
          return;
        }
        Packet datagram = packet;
        datagram.protocol = ProtocolId::kNone;
        datagram.dst = rx_->address();
        datagram.port = kStreamPort;
        datagram.payload.reset();  // write() re-buffers; the relay's copyin was charged already
        tx_->ip_stack()->udp.Output(datagram);
      });

  // The receive-side relay: read() from the stream socket, write() to the audio device.
  rx_relay_ = std::make_unique<RelayProcess>(
      &rx_->kernel(), "rx-relay", RelayProcess::Config{}, [this](const Packet& packet) {
        stream_->sink().OnCtmspDeliver(packet, /*in_dma_buffer=*/false, []() {});
      });

  if (config_.use_tcp) {
    rx_tcp_endpoint_->SetDeliver([this](const Packet& packet) { rx_relay_->Deliver(packet); });
  } else {
    rx_->ip_stack()->udp.Bind(kStreamPort,
                              [this](const Packet& packet) { rx_relay_->Deliver(packet); });
  }

  tx_->AttachBackgroundActivity(topo_.sim().rng().Fork());
  rx_->AttachBackgroundActivity(topo_.sim().rng().Fork());
  BackgroundEnvironment& env = topo_.environment();
  env.AddMacTraffic(&ring, MacFrameTraffic::Config{0.004});
  if (config_.public_network) {
    env.AddKeepaliveChatter(&ring, Milliseconds(90));
    env.AddTransferBursts(&ring, Milliseconds(1200));
  }

  topo_.ApplyFaultPlan(config_.faults);
}

BaselineReport BaselineExperiment::Run() {
  if (config_.timesharing) {
    BackgroundEnvironment& env = topo_.environment();
    env.AddCompetingProcess(&tx_->kernel(), "timeshare-tx");
    env.AddCompetingProcess(&rx_->kernel(), "timeshare-rx");
  }
  topo_.StartAll();
  stream_->vca_source().Start(VcaSourceDriver::OutputMode::kDeliverToProcess, rx_->address(),
                              [this](const Packet& packet) { tx_relay_->Deliver(packet); });
  topo_.sim().RunFor(config_.duration);
  stream_->vca_source().Stop();

  BaselineReport report;
  report.config = config_;
  report.offered_kbytes_per_sec = config_.OfferedKBytesPerSecond();
  const StreamStats stats = stream_->Stats();
  report.packets_captured = stats.built;
  report.packets_delivered = stats.delivered;
  const double seconds = ToSecondsF(config_.duration);
  report.delivered_kbytes_per_sec =
      static_cast<double>(stats.delivered * static_cast<uint64_t>(config_.packet_bytes)) /
      (seconds * 1000.0);
  report.source_mbuf_drops = stats.mbuf_drops;
  report.tx_relay_rcvbuf_drops = tx_relay_->dropped_rcvbuf();
  report.tx_ifsnd_drops = tx_->driver().snd_queue().drops();
  report.rx_ipintr_drops = rx_->driver().ipintr_queue().drops();
  report.rx_relay_rcvbuf_drops = rx_relay_->dropped_rcvbuf();
  report.rx_adapter_overruns = rx_->adapter().rx_overruns();
  report.tcp_retransmits =
      tx_tcp_endpoint_ != nullptr ? tx_tcp_endpoint_->retransmits() : 0;
  report.sink_underruns = stats.underruns;
  report.end_to_end_latency = stream_->sink().latency();
  report.tx_cpu_utilization = tx_->machine().cpu().Utilization();
  report.rx_cpu_utilization = rx_->machine().cpu().Utilization();
  report.ring_utilization = topo_.ring().Utilization();
  return report;
}

std::string BaselineReport::Summary() const {
  std::ostringstream os;
  os << "baseline " << config.name << " @ " << offered_kbytes_per_sec << " KB/s offered: "
     << delivered_kbytes_per_sec << " KB/s delivered ("
     << (Sustained() ? "SUSTAINED" : "FAILED") << ")\n";
  os << "  " << packets_captured << " captured, " << packets_delivered << " delivered, "
     << sink_underruns << " underruns\n";
  os << "  drops: mbuf=" << source_mbuf_drops << " tx-rcvbuf=" << tx_relay_rcvbuf_drops
     << " if_snd=" << tx_ifsnd_drops << " ipintrq=" << rx_ipintr_drops
     << " rx-rcvbuf=" << rx_relay_rcvbuf_drops << " adapter-overrun=" << rx_adapter_overruns
     << " tcp-rexmit=" << tcp_retransmits << "\n";
  os << "  cpu: tx " << tx_cpu_utilization * 100.0 << "% rx " << rx_cpu_utilization * 100.0
     << "%  ring " << ring_utilization * 100.0 << "%\n";
  return os.str();
}

}  // namespace ctms
