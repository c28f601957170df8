#include "src/dev/vca.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ctms {

VcaSourceDriver::VcaSourceDriver(UnixKernel* kernel, TokenRingDriver* tr_driver, ProbeBus* probes,
                                 CtmspTransmitter* connection, Config config)
    : kernel_(kernel),
      tr_driver_(tr_driver),
      probes_(probes),
      connection_(connection),
      config_(config),
      rng_(kernel->sim()->rng().Fork()) {
  MetricsRegistry& metrics = kernel_->sim()->telemetry().metrics;
  const std::string prefix = "driver.vca." + kernel_->machine()->name() + ".";
  interrupts_counter_ = metrics.GetCounter(prefix + "interrupts");
  packets_built_counter_ = metrics.GetCounter(prefix + "packets_built");
  mbuf_drops_counter_ = metrics.GetCounter(prefix + "mbuf_drops");
  queue_drops_counter_ = metrics.GetCounter(prefix + "queue_drops");
}

void VcaSourceDriver::Start(OutputMode mode, RingAddress dst,
                            std::function<void(const Packet&)> deliver) {
  Stop();
  mode_ = mode;
  dst_ = dst;
  deliver_ = std::move(deliver);
  if (mode_ == OutputMode::kCtmspDirect && connection_ != nullptr &&
      !connection_->header_ready()) {
    // The setup ioctl: request the Token Ring header once and keep it as device state.
    kernel_->machine()->cpu().SubmitInterrupt("vca-ioctl-setup", Spl::kImp,
                                              tr_driver_->HeaderComputeCost(), nullptr);
    connection_->MarkHeaderReady();
  }
  Simulation* sim = kernel_->sim();
  // The DSP's first tick lands one period out; jitter is drawn per interrupt around the
  // exact 12 ms grid (the grid itself never drifts — the paper's oscilloscope finding).
  // Tick state is reference-cycle-free: the pending event and the cancel closure are the
  // only owners.
  struct TickState : std::enable_shared_from_this<TickState> {
    VcaSourceDriver* driver = nullptr;
    Simulation* sim = nullptr;
    SimTime t0 = 0;
    int64_t n = 0;
    bool cancelled = false;

    void ScheduleNext() {
      if (cancelled) {
        return;
      }
      ++n;
      SimTime target = t0 + n * driver->config_.period;
      if (driver->config_.irq_jitter_sigma > 0) {
        target += driver->rng_.NormalDuration(0, driver->config_.irq_jitter_sigma,
                                              -4 * driver->config_.irq_jitter_sigma);
      }
      if (target < sim->Now()) {
        target = sim->Now();
      }
      auto self = shared_from_this();
      sim->At(target, [self]() {
        if (self->cancelled) {
          return;
        }
        self->driver->OnIrq();
        self->ScheduleNext();
      });
    }
  };
  auto state = std::make_shared<TickState>();
  state->driver = this;
  state->sim = sim;
  state->t0 = sim->Now();
  state->ScheduleNext();
  cancel_ = [state]() { state->cancelled = true; };
}

void VcaSourceDriver::Stop() {
  if (cancel_) {
    cancel_();
    cancel_ = nullptr;
  }
}

int64_t VcaSourceDriver::WirePacketBytes(const Config& config, uint32_t n) {
  double bytes = static_cast<double>(config.packet_bytes);
  if (config.vbr) {
    // Key frames are vbr_key_scale x the mean; delta frames shrink so the mean holds:
    // (scale + (k-1) * delta) / k = 1  =>  delta = (k - scale) / (k - 1).
    const double k = config.vbr_key_interval;
    const double delta_scale = (k - config.vbr_key_scale) / (k - 1.0);
    bytes *= (n % config.vbr_key_interval == 0) ? config.vbr_key_scale : delta_scale;
  }
  if (config.compression != CompressionSite::kNone) {
    bytes /= config.compression_ratio;
  }
  return bytes < 1.0 ? 1 : static_cast<int64_t>(bytes);
}

void VcaSourceDriver::AdoptMediaClass(const MediaClass& media_class) {
  media_class_ = media_class;
  config_.period = media_class.period;
  config_.packet_bytes = media_class.packet_bytes;
  config_.vbr = media_class.vbr;
  config_.vbr_key_interval = media_class.vbr_key_interval;
  config_.vbr_key_scale = media_class.vbr_key_scale;
  config_.vbr_burst_sigma = media_class.vbr_burst_sigma;
}

void VcaSourceDriver::InjectStall(SimDuration duration) {
  const SimTime until = kernel_->sim()->Now() + duration;
  if (until > stalled_until_) {
    stalled_until_ = until;
  }
}

void VcaSourceDriver::OnIrq() {
  if (stalled()) {
    // The DSP is wedged: the tick grid keeps counting but the interrupt never reaches the
    // host, so no handler runs and no packet (or sequence number) is produced.
    ++stall_missed_irqs_;
    return;
  }
  ++interrupts_;
  interrupts_counter_->Increment();
  const SimTime now = kernel_->sim()->Now();
  // Measurement point 1: the interrupt request line itself (hardware edge; external tools
  // see it with no software cost).
  probes_->Emit(ProbePoint::kVcaIrq, static_cast<uint32_t>(interrupts_), now);

  Cpu& cpu = kernel_->machine()->cpu();
  Cpu::Job job = cpu.NewJob("vca-intr", Spl::kImp);
  // Measurement point 2: entry into the interrupt handler (after dispatch), with the
  // in-line recording cost of whichever tool is attached.
  job.AddStep(probes_->inline_cost(),
              [this]() {
                probes_->Emit(ProbePoint::kVcaHandlerEntry, static_cast<uint32_t>(interrupts_),
                              kernel_->sim()->Now());
              },
              Spl::kImp);

  if (mode_ == OutputMode::kCtmspDirect) {
    const uint32_t seq = connection_->NextSeq();
    int64_t wire_bytes = WirePacketBytes(config_, seq);
    if (config_.vbr && config_.vbr_burst_sigma > 0) {
      // Mean-one lognormal burst on top of the key/delta cadence: exp(N(0,s) - s^2/2).
      // Only classed VBR sources draw here, so legacy runs consume no extra RNG values.
      const double sigma = config_.vbr_burst_sigma;
      const double factor =
          std::exp(rng_.Normal(0.0, sigma) - sigma * sigma / 2.0);
      wire_bytes = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(wire_bytes) * factor));
    }
    // Build the packet: this step charges the handler's work (chain allocation, header,
    // destination device number and packet number stores). The pool allocation itself
    // happens in the zero-cost step below, after any device copy and host compression.
    job.AddStep(config_.build_cost, nullptr, Spl::kImp);
    if (config_.copy_device_data) {
      job.AddStep(config_.device_bytes * config_.pio_per_byte, nullptr, Spl::kImp);
    }
    if (config_.compression == CompressionSite::kHost) {
      // The software codec chews every raw byte on the host CPU before transport.
      job.AddStep(config_.packet_bytes * config_.host_compress_per_byte, nullptr, Spl::kImp);
    }
    job.AddStep(
        0,
        [this, seq, now, wire_bytes]() {
          // Journey birth: the id is anchored to the IRQ edge, the stage it measures from.
          JourneyRecorder& journeys = kernel_->sim()->telemetry().journeys;
          const uint64_t journey = journeys.Begin(seq, now);
          PayloadRef payload = kernel_->AllocatePayload(wire_bytes);
          if (!payload.valid()) {
            ++mbuf_drops_;  // M_DONTWAIT semantics: interrupt context cannot sleep
            mbuf_drops_counter_->Increment();
            journeys.Abort(journey, JourneyAnomaly::kDrop, kernel_->sim()->Now());
            return;
          }
          journeys.Stamp(journey, JourneyStage::kMbufAlloc, kernel_->sim()->Now());
          Packet packet;
          packet.protocol = ProtocolId::kCtmsp;
          packet.bytes = wire_bytes;
          packet.seq = seq;
          packet.dst = dst_;
          // The CTMSP destination device number rides the demux field end-to-end; the fabric
          // keys its per-flow routing tables off it at every bridge. 0 (the default) for the
          // single-ring experiments, which never look at it.
          packet.port = connection_->config().destination_device;
          packet.created_at = now;
          packet.journey = journey;
          packet.media_class = static_cast<uint8_t>(media_class_.id);
          packet.mbuf_segments = payload.segments();
          packet.payload = std::move(payload);
          ++packets_built_;
          bytes_built_ += wire_bytes;
          packets_built_counter_->Increment();
          if (!tr_driver_->OutputCtmsp(packet)) {
            ++queue_drops_;
            queue_drops_counter_->Increment();
          } else if (recovery_tx_ != nullptr) {
            // Only what actually reached the wire joins the FEC group / resend buffer:
            // recovery must never "repair" a packet the source itself dropped.
            recovery_tx_->OnDataSent(seq, wire_bytes);
          }
        },
        Spl::kImp);
    if (recovery_tx_ != nullptr && recovery_tx_->ParityDue(seq)) {
      // This interrupt produced the group's closing packet: XOR the group and ship the
      // parity right behind it. A separate step so the CPU cost of the XOR is visible,
      // sequenced after the data action so the closer is in the group before it closes.
      job.AddStep(
          recovery_tx_->config().parity_build_cost,
          [this, seq]() {
            std::optional<RecoveryTx::ParityPacket> parity = recovery_tx_->FinishGroup(seq);
            if (!parity.has_value()) {
              return;  // nothing from this group made it onto the wire
            }
            PayloadRef payload = kernel_->AllocatePayload(parity->bytes);
            if (!payload.valid()) {
              ++mbuf_drops_;  // the group rides unprotected
              mbuf_drops_counter_->Increment();
              return;
            }
            Packet packet;
            packet.protocol = ProtocolId::kCtmsp;
            packet.ctmsp_kind = kCtmspKindParity;
            packet.bytes = parity->bytes;
            // The label seq is the group's closer; receivers demux on ctmsp_kind before
            // any sequence bookkeeping, so this never collides with the data packet.
            packet.seq = seq;
            packet.fec_base = parity->base;
            packet.fec_mask = parity->mask;
            packet.dst = dst_;
            packet.port = connection_->config().destination_device;
            packet.created_at = kernel_->sim()->Now();
            packet.media_class = static_cast<uint8_t>(media_class_.id);
            packet.mbuf_segments = payload.segments();
            packet.payload = std::move(payload);
            if (!tr_driver_->OutputCtmsp(packet)) {
              ++queue_drops_;
              queue_drops_counter_->Increment();
            }
          },
          Spl::kImp);
    }
  } else {
    // Stock mode: the handler copies the card's kernel-buffer data into mbufs and wakes the
    // relay process — the first two copies of the section-2 diagram.
    kernel_->CopySteps(&job, config_.packet_bytes, MemoryKind::kSystemMemory,
                       MemoryKind::kSystemMemory, Spl::kImp);
    job.AddStep(
        0,
        [this, now]() {
          PayloadRef payload = kernel_->AllocatePayload(config_.packet_bytes);
          if (!payload.valid()) {
            ++mbuf_drops_;
            mbuf_drops_counter_->Increment();
            return;
          }
          Packet packet;
          packet.protocol = ProtocolId::kNone;
          packet.bytes = config_.packet_bytes;
          packet.seq = static_cast<uint32_t>(++packets_built_);
          packets_built_counter_->Increment();
          packet.dst = dst_;
          packet.created_at = now;
          packet.mbuf_segments = payload.segments();
          packet.payload = std::move(payload);
          bytes_built_ += config_.packet_bytes;
          if (deliver_) {
            deliver_(packet);
          }
        },
        Spl::kImp);
  }
  cpu.SubmitInterrupt(std::move(job));
}

// --- VcaSinkDriver ---------------------------------------------------------------------------

VcaSinkDriver::VcaSinkDriver(UnixKernel* kernel, CtmspReceiver* connection, Config config)
    : kernel_(kernel), connection_(connection), config_(config) {
  MetricsRegistry& metrics = kernel_->sim()->telemetry().metrics;
  const std::string prefix = "driver.vca." + kernel_->machine()->name() + ".";
  packets_accepted_counter_ = metrics.GetCounter(prefix + "packets_accepted");
  underruns_counter_ = metrics.GetCounter(prefix + "underruns");
  rebuffers_counter_ = metrics.GetCounter(prefix + "rebuffers");
  skipped_counter_ = metrics.GetCounter(prefix + "skipped_packets");
  if (!config_.media_class.empty()) {
    // Classed sinks (mediamix and friends) publish their QoE counters; legacy sinks
    // register nothing, keeping the metrics registry — and every golden — unchanged.
    const std::string qoe =
        "qoe." + config_.media_class + "." + kernel_->machine()->name() + ".";
    deadline_misses_counter_ = metrics.GetCounter(qoe + "deadline_misses");
    starvation_ns_counter_ = metrics.GetCounter(qoe + "starvation_ns");
  }
}

void VcaSinkDriver::OnCtmspDeliver(const Packet& packet, bool in_dma_buffer,
                                   std::function<void()> release) {
  if (connection_ != nullptr) {
    // CTMSP sequence bookkeeping: duplicate suppression and loss accounting.
    const CtmspReceiver::Verdict verdict = connection_->OnPacket(packet.seq);
    if (verdict != CtmspReceiver::Verdict::kDeliver) {
      kernel_->sim()->telemetry().journeys.Abort(packet.journey, JourneyAnomaly::kReorderEvict,
                                                 kernel_->sim()->Now());
      release();
      return;
    }
  }
  ++packets_accepted_;
  packets_accepted_counter_->Increment();

  Cpu& cpu = kernel_->machine()->cpu();
  Cpu::Job job = cpu.NewJob("vca-sink", Spl::kImp);
  job.AddStep(config_.examine_cost, nullptr, Spl::kImp);
  if (config_.copy_to_device) {
    // Copy out of mbufs (or straight out of the fixed DMA buffer) into the card's memory
    // across the 16-bit interface.
    const SimDuration copy_cost = packet.bytes * config_.device_copy_per_byte;
    kernel_->machine()->copies().RecordCpuCopy(packet.bytes);
    job.AddStep(copy_cost, nullptr, Spl::kImp);
  }
  job.AddStep(0,
              [this, bytes = packet.bytes, created_at = packet.created_at,
               journey = packet.journey, release = std::move(release)]() {
                release();
                const SimDuration age = kernel_->sim()->Now() - created_at;
                latency_.Add(age);
                if (config_.deadline > 0 && age > config_.deadline) {
                  ++deadline_misses_;
                  if (deadline_misses_counter_ != nullptr) {
                    deadline_misses_counter_->Increment();
                  }
                }
                kernel_->sim()->telemetry().journeys.Complete(journey, kernel_->sim()->Now());
                EnqueuePlayout(bytes);
              },
              Spl::kImp);
  (void)in_dma_buffer;  // costs are identical either way; what differs is who held the buffer
  cpu.SubmitInterrupt(std::move(job));
}

void VcaSinkDriver::DeliverRepaired(int64_t bytes, SimTime created_at) {
  ++packets_accepted_;
  packets_accepted_counter_->Increment();

  Cpu& cpu = kernel_->machine()->cpu();
  Cpu::Job job = cpu.NewJob("vca-sink", Spl::kImp);
  job.AddStep(config_.examine_cost, nullptr, Spl::kImp);
  if (config_.copy_to_device) {
    const SimDuration copy_cost = bytes * config_.device_copy_per_byte;
    kernel_->machine()->copies().RecordCpuCopy(bytes);
    job.AddStep(copy_cost, nullptr, Spl::kImp);
  }
  job.AddStep(0,
              [this, bytes, created_at]() {
                const SimDuration age = kernel_->sim()->Now() - created_at;
                latency_.Add(age);
                if (config_.deadline > 0 && age > config_.deadline) {
                  ++deadline_misses_;
                  if (deadline_misses_counter_ != nullptr) {
                    deadline_misses_counter_->Increment();
                  }
                }
                EnqueuePlayout(bytes);
              },
              Spl::kImp);
  cpu.SubmitInterrupt(std::move(job));
}

void VcaSinkDriver::UpdateOccupancyIntegral() {
  const SimTime now = kernel_->sim()->Now();
  occupancy_integral_ +=
      static_cast<double>(buffered_bytes_) * static_cast<double>(now - occupancy_last_update_);
  occupancy_last_update_ = now;
}

double VcaSinkDriver::MeanBufferedBytes() const {
  const SimTime now = kernel_->sim()->Now();
  if (now <= 0) {
    return 0.0;
  }
  const double integral =
      occupancy_integral_ + static_cast<double>(buffered_bytes_) *
                                static_cast<double>(now - occupancy_last_update_);
  return integral / static_cast<double>(now);
}

void VcaSinkDriver::EnqueuePlayout(int64_t bytes) {
  UpdateOccupancyIntegral();
  const SimTime now = kernel_->sim()->Now();
  if (config_.adaptive && rebuffering_ && last_enqueue_at_ > 0) {
    // The stream is back after a stall; size the buffer off the whole gap we just lived
    // through, so an equal stall is absorbed silently next time.
    const SimDuration gap = now - last_enqueue_at_;
    const int needed = static_cast<int>(gap / config_.playout_period) + 2;
    target_packets_ = std::min(config_.max_prime_packets, std::max(target_packets_, needed));
    rebuffering_ = false;
  }
  last_enqueue_at_ = now;
  buffer_.push_back(bytes);
  buffered_bytes_ += bytes;
  if (buffered_bytes_ > peak_buffered_bytes_) {
    peak_buffered_bytes_ = buffered_bytes_;
  }
  if (target_packets_ == 0) {
    target_packets_ = config_.prime_packets;
  }
  if (!playout_started_ && static_cast<int>(buffer_.size()) >= target_packets_) {
    playout_started_ = true;
    playout_cancel_ = SchedulePeriodic(kernel_->sim(), kernel_->sim()->Now(),
                                       config_.playout_period, [this]() { PlayoutTick(); });
  }
  // Re-sync: a post-stall backlog beyond target+slack is late audio; skip it rather than
  // carry the extra latency for the rest of the stream.
  while (playout_started_ &&
         static_cast<int>(buffer_.size()) > target_packets_ + config_.skip_slack_packets) {
    buffered_bytes_ -= buffer_.front();
    buffer_.pop_front();
    ++skipped_packets_;
    skipped_counter_->Increment();
  }
}

void VcaSinkDriver::PlayoutTick() {
  UpdateOccupancyIntegral();
  int64_t needed = config_.playout_bytes;
  while (needed > 0 && !buffer_.empty()) {
    const int64_t take = buffer_.front() <= needed ? buffer_.front() : needed;
    buffer_.front() -= take;
    buffered_bytes_ -= take;
    needed -= take;
    if (buffer_.front() == 0) {
      buffer_.pop_front();
    }
  }
  if (needed > 0) {
    ++underruns_;  // the DSP ran dry mid-period: an audible glitch
    underruns_counter_->Increment();
    if (config_.playout_bytes > 0) {
      // The deficit fraction of this period is time the consumer had nothing to play.
      const SimDuration starved = config_.playout_period * needed / config_.playout_bytes;
      starvation_time_ += starved;
      if (starvation_ns_counter_ != nullptr) {
        starvation_ns_counter_->Increment(static_cast<uint64_t>(starved));
      }
    }
    if (config_.adaptive) {
      // Rebuffer: stop playout until the (re-sized) buffer refills. The new target is set
      // when the stream resumes, from the measured length of the whole stall.
      rebuffering_ = true;
      ++rebuffers_;
      rebuffers_counter_->Increment();
      StopPlayout();
    }
  }
}

void VcaSinkDriver::StopPlayout() {
  if (playout_cancel_) {
    playout_cancel_();
    playout_cancel_ = nullptr;
    playout_started_ = false;
  }
}

}  // namespace ctms
