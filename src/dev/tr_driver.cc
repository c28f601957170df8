#include "src/dev/tr_driver.h"

#include <utility>

namespace ctms {

// The transmit command's closure (`this`, a Packet and two scalars) is the largest one the
// per-packet path builds; it must stay in a step action's inline storage.
static_assert(sizeof(void*) + sizeof(Packet) + 8 <= Cpu::kActionBytes);

TokenRingDriver::TokenRingDriver(UnixKernel* kernel, TokenRingAdapter* adapter, ProbeBus* probes,
                                 Config config)
    : kernel_(kernel),
      adapter_(adapter),
      probes_(probes),
      config_(config),
      ctmsp_q_("tr-ctmsp", config.ctmsp_queue_limit),
      snd_q_("tr-snd", config.snd_queue_limit),
      ipintr_q_("ipintr", config.ipintr_queue_limit) {
  adapter_->SetReceiveHandler([this](const Frame& frame) { OnRxDmaComplete(frame); });
  Telemetry& telemetry = kernel_->sim()->telemetry();
  const std::string& machine = kernel_->machine()->name();
  const std::string prefix = "driver.tr." + machine + ".";
  ctmsp_tx_counter_ = telemetry.metrics.GetCounter(prefix + "ctmsp_tx");
  stock_tx_counter_ = telemetry.metrics.GetCounter(prefix + "stock_tx");
  rx_ctmsp_counter_ = telemetry.metrics.GetCounter(prefix + "rx_ctmsp");
  rx_ip_counter_ = telemetry.metrics.GetCounter(prefix + "rx_ip");
  rx_arp_counter_ = telemetry.metrics.GetCounter(prefix + "rx_arp");
  mac_interrupts_counter_ = telemetry.metrics.GetCounter(prefix + "mac_interrupts");
  retransmits_counter_ = telemetry.metrics.GetCounter(prefix + "retransmits");
  track_ = telemetry.tracer.RegisterTrack("tr." + machine);
  const std::string ifq_prefix = "kern." + machine + ".ifq.";
  for (IfQueue* q : {&ctmsp_q_, &snd_q_, &ipintr_q_}) {
    q->BindTelemetry(telemetry.metrics.GetCounter(ifq_prefix + q->name() + ".enqueues"),
                     telemetry.metrics.GetCounter(ifq_prefix + q->name() + ".drops"),
                     telemetry.metrics.GetCounter(ifq_prefix + q->name() + ".requeues"),
                     telemetry.metrics.GetGauge(ifq_prefix + q->name() + ".depth"));
    q->BindJourneys(&telemetry.journeys, kernel_->sim());
  }
}

bool TokenRingDriver::Output(const Packet& packet) {
  const bool ok = snd_q_.Enqueue(packet);
  if (ok) {
    StartNextTx();
  }
  return ok;
}

bool TokenRingDriver::OutputCtmsp(const Packet& packet) {
  // Without the driver-priority modification the CTMSP packet takes its chances in the
  // common if_snd queue behind ARP and IP.
  const bool use_priority_queue = config_.ctms_mode && config_.driver_priority;
  const bool ok = use_priority_queue ? ctmsp_q_.Enqueue(packet) : snd_q_.Enqueue(packet);
  if (ok) {
    StartNextTx();
  }
  return ok;
}

void TokenRingDriver::RetransmitCtmsp(uint32_t seq, int64_t bytes) {
  Packet packet;
  packet.protocol = ProtocolId::kCtmsp;
  packet.seq = seq;
  packet.bytes = bytes;
  packet.dst = last_ctmsp_dst_;
  packet.created_at = kernel_->sim()->Now();
  ++retransmit_requests_;
  retransmits_counter_->Increment();
  // The retry is a fresh packet (the original journey ended when its frame was lost); the
  // anomaly is still worth a flight-recorder dump — it marks where recovery kicked in.
  kernel_->sim()->telemetry().journeys.NoteAnomaly(JourneyAnomaly::kRetransmit,
                                                   kernel_->sim()->Now());
  if (config_.ctms_mode && config_.driver_priority) {
    ctmsp_q_.Requeue(packet);
  } else {
    snd_q_.Requeue(packet);
  }
  StartNextTx();
}

bool TokenRingDriver::tx_frozen() const { return kernel_->sim()->Now() < tx_frozen_until_; }

void TokenRingDriver::InjectTxFreeze(SimDuration duration) {
  const SimTime until = kernel_->sim()->Now() + duration;
  if (until > tx_frozen_until_) {
    tx_frozen_until_ = until;
  }
  if (!freeze_resume_scheduled_) {
    freeze_resume_scheduled_ = true;
    kernel_->sim()->At(tx_frozen_until_, [this]() {
      freeze_resume_scheduled_ = false;
      if (tx_frozen()) {  // extended meanwhile
        InjectTxFreeze(tx_frozen_until_ - kernel_->sim()->Now());
        return;
      }
      StartNextTx();
    });
  }
}

void TokenRingDriver::StartNextTx() {
  // The paper's sequence-preservation constraint: one packet is sent completely (wire
  // completion, signalled by the transmit-complete interrupt) before the next is touched.
  if (tx_in_progress_ || tx_frozen()) {
    return;
  }
  bool is_ctmsp = false;
  std::optional<Packet> next;
  if (config_.ctms_mode && config_.driver_priority && !ctmsp_q_.empty()) {
    next = ctmsp_q_.Dequeue();
    is_ctmsp = true;
  } else {
    next = snd_q_.Dequeue();
    if (next.has_value()) {
      is_ctmsp = next->protocol == ProtocolId::kCtmsp;
    }
  }
  if (!next.has_value()) {
    return;
  }
  tx_in_progress_ = true;
  TransmitPacket(std::move(*next), is_ctmsp);
}

void TokenRingDriver::TransmitPacket(Packet packet, bool is_ctmsp) {
  const MemoryKind buffer_kind = adapter_->config().dma_buffer_kind;
  Cpu& cpu = kernel_->machine()->cpu();
  Cpu::Job job = cpu.NewJob("tr-start", Spl::kImp);
  job.AddStep(config_.tx_start_overhead, nullptr, Spl::kImp);
  if (config_.ctms_mode && config_.zero_copy_tx && is_ctmsp) {
    // Pointer passing (section 2's proposed further step): swing the adapter's transmit
    // descriptor onto the mbuf cluster. No bytes move through the CPU.
    job.AddStep(config_.zero_copy_flip_cost, nullptr, Spl::kImp);
  } else {
    // Copy the mbuf chain into the fixed transmit DMA buffer. The chain reference held by
    // the job is dropped when the job completes — the data lives in the buffer from here on.
    kernel_->CopySteps(&job, packet.bytes, MemoryKind::kSystemMemory, buffer_kind, Spl::kImp);
  }
  // Measurement point 3: after the copy, immediately before the transmit command. The
  // in-line recording code (a port write, a procedure call) costs real time here.
  if (is_ctmsp) {
    const uint32_t seq = packet.seq;
    job.AddStep(
        probes_->inline_cost(),
        [this, seq]() { probes_->Emit(ProbePoint::kPreTransmit, seq, kernel_->sim()->Now()); },
        Spl::kImp);
  }
  const int priority =
      is_ctmsp && config_.ctms_mode ? config_.ctmsp_ring_priority : 0;
  job.AddStep(
      config_.tx_command_cost,
      [this, packet, is_ctmsp, priority]() {
        kernel_->sim()->telemetry().journeys.Stamp(packet.journey,
                                                   JourneyStage::kDriverTxStart,
                                                   kernel_->sim()->Now());
        Frame frame;
        frame.kind = FrameKind::kLlc;
        frame.priority = priority;
        StampFrame(&frame, packet);
        // The transmit command is where the legacy driver's last chain reference died (the
        // data lives in the DMA buffer / descriptor from here on): credit the mbuf charge
        // back to the pool now, while the payload handle rides on in the frame.
        if (frame.payload.valid()) {
          frame.payload.arena()->ReleaseChain(frame.payload);
        }
        inflight_is_ctmsp_ = is_ctmsp;
        inflight_seq_ = packet.seq;
        inflight_bytes_ = packet.bytes;
        if (is_ctmsp) {
          ++ctmsp_tx_;
          ctmsp_tx_counter_->Increment();
          last_ctmsp_dst_ = packet.dst;
          if (ctmsp_tx_notify_) {
            ctmsp_tx_notify_(packet.seq, packet.bytes);
          }
        } else {
          stock_tx_counter_->Increment();
        }
        SpanTracer& tracer = kernel_->sim()->telemetry().tracer;
        if (tracer.enabled()) {
          tracer.AddInstant(track_, is_ctmsp ? "ctmsp_tx" : "stock_tx", kernel_->sim()->Now(),
                            {{"seq", static_cast<int64_t>(packet.seq)},
                             {"bytes", packet.bytes}});
        }
        adapter_->IssueTransmit(std::move(frame), [this](TxStatus s) { OnTxComplete(s); });
      },
      Spl::kImp);
  cpu.SubmitInterrupt(std::move(job));
}

void TokenRingDriver::OnTxComplete(TxStatus status) {
  kernel_->machine()->cpu().SubmitInterrupt("tr-tx-complete", Spl::kImp,
                                            config_.tx_complete_cost, [this, status]() {
    // The frame-status bits the handler reads at interrupt level. The stock driver cannot
    // see purge hits (MAC mode handles them separately); the degradation hook, when
    // installed, reacts to any non-delivered CTMSP packet before the next one starts — a
    // RetransmitCtmsp here requeues to the head, so the retry goes out next in order.
    if (!Delivered(status) && inflight_is_ctmsp_ && ctmsp_failure_) {
      ctmsp_failure_(status, inflight_seq_, inflight_bytes_);
    }
    tx_in_progress_ = false;
    StartNextTx();
  });
}

void TokenRingDriver::OnRxDmaComplete(const Frame& frame) {
  // Build the rx interrupt handler job: entry, then the split point, then the per-protocol
  // tail (copy into mbufs and hand upward, or driver-to-driver delivery in place).
  Packet packet = PacketFromFrame(frame);
  // Receive-side DMA just finished; this call is the rx interrupt being raised.
  kernel_->sim()->telemetry().journeys.Stamp(packet.journey, JourneyStage::kRxInterrupt,
                                             kernel_->sim()->Now());

  const MemoryKind buffer_kind = adapter_->config().dma_buffer_kind;
  Cpu& cpu = kernel_->machine()->cpu();
  Cpu::Job job = cpu.NewJob("tr-rx", Spl::kImp);
  job.AddStep(config_.rx_entry_cost, nullptr, Spl::kImp);

  if (frame.protocol == ProtocolId::kCtmsp && config_.ctms_mode) {
    // The split point peels CTMSP off first; measurement point 4 fires the instant the
    // packet is known to be CTMSP.
    job.AddStep(config_.classify_cost + probes_->inline_cost(),
                [this, packet]() {
                  rx_ctmsp_counter_->Increment();
                  kernel_->sim()->telemetry().journeys.Stamp(
                      packet.journey, JourneyStage::kRxClassify, kernel_->sim()->Now());
                  SpanTracer& tracer = kernel_->sim()->telemetry().tracer;
                  if (tracer.enabled()) {
                    tracer.AddInstant(track_, "ctmsp_rx_classified", kernel_->sim()->Now(),
                                      {{"seq", static_cast<int64_t>(packet.seq)}});
                  }
                  probes_->Emit(ProbePoint::kRxClassified, packet.seq, kernel_->sim()->Now());
                },
                Spl::kImp);
    if (config_.rx_copy_ctmsp_to_mbufs) {
      job.AddStep(config_.mbuf_alloc_cost, nullptr, Spl::kImp);
      kernel_->CopySteps(&job, packet.bytes, buffer_kind, MemoryKind::kSystemMemory,
                         Spl::kImp);
      job.AddStep(0,
                  [this, packet]() {
                    adapter_->ReleaseRxBuffer();
                    if (ctmsp_input_) {
                      ctmsp_input_(packet, /*in_dma_buffer=*/false, []() {});
                    }
                  },
                  Spl::kImp);
    } else {
      // Driver-to-driver in place: the destination device examines the packet in the fixed
      // DMA buffer and releases it when done.
      job.AddStep(0,
                  [this, packet]() {
                    if (ctmsp_input_) {
                      ctmsp_input_(packet, /*in_dma_buffer=*/true,
                                   [this]() { adapter_->ReleaseRxBuffer(); });
                    } else {
                      adapter_->ReleaseRxBuffer();
                    }
                  },
                  Spl::kImp);
    }
  } else {
    // Stock path: classify, allocate mbufs, copy the packet out of the DMA buffer, then
    // queue for protocol processing at splnet.
    job.AddStep(config_.classify_cost, nullptr, Spl::kImp);
    job.AddStep(config_.mbuf_alloc_cost, nullptr, Spl::kImp);
    kernel_->CopySteps(&job, packet.bytes, buffer_kind, MemoryKind::kSystemMemory, Spl::kImp);
    job.AddStep(0,
                [this, packet]() {
                  adapter_->ReleaseRxBuffer();
                  if (packet.protocol == ProtocolId::kArp) {
                    rx_arp_counter_->Increment();
                    if (arp_input_) {
                      arp_input_(packet);
                    }
                    return;
                  }
                  rx_ip_counter_->Increment();
                  if (ipintr_q_.Enqueue(packet)) {
                    DrainIpintr();
                  }
                },
                Spl::kImp);
  }
  cpu.SubmitInterrupt(std::move(job));
}

void TokenRingDriver::DrainIpintr() {
  if (ipintr_scheduled_) {
    return;
  }
  ipintr_scheduled_ = true;
  // The softnet-style drain: one packet per pass at splnet, rescheduling while work remains.
  kernel_->machine()->cpu().SubmitInterrupt("ipintr", Spl::kNet, Microseconds(20), [this]() {
    ipintr_scheduled_ = false;
    std::optional<Packet> packet = ipintr_q_.Dequeue();
    if (packet.has_value() && ip_input_) {
      ip_input_(*packet);
    }
    if (!ipintr_q_.empty()) {
      DrainIpintr();
    }
  });
}

void TokenRingDriver::EnablePurgeDetect(std::function<void()> on_purge) {
  on_purge_ = std::move(on_purge);
  // The real adapter could not do this at all (proprietary ROM software); ours models what
  // it would cost if it could.
  adapter_->set_receive_mac_frames(true);
  adapter_->SetMacFrameHandler([this](const Frame& frame) {
    kernel_->machine()->cpu().SubmitInterrupt("tr-mac", Spl::kImp, config_.mac_parse_cost,
                                              [this, frame]() {
      ++mac_interrupts_;
      mac_interrupts_counter_->Increment();
      if (frame.mac_type == MacFrameType::kRingPurge && on_purge_) {
        on_purge_();
      }
    });
  });
}

}  // namespace ctms
