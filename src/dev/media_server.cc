#include "src/dev/media_server.h"

#include <algorithm>
#include <utility>

namespace ctms {

MediaServerSource::MediaServerSource(UnixKernel* kernel, MediaDisk* disk,
                                     TokenRingDriver* driver, ProbeBus* probes,
                                     CtmspTransmitter* connection, Config config)
    : kernel_(kernel),
      disk_(disk),
      driver_(driver),
      probes_(probes),
      connection_(connection),
      config_(std::move(config)) {
  MetricsRegistry& metrics = kernel_->sim()->telemetry().metrics;
  const std::string prefix = "driver.media." + kernel_->machine()->name() + ".";
  packets_sent_counter_ = metrics.GetCounter(prefix + "packets_sent");
  starvations_counter_ = metrics.GetCounter(prefix + "starvations");
  disk_reads_counter_ = metrics.GetCounter(prefix + "disk_reads");
  mbuf_drops_counter_ = metrics.GetCounter(prefix + "mbuf_drops");
  queue_drops_counter_ = metrics.GetCounter(prefix + "queue_drops");
}

void MediaServerSource::Start(RingAddress dst) {
  Stop();
  dst_ = dst;
  if (!connection_->header_ready()) {
    kernel_->machine()->cpu().SubmitInterrupt("server-ioctl-setup", Spl::kImp,
                                              driver_->HeaderComputeCost(), nullptr);
    connection_->MarkHeaderReady();
  }
  Pump();
  Simulation* sim = kernel_->sim();
  // Priming delay: let read-ahead fill before the first tick.
  timer_cancel_ = SchedulePeriodic(sim, sim->Now() + config_.priming, config_.period,
                                   [this]() { OnTick(); });
}

void MediaServerSource::Stop() {
  if (timer_cancel_) {
    timer_cancel_();
    timer_cancel_ = nullptr;
  }
}

void MediaServerSource::Pump() {
  const int64_t file_size = disk_->FileSize(config_.file);
  if (file_size <= 0) {
    return;
  }
  while (staged_bytes_ + inflight_bytes_ + config_.read_chunk_bytes <=
         config_.staging_capacity_bytes) {
    if (file_offset_ >= file_size) {
      if (!config_.loop) {
        return;
      }
      file_offset_ = 0;  // wrap: the head will seek back to the extent start
    }
    const int64_t chunk = std::min(config_.read_chunk_bytes, file_size - file_offset_);
    inflight_bytes_ += chunk;
    disk_reads_counter_->Increment();
    disk_->Read(config_.file, file_offset_, chunk, [this, chunk](bool ok) {
      inflight_bytes_ -= chunk;
      if (ok) {
        staged_bytes_ += chunk;
      }
      Pump();
    });
    file_offset_ += chunk;
  }
}

void MediaServerSource::OnTick() {
  if (staged_bytes_ < config_.packet_bytes) {
    ++starvations_;  // the disk did not keep up; this period's packet is lost to the client
    starvations_counter_->Increment();
    Pump();
    return;
  }
  staged_bytes_ -= config_.packet_bytes;
  const uint32_t seq = connection_->NextSeq();
  // Send-timer handler: build the packet and copy the staged kernel data into mbufs, then
  // hand it driver-to-driver (the paper's transfer model, with the disk as the source
  // device).
  Cpu& cpu = kernel_->machine()->cpu();
  Cpu::Job job = cpu.NewJob("server-tick", Spl::kImp);
  job.AddStep(config_.tick_cost, nullptr, Spl::kImp);
  kernel_->CopySteps(&job, config_.packet_bytes, MemoryKind::kSystemMemory,
                     MemoryKind::kSystemMemory, Spl::kImp);
  job.AddStep(
      0,
      [this, seq, tick_at = kernel_->sim()->Now()]() {
        // Journey birth for the server path: anchored to the send-timer tick, the server's
        // equivalent of the VCA interrupt edge.
        JourneyRecorder& journeys = kernel_->sim()->telemetry().journeys;
        const uint64_t journey = journeys.Begin(seq, tick_at);
        PayloadRef payload = kernel_->AllocatePayload(config_.packet_bytes);
        if (!payload.valid()) {
          ++mbuf_drops_;
          mbuf_drops_counter_->Increment();
          journeys.Abort(journey, JourneyAnomaly::kDrop, kernel_->sim()->Now());
          return;
        }
        journeys.Stamp(journey, JourneyStage::kMbufAlloc, kernel_->sim()->Now());
        Packet packet;
        packet.protocol = ProtocolId::kCtmsp;
        packet.bytes = config_.packet_bytes;
        packet.seq = seq;
        packet.dst = dst_;
        packet.journey = journey;
        packet.created_at = kernel_->sim()->Now();
        packet.media_class = static_cast<uint8_t>(media_class_.id);
        packet.mbuf_segments = payload.segments();
        packet.payload = std::move(payload);
        ++packets_sent_;
        packets_sent_counter_->Increment();
        if (!driver_->OutputCtmsp(packet)) {
          ++queue_drops_;
          queue_drops_counter_->Increment();
        }
      },
      Spl::kImp);
  cpu.SubmitInterrupt(std::move(job));
  Pump();
}

void MediaServerSource::AdoptMediaClass(const MediaClass& media_class) {
  media_class_ = media_class;
  config_.packet_bytes = media_class.packet_bytes;
  config_.period = media_class.period;
}

}  // namespace ctms
