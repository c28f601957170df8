#include "src/ring/token_ring.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "src/ring/adapter.h"

namespace ctms {

const char* TxStatusName(TxStatus status) {
  switch (status) {
    case TxStatus::kDelivered:
      return "delivered";
    case TxStatus::kPurgeHit:
      return "purge_hit";
    case TxStatus::kCorrupted:
      return "corrupted";
    case TxStatus::kAdapterStalled:
      return "adapter_stalled";
  }
  return "unknown";
}

TokenRing::TokenRing(Simulation* sim, Config config)
    : sim_(sim), config_(config), rng_(sim->rng().Fork()) {
  Telemetry& telemetry = sim_->telemetry();
  tx_requests_counter_ = telemetry.metrics.GetCounter("ring.tx_requests");
  frames_carried_counter_ = telemetry.metrics.GetCounter("ring.frames_carried");
  bytes_carried_counter_ = telemetry.metrics.GetCounter("ring.bytes_carried");
  frames_lost_counter_ = telemetry.metrics.GetCounter("ring.frames_lost_to_purge");
  frames_corrupted_counter_ = telemetry.metrics.GetCounter("ring.frames_corrupted");
  purges_counter_ = telemetry.metrics.GetCounter("ring.purges");
  insertions_counter_ = telemetry.metrics.GetCounter("ring.insertions");
  mac_frames_counter_ = telemetry.metrics.GetCounter("ring.mac_frames");
  track_ = telemetry.tracer.RegisterTrack("ring");
}

RingAddress TokenRing::Attach(TokenRingAdapter* adapter) {
  const RingAddress address = next_address_++;
  adapters_[address] = adapter;
  return address;
}

void TokenRing::Detach(RingAddress address) { adapters_.erase(address); }

SimDuration TokenRing::WireTime(int64_t bytes) const {
  // bits / (bits per second), in nanoseconds.
  return bytes * 8 * kSecond / config_.bits_per_second;
}

SimDuration TokenRing::TokenAcquisitionTime() const {
  return config_.token_acquisition_base +
         static_cast<SimDuration>(station_count()) * config_.per_station_latency;
}

void TokenRing::RequestTransmit(Frame frame, std::function<void(TxStatus)> on_complete) {
  frame.id = next_frame_id_++;
  tx_requests_counter_->Increment();
  PendingTx tx{std::move(frame), std::move(on_complete), next_order_++};
  // A waiter that outranks the frame currently on the wire writes its priority into that
  // frame's reservation bits as it repeats past; the next token is issued at the reserved
  // priority. The queue below is already served strictly by priority, so the stamp is the
  // observable record, not an extra scheduling input.
  if (in_flight_.has_value() && tx.frame.priority > in_flight_->frame.reservation &&
      tx.frame.priority > 0) {
    in_flight_->frame.reservation = tx.frame.priority;
    ++reservations_;
  }
  // Insert keeping the queue sorted by priority descending, FIFO within a priority. This is
  // the observable effect of the 802.5 reservation scheme: a priority-6 CTMSP frame passes
  // queued priority-0 data frames of other stations but cannot preempt the wire.
  auto it = pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_);
  while (it != pending_.end() && it->frame.priority >= tx.frame.priority) {
    ++it;
  }
  if (it != pending_.end()) {
    ++priority_preemptions_;  // queued ahead of at least one waiting lower-priority frame
  }
  pending_.insert(it, std::move(tx));
  ServeNext();
}

void TokenRing::ServeNext() {
  if (in_flight_.has_value() || pending_head_ == pending_.size() || serve_scheduled_) {
    return;
  }
  const SimTime now = sim_->Now();
  if (now < blocked_until_) {
    serve_scheduled_ = true;
    sim_->At(blocked_until_, [this]() {
      serve_scheduled_ = false;
      ServeNext();
    });
    return;
  }
  PendingTx tx = std::move(pending_[pending_head_++]);
  if (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
  } else if (2 * pending_head_ >= pending_.size()) {
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_));
    pending_head_ = 0;
  }
  BeginTransmission(std::move(tx));
}

void TokenRing::BeginTransmission(PendingTx tx) {
  const SimDuration acquisition = TokenAcquisitionTime();
  const SimDuration on_wire = acquisition + WireTime(WireBytes(tx.frame));
  in_flight_ = std::move(tx);
  wire_busy_time_ += on_wire;
  in_flight_wire_start_ = sim_->Now() + acquisition;
  SpanTracer& tracer = sim_->telemetry().tracer;
  if (tracer.enabled()) {
    tracer.AddComplete(track_, "token", sim_->Now(), acquisition,
                       {{"stations", static_cast<int64_t>(station_count())}});
  }
  in_flight_event_ = sim_->After(on_wire, [this]() {
    in_flight_event_ = kInvalidEventId;
    // The fault filter models frame-check corruption on the wire: consulted only for LLC
    // frames, and only when a filter is installed (fault plans), so the common path is
    // untouched.
    TxStatus status = TxStatus::kDelivered;
    if (tx_fault_filter_ && in_flight_->frame.kind == FrameKind::kLlc) {
      status = tx_fault_filter_(in_flight_->frame);
    }
    FinishTransmission(status);
  });
}

void TokenRing::FinishTransmission(TxStatus status) {
  assert(in_flight_.has_value());
  PendingTx done = std::move(*in_flight_);
  in_flight_.reset();
  SpanTracer& tracer = sim_->telemetry().tracer;
  if (tracer.enabled()) {
    const SimTime now = sim_->Now();
    const SimTime start =
        in_flight_wire_start_ < now ? in_flight_wire_start_ : now;  // purge can land early
    tracer.AddComplete(track_, "frame", start, now - start,
                       {{"id", static_cast<int64_t>(done.frame.id)},
                        {"bytes", WireBytes(done.frame)},
                        {"priority", static_cast<int64_t>(done.frame.priority)},
                        {"delivered", Delivered(status) ? 1 : 0}});
  }
  if (Delivered(status)) {
    ++frames_carried_;
    frames_carried_counter_->Increment();
    bytes_carried_ += WireBytes(done.frame);
    bytes_carried_counter_->Increment(static_cast<uint64_t>(WireBytes(done.frame)));
    if (done.frame.kind == FrameKind::kMac) {
      // Station-originated MAC frames (Standby Monitor Present etc.) count alongside the
      // Active Monitor broadcasts so ring.mac_frames reflects all MAC traffic on the wire.
      mac_frames_counter_->Increment();
    }
    sim_->telemetry().journeys.Stamp(done.frame.journey, JourneyStage::kRingTransit,
                                     sim_->Now());
    DeliverFrame(done.frame);
  } else if (status == TxStatus::kCorrupted) {
    frames_corrupted_counter_->Increment();
    sim_->telemetry().journeys.Abort(done.frame.journey, JourneyAnomaly::kDrop, sim_->Now());
  } else {
    ++frames_lost_to_purge_;
    frames_lost_counter_->Increment();
    sim_->telemetry().journeys.Abort(done.frame.journey, JourneyAnomaly::kDrop, sim_->Now());
  }
  if (done.on_complete) {
    done.on_complete(status);
  }
  ServeNext();
}

void TokenRing::DeliverFrame(const Frame& frame) {
  const SimTime now = sim_->Now();
  for (const FrameMonitor& monitor : monitors_) {
    monitor(frame, now);
  }
  if (frame.kind == FrameKind::kMac || frame.dst == kBroadcastAddress) {
    for (auto& [address, adapter] : adapters_) {
      if (address != frame.src) {
        adapter->OnFrameOnWire(frame);
      }
    }
    return;
  }
  auto it = adapters_.find(frame.dst);
  if (it != adapters_.end()) {
    it->second->OnFrameOnWire(frame);
  }
}

void TokenRing::BroadcastMacFrame(MacFrameType type) {
  Frame frame;
  frame.id = next_frame_id_++;
  frame.kind = FrameKind::kMac;
  frame.mac_type = type;
  frame.src = 0;  // the Active Monitor
  frame.dst = kBroadcastAddress;
  frame.priority = 7;
  frame.created_at = sim_->Now();
  ++frames_carried_;
  frames_carried_counter_->Increment();
  bytes_carried_ += WireBytes(frame);
  bytes_carried_counter_->Increment(static_cast<uint64_t>(WireBytes(frame)));
  mac_frames_counter_->Increment();
  DeliverFrame(frame);
}

void TokenRing::BlockUntil(SimTime when) {
  if (when > blocked_until_) {
    blocked_until_ = when;
  }
}

void TokenRing::TriggerRingPurge() {
  ++purge_count_;
  purges_counter_->Increment();
  const SimTime now = sim_->Now();
  SpanTracer& tracer = sim_->telemetry().tracer;
  if (tracer.enabled()) {
    tracer.AddInstant(track_, "ring_purge", now);
  }
  for (const PurgeMonitor& monitor : purge_monitors_) {
    monitor(now);
  }
  // The purge MAC frame circulates first (every station sees it as the ring resets); the
  // destroyed frame's transmit status is only read by the host afterwards. Keeping that
  // order lets a MAC-mode driver queue its retransmission ahead of the next packet.
  BroadcastMacFrame(MacFrameType::kRingPurge);
  // A frame on the wire at purge time is destroyed; the transmitting adapter learns nothing
  // reliable from its frame status (the paper's uncorrectable loss).
  if (in_flight_.has_value()) {
    if (in_flight_event_ != kInvalidEventId) {
      sim_->Cancel(in_flight_event_);
      in_flight_event_ = kInvalidEventId;
    }
    FinishTransmission(TxStatus::kPurgeHit);
  }
  BlockUntil(now + config_.purge_recovery);
}

void TokenRing::TriggerStationInsertion() {
  ++insertion_count_;
  insertions_counter_->Increment();
  const SimTime now = sim_->Now();
  SpanTracer& tracer = sim_->telemetry().tracer;
  if (tracer.enabled()) {
    tracer.AddInstant(track_, "station_insertion", now);
  }
  const SimDuration reset =
      rng_.UniformDuration(config_.insertion_reset_min, config_.insertion_reset_max);
  const int purges = static_cast<int>(
      rng_.UniformInt(config_.insertion_purges_min, config_.insertion_purges_max));
  // The purges land back-to-back near the start of the reset window.
  SimDuration offset = 0;
  for (int i = 0; i < purges; ++i) {
    sim_->After(offset, [this]() { TriggerRingPurge(); });
    offset += config_.purge_recovery;
  }
  BlockUntil(now + reset);
  ++passive_stations_;  // the newcomer occupies a ring position from now on
}

double TokenRing::Utilization() const {
  const SimTime now = sim_->Now();
  if (now <= 0) {
    return 0.0;
  }
  return static_cast<double>(wire_busy_time_) / static_cast<double>(now);
}

}  // namespace ctms
