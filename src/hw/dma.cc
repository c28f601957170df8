#include "src/hw/dma.h"

#include <utility>

#include "src/hw/cpu.h"

namespace ctms {

DmaEngine::DmaEngine(Simulation* sim, std::string name, Cpu* cpu, CopyEngine* accounting)
    : sim_(sim), name_(std::move(name)), cpu_(cpu), accounting_(accounting) {
  Telemetry& telemetry = sim_->telemetry();
  const std::string prefix = "dma." + name_ + ".";
  transfers_counter_ = telemetry.metrics.GetCounter(prefix + "transfers");
  bytes_counter_ = telemetry.metrics.GetCounter(prefix + "bytes");
  track_ = telemetry.tracer.RegisterTrack(name_);
}

void DmaEngine::Transfer(int64_t bytes, MemoryKind buffer_kind, std::function<void()> on_done) {
  Request request{bytes, buffer_kind, std::move(on_done)};
  if (busy_) {
    queue_.push_back(std::move(request));
    return;
  }
  Start(std::move(request));
}

void DmaEngine::Start(Request request) {
  busy_ = true;
  in_flight_ = std::move(request);
  in_flight_steals_cpu_ =
      cpu_ != nullptr && in_flight_.buffer_kind == MemoryKind::kSystemMemory;
  if (in_flight_steals_cpu_) {
    cpu_->BeginMemoryContention();
  }
  sim_->After(TransferTime(in_flight_.bytes), [this]() { Complete(); });
}

void DmaEngine::Complete() {
  const int64_t bytes = in_flight_.bytes;
  if (in_flight_steals_cpu_) {
    cpu_->EndMemoryContention();
  }
  ++transfers_completed_;
  bytes_transferred_ += bytes;
  transfers_counter_->Increment();
  bytes_counter_->Increment(static_cast<uint64_t>(bytes));
  SpanTracer& tracer = sim_->telemetry().tracer;
  if (tracer.enabled()) {
    tracer.AddComplete(track_, "dma_transfer", sim_->Now() - TransferTime(bytes),
                       TransferTime(bytes),
                       {{"bytes", bytes}, {"contends_cpu", in_flight_steals_cpu_ ? 1 : 0}});
  }
  if (accounting_ != nullptr) {
    accounting_->RecordDmaCopy(bytes);
  }
  // Moved out first: on_done may queue the next transfer, which Start moves into
  // in_flight_ below. Its captures die when this completion ends, as they did when the
  // request rode in the completion event.
  std::function<void()> on_done = std::move(in_flight_.on_done);
  if (on_done) {
    on_done();
  }
  busy_ = false;
  if (!queue_.empty()) {
    Request next = std::move(queue_.front());
    queue_.pop_front();
    Start(std::move(next));
  }
}

}  // namespace ctms
