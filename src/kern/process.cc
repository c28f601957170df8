#include "src/kern/process.h"

#include <utility>

namespace ctms {

RelayProcess::RelayProcess(UnixKernel* kernel, std::string name, Config config,
                           std::function<void(const Packet&)> forward)
    : kernel_(kernel), name_(std::move(name)), config_(config), forward_(std::move(forward)) {}

void RelayProcess::Deliver(const Packet& packet) {
  if (queued_bytes_ + packet.bytes > config_.rcv_buffer_bytes) {
    ++dropped_rcvbuf_;
    return;
  }
  queue_.push_back(packet);
  queued_bytes_ += packet.bytes;
  if (queued_bytes_ > peak_queued_bytes_) {
    peak_queued_bytes_ = queued_bytes_;
  }
  ++delivered_;
  if (!running_) {
    running_ = true;
    RunIteration(/*just_woken=*/true);
  }
}

void RelayProcess::RunIteration(bool just_woken) {
  if (queue_.empty()) {
    running_ = false;  // back to sleep in read()
    return;
  }
  const Packet packet = queue_.front();
  queue_.pop_front();
  queued_bytes_ -= packet.bytes;

  Cpu& cpu = kernel_->machine()->cpu();
  Cpu::Job job = cpu.NewJob(name_.c_str(), Spl::kNone);
  if (just_woken) {
    job.AddStep(config_.timings.context_switch, nullptr, Spl::kNone);
  }
  // read(): trap, then copy the packet out of kernel mbufs into the user buffer.
  job.AddStep(config_.timings.syscall, nullptr, Spl::kNone);
  kernel_->CopySteps(&job, packet.bytes, MemoryKind::kSystemMemory, MemoryKind::kSystemMemory,
                     Spl::kNone);
  // write(): trap, then copy the user buffer back into kernel mbufs.
  job.AddStep(config_.timings.syscall, nullptr, Spl::kNone);
  kernel_->CopySteps(&job, packet.bytes, MemoryKind::kSystemMemory, MemoryKind::kSystemMemory,
                     Spl::kNone);
  job.set_on_done([this, packet]() {
    ++forwarded_;
    if (forward_) {
      forward_(packet);
    }
    RunIteration(/*just_woken=*/false);
  });
  cpu.SubmitProcess(std::move(job));
}

CompetingProcess::CompetingProcess(UnixKernel* kernel, std::string name, Config config)
    : kernel_(kernel), name_(std::move(name)), config_(config) {}

void CompetingProcess::Start() {
  Stop();
  Simulation* sim = kernel_->sim();
  // Start phase-shifted by a name hash so multiple competitors interleave.
  SimDuration phase = 0;
  for (const char c : name_) {
    phase = (phase * 131 + c) % config_.period;
  }
  cancel_ = SchedulePeriodic(sim, sim->Now() + phase, config_.period, [this]() {
    Cpu& cpu = kernel_->machine()->cpu();
    Cpu::Job job = cpu.NewJob(name_.c_str(), Spl::kNone);
    SimDuration remaining = config_.burst;
    while (remaining > 0) {
      const SimDuration slice = remaining < config_.slice ? remaining : config_.slice;
      job.AddStep(slice, nullptr, Spl::kNone);
      remaining -= slice;
    }
    cpu.SubmitProcess(std::move(job));
  });
}

void CompetingProcess::Stop() {
  if (cancel_) {
    cancel_();
    cancel_ = nullptr;
  }
}

}  // namespace ctms
