#include "src/hw/machine.h"

#include <utility>

namespace ctms {

Machine::Machine(Simulation* sim, std::string name)
    : sim_(sim), name_(std::move(name)), cpu_(sim, name_ + ".cpu") {}

SimDuration Machine::ChargeCpuCopy(int64_t bytes, MemoryKind src, MemoryKind dst) {
  copies_.RecordCpuCopy(bytes);
  return copies_.CopyCost(bytes, src, dst);
}

void Machine::StartHardclock(SimDuration handler_cost) {
  StopHardclock();
  // Stagger the first tick by a machine-name hash so co-simulated machines do not tick in
  // lockstep (real clocks are not phase-aligned either).
  const SimDuration period = Milliseconds(10);
  SimDuration phase = 0;
  for (const char c : name_) {
    phase = (phase * 31 + c) % period;
  }
  Cpu::InterruptSource hardclock;
  hardclock.name = "hardclock";
  hardclock.level = Spl::kClock;
  hardclock.period = period;
  hardclock.length = handler_cost;
  hardclock_ = cpu_.StartSource(hardclock, sim_->Now() + phase);
}

void Machine::StopHardclock() {
  if (hardclock_.has_value()) {
    cpu_.StopSource(*hardclock_);
    hardclock_.reset();
  }
}

}  // namespace ctms
