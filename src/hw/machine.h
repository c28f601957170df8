// Machine: one IBM RT/PC class host — a CPU, its memory system, and attached adapters.
//
// Adapters (Token Ring, VCA, disk) are created by their own modules and attach themselves to
// a Machine; the Machine provides the shared CPU, copy accounting, and hardclock.

#ifndef SRC_HW_MACHINE_H_
#define SRC_HW_MACHINE_H_

#include <memory>
#include <optional>
#include <string>

#include "src/hw/cpu.h"
#include "src/hw/memory.h"
#include "src/sim/simulation.h"

namespace ctms {

class Machine {
 public:
  Machine(Simulation* sim, std::string name);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Simulation* sim() { return sim_; }
  Cpu& cpu() { return cpu_; }
  const Cpu& cpu() const { return cpu_; }
  CopyEngine& copies() { return copies_; }
  const CopyEngine& copies() const { return copies_; }
  const std::string& name() const { return name_; }

  // Returns the CPU time a copy of `bytes` from `src` to `dst` costs, and records it in the
  // copy accounting. Callers fold the returned duration into a job step.
  SimDuration ChargeCpuCopy(int64_t bytes, MemoryKind src, MemoryKind dst);

  // Starts the 4.3BSD hardclock: a 100 Hz interrupt at splclock whose handler costs
  // `handler_cost`, run by the CPU as a background interrupt source. Present on every UNIX
  // machine in the testbed; a background source of dispatch jitter even in the paper's
  // "stand alone" Test Case A.
  void StartHardclock(SimDuration handler_cost = Microseconds(90));
  void StopHardclock();

 private:
  Simulation* sim_;
  std::string name_;
  Cpu cpu_;
  CopyEngine copies_;
  std::optional<Cpu::SourceId> hardclock_;
};

}  // namespace ctms

#endif  // SRC_HW_MACHINE_H_
