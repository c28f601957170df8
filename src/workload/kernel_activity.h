// Background kernel activity on a host: softclock housekeeping and the occasional long
// protected code section.
//
// The paper repeatedly attributes latency spread to "other interrupt sources and the
// execution of protected code segments throughout the kernel" (sections 5.3's discussion of
// histograms 7). This module produces exactly those: short periodic softclock work, plus
// rarer, longer sections at high spl that delay interrupt dispatch by up to a few
// milliseconds — the source of Figure 5-3's 2% right tail.

#ifndef SRC_WORKLOAD_KERNEL_ACTIVITY_H_
#define SRC_WORKLOAD_KERNEL_ACTIVITY_H_

#include <cstdint>
#include <vector>

#include "src/hw/machine.h"
#include "src/sim/rng.h"

namespace ctms {

class KernelBackgroundActivity {
 public:
  struct Config {
    // Softclock: deferred timeout processing after (some) hardclock ticks.
    SimDuration softclock_period = Milliseconds(20);
    SimDuration softclock_cost = Microseconds(40);

    // Protected code sections come in two classes. Short ones are everywhere in a 4.3BSD
    // kernel (spl-bracketed queue manipulation, timeout scans) and bound the common-case
    // interrupt dispatch jitter — the paper's 440 us worst-case IRQ-to-handler figure.
    SimDuration short_interarrival_mean = Milliseconds(25);
    SimDuration short_min = Microseconds(80);
    SimDuration short_max = Microseconds(400);
    // Rare long ones (disk interrupt tails, fsflush, callout storms) produce the
    // multi-millisecond histogram tails the paper attributes to "protected code segments
    // throughout the kernel".
    SimDuration long_interarrival_mean = Milliseconds(700);
    SimDuration long_min = Microseconds(800);
    SimDuration long_max = Microseconds(3600);
    // Very rare multi-millisecond stalls — the real-time analysis software the paper ran on
    // its test machines (section 5.2.1 halts machines and snapshots data). Disabled unless
    // an interarrival is set; CtmsExperiment enables them in multiprocessing mode.
    SimDuration stall_interarrival_mean = 0;  // 0 = off
    SimDuration stall_min = Milliseconds(4);
    SimDuration stall_max = Milliseconds(22);
    Spl section_level = Spl::kHigh;
  };

  KernelBackgroundActivity(Machine* machine, Rng rng, Config config);
  KernelBackgroundActivity(Machine* machine, Rng rng)
      : KernelBackgroundActivity(machine, std::move(rng), Config{}) {}
  ~KernelBackgroundActivity();

  // Starts the softclock and the protected sections (and stalls, if enabled) as background
  // interrupt sources of the machine's CPU, which draws their lengths and waits from this
  // activity's stream in arrival order. The machine must outlive the activity.
  void Start();
  void Stop();

  uint64_t sections_run() const;

 private:
  Machine* machine_;
  Rng rng_;
  Config config_;
  std::vector<Cpu::SourceId> sources_;  // softclock, then short and long sections and stalls
  uint64_t stopped_sections_ = 0;       // run by the sections of earlier Starts
};

}  // namespace ctms

#endif  // SRC_WORKLOAD_KERNEL_ACTIVITY_H_
