#include "src/workload/kernel_activity.h"

#include <utility>

namespace ctms {

KernelBackgroundActivity::KernelBackgroundActivity(Machine* machine, Rng rng, Config config)
    : machine_(machine), rng_(std::move(rng)), config_(config) {}

KernelBackgroundActivity::~KernelBackgroundActivity() { Stop(); }

void KernelBackgroundActivity::Start() {
  Stop();
  Cpu& cpu = machine_->cpu();
  const SimTime now = machine_->sim()->Now();
  Cpu::InterruptSource softclock;
  softclock.name = "softclock";
  softclock.level = Spl::kSoftClock;
  softclock.period = config_.softclock_period;
  softclock.length = config_.softclock_cost;
  sources_.push_back(
      cpu.StartSource(softclock, now + rng_.UniformDuration(0, config_.softclock_period)));
  // The three kinds of section share this activity's stream: each arrival draws its length,
  // then its kind's next wait.
  const auto start_sections = [&](const char* name, SimDuration mean, SimDuration min,
                                  SimDuration max) {
    Cpu::InterruptSource section;
    section.name = name;
    section.level = config_.section_level;
    section.mean = mean;
    section.min = min;
    section.max = max;
    section.rng = &rng_;
    sources_.push_back(cpu.StartSource(section, now + rng_.ExponentialDuration(mean)));
  };
  start_sections("kern-protected-short", config_.short_interarrival_mean, config_.short_min,
                 config_.short_max);
  start_sections("kern-protected-long", config_.long_interarrival_mean, config_.long_min,
                 config_.long_max);
  if (config_.stall_interarrival_mean > 0) {
    start_sections("analysis-stall", config_.stall_interarrival_mean, config_.stall_min,
                   config_.stall_max);
  }
}

void KernelBackgroundActivity::Stop() {
  Cpu& cpu = machine_->cpu();
  stopped_sections_ = sections_run();
  for (const Cpu::SourceId id : sources_) {
    cpu.StopSource(id);
  }
  sources_.clear();
}

uint64_t KernelBackgroundActivity::sections_run() const {
  uint64_t sections = stopped_sections_;
  for (size_t i = 1; i < sources_.size(); ++i) {  // sources_[0] is the softclock
    sections += machine_->cpu().arrivals(sources_[i]);
  }
  return sections;
}

}  // namespace ctms
