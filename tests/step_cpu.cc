#include "tests/step_cpu.h"

#include <cassert>
#include <utility>

namespace ctms {

StepCpu::StepCpu(Simulation* sim, std::string name)
    : sim_(sim), name_(std::move(name)), rng_(sim->rng().Fork()) {
  // Machines name their processor "<machine>.cpu"; the metric instance drops the redundant
  // suffix so names read cpu.tx.preemptions rather than cpu.tx.cpu.preemptions.
  std::string instance = name_;
  if (instance.size() > 4 && instance.ends_with(".cpu")) {
    instance.resize(instance.size() - 4);
  }
  const std::string prefix = "cpu." + instance + ".";
  Telemetry& telemetry = sim_->telemetry();
  jobs_submitted_counter_ = telemetry.metrics.GetCounter(prefix + "jobs_submitted");
  jobs_completed_counter_ = telemetry.metrics.GetCounter(prefix + "jobs_completed");
  steps_counter_ = telemetry.metrics.GetCounter(prefix + "steps_executed");
  preemptions_counter_ = telemetry.metrics.GetCounter(prefix + "preemptions");
  interrupts_counter_ = telemetry.metrics.GetCounter(prefix + "interrupts");
  // The trace track shares the metric instance name so the Perfetto row and the counter
  // namespace line up ("cpu.tx" both places).
  track_ = telemetry.tracer.RegisterTrack("cpu." + instance);
}

StepCpu::Job& StepCpu::Job::AddStep(SimDuration duration, Action action, Spl spl) {
  record_->steps.emplace_back(duration, std::move(action), spl);
  return *this;
}

void StepCpu::Job::set_on_done(Action on_done) { record_->on_done = std::move(on_done); }

StepCpu::Job StepCpu::NewJob(const char* name, Spl level) {
  Record* record = free_;
  if (record != nullptr) {
    free_ = record->next;
  } else {
    records_.push_back(std::make_unique<Record>());
    record = records_.back().get();
  }
  record->name = name;
  record->level = level;
  record->next = nullptr;
  // The dispatch-latency slot, filled in by SubmitInterrupt and skipped by SubmitProcess.
  record->steps.emplace_back(0, nullptr, level);
  return Job(this, record);
}

void StepCpu::Recycle(Record* record) {
  record->on_done.Reset();
  record->steps.clear();
  record->next = free_;
  free_ = record;
}

Spl StepCpu::EffectiveLevel(const Record& record) const {
  if (record.next_step >= record.steps.size()) {
    return record.level;
  }
  const Spl step_spl = record.steps[record.next_step].spl;
  return SplValue(step_spl) > SplValue(record.level) ? step_spl : record.level;
}

Spl StepCpu::current_level() const {
  if (current_ == nullptr) {
    return Spl::kNone;
  }
  // The step about to run / in flight determines the level.
  const size_t idx = current_->next_step > 0 && step_in_flight_ ? current_->next_step - 1
                                                                : current_->next_step;
  if (idx >= current_->steps.size()) {
    return current_->level;
  }
  const Spl step_spl = current_->steps[idx].spl;
  return SplValue(step_spl) > SplValue(current_->level) ? step_spl : current_->level;
}

SimDuration StepCpu::Stretched(SimDuration d) const {
  if (contention_count_ > 0) {
    return static_cast<SimDuration>(static_cast<double>(d) * contention_stretch_);
  }
  return d;
}

void StepCpu::SubmitInterrupt(Job job) {
  if (cancelled_) {
    return;  // ~Job recycles the record, so the job's captures die now
  }
  // Model interrupt dispatch (context save, vectoring) as an implicit leading step at the
  // job's own level; jitter reflects microarchitectural variation, not kernel state.
  Record* record = job.record_;
  job.record_ = nullptr;
  record->steps[0].duration =
      dispatch_base_ + (dispatch_jitter_ > 0 ? rng_.UniformDuration(0, dispatch_jitter_) : 0);
  record->next_step = 0;
  interrupts_counter_->Increment();
  Enqueue(record);
}

void StepCpu::SubmitProcess(Job job) {
  if (cancelled_) {
    return;
  }
  Record* record = job.record_;
  job.record_ = nullptr;
  record->next_step = 1;
  Enqueue(record);
}

void StepCpu::SubmitInterrupt(const char* name, Spl level, SimDuration duration, Action action) {
  Job job = NewJob(name, level);
  job.AddStep(duration, std::move(action), level);
  SubmitInterrupt(std::move(job));
}

void StepCpu::CancelAll() {
  if (current_ != nullptr) {
    Recycle(current_);
    current_ = nullptr;
  }
  for (Record* record : preempted_) {
    Recycle(record);
  }
  preempted_.clear();
  while (pending_ != nullptr) {
    Record* record = pending_;
    pending_ = record->next;
    Recycle(record);
  }
  // A step event may still be scheduled on the simulation; it finds no current job if it
  // ever fires.
  cancelled_ = true;
}

void StepCpu::BeginMemoryContention() { ++contention_count_; }

void StepCpu::EndMemoryContention() {
  assert(contention_count_ > 0);
  --contention_count_;
}

void StepCpu::Enqueue(Record* record) {
  jobs_submitted_counter_->Increment();
  // Insert keeping pending_ sorted by level descending, FIFO within a level.
  Record** link = &pending_;
  while (*link != nullptr && SplValue((*link)->level) >= SplValue(record->level)) {
    link = &(*link)->next;
  }
  record->next = *link;
  *link = record;
  if (!step_in_flight_) {
    ScheduleNext();
  }
}

StepCpu::Record* StepCpu::FinishCurrent() {
  Record* finished = current_;
  current_ = nullptr;
  ++jobs_completed_;
  jobs_completed_counter_->Increment();
  if (finished->on_done) {
    finished->on_done();
  }
  return finished;
}

void StepCpu::ScheduleNext() {
  if (step_in_flight_) {
    // A nested call (an on_done callback submitted new work and dispatch already started a
    // step) — the boundary logic will run again when that step completes.
    return;
  }
  // Decide what runs now: the current job's next step, a pending job that preempts it, or
  // (if there is no current job) the best of pending vs the preempted stack.
  if (current_ == nullptr && !preempted_.empty()) {
    current_ = preempted_.back();
    preempted_.pop_back();
  }
  if (pending_ != nullptr) {
    const Spl incoming = pending_->level;
    const bool preempts =
        current_ == nullptr || !SplBlocks(EffectiveLevel(*current_), incoming);
    if (preempts) {
      if (current_ != nullptr) {
        preemptions_counter_->Increment();
        preempted_.push_back(current_);
      }
      current_ = pending_;
      pending_ = current_->next;
    }
  }
  if (current_ == nullptr) {
    return;  // idle
  }
  if (current_->next_step >= current_->steps.size()) {
    // Degenerate job with no steps (or all steps already run): complete it immediately.
    Record* finished = FinishCurrent();
    ScheduleNext();
    Recycle(finished);
    return;
  }
  StartStep();
}

void StepCpu::StartStep() {
  assert(current_ != nullptr);
  assert(current_->next_step < current_->steps.size());
  step_in_flight_ = true;
  const SimDuration elapsed = Stretched(current_->steps[current_->next_step].duration);
  ++current_->next_step;
  sim_->After(elapsed, [this, elapsed]() { CompleteStep(elapsed); });
}

void StepCpu::CompleteStep(SimDuration elapsed) {
  if (current_ == nullptr) {
    return;  // CancelAll ran while this step was in flight
  }
  busy_time_ += elapsed;
  Step& step = current_->steps[current_->next_step - 1];
  steps_counter_->Increment();
  SpanTracer& tracer = sim_->telemetry().tracer;
  if (tracer.enabled()) {
    tracer.AddComplete(track_, current_->name, sim_->Now() - elapsed, elapsed,
                       {{"spl", static_cast<int64_t>(SplValue(step.spl))}});
  }
  // Moved out so a CancelAll inside the action cannot destroy the running closure; its
  // captures die when this step's event ends, after the next step is scheduled.
  Action action = std::move(step.action);
  if (action) {
    action();  // may submit new jobs; step_in_flight_ still true so no re-entrancy
  }
  step_in_flight_ = false;
  if (current_ != nullptr && current_->next_step >= current_->steps.size()) {
    Recycle(FinishCurrent());
  }
  ScheduleNext();
}

double StepCpu::Utilization() const {
  const SimTime now = sim_->Now();
  if (now <= 0) {
    return 0.0;
  }
  return static_cast<double>(busy_time_) / static_cast<double>(now);
}

}  // namespace ctms
