#include "src/hw/cpu.h"

#include <cassert>
#include <utility>

namespace ctms {

Cpu::Cpu(Simulation* sim, std::string name) : sim_(sim), name_(std::move(name)) {
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

Cpu::~Cpu() { Delist(); }

Cpu::Job& Cpu::Job::AddStep(SimDuration duration, Action action, Spl spl) {
  record_->steps.emplace_back(duration, std::move(action), spl);
  return *this;
}

void Cpu::Job::set_on_done(Action on_done) { record_->on_done = std::move(on_done); }

Cpu::Job Cpu::NewJob(const char* name, Spl level) {
  if (tail_) {
    Settle();  // an idle tail that has ended gives its record back before one is taken
  }
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

void Cpu::Recycle(Record* record) {
  record->on_done.Reset();
  record->steps.clear();
  record->next = free_;
  free_ = record;
}

Spl Cpu::EffectiveLevel(const Record& record) const {
  if (record.next_step >= record.steps.size()) {
    return record.level;
  }
  const Spl step_spl = record.steps[record.next_step].spl;
  return SplValue(step_spl) > SplValue(record.level) ? step_spl : record.level;
}

Spl Cpu::StepLevel(size_t step) const {
  const Spl step_spl = current_->steps[step].spl;
  return SplValue(step_spl) > SplValue(current_->level) ? step_spl : current_->level;
}

Spl Cpu::current_level() const {
  if (current_ == nullptr) {
    return Spl::kNone;
  }
  // The step about to run / in flight determines the level.
  size_t idx = current_->next_step;
  if (run_active()) {
    SimDuration unused = 0;
    idx = StepsBefore(sim_->running_event(), &unused);
    if (idx > run_last_) {
      return Spl::kNone;  // an idle tail that has ended
    }
  } else if (current_->next_step > 0 && step_in_flight_) {
    idx = current_->next_step - 1;
  }
  if (idx >= current_->steps.size()) {
    return current_->level;
  }
  return StepLevel(idx);
}

SimDuration Cpu::busy_time() const {
  SimDuration busy = busy_time_;
  if (run_active()) {
    SimDuration passed = 0;
    StepsBefore(sim_->running_event(), &passed);
    busy += passed;
  }
  return busy;
}

void Cpu::SubmitInterrupt(Job job) {
  if (cancelled_) {
    return;  // ~Job recycles the record, so the job's captures die now
  }
  // Model interrupt dispatch (context save, vectoring) as an implicit leading step at the
  // job's own level; jitter reflects microarchitectural variation, not kernel state.
  Record* record = job.record_;
  job.record_ = nullptr;
  record->steps[0].duration =
      dispatch_base_ + (dispatch_jitter_ > 0 ? sim_->rng().UniformDuration(0, dispatch_jitter_) : 0);
  record->next_step = 0;
  interrupts_counter_->Increment();
  Enqueue(record);
}

void Cpu::SubmitProcess(Job job) {
  if (cancelled_) {
    return;
  }
  Record* record = job.record_;
  job.record_ = nullptr;
  record->next_step = 1;
  Enqueue(record);
}

void Cpu::SubmitInterrupt(const char* name, Spl level, SimDuration duration, Action action) {
  Job job = NewJob(name, level);
  job.AddStep(duration, std::move(action), level);
  SubmitInterrupt(std::move(job));
}

void Cpu::CancelAll() {
  EndRunAtNextBoundary();  // an idle tail that has ended finishes its job first
  if (run_active()) {
    // The event stays, moved to the step in flight's boundary (an idle tail gets one
    // there), and finds no job there, as that step's own event did in the per-step model.
    // So a RunAll still ends at that boundary.
    if (tail_) {
      ScheduleRun();
    }
    run_event_ = kInvalidEventId;
    Delist();
  }
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
  cancelled_ = true;
}

void Cpu::BeginMemoryContention() {
  if (contention_count_ == 0) {
    EndRunAtNextBoundary();  // the steps after it start stretched
  }
  ++contention_count_;
}

void Cpu::EndMemoryContention() {
  assert(contention_count_ > 0);
  if (contention_count_ == 1) {
    EndRunAtNextBoundary();
  }
  --contention_count_;
}

void Cpu::set_contention_stretch(double factor) {
  EndRunAtNextBoundary();
  contention_stretch_ = factor;
}

void Cpu::Enqueue(Record* record) {
  jobs_submitted_counter_->Increment();
  if (tail_) {
    Settle();  // an idle tail that has ended leaves the CPU idle for this job
  }
  // Insert keeping pending_ sorted by level descending, FIFO within a level.
  Record** link = &pending_;
  while (*link != nullptr && SplValue((*link)->level) >= SplValue(record->level)) {
    link = &(*link)->next;
  }
  record->next = *link;
  *link = record;
  if (!step_in_flight_) {
    ScheduleNext();
    return;
  }
  if (run_active() && pending_ == record) {
    // A new head of the pending list: the run ends at the first boundary still to come
    // where the step after it would not block the job.
    Settle();
    for (size_t step = settled_; step < run_last_; ++step) {
      if (!SplBlocks(StepLevel(step + 1), record->level)) {
        EndRunAt(step);
        break;
      }
    }
    if (tail_) {
      ScheduleRun();  // an arrival before an idle tail's end: the end dispatches it
    }
  }
}

Cpu::Record* Cpu::FinishCurrent() {
  Record* finished = current_;
  current_ = nullptr;
  ++jobs_completed_;
  jobs_completed_counter_->Increment();
  if (finished->on_done) {
    finished->on_done();
  }
  return finished;
}

void Cpu::ScheduleNext() {
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
  StartRun();
}

SimDuration Cpu::RunDuration(size_t step) const {
  const SimDuration d = current_->steps[step].duration;
  return run_stretch_ == 1.0 ? d : static_cast<SimDuration>(static_cast<double>(d) * run_stretch_);
}

void Cpu::StartRun() {
  assert(current_ != nullptr);
  assert(current_->next_step < current_->steps.size());
  step_in_flight_ = true;
  run_stretch_ = contention_count_ > 0 ? contention_stretch_ : 1.0;
  const std::vector<Step>& steps = current_->steps;
  settled_ = current_->next_step;
  settled_at_ = sim_->Now();
  // Extend over the next step while the last one added runs no action and is not the job's
  // last, neither it nor the next is zero-length (same-instant boundaries end runs), and
  // the step after the last boundary still blocks the pending head.
  size_t last = settled_;
  SimTime start = settled_at_;
  SimDuration elapsed = RunDuration(last);
  while (!steps[last].action && last + 1 < steps.size() && elapsed > 0) {
    const SimDuration next = RunDuration(last + 1);
    if (next == 0 ||
        (pending_ != nullptr && !SplBlocks(StepLevel(last + 1), pending_->level))) {
      break;
    }
    start += elapsed;
    elapsed = next;
    ++last;
  }
  run_last_ = last;
  current_->next_step = last + 1;
  // The run ends where the per-step model ran the last step's event, which it queued when
  // that step started.
  run_end_ = {start + elapsed, start, sim_->ReserveSeq()};
  if (last + 1 == steps.size() && !steps[last].action && !current_->on_done &&
      pending_ == nullptr && preempted_.empty()) {
    // An idle tail: its event would only finish the job and leave the CPU idle, so it gets
    // none. Whatever first finds its end passed finishes it (TailEnded()), and an arrival
    // before the end schedules the event after all.
    tail_ = true;
    Enlist();
    return;
  }
  if (last > settled_) {
    Enlist();
  }
  if (completing_ && elapsed == 0) {
    return;  // one zero-length step: CompleteRun decides where it runs
  }
  ScheduleRun();
}

void Cpu::ScheduleRun() {
  tail_ = false;
  run_event_ = sim_->AtOrder(run_end_, [this]() { CompleteRun(); });
}

void Cpu::Enlist() {
  if (!enlisted_) {
    sim_->Enlist(this);
    enlisted_ = true;
  }
}

void Cpu::Delist() {
  if (enlisted_) {
    sim_->Delist(this);
    enlisted_ = false;
  }
}

void Cpu::AccountStep(size_t step, SimTime start, SimDuration elapsed) {
  busy_time_ += elapsed;
  steps_counter_->Increment();
  SpanTracer& tracer = sim_->telemetry().tracer;
  if (tracer.enabled()) {
    tracer.AddComplete(track_, current_->name, start, elapsed,
                       {{"spl", static_cast<int64_t>(SplValue(current_->steps[step].spl))}});
  }
}

size_t Cpu::StepsBefore(const EventOrder& position, SimDuration* busy) const {
  const size_t end = tail_ ? run_last_ + 1 : run_last_;  // an idle tail's end has no event
  size_t step = settled_;
  SimTime start = settled_at_;
  *busy = 0;
  while (step < end) {
    const SimDuration elapsed = RunDuration(step);
    if (!(EventOrder{start + elapsed, start, run_end_.seq} < position)) {
      break;
    }
    *busy += elapsed;
    start += elapsed;
    ++step;
  }
  return step;
}

SimTime Cpu::SettleBefore(const EventOrder& position) {
  SimDuration unused = 0;
  const size_t passed = StepsBefore(position, &unused);
  while (settled_ < passed) {
    const SimDuration elapsed = RunDuration(settled_);
    AccountStep(settled_, settled_at_, elapsed);
    settled_at_ += elapsed;
    ++settled_;
  }
  if (settled_ > run_last_) {
    // An idle tail has ended: its job completes as at its event, leaving the CPU idle.
    tail_ = false;
    Delist();
    step_in_flight_ = false;
    Recycle(FinishCurrent());
  }
  return settled_at_;
}

void Cpu::EndRunAt(size_t last) {
  if (last >= run_last_) {
    return;
  }
  SimTime start = settled_at_;
  for (size_t step = settled_; step < last; ++step) {
    start += RunDuration(step);
  }
  if (run_event_ != kInvalidEventId) {
    sim_->Cancel(run_event_);  // an idle tail has none
  }
  run_end_ = {start + RunDuration(last), start, run_end_.seq};
  run_last_ = last;
  current_->next_step = last + 1;
  ScheduleRun();
}

void Cpu::EndRunAtNextBoundary() {
  Settle();  // an idle tail that has ended finishes here
  if (run_active()) {
    EndRunAt(settled_);
  }
}

void Cpu::CompleteRun() {
  // current_ is null if CancelAll ran while this run was in flight.
  while (current_ != nullptr) {
    run_event_ = kInvalidEventId;
    Delist();
    while (settled_ <= run_last_) {
      const SimDuration elapsed = RunDuration(settled_);
      AccountStep(settled_, settled_at_, elapsed);
      settled_at_ += elapsed;
      ++settled_;
    }
    assert(settled_at_ == sim_->Now());
    {
      // Moved out so a CancelAll inside the action cannot destroy the running closure; its
      // captures die at the end of this block, after the next run is started, as they did
      // at the end of the step's own event.
      Action action = std::move(current_->steps[run_last_].action);
      if (action) {
        action();  // may submit new jobs; step_in_flight_ still true so no re-entrancy
      }
      step_in_flight_ = false;
      completing_ = true;
      if (current_ != nullptr && current_->next_step >= current_->steps.size()) {
        Recycle(FinishCurrent());
      }
      ScheduleNext();
      completing_ = false;
    }
    // A run started above with neither an event nor a tail is one zero-length step. Its
    // event would run at this instant, queued now: when that is the next event anyway, the
    // step runs here instead.
    if (current_ == nullptr || run_event_ != kInvalidEventId || tail_) {
      return;
    }
    if (!sim_->ClaimNext(run_end_)) {
      ScheduleRun();
      return;
    }
  }
}

double Cpu::Utilization() const {
  const SimTime now = sim_->Now();
  if (now <= 0) {
    return 0.0;
  }
  return static_cast<double>(busy_time()) / static_cast<double>(now);
}

}  // namespace ctms
