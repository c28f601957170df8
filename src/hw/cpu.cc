#include "src/hw/cpu.h"

#include <cassert>
#include <utility>

namespace ctms {

Cpu::Cpu(Simulation* sim, std::string name)
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

Cpu::~Cpu() { sim_->Delist(this); }

Cpu::Job& Cpu::Job::AddStep(SimDuration duration, Action action, Spl spl) {
  const bool acts = static_cast<bool>(action);
  record_->steps.emplace_back(duration, std::move(action), spl);
  if (acts) {
    record_->acts_until = record_->steps.size();
  }
  return *this;
}

void Cpu::Job::set_on_done(Action on_done) { record_->on_done = std::move(on_done); }

Cpu::Job Cpu::NewJob(const char* name, Spl level) {
  Settle();  // an idle run that has ended gives its record back before one is taken
  return Job(this, TakeRecord(name, level));
}

Cpu::Record* Cpu::TakeRecord(const char* name, Spl level) {
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
  return record;
}

void Cpu::Recycle(Record* record) {
  record->on_done.Reset();
  record->steps.clear();
  record->acts_until = 0;
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

bool Cpu::idle() const {
  Settle();
  return current_ == nullptr;
}

uint64_t Cpu::jobs_completed() const {
  Settle();
  return jobs_completed_;
}

Spl Cpu::current_level() const {
  Settle();
  if (current_ == nullptr) {
    return Spl::kNone;
  }
  // The step about to run / in flight determines the level.
  size_t idx = current_->next_step;
  if (run_active()) {
    idx = settled_;
  } else if (current_->next_step > 0 && step_in_flight_) {
    idx = current_->next_step - 1;
  }
  if (idx >= current_->steps.size()) {
    return current_->level;
  }
  return StepLevel(idx);
}

SimDuration Cpu::busy_time() const {
  Settle();
  return busy_time_;
}

void Cpu::SubmitInterrupt(Job job) {
  if (cancelled_) {
    return;  // ~Job recycles the record, so the job's captures die now
  }
  Settle();  // earlier arrivals draw their jitter first
  Record* record = job.record_;
  job.record_ = nullptr;
  EnqueueInterrupt(record, sim_->Now());
}

void Cpu::EnqueueInterrupt(Record* record, SimTime now) {
  // Model interrupt dispatch (context save, vectoring) as an implicit leading step at the
  // job's own level; jitter reflects microarchitectural variation, not kernel state.
  record->steps[0].duration =
      dispatch_base_ + (dispatch_jitter_ > 0 ? rng_.UniformDuration(0, dispatch_jitter_) : 0);
  record->next_step = 0;
  interrupts_counter_->Increment();
  Enqueue(record, now);
}

void Cpu::SubmitProcess(Job job) {
  if (cancelled_) {
    return;
  }
  Settle();
  Record* record = job.record_;
  job.record_ = nullptr;
  record->next_step = 1;
  Enqueue(record, sim_->Now());
}

void Cpu::SubmitInterrupt(const char* name, Spl level, SimDuration duration, Action action) {
  Job job = NewJob(name, level);
  job.AddStep(duration, std::move(action), level);
  SubmitInterrupt(std::move(job));
}

void Cpu::CancelAll() {
  EndRunAtNextBoundary();  // settles first: an idle run that has ended finishes its job
  for (Source& source : sources_) {
    source.active = false;
  }
  next_arrival_ = kNoArrival;
  if (run_active()) {
    // The event stays, moved to the step in flight's boundary (an idle run gets one there),
    // and finds no job there, as that step's own event did in the per-step model. So a
    // RunAll still ends at that boundary.
    if (idle_run_) {
      ScheduleRun();
    }
    run_event_ = kInvalidEventId;
  }
  UpdateDue();
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

Cpu::SourceId Cpu::StartSource(const InterruptSource& source, SimTime first) {
  assert(first >= sim_->Now());
  assert(source.period > 0 || (source.mean > 0 && source.rng != nullptr));
  Settle();
  SourceId id = 0;
  while (id < sources_.size() && sources_[id].active) {
    ++id;
  }
  if (id == sources_.size()) {
    sources_.emplace_back();
  }
  // The first arrival's place is the one an event queued now would have.
  sources_[id] = Source{source, {first, sim_->Now(), sim_->ReserveSeq()}, 0, !cancelled_};
  FindNextArrival();
  if (run_event_ != kInvalidEventId) {
    EndRunAtArrivals();
  }
  UpdateDue();
  return id;
}

void Cpu::StopSource(SourceId id) {
  Settle();  // the arrivals before now still happen
  sources_[id].active = false;
  FindNextArrival();
  UpdateDue();
}

uint64_t Cpu::arrivals(SourceId id) const {
  Settle();
  return sources_[id].arrivals;
}

void Cpu::FindNextArrival() {
  next_arrival_ = kNoArrival;
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i].active &&
        (next_arrival_ == kNoArrival || sources_[i].next < sources_[next_arrival_].next)) {
      next_arrival_ = i;
    }
  }
}

void Cpu::Arrive(size_t index) {
  Source& source = sources_[index];
  const InterruptSource& spec = source.spec;
  const SimTime at = source.next.when;
  ++source.arrivals;
  const SimDuration length =
      spec.period > 0 ? spec.length : spec.rng->UniformDuration(spec.min, spec.max);
  Record* record = TakeRecord(spec.name, spec.level);
  record->steps.emplace_back(length, nullptr, spec.level);
  EnqueueInterrupt(record, at);
  // The next arrival's place is the one its event, queued by this arrival's, would have.
  const SimDuration wait = spec.period > 0 ? spec.period : spec.rng->ExponentialDuration(spec.mean);
  source.next = {at + wait, at, sim_->ReserveSeq()};
  FindNextArrival();
}

void Cpu::Enqueue(Record* record, SimTime now) {
  jobs_submitted_counter_->Increment();
  // Insert keeping pending_ sorted by level descending, FIFO within a level.
  Record** link = &pending_;
  while (*link != nullptr && SplValue((*link)->level) >= SplValue(record->level)) {
    link = &(*link)->next;
  }
  record->next = *link;
  *link = record;
  if (!step_in_flight_) {
    ScheduleNext(now);
    return;
  }
  if (!run_active()) {
    return;  // CompleteRun runs an action; its dispatch comes next
  }
  if (pending_ == record) {
    // A new head of the pending list: the run ends at the first boundary still to come
    // where the step after it would not block the job.
    for (size_t step = settled_; step < run_last_; ++step) {
      if (!SplBlocks(StepLevel(step + 1), record->level)) {
        EndRunAt(step);
        break;
      }
    }
  }
  if (idle_run_ && !ActionFree()) {
    // Work with an action arrived: the run needs its event after all, at its end or where
    // an arrival preempts before it.
    EndRunAtArrivals();
    ScheduleRun();
    UpdateDue();
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

void Cpu::ScheduleNext(SimTime now) {
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
    UpdateDue();
    return;  // idle
  }
  if (current_->next_step >= current_->steps.size()) {
    // Degenerate job with no steps (or all steps already run): complete it immediately.
    Record* finished = FinishCurrent();
    ScheduleNext(now);
    Recycle(finished);
    return;
  }
  StartRun(now);
}

SimDuration Cpu::RunDuration(size_t step) const {
  const SimDuration d = current_->steps[step].duration;
  return run_stretch_ == 1.0 ? d : static_cast<SimDuration>(static_cast<double>(d) * run_stretch_);
}

bool Cpu::ActionFree() const {
  const auto free = [](const Record& r, size_t k) { return !r.on_done && r.acts_until <= k; };
  if (current_ != nullptr && !free(*current_, current_->next_step)) {
    return false;
  }
  for (const Record* r : preempted_) {
    if (!free(*r, r->next_step)) {
      return false;
    }
  }
  for (const Record* r = pending_; r != nullptr; r = r->next) {
    if (!free(*r, r->next_step)) {
      return false;
    }
  }
  return true;
}

bool Cpu::ArrivalPreempts(SimTime when, SimTime queued_at, Spl next_level) const {
  const EventOrder boundary{when, queued_at, run_end_.seq};
  for (const Source& source : sources_) {
    if (source.active && source.next < boundary &&
        (pending_ == nullptr || SplValue(source.spec.level) > SplValue(pending_->level)) &&
        !SplBlocks(next_level, source.spec.level)) {
      return true;
    }
  }
  return false;
}

void Cpu::EndRunAtArrivals() {
  if (next_arrival_ == kNoArrival || !(sources_[next_arrival_].next < run_end_)) {
    return;
  }
  SimTime start = settled_at_;
  for (size_t step = settled_; step < run_last_; ++step) {
    const SimTime end = start + RunDuration(step);
    if (ArrivalPreempts(end, start, StepLevel(step + 1))) {
      EndRunAt(step);
      return;
    }
    start = end;
  }
}

void Cpu::StartRun(SimTime now) {
  assert(current_ != nullptr);
  assert(current_->next_step < current_->steps.size());
  step_in_flight_ = true;
  run_stretch_ = contention_count_ > 0 ? contention_stretch_ : 1.0;
  const std::vector<Step>& steps = current_->steps;
  settled_ = current_->next_step;
  settled_at_ = now;
  // The run ends where the per-step model ran the last step's event, which it queued when
  // that step started; one sequence number serves every boundary of the run.
  run_end_.seq = sim_->ReserveSeq();
  // An idle run has no event, so whatever settles an arrival during it cuts it there; a
  // run with an event ends where the next arrival would preempt.
  const bool idle = ActionFree();
  const bool arrivals = !idle && next_arrival_ != kNoArrival;
  // Extend over the next step while the last one added runs no action and is not the job's
  // last, neither it nor the next is zero-length (same-instant boundaries end runs), and
  // the step after the last boundary still blocks the pending head and any arrival before
  // that boundary.
  size_t last = settled_;
  SimTime start = settled_at_;
  SimDuration elapsed = RunDuration(last);
  while (!steps[last].action && last + 1 < steps.size() && elapsed > 0) {
    const SimDuration next = RunDuration(last + 1);
    if (next == 0 ||
        (pending_ != nullptr && !SplBlocks(StepLevel(last + 1), pending_->level)) ||
        (arrivals && sources_[next_arrival_].next.when <= start + elapsed &&
         ArrivalPreempts(start + elapsed, start, StepLevel(last + 1)))) {
      break;
    }
    start += elapsed;
    elapsed = next;
    ++last;
  }
  run_last_ = last;
  current_->next_step = last + 1;
  run_end_.when = start + elapsed;
  run_end_.queued_at = start;
  if (idle) {
    // Its event would only account for steps and dispatch more action-free work, so it
    // gets none: whatever first finds its end passed settles it, and work with an action
    // arriving before the end schedules the event after all.
    idle_run_ = true;
    UpdateDue();
    return;
  }
  if (!completing_ || elapsed > 0) {
    ScheduleRun();
  }  // else one zero-length step: CompleteRun decides where it runs
  UpdateDue();
}

void Cpu::ScheduleRun() {
  idle_run_ = false;
  run_event_ = sim_->AtOrder(run_end_, [this]() { CompleteRun(); });
}

void Cpu::UpdateDue() {
  if (settling_) {
    return;  // SettleBefore updates it once it is done
  }
  const EventOrder* due = next_arrival_ != kNoArrival ? &sources_[next_arrival_].next : nullptr;
  EventOrder boundary;
  if (run_active() && (idle_run_ || settled_ < run_last_)) {
    // The next boundary: an inner one, or an idle run's end.
    boundary = {settled_at_ + RunDuration(settled_), settled_at_, run_end_.seq};
    if (due == nullptr || boundary < *due) {
      due = &boundary;
    }
  }
  if (due == nullptr) {
    sim_->Delist(this);
  } else if (!enlisted() || *due < this->due() || this->due() < *due) {
    sim_->Enlist(this, *due);
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

void Cpu::AccountBefore(const EventOrder& position) {
  const size_t end = idle_run_ ? run_last_ + 1 : run_last_;  // an idle run's end has no event
  while (settled_ < end) {
    const SimDuration elapsed = RunDuration(settled_);
    if (!(EventOrder{settled_at_ + elapsed, settled_at_, run_end_.seq} < position)) {
      return;
    }
    AccountStep(settled_, settled_at_, elapsed);
    settled_at_ += elapsed;
    ++settled_;
  }
}

SimTime Cpu::SettleBefore(const EventOrder& position) {
  settling_ = true;
  for (;;) {
    const bool arrives =
        next_arrival_ != kNoArrival && sources_[next_arrival_].next < position;
    const EventOrder& bound = arrives ? sources_[next_arrival_].next : position;
    if (run_active()) {
      AccountBefore(bound);
      if (settled_ > run_last_) {
        // An idle run has ended: its job completes if this was its last step, and what
        // comes next starts at its end, as at its event.
        idle_run_ = false;
        step_in_flight_ = false;
        if (current_->next_step >= current_->steps.size()) {
          Recycle(FinishCurrent());
        }
        ScheduleNext(settled_at_);
        continue;
      }
    }
    if (!arrives) {
      break;
    }
    Arrive(next_arrival_);
  }
  settling_ = false;
  UpdateDue();
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
  run_end_ = {start + RunDuration(last), start, run_end_.seq};
  run_last_ = last;
  current_->next_step = last + 1;
  if (run_event_ != kInvalidEventId) {
    sim_->Cancel(run_event_);
    ScheduleRun();
  }
  UpdateDue();
}

void Cpu::EndRunAtNextBoundary() {
  Settle();  // an idle run that has ended finishes here
  if (run_active()) {
    EndRunAt(settled_);
  }
}

void Cpu::CompleteRun() {
  // current_ is null if CancelAll ran while this run was in flight.
  while (current_ != nullptr) {
    if (next_arrival_ != kNoArrival && sources_[next_arrival_].next < sim_->running_event()) {
      SettleBefore(sim_->running_event());  // arrivals before this boundary join the queue
    }
    run_event_ = kInvalidEventId;
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
      ScheduleNext(sim_->Now());
      completing_ = false;
    }
    // A run started above with neither an event nor an idle run is one zero-length step.
    // Its event would run at this instant, queued now: when that is the next event anyway,
    // the step runs here instead.
    if (current_ == nullptr || run_event_ != kInvalidEventId || idle_run_) {
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
