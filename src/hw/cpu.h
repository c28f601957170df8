// A single-processor execution model with BSD-style interrupt levels.
//
// Work is submitted as a Job: an ordered list of Steps, each with a duration, an spl level,
// and an action performed when the step's time has elapsed. Steps are atomic (an interrupt
// arriving mid-step waits for the step boundary); at each boundary the CPU dispatches the
// highest-priority pending job whose level exceeds the level of the step about to run,
// stacking the preempted job. This reproduces the phenomena the paper measures:
//
//   - interrupt dispatch latency that grows when the CPU sits in protected code
//     (the <=440 us IRQ-to-handler variation of section 5.2.2),
//   - serialization of driver work behind other interrupt handlers, and
//   - CPU-copy costs that scale with bytes moved (section 2's central complaint).
//
// DMA into system memory steals memory-bus cycles from the CPU (section 4); that is modelled
// as a stretch factor applied to step durations while such a transfer is active.
//
// Every packet crosses a dozen jobs and about fifty steps, so building and running a job
// allocates nothing once the Cpu has warmed up: job records (with their step storage) are
// recycled inside the Cpu, and step actions live in inline storage. Most steps run no
// action, so a run of consecutive action-free steps of the running job is one event, not
// one per step: every step is still modelled (its span, counters and busy time are
// accounted for at its own boundary instant, at the latest when the Run* call that passes
// it returns), and a run ends early at the boundary where an arrival, a change of memory
// contention or CancelAll would have mattered. Two kinds of run spend no event at all: an
// idle tail (a run that ends its job with nothing to do after it: no action, no on_done,
// no other job waiting) is finished by whatever first observes that its end has passed,
// and a zero-length step that a run's own event starts runs inside that event when its
// own would have been the next one. ARCHITECTURE.md, "The CPU model", gives the rules,
// including how same-instant ties are ordered; tests/cpu_run_test.cc checks them against
// the per-step model.

#ifndef SRC_HW_CPU_H_
#define SRC_HW_CPU_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/spl.h"
#include "src/sim/inline_function.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace ctms {

class Cpu final : private InstantSettler {
 private:
  struct Record;

 public:
  // Inline capacity of a step action or a job's on_done callback: a `this` pointer plus a
  // Packet (88 bytes) plus a few scalars, the largest closure the per-packet path builds.
  // A larger capture still works but costs a heap allocation per job.
  static constexpr size_t kActionBytes = 112;
  using Action = BasicInlineFunction<kActionBytes>;

  // A job under construction. NewJob hands one out; SubmitInterrupt or SubmitProcess takes
  // it. It is a move-only handle on a record the Cpu recycles, so it must not outlive its
  // Cpu; a job dropped without being submitted gives its record back (destroying its
  // captures) at once.
  class Job {
   public:
    Job(Job&& other) noexcept : cpu_(other.cpu_), record_(other.record_) {
      other.record_ = nullptr;
    }
    Job& operator=(Job&&) = delete;
    ~Job() {
      if (record_ != nullptr) {
        cpu_->Recycle(record_);
      }
    }

    // Appends a step that runs for `duration` at max(spl, the job's level) and then runs
    // `action`, which may submit further work.
    Job& AddStep(SimDuration duration, Action action = nullptr, Spl spl = Spl::kNone);
    // Runs once, after the last step's action.
    void set_on_done(Action on_done);

   private:
    friend class Cpu;
    Job(Cpu* cpu, Record* record) : cpu_(cpu), record_(record) {}

    Cpu* cpu_;
    Record* record_;
  };

  Cpu(Simulation* sim, std::string name);
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;
  ~Cpu();

  // Starts building a job that runs at spl `level`. `name` labels the job's trace spans
  // and is not copied: pass a string literal or one that outlives the job.
  Job NewJob(const char* name, Spl level);

  // Submits an interrupt-context job. The configured dispatch latency (plus jitter) runs as
  // an implicit first step at the job's level, so the first caller-visible action runs
  // dispatch-latency later even on an idle CPU.
  void SubmitInterrupt(Job job);

  // Submits base-level (process-context) work with no dispatch latency.
  void SubmitProcess(Job job);

  // Convenience: one-step interrupt job whose step runs at `level`.
  void SubmitInterrupt(const char* name, Spl level, SimDuration duration, Action action);

  // Discards every queued, preempted and in-flight job without running their actions.
  // Owners whose jobs capture resources with shorter lifetimes (an experiment's payload
  // refs are charged to pools in its kernel, which is destroyed before this CPU's machine)
  // call this from their destructors so captured state dies while its dependencies are
  // still alive. A cancelled CPU takes no more work: a later SubmitInterrupt or
  // SubmitProcess drops its job at once, counting nothing.
  void CancelAll();

  // --- DMA interference ---------------------------------------------------------------
  // While count > 0, step durations are multiplied by the stretch factor. Nested calls
  // accumulate the count but not the factor (one bus; it is either contended or not).
  void BeginMemoryContention();
  void EndMemoryContention();
  void set_contention_stretch(double factor);

  // --- dispatch latency model ----------------------------------------------------------
  void set_dispatch_base(SimDuration d) { dispatch_base_ = d; }
  void set_dispatch_jitter(SimDuration d) { dispatch_jitter_ = d; }

  // --- introspection --------------------------------------------------------------------
  // Per-job CPU time is not kept here: with tracing on, every step is a span on this CPU's
  // track named after its job. idle(), current_level(), busy_time(), jobs_completed() and
  // Utilization() are exact at any instant; the cpu.* counters and spans of a step run's
  // inner boundaries, and of an idle tail, are written when the run ends or splits, when
  // the Cpu is next used, or when a Run* call passing them returns.
  bool idle() const { return current_ == nullptr || TailEnded(); }
  Spl current_level() const;
  SimDuration busy_time() const;
  uint64_t jobs_completed() const { return jobs_completed_ + (TailEnded() ? 1 : 0); }
  // Fraction of all simulated time so far that this CPU spent busy. Callers wanting a
  // windowed figure snapshot busy_time() themselves and difference it.
  double Utilization() const;
  const std::string& name() const { return name_; }

 private:
  struct Step {
    SimDuration duration = 0;
    Action action;  // runs when the step completes; may submit further work
    Spl spl = Spl::kNone;  // level while this step runs (max'ed with the job level)
  };

  // One job. steps[0] is the dispatch-latency slot: SubmitInterrupt fills in its duration
  // and starts there, SubmitProcess starts at steps[1]. A record is recycled (its captures
  // destroyed, its step storage kept) when its job finishes, is cancelled, or is dropped
  // unsubmitted.
  struct Record {
    const char* name = "";
    Spl level = Spl::kNone;
    std::vector<Step> steps;
    Action on_done;
    size_t next_step = 0;
    Record* next = nullptr;  // link in pending_ or free_
  };

  void Enqueue(Record* record);
  // Called at every step boundary: picks what runs next.
  void ScheduleNext();
  // Takes the finished current job off the CPU and runs its on_done.
  Record* FinishCurrent();
  void Recycle(Record* record);
  Spl EffectiveLevel(const Record& record) const;
  Spl StepLevel(size_t step) const;  // of current_'s step `step`

  // --- step runs ------------------------------------------------------------------------
  // A run is current_'s steps [settled_, run_last_] (and the already-accounted steps before
  // settled_ since it began), ending at run_last_'s boundary: with one event there, or with
  // none for an idle tail or for a zero-length step CompleteRun is about to run in place.
  // The last is not active: one step has no inner boundary to settle or cut.
  bool run_active() const { return run_event_ != kInvalidEventId || tail_; }
  // Whether the active run is an idle tail whose end comes before the running event.
  bool TailEnded() const { return tail_ && run_end_ < sim_->running_event(); }
  // Starts current_'s next step, and the longest run after it that no boundary cuts.
  void StartRun();
  // Schedules the run's event at its end (an idle tail's end then runs after all).
  void ScheduleRun();
  // The run's event: accounts for its remaining steps and runs the last one's action, then
  // runs each zero-length step that follows in place while its event would be the next.
  void CompleteRun();
  // Accounts for every run step whose boundary comes before `position` in the run order,
  // and finishes an idle tail whose end does; returns the last boundary accounted for.
  SimTime SettleBefore(const EventOrder& position) override;
  // The same, before the running event.
  void Settle() {
    if (run_active()) {
      SettleBefore(sim_->running_event());
    }
  }
  // The first run step from settled_ whose boundary does not come before `position`
  // (past run_last_ for an idle tail that has ended); `*busy` gets the busy time of the
  // steps before it.
  size_t StepsBefore(const EventOrder& position, SimDuration* busy) const;
  // Moves the run's end to the boundary of its step `last` (>= settled_).
  void EndRunAt(size_t last);
  // Ends the run at the first boundary after the running event: the step in flight then
  // is the run's last.
  void EndRunAtNextBoundary();
  // A step's duration in the active run: stretched as it was when the run began.
  SimDuration RunDuration(size_t step) const;
  void AccountStep(size_t step, SimTime start, SimDuration elapsed);
  // Adds this Cpu to, or removes it from, the settlers of sim_.
  void Enlist();
  void Delist();

  Simulation* sim_;
  std::string name_;

  Record* current_ = nullptr;
  std::vector<Record*> preempted_;  // stack
  Record* pending_ = nullptr;       // sorted by level desc, FIFO within a level
  Record* free_ = nullptr;          // recycled records
  std::vector<std::unique_ptr<Record>> records_;  // owns every record, grows on demand
  bool step_in_flight_ = false;
  bool cancelled_ = false;  // by CancelAll: later submissions are dropped at once

  // The active step run (see run_active()).
  EventId run_event_ = kInvalidEventId;
  EventOrder run_end_;        // the place of the run's last boundary; its seq is shared
                              // by every boundary of the run
  size_t run_last_ = 0;       // current_'s step whose boundary ends the run
  size_t settled_ = 0;        // current_'s first run step not yet accounted for
  SimTime settled_at_ = 0;    // its start
  double run_stretch_ = 1.0;  // the contention stretch when the run began, or 1
  bool tail_ = false;         // the run is an idle tail: no event stands for its end
  bool completing_ = false;   // CompleteRun is starting what follows its run's action, so a
                              // zero-length step started then gets no event yet
  bool enlisted_ = false;     // with sim_, while the run has inner boundaries or is a tail

  SimDuration dispatch_base_ = Microseconds(40);
  SimDuration dispatch_jitter_ = Microseconds(20);

  int contention_count_ = 0;
  double contention_stretch_ = 1.3;

  SimDuration busy_time_ = 0;
  uint64_t jobs_completed_ = 0;

  // Cached telemetry slots (cpu.<instance>.*) and the tracer track carrying step spans.
  Counter* jobs_submitted_counter_;
  Counter* jobs_completed_counter_;
  Counter* steps_counter_;
  Counter* preemptions_counter_;
  Counter* interrupts_counter_;
  TrackId track_ = kInvalidTrackId;
};

}  // namespace ctms

#endif  // SRC_HW_CPU_H_
