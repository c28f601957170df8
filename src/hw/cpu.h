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
// contention or CancelAll would have mattered. While all the work on the Cpu runs no action
// and has no on_done (an idle run: the hardclock, softclock and spl sections the Cpu runs
// as background interrupt sources, and action-free job ends), no event stands for any of
// it, nor for the sources' arrivals: whatever first observes an instant that has passed
// settles it. And a zero-length step that a run's own event starts runs inside that event
// when its own would have been the next one. ARCHITECTURE.md, "The CPU model", gives the
// rules, including how same-instant ties are ordered; tests/cpu_run_test.cc checks them
// against the per-step model.

#ifndef SRC_HW_CPU_H_
#define SRC_HW_CPU_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/spl.h"
#include "src/sim/inline_function.h"
#include "src/sim/rng.h"
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

  // --- background interrupt sources -----------------------------------------------------
  // A source of action-free one-step interrupt jobs: the hardclock, softclock, spl sections
  // and stalls. Its arrivals cost no event; each is dispatched, and draws its dispatch
  // jitter, when the Cpu first finds that its place has passed.
  struct InterruptSource {
    const char* name = "";  // labels the jobs' spans; not copied
    Spl level = Spl::kNone;
    // A periodic source runs `length` every `period`. Otherwise each arrival draws from
    // `*rng` a length uniform in [min, max] and then an exponential wait of mean `mean`.
    SimDuration period = 0;
    SimDuration length = 0;
    SimDuration mean = 0;
    SimDuration min = 0;
    SimDuration max = 0;
    Rng* rng = nullptr;
  };
  using SourceId = size_t;
  // Starts `source` with its first arrival at `first` (>= Now()). CancelAll stops every
  // source.
  SourceId StartSource(const InterruptSource& source, SimTime first);
  void StopSource(SourceId id);
  // Arrivals of source `id` so far.
  uint64_t arrivals(SourceId id) const;

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
  void set_dispatch_base(SimDuration d) {
    Settle();
    dispatch_base_ = d;
  }
  void set_dispatch_jitter(SimDuration d) {
    Settle();
    dispatch_jitter_ = d;
  }

  // --- introspection --------------------------------------------------------------------
  // Per-job CPU time is not kept here: with tracing on, every step is a span on this CPU's
  // track named after its job. idle(), current_level(), busy_time(), jobs_completed(),
  // Utilization() and arrivals() are exact at any instant: each first settles what has
  // passed, which only writes down what already happened. The cpu.* counters and spans of
  // a step run's inner boundaries, and of idle runs and arrivals, are written when the run
  // ends or splits, when the Cpu is next used, or when a Run* call passing them returns.
  bool idle() const;
  Spl current_level() const;
  SimDuration busy_time() const;
  uint64_t jobs_completed() const;
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
    size_t acts_until = 0;  // one past the last step with an action
    size_t next_step = 0;
    Record* next = nullptr;  // link in pending_ or free_
  };

  struct Source {
    InterruptSource spec;
    EventOrder next;  // the next arrival's place
    uint64_t arrivals = 0;
    bool active = false;
  };

  Record* TakeRecord(const char* name, Spl level);
  // Queues `record`, submitted at instant `now`; an interrupt first gets its dispatch slot.
  void Enqueue(Record* record, SimTime now);
  void EnqueueInterrupt(Record* record, SimTime now);
  // Called at every step boundary `now`: picks what runs next.
  void ScheduleNext(SimTime now);
  // Takes the finished current job off the CPU and runs its on_done.
  Record* FinishCurrent();
  void Recycle(Record* record);
  Spl EffectiveLevel(const Record& record) const;
  Spl StepLevel(size_t step) const;  // of current_'s step `step`

  // --- step runs ------------------------------------------------------------------------
  // A run is current_'s steps [settled_, run_last_] (and the already-accounted steps before
  // settled_ since it began), ending at run_last_'s boundary: with one event there, or with
  // none for an idle run or for a zero-length step CompleteRun is about to run in place.
  // The last is not active: one step has no inner boundary to settle or cut.
  bool run_active() const { return run_event_ != kInvalidEventId || idle_run_; }
  // Whether every job on the Cpu, from its next step on, runs no action and has no on_done.
  bool ActionFree() const;
  // Starts current_'s next step at `now`, and the longest run after it that no boundary
  // cuts.
  void StartRun(SimTime now);
  // Schedules the run's event at its end (an idle run's end then runs after all).
  void ScheduleRun();
  // The run's event: accounts for its remaining steps and runs the last one's action, then
  // runs each zero-length step that follows in place while its event would be the next.
  void CompleteRun();
  // Settles, in place order, every instant before `position` that no event stands for: the
  // boundaries of the active run, the end of an idle run (and what starts after it), and
  // the sources' arrivals. Returns the last boundary accounted for.
  SimTime SettleBefore(const EventOrder& position) override;
  // The same, before the running event. Logically const: it writes down what has passed.
  void Settle() const {
    if (enlisted() && due() < sim_->running_event()) {
      const_cast<Cpu*>(this)->SettleBefore(sim_->running_event());
    }
  }
  // Accounts for the run steps whose boundary comes before `position`.
  void AccountBefore(const EventOrder& position);
  // Dispatches the next arrival of source `index` at its place.
  void Arrive(size_t index);
  // Points next_arrival_ at the active source with the earliest next arrival.
  void FindNextArrival();
  // Whether a source's next arrival before the run's boundary `(when, queued_at)` would
  // preempt there, before a step at `next_level`.
  bool ArrivalPreempts(SimTime when, SimTime queued_at, Spl next_level) const;
  // Ends the active run at the first boundary where a source's next arrival preempts.
  void EndRunAtArrivals();
  // Moves the run's end to the boundary of its step `last` (>= settled_).
  void EndRunAt(size_t last);
  // Ends the run at the first boundary after the running event: the step in flight then
  // is the run's last.
  void EndRunAtNextBoundary();
  // A step's duration in the active run: stretched as it was when the run began.
  SimDuration RunDuration(size_t step) const;
  void AccountStep(size_t step, SimTime start, SimDuration elapsed);
  // Enlists this Cpu with sim_ at its earliest instant without an event, or delists it.
  void UpdateDue();

  Simulation* sim_;
  std::string name_;
  Rng rng_;  // dispatch jitter, forked from the simulation's stream at construction

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
  bool idle_run_ = false;     // no event stands for the run's end
  bool settling_ = false;     // in SettleBefore, which updates the due once at its end
  bool completing_ = false;   // CompleteRun is starting what follows its run's action, so a
                              // zero-length step started then gets no event yet

  static constexpr size_t kNoArrival = SIZE_MAX;
  std::vector<Source> sources_;
  size_t next_arrival_ = kNoArrival;  // index of the earliest arrival in sources_

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
