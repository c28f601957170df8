// The per-step reference CPU model: one event per step completion.
//
// This is the Cpu as it stood before step runs (src/hw/cpu.h), kept only as the reference
// for the differential test in tests/cpu_run_test.cc. The shipped Cpu folds each run of
// action-free steps into one event, spends none on an idle tail and runs a zero-length step
// inside the event before it when it can; given the same work, arrivals, memory contention
// and cancellations, the two must produce the same step spans, preemption points, action
// order and times, busy time and cpu.* counters. Only the sim.event* counts differ.
//
// Work is submitted as a Job: an ordered list of Steps, each with a duration, an spl level,
// and an action performed when the step's time has elapsed. Steps are atomic (an interrupt
// arriving mid-step waits for the step boundary); at each boundary the CPU dispatches the
// highest-priority pending job whose level exceeds the level of the step about to run,
// stacking the preempted job. While a DMA transfer contends for memory, step durations are
// stretched, evaluated at each step's start.

#ifndef TESTS_STEP_CPU_H_
#define TESTS_STEP_CPU_H_

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

class StepCpu {
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
    friend class StepCpu;
    Job(StepCpu* cpu, Record* record) : cpu_(cpu), record_(record) {}

    StepCpu* cpu_;
    Record* record_;
  };

  StepCpu(Simulation* sim, std::string name);
  StepCpu(const StepCpu&) = delete;
  StepCpu& operator=(const StepCpu&) = delete;

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
  void set_contention_stretch(double factor) { contention_stretch_ = factor; }

  // --- dispatch latency model ----------------------------------------------------------
  void set_dispatch_base(SimDuration d) { dispatch_base_ = d; }
  void set_dispatch_jitter(SimDuration d) { dispatch_jitter_ = d; }

  // --- introspection --------------------------------------------------------------------
  // Per-job CPU time is not kept here: with tracing on, every step is a span on this CPU's
  // track named after its job.
  bool idle() const { return current_ == nullptr; }
  Spl current_level() const;
  SimDuration busy_time() const { return busy_time_; }
  uint64_t jobs_completed() const { return jobs_completed_; }
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
  void StartStep();
  void CompleteStep(SimDuration elapsed);
  // Takes the finished current job off the CPU and runs its on_done.
  Record* FinishCurrent();
  void Recycle(Record* record);
  SimDuration Stretched(SimDuration d) const;
  Spl EffectiveLevel(const Record& record) const;

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

#endif  // TESTS_STEP_CPU_H_
