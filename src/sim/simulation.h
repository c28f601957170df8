// Simulation: the clock plus the event queue plus run control.
//
// Every model object in the testbed holds a Simulation* and expresses behaviour as events
// scheduled on it. Running is single-threaded and deterministic.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/event_queue.h"
#include "src/sim/frame_arena.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"
#include "src/telemetry/telemetry.h"

namespace ctms {

// A component that stands for several model instants with one pending event, or with none
// (the Cpu's step runs, idle runs and background arrivals; ARCHITECTURE.md, "The CPU
// model"), enlists with the earliest instant it stands for. Whenever a Run* call returns,
// every enlisted component with an instant due before the call's position accounts for the
// instants the call has passed, so whatever is read between calls sees them.
class InstantSettler {
 public:
  // Accounts for every stood-for instant that comes before `position` in the run order,
  // enlists again with the next one if any is left, and returns the last instant it has
  // accounted for (no later than `position`).
  virtual SimTime SettleBefore(const EventOrder& position) = 0;

 protected:
  virtual ~InstantSettler() = default;
  bool enlisted() const { return slot_ != kNotEnlisted; }
  // The instant this component enlisted with.
  const EventOrder& due() const { return due_; }

 private:
  friend class Simulation;
  static constexpr size_t kNotEnlisted = SIZE_MAX;
  EventOrder due_;
  size_t slot_ = kNotEnlisted;  // in Simulation's array of settlers
};

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return clock_.Now(); }
  // The time cursor itself, for external schedulers that bound this simulation's progress
  // (the fabric reads shard clocks between synchronization rounds).
  const Clock& clock() const { return clock_; }
  // The root random stream. Every component that draws at run time forks its own stream
  // from it at construction, in creation order, so one component's draws never depend on
  // when another's events run. Nothing may draw from it inside a Run* call (asserted).
  Rng& rng() {
    assert(!running_ && "fork a stream at construction instead");
    return rng_;
  }

  // The run's metrics registry and span tracer. Model objects cache counter pointers at
  // construction and increment them at event points; see src/telemetry/telemetry.h for the
  // determinism contract.
  Telemetry& telemetry() { return telemetry_; }
  const Telemetry& telemetry() const { return telemetry_; }

  // The run's zero-copy payload arena (see src/sim/frame_arena.h). One per simulation —
  // which in the fabric means one per shard; payloads cross shards only via Adopt during
  // the single-threaded outbox drain.
  FrameArena& frames() { return frames_; }
  const FrameArena& frames() const { return frames_; }

  // Schedules `action` to run after `delay` (>= 0) from now. The callable is built in
  // place in the event queue (see EventQueue::Schedule).
  template <typename F>
  EventId After(SimDuration delay, F&& action) {
    assert(delay >= 0);
    scheduled_counter_->Increment();
    return queue_.Schedule(clock_.Now() + delay, clock_.Now(), std::forward<F>(action));
  }

  // Schedules `action` at the absolute time `when` (>= Now()).
  template <typename F>
  EventId At(SimTime when, F&& action) {
    assert(when >= clock_.Now());
    scheduled_counter_->Increment();
    return queue_.Schedule(when, clock_.Now(), std::forward<F>(action));
  }

  // --- one event for several model instants ----------------------------------------------
  // A component may let one event stand for a chain of instants that would each have been
  // an event, as the Cpu does for a run of action-free steps (ARCHITECTURE.md, "The CPU
  // model"). These calls let it reproduce where each of those events would have run.

  // Schedules `action` at an explicit place in the run order: `order.when` >= Now(),
  // `order.queued_at` <= `order.when` (it may lie ahead of Now(): the event then stands for
  // one that would have been queued later), and `order.seq` from ReserveSeq().
  template <typename F>
  EventId AtOrder(const EventOrder& order, F&& action) {
    assert(order.when >= clock_.Now() && order.queued_at <= order.when);
    scheduled_counter_->Increment();
    return queue_.Schedule(order, std::forward<F>(action));
  }
  uint64_t ReserveSeq() { return queue_.ReserveSeq(); }

  // The place in the run order of the event running now (outside any event: of the last
  // one that ran).
  const EventOrder& running_event() const { return queue_.running(); }

  // Lets the running event do, in place, the work of an event at `order` (at Now(), with
  // `order.seq` from ReserveSeq()) when that event would be the next this Run* call runs:
  // no queued event is due at or before Now() and no Stop() is pending. On true,
  // running_event() becomes `order`; the work counts as no event. On false, the caller
  // schedules the event at `order` instead.
  bool ClaimNext(const EventOrder& order);

  // Enlists `settler` with `due`, the earliest instant it stands for (moving it if it is
  // enlisted already), or removes it. A Run* return settles the enlisted components whose
  // instant is due before its position, and no other.
  void Enlist(InstantSettler* settler, const EventOrder& due) {
    settler->due_ = due;
    if (settler->slot_ == InstantSettler::kNotEnlisted) {
      settler->slot_ = settlers_.size();
      settlers_.push_back({due, settler});
    } else {
      settlers_[settler->slot_].due = due;
    }
  }
  void Delist(InstantSettler* settler);

  // Cancels a pending event; returns false if it already ran.
  bool Cancel(EventId id);

  // Runs events until the queue is empty or the clock would pass `until`.
  // Events at exactly `until` are executed. Returns the number of events run.
  uint64_t RunUntil(SimTime until);

  // Window stepping for externally scheduled shards: runs every event strictly before
  // `horizon`, then parks the clock at `horizon` itself. Events at exactly `horizon` stay
  // pending, and new events may afterwards be injected at any time >= `horizon` — which is
  // the conservative-lookahead contract: a neighbor shard whose messages arrive no earlier
  // than `horizon` can deliver them after this returns without violating causality.
  // Returns the number of events run.
  uint64_t RunUntilBefore(SimTime horizon);

  // Runs events until the queue is empty, and leaves the clock at the last instant an
  // enlisted component settled if that comes later than the last event. Returns the number
  // of events run.
  uint64_t RunAll();

  // Runs for `span` of simulated time from the current instant.
  uint64_t RunFor(SimDuration span) { return RunUntil(Now() + span); }

  // Stops the current Run* call after the in-flight event completes; enlisted components
  // then settle up to that event.
  void Stop() { stop_requested_ = true; }

  bool has_pending_events() const { return !queue_.empty(); }
  size_t pending_event_count() const { return queue_.size(); }
  uint64_t events_executed() const { return events_executed_; }

 private:
  // Settles the enlisted components as a Run* call returns: up to the stopping event after
  // Stop(), else up to `passed`. The clock moves on to the last instant settled, where the
  // events that stood for it would have left it.
  void SettleEnlisted(const EventOrder& passed);

  Telemetry telemetry_;
  // Declared before the event queue so it is destroyed after it: queued closures may hold
  // PayloadRefs, and their destructors must find the arena alive.
  FrameArena frames_;
  EventQueue queue_;
  Clock clock_;
  Rng rng_;
  bool stop_requested_ = false;
  bool running_ = false;  // inside a Run* call
  struct Enlisted {
    EventOrder due;
    InstantSettler* settler;
  };
  // The enlisted components, each with its due kept beside it so that a Run* return scans
  // one array.
  std::vector<Enlisted> settlers_;
  uint64_t events_executed_ = 0;
  Counter* executed_counter_;
  Counter* scheduled_counter_;
  Counter* cancelled_counter_;
};

// Convenience: schedules `action` every `period`, starting at `first` (absolute). Returns a
// cancel function; calling it stops the repetition.
std::function<void()> SchedulePeriodic(Simulation* sim, SimTime first, SimDuration period,
                                       std::function<void()> action);

}  // namespace ctms

#endif  // SRC_SIM_SIMULATION_H_
