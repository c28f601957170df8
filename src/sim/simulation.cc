#include "src/sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

namespace ctms {

Simulation::Simulation(uint64_t seed)
    : rng_(seed),
      executed_counter_(telemetry_.metrics.GetCounter("sim.events_executed")),
      scheduled_counter_(telemetry_.metrics.GetCounter("sim.events_scheduled")),
      cancelled_counter_(telemetry_.metrics.GetCounter("sim.events_cancelled")) {
  queue_.BindTelemetry(telemetry_.metrics.GetGauge("sim.event_pool.slots"),
                       telemetry_.metrics.GetGauge("sim.event_pool.live"),
                       telemetry_.metrics.GetCounter("sim.event_wheel.pops"),
                       telemetry_.metrics.GetCounter("sim.event_heap.pops"));
}

void Simulation::Delist(InstantSettler* settler) {
  const size_t slot = settler->slot_;
  if (slot == InstantSettler::kNotEnlisted) {
    return;
  }
  settler->slot_ = InstantSettler::kNotEnlisted;
  if (slot + 1 != settlers_.size()) {
    settlers_[slot] = settlers_.back();
    settlers_[slot].settler->slot_ = slot;
  }
  settlers_.pop_back();
}

bool Simulation::ClaimNext(const EventOrder& order) {
  assert(order.when == clock_.Now());
  if (stop_requested_ || (!queue_.empty() && queue_.NextTime() <= order.when)) {
    return false;
  }
  queue_.set_running(order);
  return true;
}

void Simulation::SettleEnlisted(const EventOrder& passed) {
  const EventOrder position = stop_requested_ ? queue_.running() : passed;
  SimTime latest = clock_.Now();
  // A settler due before the position moves to an instant not before it, or delists itself
  // (the last one then takes its slot), as it settles.
  size_t slot = 0;
  while (slot < settlers_.size()) {
    if (settlers_[slot].due < position) {
      latest = std::max(latest, settlers_[slot].settler->SettleBefore(position));
    } else {
      ++slot;
    }
  }
  clock_.AdvanceTo(latest);
}

bool Simulation::Cancel(EventId id) {
  const bool cancelled = queue_.Cancel(id);
  if (cancelled) {
    cancelled_counter_->Increment();
  }
  return cancelled;
}

uint64_t Simulation::RunUntil(SimTime until) {
  stop_requested_ = false;
  running_ = true;
  uint64_t count = 0;
  while (!queue_.empty() && !stop_requested_) {
    const SimTime when = queue_.NextTime();
    if (when > until) {
      break;
    }
    clock_.AdvanceTo(when);
    queue_.RunNext();
    ++count;
    ++events_executed_;
    executed_counter_->Increment();
  }
  SettleEnlisted({until, kTimeNever, UINT64_MAX});  // everything at or before `until`
  if (clock_.Now() < until && !stop_requested_) {
    clock_.AdvanceTo(until);
  }
  running_ = false;
  return count;
}

uint64_t Simulation::RunUntilBefore(SimTime horizon) {
  stop_requested_ = false;
  running_ = true;
  uint64_t count = 0;
  while (!queue_.empty() && !stop_requested_) {
    const SimTime when = queue_.NextTime();
    if (when >= horizon) {
      break;
    }
    clock_.AdvanceTo(when);
    queue_.RunNext();
    ++count;
    ++events_executed_;
    executed_counter_->Increment();
  }
  SettleEnlisted({horizon, INT64_MIN, 0});  // everything before `horizon`
  if (clock_.Now() < horizon && !stop_requested_) {
    clock_.AdvanceTo(horizon);
  }
  running_ = false;
  return count;
}

uint64_t Simulation::RunAll() {
  stop_requested_ = false;
  running_ = true;
  uint64_t count = 0;
  while (!queue_.empty() && !stop_requested_) {
    clock_.AdvanceTo(queue_.NextTime());
    queue_.RunNext();
    ++count;
    ++events_executed_;
    executed_counter_->Increment();
  }
  SettleEnlisted({kTimeNever, kTimeNever, UINT64_MAX});
  running_ = false;
  return count;
}

std::function<void()> SchedulePeriodic(Simulation* sim, SimTime first, SimDuration period,
                                       std::function<void()> action) {
  // The repetition state is held by whichever closures still reference it (the pending
  // event and the cancel function); there is deliberately no self-referencing closure, so
  // nothing leaks when the chain ends.
  struct Periodic : std::enable_shared_from_this<Periodic> {
    Simulation* sim = nullptr;
    SimDuration period = 0;
    std::function<void()> action;
    bool cancelled = false;

    void Fire() {
      if (cancelled) {
        return;
      }
      action();
      if (!cancelled) {
        auto self = shared_from_this();
        sim->After(period, [self]() { self->Fire(); });
      }
    }
  };
  auto periodic = std::make_shared<Periodic>();
  periodic->sim = sim;
  periodic->period = period;
  periodic->action = std::move(action);
  sim->At(first, [periodic]() { periodic->Fire(); });
  return [periodic]() {
    periodic->cancelled = true;
    periodic->action = nullptr;  // release captured resources promptly
  };
}

}  // namespace ctms
