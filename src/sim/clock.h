// Clock: the simulated-time cursor, split out of Simulation so an external scheduler can
// reason about (and bound) a simulation's progress without touching its event queue.
//
// A Simulation owns exactly one Clock and is the only writer. The fabric layer
// (src/fabric/fabric.h) reads shard clocks between synchronization rounds to compute each
// shard's conservative-lookahead horizon.

#ifndef SRC_SIM_CLOCK_H_
#define SRC_SIM_CLOCK_H_

#include <cassert>

#include "src/sim/time.h"

namespace ctms {

class Clock {
 public:
  SimTime Now() const { return now_; }

  // Moves the cursor forward (or re-asserts the current instant). Time never runs
  // backwards: the event queue pops in nondecreasing order and window stepping only ever
  // raises the horizon.
  void AdvanceTo(SimTime when) {
    assert(when >= now_);
    now_ = when;
  }

 private:
  SimTime now_ = 0;
};

}  // namespace ctms

#endif  // SRC_SIM_CLOCK_H_
