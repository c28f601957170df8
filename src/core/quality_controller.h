// Media-TCP-style quality-centric controller.
//
// Classic congestion control equalizes throughput; Media-TCP's observation (PAPERS.md) is
// that for media what should be equalized is *quality*: the controller watches each class's
// distortion signals (deadline misses, playout underruns, losses) and spends the network's
// scarce resource — here the 802.5 ring access priority — where it buys the most utility.
//
// Every epoch the controller reads per-class QoE deltas, converts them to a pressure score
// through the class utility weights, and remaps classes onto ring priorities: the class
// hurting most gets the best access priority, elastic classes are parked at the bottom so
// they absorb overload first. Priorities are applied through the TokenRingDriver's runtime
// knob (taking effect within one service round) — the programmable half of the
// priority/reservation machinery modelled in src/ring.
//
// The controller only schedules events when started, so experiments with it disabled are
// bit-identical to builds without it.

#ifndef SRC_CORE_QUALITY_CONTROLLER_H_
#define SRC_CORE_QUALITY_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/dev/media_source.h"
#include "src/dev/tr_driver.h"
#include "src/dev/vca.h"
#include "src/proto/ctmsp.h"
#include "src/sim/simulation.h"

namespace ctms {

struct QualityControllerConfig {
  SimDuration epoch = Milliseconds(100);
  int top_priority = 6;  // best ring access priority the controller hands out
};

class QualityController {
 public:
  // One stream's observable QoE state and its actuator.
  struct StreamBinding {
    TokenRingDriver* driver = nullptr;  // actuator: per-packet ring access priority
    VcaSinkDriver* sink = nullptr;      // deadline misses, underruns
    CtmspReceiver* receiver = nullptr;  // loss accounting (may be null)
  };

  QualityController(Simulation* sim, QualityControllerConfig config);

  // Registers a stream under its media class; streams of the same class (by name) share one
  // priority assignment. Call before Start.
  void AddStream(const MediaClass& media_class, StreamBinding binding);

  void Start();
  void Stop();

  uint64_t epochs() const { return epochs_; }
  uint64_t priority_updates() const { return priority_updates_; }
  // Current assignment for a class, -1 if unknown / not yet assigned.
  int PriorityOf(const std::string& class_name) const;

 private:
  struct ClassState {
    MediaClass media_class;
    std::vector<StreamBinding> streams;
    // QoE totals at the previous epoch boundary, for delta-based pressure.
    uint64_t last_misses = 0;
    uint64_t last_underruns = 0;
    uint64_t last_lost = 0;
    double pressure = 0.0;
    int priority = -1;
  };

  void Epoch();
  void Apply(ClassState* state, int priority);

  Simulation* sim_;
  QualityControllerConfig config_;
  std::vector<ClassState> classes_;  // registration order — part of the determinism contract
  std::function<void()> cancel_;

  uint64_t epochs_ = 0;
  uint64_t priority_updates_ = 0;
};

}  // namespace ctms

#endif  // SRC_CORE_QUALITY_CONTROLLER_H_
