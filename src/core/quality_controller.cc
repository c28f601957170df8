#include "src/core/quality_controller.h"

#include <algorithm>
#include <utility>

namespace ctms {
namespace {

constexpr int kFloorPriority = 1;    // worst priority a real-time class can be demoted to
constexpr int kElasticPriority = 0;  // where elastic (no-deadline) classes are parked

}  // namespace

QualityController::QualityController(Simulation* sim, QualityControllerConfig config)
    : sim_(sim), config_(config) {}

void QualityController::AddStream(const MediaClass& media_class, StreamBinding binding) {
  for (ClassState& state : classes_) {
    if (state.media_class.name == media_class.name) {
      state.streams.push_back(binding);
      return;
    }
  }
  ClassState state;
  state.media_class = media_class;
  state.streams.push_back(binding);
  classes_.push_back(std::move(state));
}

void QualityController::Start() {
  Stop();
  // First assignment happens immediately (pressure all zero, so the priority hints decide),
  // then re-evaluation every epoch.
  Epoch();
  cancel_ =
      SchedulePeriodic(sim_, sim_->Now() + config_.epoch, config_.epoch, [this]() { Epoch(); });
}

void QualityController::Stop() {
  if (cancel_) {
    cancel_();
    cancel_ = nullptr;
  }
}

int QualityController::PriorityOf(const std::string& class_name) const {
  for (const ClassState& state : classes_) {
    if (state.media_class.name == class_name) {
      return state.priority;
    }
  }
  return -1;
}

void QualityController::Epoch() {
  ++epochs_;
  // Read each class's QoE totals and convert the delta since the last epoch into pressure.
  for (ClassState& state : classes_) {
    uint64_t misses = 0;
    uint64_t underruns = 0;
    uint64_t lost = 0;
    for (const StreamBinding& stream : state.streams) {
      if (stream.sink != nullptr) {
        misses += stream.sink->deadline_misses();
        underruns += stream.sink->underruns();
      }
      if (stream.receiver != nullptr) {
        lost += stream.receiver->lost();
      }
    }
    const MediaClass& mc = state.media_class;
    state.pressure = mc.late_weight * static_cast<double>(misses - state.last_misses) +
                     mc.underrun_weight * static_cast<double>(underruns - state.last_underruns) +
                     mc.loss_weight * static_cast<double>(lost - state.last_lost);
    state.last_misses = misses;
    state.last_underruns = underruns;
    state.last_lost = lost;
  }
  // Rank real-time classes by pressure (hint, then registration order, break ties — a
  // stable sort over the registration-ordered vector keeps this deterministic).
  std::vector<ClassState*> realtime;
  for (ClassState& state : classes_) {
    if (state.media_class.elastic) {
      Apply(&state, kElasticPriority);
    } else {
      realtime.push_back(&state);
    }
  }
  std::stable_sort(realtime.begin(), realtime.end(), [](ClassState* a, ClassState* b) {
    if (a->pressure != b->pressure) {
      return a->pressure > b->pressure;
    }
    return a->media_class.priority_hint > b->media_class.priority_hint;
  });
  int priority = config_.top_priority;
  for (ClassState* state : realtime) {
    Apply(state, priority);
    priority = std::max(kFloorPriority, priority - 1);
  }
}

void QualityController::Apply(ClassState* state, int priority) {
  if (state->priority == priority) {
    return;
  }
  state->priority = priority;
  ++priority_updates_;
  for (const StreamBinding& stream : state->streams) {
    if (stream.driver != nullptr) {
      stream.driver->set_ctmsp_ring_priority(priority);
    }
  }
}

}  // namespace ctms
