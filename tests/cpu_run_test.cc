// Step runs against the per-step CPU model.
//
// The shipped Cpu (src/hw/cpu.h) folds each run of action-free steps into one event, spends
// none while all its work is action-free (an idle run: a job end with nothing after it, or
// a background interrupt source's jobs, whose arrivals cost no event either), and runs a
// zero-length step inside the event before it when its own would be the next one. The
// per-step model it replaced survives as tests/step_cpu.h, and gets the sources' arrivals as
// events. Given the same work, arrivals, memory contention, cancellations, run limits and
// stops, the two must produce the same step spans, preemption points, action order and
// times, busy time, levels, idleness, completed jobs and cpu.* counters; only the
// sim.event* counts may differ.
//
// Every schedule here queues its events at setup, or at instants that are no run's inner
// boundary: relays at odd 5 ns offsets (every step boundary lies on the 10 ns grid, or on a
// background source's offset from it), and step actions, which run at a run's last
// boundary. The two places where the Cpu knowingly departs from the per-step order — an
// event queued at the very instant of a run's inner boundary, or of an arrival the Cpu has
// not settled yet, by another event that ran there — are pinned by their own tests below
// (ARCHITECTURE.md, "The CPU model").

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/hw/cpu.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "tests/step_cpu.h"

namespace ctms {
namespace {

// --- what each model is observed to do ----------------------------------------------------

struct Observed {
  std::vector<std::string> log;    // actions, on_done and external events, in run order
  std::vector<std::string> spans;  // the CPU track's step spans, in emission order
  uint64_t events = 0;             // sim.events_executed
};

constexpr const char* kJobNames[] = {"j0",  "j1",  "j2",  "j3",  "j4",  "j5",  "j6",
                                     "j7",  "j8",  "j9",  "j10", "j11", "j12", "j13",
                                     "j14", "j15", "j16", "j17", "j18", "j19", "j20",
                                     "j21", "j22", "j23", "j24", "j25", "j26", "j27",
                                     "j28", "j29", "j30", "j31", "j32", "j33", "j34",
                                     "j35", "j36", "j37", "j38", "j39"};
constexpr int kJobSpecs = 40;

// A background interrupt source as the per-step model gets it: one event per arrival, queued
// by the arrival before it, as SchedulePeriodic and KernelBackgroundActivity queued them
// before the Cpu ran such sources itself.
class StepSource {
 public:
  StepSource(Simulation* sim, StepCpu* cpu, const Cpu::InterruptSource& spec, SimTime first)
      : sim_(sim), cpu_(cpu), spec_(spec) {
    event_ = sim_->At(first, [this]() { Arrive(); });
  }
  void Stop() { sim_->Cancel(event_); }

 private:
  void Arrive() {
    const SimDuration length =
        spec_.period > 0 ? spec_.length : spec_.rng->UniformDuration(spec_.min, spec_.max);
    cpu_->SubmitInterrupt(spec_.name, spec_.level, length, nullptr);
    const SimDuration wait =
        spec_.period > 0 ? spec_.period : spec_.rng->ExponentialDuration(spec_.mean);
    event_ = sim_->After(wait, [this]() { Arrive(); });
  }

  Simulation* sim_;
  StepCpu* cpu_;
  Cpu::InterruptSource spec_;
  EventId event_ = kInvalidEventId;
};

// One model on its own simulation, with a log that every observation appends to.
template <typename CpuT>
class Harness {
 public:
  explicit Harness(uint64_t seed) : sim_(seed), cpu_(&sim_, "t.cpu") {
    cpu_.set_dispatch_base(40);
    cpu_.set_dispatch_jitter(0);
    cpu_.set_contention_stretch(1.5);
    sim_.telemetry().tracer.set_enabled(true);
  }

  Simulation& sim() { return sim_; }
  CpuT& cpu() { return cpu_; }

  // Starts a background interrupt source, first arriving at `first`: the Cpu runs it itself,
  // the per-step model gets its arrivals as events. Sources without a period draw from this
  // harness's own background stream, the same in both models.
  void StartSource(Cpu::InterruptSource spec, SimTime first) {
    if (spec.period == 0) {
      spec.rng = &background_;
    }
    if constexpr (std::is_same_v<CpuT, Cpu>) {
      sources_.push_back(cpu_.StartSource(spec, first));
    } else {
      step_sources_.push_back(std::make_unique<StepSource>(&sim_, &cpu_, spec, first));
    }
  }
  void StopSources() {
    for (const Cpu::SourceId id : sources_) {
      if constexpr (std::is_same_v<CpuT, Cpu>) {
        cpu_.StopSource(id);
      }
    }
    for (const std::unique_ptr<StepSource>& source : step_sources_) {
      source->Stop();
    }
  }

  // Logs `what` with the instant and everything the CPU exposes at it. The steps_executed
  // counter is logged only from the CPU's own actions (`own` true): a run writes its inner
  // boundaries' counts when it ends or splits, so another event reading the registry
  // mid-run sees it behind.
  void Note(const std::string& what, bool own = false) {
    const MetricsRegistry& metrics = sim_.telemetry().metrics;
    // First, so that the Cpu has settled what has passed before the registry is read.
    const bool idle = cpu_.idle();
    char line[256];
    std::snprintf(line, sizeof(line), "t=%lld %s busy=%lld level=%d idle=%d pre=%llu done=%llu",
                  static_cast<long long>(sim_.Now()), what.c_str(),
                  static_cast<long long>(cpu_.busy_time()), SplValue(cpu_.current_level()),
                  idle ? 1 : 0,
                  static_cast<unsigned long long>(Counter(metrics, "preemptions")),
                  static_cast<unsigned long long>(cpu_.jobs_completed()));
    std::string entry = line;
    if (own) {
      entry += " steps=" + std::to_string(Counter(metrics, "steps_executed"));
    }
    log_.push_back(entry);
  }

  // Logs the counters and busy time as a Run* call returned.
  void NoteReturn() {
    const MetricsRegistry& metrics = sim_.telemetry().metrics;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "return t=%lld busy=%lld util=%.9f submitted=%llu completed=%llu steps=%llu "
                  "pre=%llu irq=%llu",
                  static_cast<long long>(sim_.Now()), static_cast<long long>(cpu_.busy_time()),
                  cpu_.Utilization(),
                  static_cast<unsigned long long>(Counter(metrics, "jobs_submitted")),
                  static_cast<unsigned long long>(Counter(metrics, "jobs_completed")),
                  static_cast<unsigned long long>(Counter(metrics, "steps_executed")),
                  static_cast<unsigned long long>(Counter(metrics, "preemptions")),
                  static_cast<unsigned long long>(Counter(metrics, "interrupts")));
    log_.push_back(line);
  }

  Observed Finish() {
    Observed observed;
    observed.log = log_;
    const SpanTracer& tracer = sim_.telemetry().tracer;
    for (const TraceSpan& span : tracer.spans()) {
      if (tracer.tracks()[static_cast<size_t>(span.track)] != "cpu.t") {
        continue;
      }
      char line[128];
      std::snprintf(line, sizeof(line), "%s %lld+%lld spl=%lld", span.name.c_str(),
                    static_cast<long long>(span.start), static_cast<long long>(span.duration),
                    static_cast<long long>(span.args.empty() ? -1 : span.args[0].value));
      observed.spans.push_back(line);
    }
    observed.events = sim_.events_executed();
    return observed;
  }

 private:
  static uint64_t Counter(const MetricsRegistry& metrics, const std::string& name) {
    const auto it = metrics.counters().find("cpu.t." + name);
    return it == metrics.counters().end() ? 0 : it->second.value();
  }

  Simulation sim_;
  CpuT cpu_;
  std::vector<std::string> log_;
  Rng background_{0xBAC6};
  std::vector<Cpu::SourceId> sources_;
  std::vector<std::unique_ptr<StepSource>> step_sources_;
};

// Runs `script` on both models and expects the same observations.
template <typename Script>
void ExpectSameObservations(uint64_t seed, Script script, Observed* run_model = nullptr) {
  Harness<Cpu> runs(seed);
  Harness<StepCpu> steps(seed);
  script(runs);
  script(steps);
  const Observed a = runs.Finish();
  const Observed b = steps.Finish();
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_LE(a.events, b.events);
  if (run_model != nullptr) {
    *run_model = a;
  }
}

// A job of `durations` steps at `level`; the steps listed in `acting` log when they end.
template <typename H>
void SubmitLogged(H& h, const char* name, Spl level, const std::vector<SimDuration>& durations,
                  const std::vector<size_t>& acting, bool interrupt = false) {
  auto job = h.cpu().NewJob(name, level);
  for (size_t i = 0; i < durations.size(); ++i) {
    bool acts = false;
    for (const size_t a : acting) {
      acts = acts || a == i;
    }
    if (acts) {
      job.AddStep(durations[i], [&h, name, i]() {
        h.Note(std::string(name) + " step " + std::to_string(i), /*own=*/true);
      });
    } else {
      job.AddStep(durations[i]);
    }
  }
  job.set_on_done([&h, name]() { h.Note(std::string(name) + " done", /*own=*/true); });
  if (interrupt) {
    h.cpu().SubmitInterrupt(std::move(job));
  } else {
    h.cpu().SubmitProcess(std::move(job));
  }
}

// A one-step kImp interrupt that logs when it runs (after the 40 ns dispatch slot).
template <typename H>
void SubmitIrq(H& h, const char* name) {
  h.cpu().SubmitInterrupt(name, Spl::kImp, 10, [&h, name]() { h.Note(name, /*own=*/true); });
}

// A job of three action-free 100 ns steps at `level` with no on_done, shaped like a
// hardclock or spl-section job: submitted at 0 on an idle CPU, it is an idle tail that ends
// at 300, with inner boundaries at 100 and 200.
template <typename H>
void IdleTailJob(H& h, Spl level = Spl::kNone) {
  auto job = h.cpu().NewJob("tail", level);
  job.AddStep(100).AddStep(100).AddStep(100);
  h.cpu().SubmitProcess(std::move(job));
}

// --- hand-built ties ------------------------------------------------------------------------

// A base-level job of five 100 ns steps starting at 0: boundaries at 100, 200, 300, 400 and
// 500, with only the last step acting, so the shipped Cpu runs it as one event.
template <typename H>
void FiveStepJob(H& h) {
  SubmitLogged(h, "proc", Spl::kNone, {100, 100, 100, 100, 100}, {4});
}

TEST(CpuRunTest, ActionFreeStepsAreOneEvent) {
  Observed runs;
  ExpectSameObservations(
      1,
      [](auto& h) {
        FiveStepJob(h);
        h.sim().RunAll();
        h.NoteReturn();
      },
      &runs);
  EXPECT_EQ(runs.events, 1u);
  ASSERT_EQ(runs.spans.size(), 5u);
  EXPECT_EQ(runs.spans[2], "proc 200+100 spl=0");
}

TEST(CpuRunTest, ArrivalAtABoundaryQueuedBeforeItsEventPreemptsThere) {
  // The interrupt's event is queued at setup, before boundary 300's event would have been
  // queued (at 200): it runs first at 300, and the interrupt takes the CPU there.
  Observed runs;
  ExpectSameObservations(
      1,
      [](auto& h) {
        FiveStepJob(h);
        h.sim().At(300, [&h]() {
          h.Note("arrive");
          SubmitIrq(h, "irq");
        });
        h.sim().RunAll();
        h.NoteReturn();
      },
      &runs);
  // Dispatched at 300: 40 ns dispatch slot plus its 10 ns step.
  EXPECT_NE(std::find_if(runs.log.begin(), runs.log.end(),
                         [](const std::string& l) { return l.rfind("t=350 irq", 0) == 0; }),
            runs.log.end());
}

TEST(CpuRunTest, ArrivalAtABoundaryQueuedAfterItsEventWaitsForTheNext) {
  // A relay at 250 queues the arrival for 300, after boundary 300's event was queued (at
  // 200): the boundary comes first, step 3 starts, and the interrupt waits until 400.
  Observed runs;
  ExpectSameObservations(
      1,
      [](auto& h) {
        FiveStepJob(h);
        h.sim().At(250, [&h]() {
          h.sim().After(50, [&h]() {
            h.Note("arrive");
            SubmitIrq(h, "irq");
          });
        });
        h.sim().RunAll();
        h.NoteReturn();
      },
      &runs);
  EXPECT_NE(std::find_if(runs.log.begin(), runs.log.end(),
                         [](const std::string& l) { return l.rfind("t=450 irq", 0) == 0; }),
            runs.log.end());
}

TEST(CpuRunTest, ArrivalQueuedAtTheRunsStartInstantFollowsTheQueueOrderThere) {
  // Two events at 0 queue arrivals for 100, the first boundary: one before the job is
  // submitted (so before the run's event), one after.
  for (const bool before : {true, false}) {
    SCOPED_TRACE(before ? "queued before the run began" : "queued after the run began");
    ExpectSameObservations(1, [before](auto& h) {
      h.sim().At(0, [&h, before]() {
        const auto arrive = [&h]() {
          h.Note("arrive");
          SubmitIrq(h, "irq");
        };
        if (before) {
          h.sim().After(100, arrive);
        }
        FiveStepJob(h);
        if (!before) {
          h.sim().After(100, arrive);
        }
      });
      h.sim().RunAll();
      h.NoteReturn();
    });
  }
}

TEST(CpuRunTest, EventAtTheRunsEndOrdersAsTheLastStepsEvent) {
  // The run's one event stands for boundary 500's, which the per-step model queued at 400.
  // An event for 500 queued at 250 runs before the last step's action; one queued at 450
  // runs after it.
  ExpectSameObservations(1, [](auto& h) {
    FiveStepJob(h);
    h.sim().At(250, [&h]() { h.sim().After(250, [&h]() { h.Note("queued at 250"); }); });
    h.sim().At(450, [&h]() { h.sim().After(50, [&h]() { h.Note("queued at 450"); }); });
    h.sim().RunAll();
    h.NoteReturn();
  });
}

TEST(CpuRunTest, HigherStepLevelHoldsTheArrivalUntilItDrops) {
  // Steps 1-3 run at kImp, so a kImp interrupt arriving at 150 waits for the boundary after
  // which a kNone step runs (400), not the next one (200).
  ExpectSameObservations(1, [](auto& h) {
    auto job = h.cpu().NewJob("proc", Spl::kNone);
    job.AddStep(100).AddStep(100, nullptr, Spl::kImp).AddStep(100, nullptr, Spl::kImp);
    job.AddStep(100, nullptr, Spl::kImp).AddStep(100);
    job.AddStep(100, [&h]() { h.Note("proc end"); });
    h.cpu().SubmitProcess(std::move(job));
    h.sim().At(150, [&h]() { SubmitIrq(h, "irq"); });
    h.sim().RunAll();
    h.NoteReturn();
  });
}

TEST(CpuRunTest, ContentionChangeAtABoundaryStretchesFromThereEitherWay) {
  // Contention begins exactly at boundary 200, queued before and after its event would
  // have been: the step starting at 200 is stretched only in the first case.
  for (const bool before : {true, false}) {
    SCOPED_TRACE(before ? "queued before the boundary's event" : "queued after it");
    ExpectSameObservations(1, [before](auto& h) {
      FiveStepJob(h);
      if (before) {
        h.sim().At(200, [&h]() { h.cpu().BeginMemoryContention(); });
      } else {
        h.sim().At(150, [&h]() {
          h.sim().After(50, [&h]() { h.cpu().BeginMemoryContention(); });
        });
      }
      h.sim().At(350, [&h]() { h.cpu().EndMemoryContention(); });
      h.sim().RunAll();
      h.NoteReturn();
    });
  }
}

TEST(CpuRunTest, CancelAllMidRunAccountsOnlyThePassedSteps) {
  // A cancelled CPU also takes no more work: an interrupt submitted after the cancel is
  // dropped at submission, so it counts nowhere and its captures die at once.
  for (const SimTime at : {SimTime{250}, SimTime{300}}) {
    SCOPED_TRACE(at);
    Observed runs;
    ExpectSameObservations(
        1,
        [at](auto& h) {
          FiveStepJob(h);
          h.sim().At(at, [&h]() {
            h.Note("before cancel");
            h.cpu().CancelAll();
            h.Note("after cancel");
            auto capture = std::make_shared<int>(0);
            const std::weak_ptr<int> watch = capture;
            h.cpu().SubmitInterrupt("never runs", Spl::kImp, 10,
                                    [&h, capture]() { h.Note("never runs", /*own=*/true); });
            capture.reset();
            h.Note(watch.expired() ? "late job released" : "late job held");
          });
          h.sim().RunAll();
          h.NoteReturn();
        },
        &runs);
    EXPECT_NE(std::find_if(runs.log.begin(), runs.log.end(),
                           [](const std::string& l) {
                             return l.find(" late job released ") != std::string::npos;
                           }),
              runs.log.end());
    // Only the five-step process job was ever submitted.
    EXPECT_NE(runs.log.back().find(" submitted=1 completed=0 "), std::string::npos)
        << runs.log.back();
    EXPECT_NE(runs.log.back().find(" irq=0"), std::string::npos) << runs.log.back();
  }
}

TEST(CpuRunTest, RunLimitsSeeEveryPassedBoundary) {
  // A run is not cut at a Run* call's limit, but each RunUntil / RunUntilBefore return
  // must find every boundary up to its limit accounted for: counters, busy time,
  // utilization and spans.
  ExpectSameObservations(1, [](auto& h) {
    FiveStepJob(h);
    h.sim().RunUntil(150);
    h.NoteReturn();
    h.sim().RunUntil(300);  // a boundary exactly at the limit runs
    h.NoteReturn();
    h.sim().RunUntilBefore(400);  // one exactly at the horizon does not
    h.NoteReturn();
    h.sim().RunAll();
    h.NoteReturn();
  });
}

TEST(CpuRunTest, StopSettlesAtTheStoppingEvent) {
  // A stop at 250 returns with boundaries 100 and 200 accounted for; resuming with a limit
  // short of the job's end still sees boundary 300.
  ExpectSameObservations(1, [](auto& h) {
    FiveStepJob(h);
    h.sim().At(250, [&h]() { h.sim().Stop(); });
    h.sim().At(300, [&h]() {
      h.Note("stop at a boundary");
      h.sim().Stop();
    });
    h.sim().RunUntil(1000);
    h.NoteReturn();
    h.sim().RunUntil(1000);
    h.NoteReturn();
    h.sim().RunUntil(320);
    h.NoteReturn();
    h.sim().RunAll();
    h.NoteReturn();
  });
}

TEST(CpuRunTest, ZeroLengthStepsAfterARunRunInItsEvent) {
  // The job's first zero-length step is dispatched by its submission, so it gets an event.
  // The ones after the interrupt's run (at 150) and after the run of steps 4 and 5 (at 350)
  // run inside those runs' events: events at 0, 100 (the arrival and step 1's run), 150 and
  // 350, against ten in the per-step model.
  Observed runs;
  ExpectSameObservations(
      1,
      [](auto& h) {
        SubmitLogged(h, "proc", Spl::kNone, {0, 100, 0, 0, 100, 100, 0}, {6});
        h.sim().At(100, [&h]() { SubmitIrq(h, "irq at 100"); });
        h.sim().RunAll();
        h.NoteReturn();
      },
      &runs);
  EXPECT_EQ(runs.events, 5u);
}

TEST(CpuRunTest, ZeroLengthStepWaitsForAnotherEventAtItsInstant) {
  // Step 0 acts at 100 and step 1 is zero-length, so its event would run at 100, queued
  // then. An event already queued for 100 (here relayed at 50, so ordered after step 0's
  // event) runs before it, and so does one the action itself queues for 100: the step gets
  // its event. Without either, it runs inside step 0's event.
  for (const int other : {0, 1, 2}) {
    SCOPED_TRACE(other);
    Observed runs;
    ExpectSameObservations(
        1,
        [other](auto& h) {
          auto job = h.cpu().NewJob("proc", Spl::kNone);
          job.AddStep(100, [&h, other]() {
            h.Note("step 0", /*own=*/true);
            if (other == 2) {
              h.sim().After(0, [&h]() { h.Note("queued by step 0"); });
            }
          });
          job.AddStep(0, [&h]() { h.Note("step 1", /*own=*/true); });
          h.cpu().SubmitProcess(std::move(job));
          if (other == 1) {
            h.sim().At(50, [&h]() { h.sim().After(50, [&h]() { h.Note("relayed at 50"); }); });
          }
          h.sim().RunAll();
          h.NoteReturn();
        },
        &runs);
    // Step 0's event, the other event (and its relay), and step 1's own if it needs one.
    const uint64_t events[] = {1, 4, 3};
    EXPECT_EQ(runs.events, events[static_cast<size_t>(other)]);
  }
}

TEST(CpuRunTest, ZeroLengthStepInPlaceFindsThePreviousActionsCapturesGone) {
  // The per-step model destroyed step 0's action at the end of its event, before step 1's
  // event ran, so running step 1 in place must not keep step 0's captures alive.
  ExpectSameObservations(1, [](auto& h) {
    auto capture = std::make_shared<int>(0);
    const std::weak_ptr<int> watch = capture;
    auto job = h.cpu().NewJob("proc", Spl::kNone);
    job.AddStep(100, [&h, capture]() { h.Note("step 0", /*own=*/true); });
    job.AddStep(0, [&h, watch]() {
      h.Note(watch.expired() ? "step 1, captures gone" : "step 1, captures held", /*own=*/true);
    });
    capture.reset();
    h.cpu().SubmitProcess(std::move(job));
    h.sim().RunAll();
    h.NoteReturn();
  });
}

TEST(CpuRunTest, ZeroLengthStepAfterAStopWaitsForTheNextCall) {
  // An action that calls Stop() ends the Run* call after its event, so the zero-length step
  // after it runs in the next call, as its own event did.
  ExpectSameObservations(1, [](auto& h) {
    auto job = h.cpu().NewJob("proc", Spl::kNone);
    job.AddStep(100, [&h]() {
      h.Note("step 0 stops", /*own=*/true);
      h.sim().Stop();
    });
    job.AddStep(0, [&h]() { h.Note("step 1", /*own=*/true); });
    job.AddStep(0);
    h.cpu().SubmitProcess(std::move(job));
    h.sim().RunUntil(1000);
    h.NoteReturn();
    h.sim().RunAll();
    h.NoteReturn();
  });
}

// --- idle tails -----------------------------------------------------------------------------

TEST(CpuRunTest, IdleTailIsObservedExactlyAroundItsEnd) {
  // Observers before the tail's end, at it (queued before and after its event would have
  // been, at 200) and after it see what the per-step model shows; the tail spends no event.
  Observed runs;
  ExpectSameObservations(
      1,
      [](auto& h) {
        IdleTailJob(h);
        h.sim().At(250, [&h]() { h.Note("before the end"); });
        h.sim().At(300, [&h]() { h.Note("at the end, queued before it"); });
        h.sim().At(250, [&h]() {
          h.sim().After(50, [&h]() { h.Note("at the end, queued after it"); });
        });
        h.sim().At(350, [&h]() { h.Note("after the end"); });
        h.sim().RunAll();
        h.NoteReturn();
      },
      &runs);
  EXPECT_EQ(runs.events, 5u);  // the observers' own
}

TEST(CpuRunTest, HardclockStyleTailsBackToBack) {
  // Each tick builds its job in an event after the previous tick's tail has ended, as the
  // hardclock does, so NewJob finishes that tail first (the record reuse this buys is
  // pinned by AllocTest.HardclockTicksOnAnIdleCpuReuseOneRecord).
  ExpectSameObservations(1, [](auto& h) {
    for (SimTime at = 0; at < 2000; at += 500) {
      h.sim().At(at, [&h]() {
        h.Note("tick");
        IdleTailJob(h);
      });
    }
    h.sim().RunAll();
    h.NoteReturn();
  });
}

TEST(CpuRunTest, ArrivalDuringAnIdleTailGetsTheBoundaryItNeeds) {
  // At kNone the interrupt arriving at 150 preempts at the inner boundary 200, and the last
  // step is an idle tail again after it. At kImp the job blocks it until the end at 300,
  // whose event the tail then needs to dispatch it.
  for (const Spl level : {Spl::kNone, Spl::kImp}) {
    SCOPED_TRACE(SplValue(level));
    ExpectSameObservations(1, [level](auto& h) {
      IdleTailJob(h, level);
      h.sim().At(150, [&h]() {
        h.Note("arrive");
        SubmitIrq(h, "irq");
      });
      h.sim().At(255, [&h]() { h.Note("between"); });
      h.sim().At(420, [&h]() { h.Note("late"); });
      h.sim().RunAll();
      h.NoteReturn();
    });
  }
}

TEST(CpuRunTest, ContentionBeginningDuringAnIdleTailStretchesTheStepsAfterIt) {
  // Beginning at 150 cuts the tail at 200, and its last step runs stretched; beginning at
  // 250, during the last step, changes nothing in it; at 300 it comes before or after the
  // end by queue order; at 350 the tail has ended.
  for (const SimTime at : {SimTime{150}, SimTime{250}, SimTime{300}, SimTime{350}}) {
    for (const bool relayed : {false, true}) {
      SCOPED_TRACE(std::to_string(at) + (relayed ? " relayed" : ""));
      ExpectSameObservations(1, [at, relayed](auto& h) {
        IdleTailJob(h);
        const auto begin = [&h]() {
          h.Note("contention begins");
          h.cpu().BeginMemoryContention();
        };
        if (relayed) {
          h.sim().At(at - 45, [&h, begin]() { h.sim().After(45, begin); });
        } else {
          h.sim().At(at, begin);
        }
        h.sim().At(600, [&h]() { h.cpu().EndMemoryContention(); });
        h.sim().RunAll();
        h.NoteReturn();
      });
    }
  }
}

TEST(CpuRunTest, CancelAllDuringAnIdleTailKeepsTheBoundaryInFlight) {
  // A cancel at 150 or 250 leaves an event at the step in flight's boundary, 200 or 300, so
  // RunAll ends there as in the per-step model; at 350 the tail's job has completed first.
  for (const SimTime at : {SimTime{150}, SimTime{250}, SimTime{350}}) {
    SCOPED_TRACE(at);
    ExpectSameObservations(1, [at](auto& h) {
      IdleTailJob(h);
      h.sim().At(at, [&h]() {
        h.Note("before cancel");
        h.cpu().CancelAll();
        h.Note("after cancel");
      });
      h.sim().RunAll();
      h.NoteReturn();
    });
  }
}

TEST(CpuRunTest, RunLimitsAtAnIdleTailsEnd) {
  // A horizon exactly at the end leaves the tail running; a limit at it finishes it, and a
  // RunAll with nothing queued leaves the clock at the end.
  ExpectSameObservations(1, [](auto& h) {
    IdleTailJob(h);
    h.sim().RunUntilBefore(300);
    h.NoteReturn();
    h.sim().RunUntil(300);
    h.NoteReturn();
    IdleTailJob(h);
    h.sim().RunAll();
    h.NoteReturn();
  });
}

TEST(CpuRunTest, RunReturnFinishesTheEndedIdleTailsOfEveryCpu) {
  // A Cpu whose tail ends delists itself while the Run* return settles it; the walk over
  // the enlisted components must still reach the others. Three idle tails and no event.
  Simulation sim(1);
  Cpu a(&sim, "a.cpu");
  Cpu b(&sim, "b.cpu");
  Cpu c(&sim, "c.cpu");
  for (Cpu* cpu : {&a, &b, &c}) {
    auto job = cpu->NewJob("tail", Spl::kNone);
    job.AddStep(100);
    cpu->SubmitProcess(std::move(job));
  }
  sim.RunUntil(1000);
  EXPECT_EQ(sim.events_executed(), 0u);
  for (const char* name : {"a", "b", "c"}) {
    const std::string prefix = std::string("cpu.") + name + ".";
    EXPECT_EQ(sim.telemetry().metrics.counters().at(prefix + "jobs_completed").value(), 1u)
        << name;
    EXPECT_EQ(sim.telemetry().metrics.counters().at(prefix + "steps_executed").value(), 1u)
        << name;
  }
}

TEST(CpuRunTest, InnerBoundaryInstantQueueingFollowsTheWrittenRule) {
  // The documented departure. An event runs at 200, an inner boundary of the run, and
  // queues an arrival for 300, the next one. The per-step model queued boundary 300's event
  // from boundary 200's, so the arrival's place depends on whether the event at 200 ran
  // before or after that boundary. The step run orders every boundary's event ahead of
  // anything queued at its step's start instant, which matches the per-step model whenever
  // the event at 200 was itself queued after boundary 100's instant (here, at 150), and not
  // when it was queued earlier (here, at setup): then the per-step model lets the interrupt
  // in at 300 and the step run at 400.
  for (const bool queued_late : {true, false}) {
    SCOPED_TRACE(queued_late ? "relay queued at 150" : "relay queued at setup");
    const auto script = [queued_late](auto& h) {
      FiveStepJob(h);
      const auto relay = [&h]() {
        h.sim().After(100, [&h]() { SubmitIrq(h, "irq"); });
      };
      if (queued_late) {
        h.sim().At(150, [&h, relay]() { h.sim().After(50, relay); });
      } else {
        h.sim().At(200, relay);
      }
      h.sim().RunAll();
      h.NoteReturn();
    };
    Harness<Cpu> runs(1);
    Harness<StepCpu> steps(1);
    script(runs);
    script(steps);
    const Observed a = runs.Finish();
    const Observed b = steps.Finish();
    EXPECT_NE(std::find(a.log.begin(), a.log.end(),
                        "t=450 irq busy=450 level=4 idle=0 pre=1 done=0 steps=6"),
              a.log.end());
    EXPECT_EQ(a.log == b.log, queued_late) << ::testing::PrintToString(a.log) << "\n"
                                           << ::testing::PrintToString(b.log);
  }
}

// --- background interrupt sources -------------------------------------------------------------

// A periodic source shaped like the hardclock: one action-free step of `length` at `level`.
Cpu::InterruptSource Periodic(const char* name, Spl level, SimDuration period,
                              SimDuration length) {
  Cpu::InterruptSource source;
  source.name = name;
  source.level = level;
  source.period = period;
  source.length = length;
  return source;
}

TEST(CpuRunTest, IdleArrivalIsObservedAroundItsDispatchAndEnd) {
  // Arrivals at 200 and 1200 on an idle Cpu: 40 ns of dispatch, then 100 ns of handler.
  // Observers before the first, at it (queued after it), during its dispatch, at its end
  // and after it see what the per-step model shows; no event stands for either arrival.
  Observed runs;
  ExpectSameObservations(
      1,
      [](auto& h) {
        h.StartSource(Periodic("tick", Spl::kClock, 1000, 100), 200);
        for (const SimTime at : {150, 200, 220, 240, 340, 400}) {
          h.sim().At(at, [&h, at]() { h.Note("observe " + std::to_string(at)); });
        }
        h.sim().At(1501, [&h]() { h.StopSources(); });
        h.sim().RunAll();
        h.NoteReturn();
      },
      &runs);
  EXPECT_EQ(runs.events, 7u);  // the observers' and the stop's own
}

TEST(CpuRunTest, BlockedArrivalWaitsForTheRunsEnd) {
  // A kHigh job runs 0-300; the kClock arrival at 150 waits until it ends.
  ExpectSameObservations(1, [](auto& h) {
    SubmitLogged(h, "high", Spl::kHigh, {100, 100, 100}, {2});
    h.StartSource(Periodic("tick", Spl::kClock, 1000, 90), 150);
    h.sim().At(255, [&h]() { h.Note("between"); });
    h.sim().At(1001, [&h]() { h.StopSources(); });
    h.sim().RunAll();
    h.NoteReturn();
  });
}

TEST(CpuRunTest, ArrivalPreemptsAtAnInnerBoundary) {
  // The run 0-500 ends at 200, the first boundary after the arrival at 150; the tick runs,
  // and the job's last three steps follow as one run.
  Observed runs;
  ExpectSameObservations(
      1,
      [](auto& h) {
        FiveStepJob(h);
        h.StartSource(Periodic("tick", Spl::kClock, 1000, 90), 150);
        h.sim().At(1001, [&h]() { h.StopSources(); });
        h.sim().RunAll();
        h.NoteReturn();
      },
      &runs);
  // The cut run's end, the tick's end (work with an action waits under it), the job's end
  // and the stop.
  EXPECT_EQ(runs.events, 4u);
}

TEST(CpuRunTest, HardclockAndSoftclockAtTheSameInstant) {
  // Both first arrive at 500, queued at setup: the hardclock, started first, goes first.
  // At 2500 both arrive again; the softclock's was queued at 500, the hardclock's at 1500,
  // so the softclock goes first there.
  ExpectSameObservations(1, [](auto& h) {
    h.StartSource(Periodic("hardclock", Spl::kClock, 1000, 90), 500);
    h.StartSource(Periodic("softclock", Spl::kSoftClock, 2000, 40), 500);
    for (const SimTime at : {545, 700, 2545, 2700}) {
      h.sim().At(at, [&h, at]() { h.Note("observe " + std::to_string(at)); });
    }
    h.sim().At(3001, [&h]() { h.StopSources(); });
    h.sim().RunAll();
    h.NoteReturn();
  });
}

TEST(CpuRunTest, ArrivalDuringAnIdleTail) {
  // At kNone the arrival at 150 preempts the tail at 200; at kImp the tail blocks it until
  // its end at 300. Neither needs an event.
  for (const Spl level : {Spl::kNone, Spl::kImp}) {
    SCOPED_TRACE(SplValue(level));
    Observed runs;
    ExpectSameObservations(
        1,
        [level](auto& h) {
          IdleTailJob(h, level);
          h.StartSource(Periodic("tick", Spl::kClock, 1000, 90), 150);
          h.sim().At(255, [&h]() { h.Note("between"); });
          h.sim().At(420, [&h]() { h.Note("late"); });
          h.sim().At(1001, [&h]() { h.StopSources(); });
          h.sim().RunAll();
          h.NoteReturn();
        },
        &runs);
    EXPECT_EQ(runs.events, 3u);  // the observers and the stop
  }
}

TEST(CpuRunTest, CancelAllWithArrivalsPending) {
  // Ticks every 100 ns from 50; the arrivals up to 450 happen, lazily, before the cancel at
  // 475, and none after it.
  ExpectSameObservations(1, [](auto& h) {
    h.StartSource(Periodic("tick", Spl::kClock, 100, 20), 50);
    h.sim().At(475, [&h]() {
      h.Note("before cancel");
      h.cpu().CancelAll();
      h.Note("after cancel");
    });
    h.sim().At(801, [&h]() { h.StopSources(); });
    h.sim().RunUntil(700);
    h.NoteReturn();
    h.sim().RunAll();
    h.NoteReturn();
  });
}

TEST(CpuRunTest, HorizonExactlyAtAnArrival) {
  // A horizon at the arrival's instant leaves it to come; a limit at it dispatches it.
  ExpectSameObservations(1, [](auto& h) {
    h.StartSource(Periodic("tick", Spl::kClock, 1000, 90), 300);
    h.sim().RunUntilBefore(300);
    h.NoteReturn();
    h.sim().RunUntil(300);
    h.NoteReturn();
    h.sim().RunUntilBefore(1300);
    h.NoteReturn();
    h.sim().At(1301, [&h]() { h.StopSources(); });
    h.sim().RunAll();
    h.NoteReturn();
  });
}

TEST(CpuRunTest, ArrivalQueueingFollowsTheWrittenRule) {
  // The documented departure. Ticks arrive at 1000 and 2000; an event at 1000, ordered
  // after the first tick, queues an interrupt for 2000. The per-step model queued the
  // second tick from the first tick's event, before that interrupt, so the tick goes first
  // at 2000. The Cpu reserves the second tick's place when it dispatches the first, which
  // it does when something first uses it: if the event at 1000 uses the Cpu, that is before
  // it queues the interrupt, and the order is the same; if not, the interrupt goes first.
  for (const bool uses_cpu : {true, false}) {
    SCOPED_TRACE(uses_cpu ? "the event at 1000 uses the Cpu" : "it does not");
    const auto script = [uses_cpu](auto& h) {
      h.StartSource(Periodic("tick", Spl::kClock, 1000, 90), 1000);
      h.sim().At(1000, [&h, uses_cpu]() {
        if (uses_cpu) {
          h.Note("at 1000");
        }
        h.sim().After(1000, [&h]() { SubmitIrq(h, "irq"); });
      });
      h.sim().At(2501, [&h]() { h.StopSources(); });
      h.sim().RunAll();
      h.NoteReturn();
    };
    Harness<Cpu> runs(1);
    Harness<StepCpu> steps(1);
    script(runs);
    script(steps);
    const Observed a = runs.Finish();
    const Observed b = steps.Finish();
    EXPECT_EQ(a.spans == b.spans, uses_cpu) << ::testing::PrintToString(a.spans) << "\n"
                                            << ::testing::PrintToString(b.spans);
    EXPECT_EQ(b.spans[2], "tick 2000+40 spl=6");
    EXPECT_EQ(a.spans[2], uses_cpu ? "tick 2000+40 spl=6" : "irq 2000+40 spl=4");
  }
}

// --- random schedules -----------------------------------------------------------------------

struct StepSpec {
  SimDuration duration = 0;
  Spl spl = Spl::kNone;
  bool action = false;
  int submit = -1;              // job spec the action submits, or -1
  SimDuration submit_after = 0;  // 0: at once; else through an event this much later
};

struct JobSpec {
  Spl level = Spl::kNone;
  bool interrupt = false;
  bool on_done = true;
  std::vector<StepSpec> steps;
};

struct ExternalSpec {
  enum Kind { kArrival, kRelayedArrival, kContentionBegin, kContentionEnd, kCancelAll, kStop };
  Kind kind = kArrival;
  SimTime at = 0;  // for kRelayedArrival: the relay's instant (an odd 5 ns offset)
  int job = -1;
};

struct SourceSpec {
  Cpu::InterruptSource source;
  SimTime first = 0;
};

struct RandomSchedule {
  std::vector<JobSpec> jobs;
  std::vector<ExternalSpec> externals;
  std::vector<SimTime> limits;  // RunUntil (even index) / RunUntilBefore (odd), then RunAll
  std::vector<SourceSpec> sources;  // background interrupt sources, stopped at sources_end
  SimTime sources_end = 0;
};

Spl RandomSpl(Rng& rng) { return static_cast<Spl>(rng.UniformInt(0, 7)); }

// Every duration is a multiple of 20 ns, so stretched by 1.5 every step boundary stays on
// the 10 ns grid that arrivals, contention changes, cancels, stops and run limits use.
SimTime GridTime(Rng& rng, SimTime max) { return 10 * rng.UniformInt(0, max / 10); }

RandomSchedule MakeSchedule(uint64_t seed) {
  Rng rng(seed);
  // Which jobs drop on_done, so that their ends can be idle tails, comes from a generator
  // of its own: the choice shifts none of the schedule's other draws.
  Rng tails(seed + 0x5EED0000);
  RandomSchedule s;
  for (int j = 0; j < kJobSpecs; ++j) {
    JobSpec job;
    job.level = rng.Chance(0.4) ? Spl::kNone : RandomSpl(rng);
    job.interrupt = rng.Chance(0.5);
    const int64_t steps = rng.UniformInt(1, 6);
    for (int64_t k = 0; k < steps; ++k) {
      StepSpec step;
      static constexpr SimDuration kDurations[] = {0, 20, 40, 60, 100, 200, 400};
      step.duration = rng.Chance(0.15) ? 0 : kDurations[rng.UniformInt(1, 6)];
      step.spl = rng.Chance(0.7) ? Spl::kNone : RandomSpl(rng);
      step.action = rng.Chance(0.3);
      if (step.action && j + 1 < kJobSpecs && rng.Chance(0.4)) {
        step.submit = static_cast<int>(rng.UniformInt(j + 1, kJobSpecs - 1));
        step.submit_after = rng.Chance(0.5) ? 0 : 10 * rng.UniformInt(1, 30);
      }
      job.steps.push_back(step);
    }
    job.on_done = tails.Chance(0.5);
    s.jobs.push_back(job);
  }
  const SimTime span = 3000;
  const int64_t arrivals = rng.UniformInt(4, 16);
  for (int64_t i = 0; i < arrivals; ++i) {
    s.externals.push_back(
        {ExternalSpec::kArrival, GridTime(rng, span), static_cast<int>(rng.UniformInt(0, 9))});
  }
  const int64_t relayed = rng.UniformInt(0, 6);
  for (int64_t i = 0; i < relayed; ++i) {
    s.externals.push_back({ExternalSpec::kRelayedArrival, GridTime(rng, span) + 5,
                           static_cast<int>(rng.UniformInt(0, 9))});
  }
  const int64_t contentions = rng.UniformInt(0, 4);
  for (int64_t i = 0; i < contentions; ++i) {
    const SimTime begin = GridTime(rng, span);
    s.externals.push_back({ExternalSpec::kContentionBegin, begin});
    s.externals.push_back({ExternalSpec::kContentionEnd, begin + GridTime(rng, 600)});
  }
  if (rng.Chance(0.2)) {
    s.externals.push_back({ExternalSpec::kCancelAll, GridTime(rng, span)});
  }
  if (rng.Chance(0.3)) {
    s.externals.push_back({ExternalSpec::kStop, GridTime(rng, span)});
  }
  const int64_t limits = rng.UniformInt(0, 4);
  SimTime limit = 0;
  for (int64_t i = 0; i < limits; ++i) {
    limit += GridTime(rng, 1200);
    s.limits.push_back(limit);
  }
  // Background sources come from a generator of their own too. Periodic ones arrive 3 or 7
  // ns off the 10 ns grid, so their ticks meet no arrival, relay or limit; the others draw
  // waits and lengths to the nanosecond.
  Rng background(seed + 0xBAC60000);
  if (background.Chance(0.6)) {
    s.sources.push_back({Periodic("hardclock", Spl::kClock, 10 * background.UniformInt(30, 150),
                                  20 * background.UniformInt(1, 10)),
                         GridTime(background, 1000) + 3});
  }
  if (background.Chance(0.4)) {
    s.sources.push_back(
        {Periodic("softclock", Spl::kSoftClock, 10 * background.UniformInt(50, 200),
                  20 * background.UniformInt(1, 5)),
         GridTime(background, 1000) + 7});
  }
  for (const char* name : {"section", "stall"}) {
    if (background.Chance(0.5)) {
      Cpu::InterruptSource section;
      section.name = name;
      section.level = static_cast<Spl>(background.UniformInt(1, 7));
      section.mean = 10 * background.UniformInt(30, 200);
      section.min = 20;
      section.max = 20 * background.UniformInt(1, 20);
      s.sources.push_back({section, GridTime(background, 1000) + 1});
    }
  }
  s.sources_end = GridTime(background, 5000) + 1;
  return s;
}

template <typename H>
void SubmitSpec(H& h, const RandomSchedule& s, int index) {
  const JobSpec& spec = s.jobs[static_cast<size_t>(index)];
  const char* name = kJobNames[index];
  auto job = h.cpu().NewJob(name, spec.level);
  for (size_t k = 0; k < spec.steps.size(); ++k) {
    const StepSpec& step = spec.steps[k];
    if (!step.action) {
      job.AddStep(step.duration, nullptr, step.spl);
      continue;
    }
    job.AddStep(
        step.duration,
        [&h, &s, name, k, step]() {
          h.Note(std::string(name) + " step " + std::to_string(k), /*own=*/true);
          if (step.submit < 0) {
            return;
          }
          if (step.submit_after == 0) {
            SubmitSpec(h, s, step.submit);
          } else {
            h.sim().After(step.submit_after, [&h, &s, step]() { SubmitSpec(h, s, step.submit); });
          }
        },
        step.spl);
  }
  if (spec.on_done) {
    job.set_on_done([&h, name]() { h.Note(std::string(name) + " done", /*own=*/true); });
  }
  if (spec.interrupt) {
    h.cpu().SubmitInterrupt(std::move(job));
  } else {
    h.cpu().SubmitProcess(std::move(job));
  }
}

template <typename H>
void RunSchedule(H& h, const RandomSchedule& s) {
  for (const SourceSpec& source : s.sources) {
    h.StartSource(source.source, source.first);
  }
  h.sim().At(s.sources_end, [&h]() { h.StopSources(); });
  for (const ExternalSpec& e : s.externals) {
    h.sim().At(e.at, [&h, &s, e]() {
      switch (e.kind) {
        case ExternalSpec::kArrival:
          h.Note("arrival " + std::to_string(e.job));
          SubmitSpec(h, s, e.job);
          break;
        case ExternalSpec::kRelayedArrival:
          h.sim().After(5 + 10 * (e.at % 7), [&h, &s, e]() {
            h.Note("relayed arrival " + std::to_string(e.job));
            SubmitSpec(h, s, e.job);
          });
          break;
        case ExternalSpec::kContentionBegin:
          h.Note("contention begins");
          h.cpu().BeginMemoryContention();
          break;
        case ExternalSpec::kContentionEnd:
          h.Note("contention ends");
          h.cpu().EndMemoryContention();
          break;
        case ExternalSpec::kCancelAll:
          h.Note("cancel all");
          h.cpu().CancelAll();
          break;
        case ExternalSpec::kStop:
          h.Note("stop");
          h.sim().Stop();
          break;
      }
    });
  }
  for (size_t i = 0; i < s.limits.size(); ++i) {
    if (i % 2 == 0) {
      h.sim().RunUntil(s.limits[i]);
    } else {
      h.sim().RunUntilBefore(s.limits[i]);
    }
    h.NoteReturn();
  }
  h.sim().RunAll();
  h.NoteReturn();
  h.sim().RunAll();  // after a stop in the last call
  h.NoteReturn();
}

TEST(CpuRunTest, ThousandRandomSchedulesMatchThePerStepModel) {
  uint64_t run_events = 0;
  uint64_t step_events = 0;
  for (uint64_t seed = 1; seed <= 1200; ++seed) {
    SCOPED_TRACE(seed);
    const RandomSchedule schedule = MakeSchedule(seed);
    Harness<Cpu> runs(seed);
    Harness<StepCpu> steps(seed);
    RunSchedule(runs, schedule);
    RunSchedule(steps, schedule);
    const Observed a = runs.Finish();
    const Observed b = steps.Finish();
    ASSERT_EQ(a.log, b.log);
    ASSERT_EQ(a.spans, b.spans);
    ASSERT_LE(a.events, b.events);
    run_events += a.events;
    step_events += b.events;
  }
  // The schedules are short and busy with arrivals, so runs split often; they still save.
  EXPECT_LT(run_events, step_events);
}

}  // namespace
}  // namespace ctms
