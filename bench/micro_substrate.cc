// google-benchmark microbenchmarks of the substrate itself: how fast the simulator's core
// data structures run on the host machine. These do not reproduce paper numbers; they guard
// the simulator's own performance (a 117-minute Test Case B is ~50M events).

#include <benchmark/benchmark.h>

#include "src/core/experiment.h"
#include "src/core/scenario.h"
#include "src/hw/memory.h"
#include "src/kern/mbuf.h"
#include "src/measure/histogram.h"
#include "src/ring/token_ring.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"

namespace ctms {
namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  EventQueue queue;
  Rng rng(1);
  SimTime now = 0;
  // Keep a standing population, schedule one / pop one per iteration.
  for (int i = 0; i < 1000; ++i) {
    queue.Schedule(rng.UniformInt(0, 1'000'000), 0, []() {});
  }
  for (auto _ : state) {
    queue.Schedule(now + rng.UniformInt(0, 1'000'000), now, []() {});
    now = queue.RunNext();
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_SimulationSelfSchedulingEvent(benchmark::State& state) {
  Simulation sim(1);
  uint64_t counter = 0;
  std::function<void()> tick = [&]() {
    ++counter;
    sim.After(100, tick);
  };
  sim.After(0, tick);
  for (auto _ : state) {
    sim.RunUntil(sim.Now() + 100);
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_SimulationSelfSchedulingEvent);

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Normal(0.0, 1.0));
  }
}
BENCHMARK(BM_RngNormal);

void BM_MbufAllocateRelease(benchmark::State& state) {
  MbufPool pool(256, 64);
  const int64_t bytes = state.range(0);
  for (auto _ : state) {
    auto chain = pool.Allocate(bytes);
    benchmark::DoNotOptimize(chain);
  }
}
BENCHMARK(BM_MbufAllocateRelease)->Arg(112)->Arg(192)->Arg(2000);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram hist("bench");
  Rng rng(3);
  for (auto _ : state) {
    hist.Add(rng.UniformDuration(0, Milliseconds(15)));
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramAdd);

void BM_HistogramPercentile(benchmark::State& state) {
  Histogram hist("bench");
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    hist.Add(rng.UniformDuration(0, Milliseconds(15)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.Percentile(0.98));
  }
}
BENCHMARK(BM_HistogramPercentile);

void BM_CopyEngineCost(benchmark::State& state) {
  CopyEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.CopyCost(2000, MemoryKind::kSystemMemory, MemoryKind::kIoChannelMemory));
  }
}
BENCHMARK(BM_CopyEngineCost);

void BM_RingFrameService(benchmark::State& state) {
  Simulation sim(1);
  TokenRing ring(&sim);
  const RingAddress src = ring.AllocateGhostAddress();
  for (auto _ : state) {
    Frame frame;
    frame.kind = FrameKind::kLlc;
    frame.src = src;
    frame.dst = 99;
    frame.payload_bytes = 2000;
    ring.RequestTransmit(std::move(frame), nullptr);
    sim.RunAll();
  }
}
BENCHMARK(BM_RingFrameService);

// The headline: how much host time one simulated second of Test Case A costs.
void BM_TestCaseASimulatedSecond(benchmark::State& state) {
  CtmsConfig config = TestCaseA();
  config.duration = Hours(24);  // never reached; we advance manually
  CtmsExperiment experiment(config);
  experiment.Start();
  for (auto _ : state) {
    experiment.sim().RunFor(Seconds(1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(experiment.sim().events_executed()));
}
BENCHMARK(BM_TestCaseASimulatedSecond)->Unit(benchmark::kMillisecond);

void BM_TestCaseBSimulatedSecond(benchmark::State& state) {
  CtmsConfig config = TestCaseB();
  config.duration = Hours(24);
  CtmsExperiment experiment(config);
  experiment.Start();
  for (auto _ : state) {
    experiment.sim().RunFor(Seconds(1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(experiment.sim().events_executed()));
}
BENCHMARK(BM_TestCaseBSimulatedSecond)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ctms

BENCHMARK_MAIN();
