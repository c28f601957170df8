#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/hw/cpu.h"
#include "src/hw/dma.h"
#include "src/hw/machine.h"
#include "src/hw/memory.h"
#include "src/sim/simulation.h"
#include "tests/cpu_time.h"

namespace ctms {
namespace {

class CpuTest : public ::testing::Test {
 protected:
  CpuTest() : sim_(1), cpu_(&sim_, "cpu") {
    cpu_.set_dispatch_base(0);
    cpu_.set_dispatch_jitter(0);
  }
  Simulation sim_;
  Cpu cpu_;
};

TEST_F(CpuTest, RunsStepsSequentially) {
  std::vector<SimTime> times;
  Cpu::Job job = cpu_.NewJob("j", Spl::kImp);
  job.AddStep(Microseconds(10), [&]() { times.push_back(sim_.Now()); });
  job.AddStep(Microseconds(20), [&]() { times.push_back(sim_.Now()); });
  cpu_.SubmitInterrupt(std::move(job));
  sim_.RunAll();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Microseconds(10));
  EXPECT_EQ(times[1], Microseconds(30));
}

TEST_F(CpuTest, DispatchLatencyDelaysFirstStep) {
  cpu_.set_dispatch_base(Microseconds(40));
  SimTime entry = -1;
  cpu_.SubmitInterrupt("j", Spl::kImp, 0, [&]() { entry = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(entry, Microseconds(40));
}

TEST_F(CpuTest, SameLevelJobsSerializeFifo) {
  std::vector<int> order;
  cpu_.SubmitInterrupt("a", Spl::kImp, Microseconds(10), [&]() { order.push_back(1); });
  cpu_.SubmitInterrupt("b", Spl::kImp, Microseconds(10), [&]() { order.push_back(2); });
  sim_.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim_.Now(), Microseconds(20));
}

TEST_F(CpuTest, HigherLevelPreemptsAtStepBoundary) {
  std::vector<std::string> order;
  Cpu::Job low = cpu_.NewJob("low", Spl::kNet);
  low.AddStep(Microseconds(10), [&]() { order.push_back("low1"); });
  low.AddStep(Microseconds(10), [&]() { order.push_back("low2"); });
  cpu_.SubmitInterrupt(std::move(low));
  // Arrives mid-first-step; must run between low's steps, not after both.
  sim_.After(Microseconds(5), [&]() {
    cpu_.SubmitInterrupt("high", Spl::kClock, Microseconds(3), [&]() { order.push_back("high"); });
  });
  sim_.RunAll();
  EXPECT_EQ(order, (std::vector<std::string>{"low1", "high", "low2"}));
}

TEST_F(CpuTest, EqualLevelDoesNotPreempt) {
  std::vector<std::string> order;
  Cpu::Job first = cpu_.NewJob("first", Spl::kImp);
  first.AddStep(Microseconds(10), [&]() { order.push_back("f1"); });
  first.AddStep(Microseconds(10), [&]() { order.push_back("f2"); });
  cpu_.SubmitInterrupt(std::move(first));
  sim_.After(Microseconds(5), [&]() {
    cpu_.SubmitInterrupt("second", Spl::kImp, Microseconds(1), [&]() { order.push_back("s"); });
  });
  sim_.RunAll();
  EXPECT_EQ(order, (std::vector<std::string>{"f1", "f2", "s"}));
}

TEST_F(CpuTest, StepSplRaisesEffectiveLevel) {
  // A kNet job with a kHigh protected step defers even a kClock interrupt.
  std::vector<std::string> order;
  Cpu::Job low = cpu_.NewJob("low", Spl::kNet);
  low.AddStep(Microseconds(10), [&]() { order.push_back("protected"); }, Spl::kHigh);
  low.AddStep(Microseconds(10), [&]() { order.push_back("tail"); });
  cpu_.SubmitInterrupt(std::move(low));
  sim_.After(Microseconds(2), [&]() {
    cpu_.SubmitInterrupt("clock", Spl::kClock, Microseconds(1), [&]() { order.push_back("clk"); });
  });
  sim_.RunAll();
  // The clock runs after the protected step but before the kNet tail.
  EXPECT_EQ(order, (std::vector<std::string>{"protected", "clk", "tail"}));
}

TEST_F(CpuTest, ProcessWorkYieldsToInterrupts) {
  std::vector<std::string> order;
  Cpu::Job proc = cpu_.NewJob("proc", Spl::kNone);
  for (int i = 0; i < 4; ++i) {
    proc.AddStep(Microseconds(100));
  }
  proc.set_on_done([&]() { order.push_back("proc"); });
  cpu_.SubmitProcess(std::move(proc));
  sim_.After(Microseconds(150), [&]() {
    cpu_.SubmitInterrupt("intr", Spl::kImp, Microseconds(10), [&]() { order.push_back("intr"); });
  });
  sim_.RunAll();
  EXPECT_EQ(order, (std::vector<std::string>{"intr", "proc"}));
  // Interrupt delayed only to the 200us step boundary, then 10us of work.
  EXPECT_EQ(sim_.Now(), Microseconds(410));
}

TEST_F(CpuTest, PreemptedJobResumesAfterInterrupt) {
  SimTime done_at = -1;
  Cpu::Job proc = cpu_.NewJob("proc", Spl::kNone);
  proc.AddStep(Microseconds(100));
  proc.AddStep(Microseconds(100));
  proc.set_on_done([&]() { done_at = sim_.Now(); });
  cpu_.SubmitProcess(std::move(proc));
  sim_.After(Microseconds(50), [&]() {
    cpu_.SubmitInterrupt("intr", Spl::kImp, Microseconds(30), nullptr);
  });
  sim_.RunAll();
  EXPECT_EQ(done_at, Microseconds(230));  // 100 + 30 + 100
}

TEST_F(CpuTest, ContentionStretchesSteps) {
  cpu_.set_contention_stretch(1.5);
  cpu_.BeginMemoryContention();
  SimTime done = -1;
  cpu_.SubmitInterrupt("j", Spl::kImp, Microseconds(100), [&]() { done = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(done, Microseconds(150));
  cpu_.EndMemoryContention();
}

TEST_F(CpuTest, BusyAccounting) {
  // Per-job CPU time comes from the step spans on the CPU's trace track.
  sim_.telemetry().tracer.set_enabled(true);
  cpu_.SubmitInterrupt("a", Spl::kImp, Microseconds(30), nullptr);
  cpu_.SubmitInterrupt("b", Spl::kImp, Microseconds(70), nullptr);
  sim_.RunAll();
  EXPECT_EQ(cpu_.busy_time(), Microseconds(100));
  const std::map<std::string, SimDuration> by_job =
      CpuTimeByJob(sim_.telemetry().tracer, "cpu.cpu");
  EXPECT_EQ(by_job.at("a"), Microseconds(30));
  EXPECT_EQ(by_job.at("b"), Microseconds(70));
  EXPECT_EQ(cpu_.jobs_completed(), 2u);
  EXPECT_DOUBLE_EQ(cpu_.Utilization(), 1.0);
}

TEST_F(CpuTest, EmptyJobCompletes) {
  bool done = false;
  Cpu::Job job = cpu_.NewJob("empty", Spl::kNone);
  job.set_on_done([&]() { done = true; });
  cpu_.SubmitProcess(std::move(job));
  sim_.RunAll();
  EXPECT_TRUE(done);
}


TEST_F(CpuTest, NestedPreemptionResumesInLevelOrder) {
  std::vector<std::string> order;
  Cpu::Job base = cpu_.NewJob("base", Spl::kNone);
  for (int i = 0; i < 3; ++i) {
    base.AddStep(Microseconds(100));
  }
  base.set_on_done([&]() { order.push_back("base"); });
  cpu_.SubmitProcess(std::move(base));
  // kNet arrives during base's first step; kClock arrives during kNet's work.
  sim_.After(Microseconds(50), [&]() {
    Cpu::Job net = cpu_.NewJob("net", Spl::kNet);
    net.AddStep(Microseconds(100), nullptr, Spl::kNet);
    net.AddStep(Microseconds(100), nullptr, Spl::kNet);
    net.set_on_done([&]() { order.push_back("net"); });
    cpu_.SubmitInterrupt(std::move(net));
  });
  sim_.After(Microseconds(150), [&]() {
    cpu_.SubmitInterrupt("clock", Spl::kClock, Microseconds(30),
                         [&]() { order.push_back("clock"); });
  });
  sim_.RunAll();
  // clock preempts net which preempted base; completion order is innermost first.
  EXPECT_EQ(order, (std::vector<std::string>{"clock", "net", "base"}));
}

TEST_F(CpuTest, NestedContentionIsSingleFactor) {
  cpu_.set_contention_stretch(1.5);
  cpu_.BeginMemoryContention();
  cpu_.BeginMemoryContention();  // two concurrent DMA transfers: still one contended bus
  SimTime done = -1;
  cpu_.SubmitInterrupt("j", Spl::kImp, Microseconds(100), [&]() { done = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(done, Microseconds(150));
  cpu_.EndMemoryContention();
  cpu_.EndMemoryContention();
  SimTime done2 = -1;
  cpu_.SubmitInterrupt("k", Spl::kImp, Microseconds(100),
                       [&]() { done2 = sim_.Now() - done; });
  sim_.RunAll();
  EXPECT_EQ(done2, Microseconds(100));  // back to full speed
}

// Each Cpu draws its dispatch jitter from its own stream, forked at construction, so an
// extra interrupt on one machine shifts no draw of another.
TEST(CpuStreamTest, ExtraInterruptOnOneCpuLeavesAnotherCpusDrawsAlone) {
  const auto spans_of_b = [](bool extra) {
    Simulation sim(7);
    sim.telemetry().tracer.set_enabled(true);
    Cpu a(&sim, "a.cpu");
    Cpu b(&sim, "b.cpu");
    for (SimTime at = 0; at < Milliseconds(10); at += Microseconds(500)) {
      sim.At(at, [&b]() { b.SubmitInterrupt("irq", Spl::kImp, Microseconds(30), nullptr); });
    }
    if (extra) {
      sim.At(Microseconds(250),
             [&a]() { a.SubmitInterrupt("extra", Spl::kImp, Microseconds(30), nullptr); });
    }
    sim.RunUntil(Milliseconds(20));
    std::vector<std::string> spans;
    const SpanTracer& tracer = sim.telemetry().tracer;
    for (const TraceSpan& span : tracer.spans()) {
      if (tracer.tracks()[static_cast<size_t>(span.track)] == "cpu.b") {
        spans.push_back(std::to_string(span.start) + "+" + std::to_string(span.duration));
      }
    }
    return spans;
  };
  const std::vector<std::string> alone = spans_of_b(false);
  ASSERT_EQ(alone.size(), 40u);  // 20 interrupts: dispatch slot and handler step each
  EXPECT_EQ(spans_of_b(true), alone);
}

TEST(CopyEngineTest, CostDependsOnMemoryKinds) {
  CopyEngine engine;
  const int64_t bytes = 2000;
  // The paper's headline rate: 1 us/byte into IO Channel Memory -> 2000 us for a packet.
  EXPECT_EQ(engine.CopyCost(bytes, MemoryKind::kSystemMemory, MemoryKind::kIoChannelMemory),
            Microseconds(2000));
  EXPECT_LT(engine.CopyCost(bytes, MemoryKind::kSystemMemory, MemoryKind::kSystemMemory),
            Microseconds(2000));
  EXPECT_GT(engine.CopyCost(bytes, MemoryKind::kIoChannelMemory, MemoryKind::kIoChannelMemory),
            Microseconds(2000));
}

TEST(CopyEngineTest, Accounting) {
  CopyEngine engine;
  engine.RecordCpuCopy(100);
  engine.RecordCpuCopy(200);
  engine.RecordDmaCopy(1000);
  EXPECT_EQ(engine.cpu_copies(), 2u);
  EXPECT_EQ(engine.cpu_bytes_copied(), 300);
  EXPECT_EQ(engine.dma_copies(), 1u);
  EXPECT_EQ(engine.dma_bytes_copied(), 1000);
  engine.ResetCounters();
  EXPECT_EQ(engine.cpu_copies(), 0u);
}

class DmaTest : public ::testing::Test {
 protected:
  DmaTest() : sim_(1), machine_(&sim_, "m") {}
  Simulation sim_;
  Machine machine_;
};

TEST_F(DmaTest, TransferTakesBytesTimesRate) {
  DmaEngine dma(&sim_, "d", &machine_.cpu(), &machine_.copies());
  dma.set_rate_per_byte(Microseconds(1));
  SimTime done = -1;
  dma.Transfer(500, MemoryKind::kIoChannelMemory, [&]() { done = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(done, Microseconds(500));
  EXPECT_EQ(dma.transfers_completed(), 1u);
  EXPECT_EQ(dma.bytes_transferred(), 500);
}

TEST_F(DmaTest, TransfersQueueFifo) {
  DmaEngine dma(&sim_, "d", &machine_.cpu(), &machine_.copies());
  dma.set_rate_per_byte(Microseconds(1));
  std::vector<SimTime> done;
  dma.Transfer(100, MemoryKind::kIoChannelMemory, [&]() { done.push_back(sim_.Now()); });
  dma.Transfer(100, MemoryKind::kIoChannelMemory, [&]() { done.push_back(sim_.Now()); });
  sim_.RunAll();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], Microseconds(100));
  EXPECT_EQ(done[1], Microseconds(200));
}

TEST_F(DmaTest, SystemMemoryDmaSlowsCpu) {
  machine_.cpu().set_dispatch_base(0);
  machine_.cpu().set_dispatch_jitter(0);
  machine_.cpu().set_contention_stretch(1.5);
  DmaEngine dma(&sim_, "d", &machine_.cpu(), &machine_.copies());
  dma.set_rate_per_byte(Microseconds(1));
  dma.Transfer(1000, MemoryKind::kSystemMemory, nullptr);
  SimTime cpu_done = -1;
  machine_.cpu().SubmitInterrupt("work", Spl::kImp, Microseconds(100),
                                 [&]() { cpu_done = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(cpu_done, Microseconds(150));  // stretched by arbitration
}

TEST_F(DmaTest, IoChannelMemoryDmaDoesNotSlowCpu) {
  machine_.cpu().set_dispatch_base(0);
  machine_.cpu().set_dispatch_jitter(0);
  DmaEngine dma(&sim_, "d", &machine_.cpu(), &machine_.copies());
  dma.set_rate_per_byte(Microseconds(1));
  dma.Transfer(1000, MemoryKind::kIoChannelMemory, nullptr);
  SimTime cpu_done = -1;
  machine_.cpu().SubmitInterrupt("work", Spl::kImp, Microseconds(100),
                                 [&]() { cpu_done = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(cpu_done, Microseconds(100));
}

TEST(MachineTest, ChargeCpuCopyRecordsAndPrices) {
  Simulation sim(1);
  Machine machine(&sim, "m");
  const SimDuration cost = machine.ChargeCpuCopy(2000, MemoryKind::kSystemMemory,
                                                 MemoryKind::kIoChannelMemory);
  EXPECT_EQ(cost, Microseconds(2000));
  EXPECT_EQ(machine.copies().cpu_copies(), 1u);
}

TEST(MachineTest, HardclockTicksAtHundredHertz) {
  Simulation sim(1);
  Machine machine(&sim, "m");
  machine.StartHardclock(Microseconds(90));
  sim.RunUntil(Seconds(1));
  machine.StopHardclock();
  // ~100 ticks of 90 us each (dispatch adds a bit).
  EXPECT_GE(machine.cpu().jobs_completed(), 99u);
  EXPECT_LE(machine.cpu().jobs_completed(), 101u);
}

}  // namespace
}  // namespace ctms
