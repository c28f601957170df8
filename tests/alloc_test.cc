// Heap-allocation regression tests for the per-packet path.
//
// Built as its own test binary (alloc_tests) because it replaces the global operator new
// with a counting one; nothing else links this counter. Each test counts the allocations
// made inside a window of simulated work after a warm-up, so only the steady state is
// measured: record pools, event slabs and vector capacities grown during warm-up are reused.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "src/core/experiment.h"
#include "src/core/scenario.h"
#include "src/hw/cpu.h"
#include "src/hw/dma.h"
#include "src/hw/machine.h"
#include "src/kern/packet.h"
#include "src/kern/unix_kernel.h"
#include "src/ring/frame.h"
#include "src/ring/token_ring.h"
#include "src/sim/simulation.h"
#include "src/workload/kernel_activity.h"

namespace {
// The tests are single-threaded; gtest's own allocations fall outside every window.
uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ctms {
namespace {

// An interrupt handler shaped like the driver's: copy the packet, then act on it in a step
// that captures `this` and the Packet (payload ref included), and start a DMA transfer.
class CopyThenDma {
 public:
  CopyThenDma() { dma_.set_rate_per_byte(10); }  // 20 us per transfer: never queues

  void Submit() {
    Packet packet;
    packet.bytes = 2000;
    packet.seq = ++submitted_;
    packet.payload = sim_.frames().Allocate(packet.bytes, /*segments=*/1);
    Handle(packet);
  }

  // Submits `jobs` jobs in bursts of ten and runs the CPU dry after each burst.
  void Run(int jobs) {
    for (int i = 0; i < jobs; i += 10) {
      for (int j = 0; j < 10; ++j) {
        Submit();
      }
      sim_.RunAll();
    }
  }

  uint64_t transferred() const { return transferred_; }

 private:
  // Takes a const reference, as the protocol layers' Input does: the capture below then
  // holds a `const Packet`, which must still move without leaving the inline buffer.
  void Handle(const Packet& packet) {
    Cpu& cpu = machine_.cpu();
    Cpu::Job job = cpu.NewJob("copy-then-dma", Spl::kImp);
    kernel_.CopySteps(&job, packet.bytes, MemoryKind::kSystemMemory, MemoryKind::kSystemMemory,
                      Spl::kImp);
    job.AddStep(
        Microseconds(5),
        [this, packet]() {
          dma_.Transfer(packet.bytes, MemoryKind::kSystemMemory, [this]() { ++transferred_; });
        },
        Spl::kImp);
    cpu.SubmitInterrupt(std::move(job));
  }

  Simulation sim_{1};
  Machine machine_{&sim_, "m"};
  UnixKernel kernel_{&machine_};
  DmaEngine dma_{&sim_, "m.dma", &machine_.cpu(), &machine_.copies()};
  uint32_t submitted_ = 0;
  uint64_t transferred_ = 0;
};

TEST(AllocTest, WarmInterruptJobsWithCopyAndDmaAllocateNothing) {
  CopyThenDma harness;
  // Warm-up: grows the job records and their step storage, the event slab and the frame
  // arena at once, and the timer wheel's buckets over ~9 s of simulated time (a bucket
  // grows whenever jitter first lands one more event in it than before).
  harness.Run(5000);
  const uint64_t before = g_allocations;
  harness.Run(1000);
  const uint64_t allocations = g_allocations - before;
  EXPECT_EQ(harness.transferred(), 6000u);
  EXPECT_EQ(allocations, 0u) << "1,000 warm interrupt jobs should reuse recycled records";
}

TEST(AllocTest, HardclockTicksOnAnIdleCpuReuseOneRecord) {
  // Each tick is an idle run: one action-free step, no on_done, nothing else on the CPU, so
  // no event stands for its arrival or its end. The Cpu settles them in place order, so a
  // tick's job has finished and given its record back before the next tick takes one;
  // otherwise the tick takes a second one. A first machine ticks for 10 s so every
  // container is warm, then a second machine's CPU takes over the ticking and must allocate
  // nothing after its first tick.
  Simulation sim(1);
  Machine warm(&sim, "warm");
  Machine ticking(&sim, "ticking");
  warm.StartHardclock();
  sim.RunUntil(Seconds(10));
  warm.StopHardclock();
  ticking.StartHardclock();
  sim.RunUntil(Seconds(10) + Milliseconds(10));
  ASSERT_EQ(ticking.cpu().jobs_completed(), 1u);
  const uint64_t before = g_allocations;
  sim.RunUntil(Seconds(20));
  const uint64_t allocations = g_allocations - before;
  EXPECT_EQ(ticking.cpu().jobs_completed(), 1000u);
  EXPECT_EQ(allocations, 0u) << "hardclock ticks on an idle CPU should reuse one record";
}

TEST(AllocTest, BackgroundInterruptsOnAnIdleCpuScheduleNoEventAndAllocateNothing) {
  // The hardclock, softclock, short and long sections and stalls of one station, with
  // nothing else on its CPU: every arrival and every job end is settled without an event.
  Simulation sim(1);
  Machine machine(&sim, "quiet");
  KernelBackgroundActivity::Config config;
  config.stall_interarrival_mean = Milliseconds(1200);
  KernelBackgroundActivity activity(&machine, sim.rng().Fork(), config);
  machine.StartHardclock();
  activity.Start();
  sim.RunUntil(Seconds(10));
  const uint64_t jobs = machine.cpu().jobs_completed();
  const uint64_t before = g_allocations;
  for (int i = 1; i <= 100; ++i) {
    sim.RunUntil(Seconds(10) + Milliseconds(100) * i);
  }
  const uint64_t allocations = g_allocations - before;
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.pending_event_count(), 0u);
  EXPECT_GT(machine.cpu().jobs_completed(), jobs + 1500);
  EXPECT_GT(activity.sections_run(), 0u);
  EXPECT_EQ(allocations, 0u) << "warm background interrupts should reuse recycled records";
}

TEST(AllocTest, WarmRingTransmitQueueAllocatesNothing) {
  // Bursts of frames at mixed priorities queue behind the wire, so each burst inserts in the
  // middle of the queue as well as at its end, and the queue drains between bursts.
  Simulation sim(1);
  TokenRing ring(&sim);
  uint64_t completed = 0;
  const auto burst = [&]() {
    for (int i = 0; i < 12; ++i) {
      Frame frame;
      frame.kind = FrameKind::kLlc;
      frame.src = 1;
      frame.dst = 99;
      frame.payload_bytes = 500;
      frame.priority = (i * 5) % 8;
      ring.RequestTransmit(frame, [&completed](TxStatus) { ++completed; });
    }
    sim.RunAll();
  };
  for (int i = 0; i < 100; ++i) {
    burst();
  }
  const uint64_t preemptions = ring.priority_preemptions();
  const uint64_t before = g_allocations;
  for (int i = 0; i < 1000; ++i) {
    burst();
  }
  const uint64_t allocations = g_allocations - before;
  EXPECT_EQ(completed, 1100u * 12);
  EXPECT_GT(ring.priority_preemptions(), preemptions);
  EXPECT_EQ(allocations, 0u) << "a warm ring transmit queue should keep its capacity";
}

TEST(AllocTest, ScenarioAAllocatesUnderTwoPerDeliveredPacket) {
  CtmsExperiment experiment(TestCaseA());
  Simulation& sim = experiment.sim();
  const Counter* delivered =
      sim.telemetry().metrics.GetCounter("driver.vca.rx.packets_accepted");
  experiment.Start();
  sim.RunUntil(Seconds(10));
  const uint64_t delivered_before = delivered->value();
  const uint64_t before = g_allocations;
  sim.RunUntil(Seconds(30));
  const uint64_t allocations = g_allocations - before;
  const uint64_t packets = delivered->value() - delivered_before;
  ASSERT_GT(packets, 1000u);
  EXPECT_LT(allocations, 2 * packets)
      << allocations << " allocations for " << packets << " delivered packets";
}

}  // namespace
}  // namespace ctms
