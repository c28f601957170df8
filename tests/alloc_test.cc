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
#include "src/sim/simulation.h"

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
  // Each tick is an idle tail: one action-free step, no on_done, nothing else on the CPU, so
  // no event stands for its end. The next tick's NewJob runs after that end and must finish
  // the tail before it takes a record; otherwise the tick takes a second one. A first
  // machine ticks for 10 s so the event slab and every timer-wheel bucket are warm, then a
  // second machine's CPU takes over the ticking and must allocate nothing after its first
  // tick.
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
