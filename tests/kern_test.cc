#include <gtest/gtest.h>

#include <vector>

#include "src/kern/ifqueue.h"
#include "src/kern/mbuf.h"
#include "src/kern/packet.h"
#include "src/kern/process.h"
#include "src/kern/unix_kernel.h"
#include "src/sim/simulation.h"

namespace ctms {
namespace {

// --- the wire boundary, exhaustively -------------------------------------------------------
//
// PR 9 shipped with three Packet fields silently dropped by hand-copied field lists in the
// drivers. StampFrame/PacketFromFrame are now the single wire boundary, and this test is
// the tripwire that keeps them exhaustive:
//
//   1. The static_asserts pin sizeof(Packet)/sizeof(Frame). Adding a field changes the
//      struct size and fails compilation HERE, pointing at the checklist: plumb the field
//      through StampFrame and/or PacketFromFrame, extend the sentinel round-trip below,
//      then update the pinned sizes.
//   2. Every field is round-tripped with a distinct nonzero sentinel, so a field that
//      compiles but is dropped by either copy direction still fails at runtime.
#if defined(__x86_64__)
static_assert(sizeof(Packet) == 88,
              "Packet changed size: plumb the new field through StampFrame / "
              "PacketFromFrame, extend WireBoundaryTest, then re-pin this size");
static_assert(sizeof(Frame) == 104,
              "Frame changed size: plumb the new field through StampFrame / "
              "PacketFromFrame, extend WireBoundaryTest, then re-pin this size");
#endif

TEST(WireBoundaryTest, StampAndRebuildRoundTripEveryField) {
  MbufPool pool;
  FrameArena arena;
  std::optional<MbufChain> chain = pool.Allocate(1234);
  ASSERT_TRUE(chain.has_value());

  Packet packet;
  packet.protocol = ProtocolId::kCtmsp;
  packet.bytes = 1234;
  packet.seq = 0x1A2B3C4Du;
  packet.src = 0x0102;
  packet.dst = 0x0304;
  packet.created_at = 987654321;
  packet.mbuf_segments = chain->segments();
  packet.ip_proto = kIpProtoUdp;
  packet.port = 0xBEEF;
  packet.is_ack = true;
  packet.ack_seq = 0x55AA55AAu;
  packet.journey = 0x1122334455667788ull;
  packet.media_class = 7;
  packet.ctmsp_kind = kCtmspKindParity;
  packet.fec_base = 0x0F0F0F0Fu;
  packet.fec_mask = 0xF0F0F0F0u;
  packet.payload = arena.Allocate(packet.bytes, packet.mbuf_segments, chain->Detach());
  const FrameHandle handle = packet.payload.handle();

  Frame frame;
  StampFrame(&frame, packet);
  // StampFrame deliberately leaves the driver/adapter/ring-owned fields alone.
  EXPECT_EQ(frame.kind, FrameKind::kLlc);
  EXPECT_EQ(frame.mac_type, MacFrameType::kNone);
  EXPECT_EQ(frame.src, 0);
  EXPECT_EQ(frame.priority, 0);
  EXPECT_EQ(frame.reservation, 0);
  frame.src = packet.src;  // what the driver stamps before handing the frame down

  Packet rebuilt = PacketFromFrame(frame);
  EXPECT_EQ(rebuilt.protocol, packet.protocol);
  EXPECT_EQ(rebuilt.bytes, packet.bytes);
  EXPECT_EQ(rebuilt.seq, packet.seq);
  EXPECT_EQ(rebuilt.src, packet.src);
  EXPECT_EQ(rebuilt.dst, packet.dst);
  EXPECT_EQ(rebuilt.created_at, packet.created_at);
  EXPECT_EQ(rebuilt.ip_proto, packet.ip_proto);
  EXPECT_EQ(rebuilt.port, packet.port);
  EXPECT_EQ(rebuilt.is_ack, packet.is_ack);
  EXPECT_EQ(rebuilt.ack_seq, packet.ack_seq);
  EXPECT_EQ(rebuilt.journey, packet.journey);
  EXPECT_EQ(rebuilt.media_class, packet.media_class);
  EXPECT_EQ(rebuilt.ctmsp_kind, packet.ctmsp_kind);
  EXPECT_EQ(rebuilt.fec_base, packet.fec_base);
  EXPECT_EQ(rebuilt.fec_mask, packet.fec_mask);
  // The chain shape is not carried on the wire; the receive side sees a fresh descriptor.
  EXPECT_EQ(rebuilt.mbuf_segments, 0);
  // The payload crossed by handle, not by copy: same slot, three live references now
  // (source packet, frame, rebuilt packet).
  EXPECT_EQ(rebuilt.payload.handle(), handle);
  EXPECT_EQ(arena.refcount(handle), 3u);
  EXPECT_EQ(rebuilt.payload.bytes(), packet.bytes);
}

TEST(MbufTest, SmallPayloadUsesSmallMbufs) {
  int mbufs = 0;
  int clusters = 0;
  MbufPool::ChainShape(100, &mbufs, &clusters);
  EXPECT_EQ(mbufs, 1);
  EXPECT_EQ(clusters, 0);
  MbufPool::ChainShape(200, &mbufs, &clusters);
  EXPECT_EQ(mbufs, 2);
  EXPECT_EQ(clusters, 0);
}

TEST(MbufTest, LargePayloadUsesClusters) {
  int mbufs = 0;
  int clusters = 0;
  MbufPool::ChainShape(2000, &mbufs, &clusters);
  EXPECT_EQ(clusters, 2);
  EXPECT_EQ(mbufs, 2);
}

TEST(MbufTest, ZeroBytePacketStillTakesAnMbuf) {
  int mbufs = 0;
  int clusters = 0;
  MbufPool::ChainShape(0, &mbufs, &clusters);
  EXPECT_EQ(mbufs, 1);
  EXPECT_EQ(clusters, 0);
}

TEST(MbufTest, AllocateAndRaiiRelease) {
  MbufPool pool(16, 4);
  {
    std::optional<MbufChain> chain = pool.Allocate(2000);
    ASSERT_TRUE(chain.has_value());
    EXPECT_EQ(chain->bytes(), 2000);
    EXPECT_EQ(pool.clusters_in_use(), 2);
    EXPECT_EQ(pool.mbufs_in_use(), 2);
  }
  EXPECT_EQ(pool.clusters_in_use(), 0);
  EXPECT_EQ(pool.mbufs_in_use(), 0);
}

TEST(MbufTest, MoveTransfersOwnership) {
  MbufPool pool(16, 4);
  std::optional<MbufChain> a = pool.Allocate(2000);
  MbufChain b = std::move(*a);
  a.reset();  // destroying the moved-from chain must not double-free
  EXPECT_EQ(pool.clusters_in_use(), 2);
  b.Release();
  EXPECT_EQ(pool.clusters_in_use(), 0);
}

TEST(MbufTest, ExhaustionFails) {
  MbufPool pool(4, 2);
  std::optional<MbufChain> first = pool.Allocate(2000);  // takes both clusters
  ASSERT_TRUE(first.has_value());
  std::optional<MbufChain> second = pool.Allocate(2000);
  EXPECT_FALSE(second.has_value());
  EXPECT_EQ(pool.stats().failures, 1u);
}

TEST(MbufTest, WaiterServedOnFree) {
  MbufPool pool(4, 2);
  std::optional<MbufChain> first = pool.Allocate(2000);
  bool served = false;
  pool.AllocateOrWait(2000, [&](MbufChain chain) {
    served = true;
    EXPECT_EQ(chain.bytes(), 2000);
  });
  EXPECT_FALSE(served);
  EXPECT_EQ(pool.waiter_count(), 1u);
  first.reset();  // free -> waiter gets the memory
  EXPECT_TRUE(served);
  EXPECT_EQ(pool.waiter_count(), 0u);
  EXPECT_EQ(pool.clusters_in_use(), 0);  // the waiter's chain was destroyed after delivery
}

TEST(MbufTest, WaitersAreFifoEvenWhenLaterFits) {
  MbufPool pool(8, 4);
  std::optional<MbufChain> hog = pool.Allocate(4000);  // all 4 clusters
  std::vector<int> order;
  pool.AllocateOrWait(4000, [&](MbufChain) { order.push_back(1); });
  pool.AllocateOrWait(100, [&](MbufChain) { order.push_back(2); });
  hog.reset();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(MbufTest, PeakTracking) {
  MbufPool pool(16, 8);
  std::optional<MbufChain> a = pool.Allocate(3000);
  EXPECT_EQ(pool.stats().peak_clusters_in_use, 3);
  a.reset();
  std::optional<MbufChain> b = pool.Allocate(1000);
  EXPECT_EQ(pool.stats().peak_clusters_in_use, 3);  // peak persists
  b.reset();
}

TEST(IfQueueTest, DropsWhenFull) {
  IfQueue queue("q", 2);
  Packet packet;
  EXPECT_TRUE(queue.Enqueue(packet));
  EXPECT_TRUE(queue.Enqueue(packet));
  EXPECT_FALSE(queue.Enqueue(packet));
  EXPECT_EQ(queue.drops(), 1u);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.peak_depth(), 2u);
}

TEST(IfQueueTest, FifoAndRequeue) {
  IfQueue queue("q", 10);
  for (uint32_t i = 1; i <= 3; ++i) {
    Packet packet;
    packet.seq = i;
    queue.Enqueue(packet);
  }
  std::optional<Packet> first = queue.Dequeue();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, 1u);
  queue.Requeue(*first);  // driver retry path: goes back to the head
  EXPECT_EQ(queue.Dequeue()->seq, 1u);
  EXPECT_EQ(queue.Dequeue()->seq, 2u);
  EXPECT_EQ(queue.Dequeue()->seq, 3u);
  EXPECT_FALSE(queue.Dequeue().has_value());
}

TEST(IfQueueTest, RequeueAtFullDropsWithFullAccounting) {
  // A driver retry must not grow the queue past maxlen: if fresh arrivals filled the slot
  // the retry vacated, the retried packet is dropped with the same accounting as a full
  // Enqueue.
  IfQueue queue("q", 2);
  Packet packet;
  packet.seq = 1;
  queue.Enqueue(packet);
  std::optional<Packet> retry = queue.Dequeue();
  ASSERT_TRUE(retry.has_value());
  packet.seq = 2;
  queue.Enqueue(packet);
  packet.seq = 3;
  queue.Enqueue(packet);  // queue back at maxlen
  EXPECT_FALSE(queue.Requeue(*retry));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.drops(), 1u);
  EXPECT_EQ(queue.requeues(), 0u);
  EXPECT_EQ(queue.Dequeue()->seq, 2u);  // FIFO of the survivors is undisturbed
  EXPECT_EQ(queue.Dequeue()->seq, 3u);
}

TEST(IfQueueTest, RequeueCountsAndTracksPeakDepth) {
  Simulation sim(1);
  Counter* requeues = sim.telemetry().metrics.GetCounter("test.ifq.requeues");
  Counter* drops = sim.telemetry().metrics.GetCounter("test.ifq.drops");
  IfQueue queue("q", 4);
  queue.BindTelemetry(nullptr, drops, requeues);
  Packet packet;
  queue.Enqueue(packet);
  queue.Enqueue(packet);
  EXPECT_EQ(queue.peak_depth(), 2u);
  std::optional<Packet> head = queue.Dequeue();
  queue.Enqueue(packet);
  queue.Enqueue(packet);  // depth 3 while the retry is in flight
  EXPECT_TRUE(queue.Requeue(*head));
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.peak_depth(), 4u);  // requeue contributes to the depth high-water mark
  EXPECT_EQ(queue.requeues(), 1u);
  EXPECT_EQ(requeues->value(), 1u);
  EXPECT_EQ(drops->value(), 0u);
}

class KernelFixture : public ::testing::Test {
 protected:
  KernelFixture() : sim_(1), machine_(&sim_, "m"), kernel_(&machine_) {
    machine_.cpu().set_dispatch_base(0);
    machine_.cpu().set_dispatch_jitter(0);
  }
  Simulation sim_;
  Machine machine_;
  UnixKernel kernel_;
};

TEST_F(KernelFixture, CopyStepsTotalIsExact) {
  // 2000 bytes at 1 us/byte must total exactly 2000 us across chunked steps.
  Cpu::Job job = machine_.cpu().NewJob("copy", Spl::kImp);
  kernel_.CopySteps(&job, 2000, MemoryKind::kSystemMemory, MemoryKind::kIoChannelMemory,
                    Spl::kImp);
  EXPECT_EQ(machine_.copies().cpu_copies(), 1u);
  machine_.cpu().SubmitProcess(std::move(job));
  sim_.RunAll();
  EXPECT_EQ(machine_.cpu().busy_time(), Microseconds(2000));
  EXPECT_EQ(sim_.telemetry().metrics.GetCounter("cpu.m.steps_executed")->value(),
            4u);  // 512-byte chunks
}

TEST_F(KernelFixture, CopyStepsOnDoneRunsOnce) {
  int done = 0;
  Cpu::Job job = machine_.cpu().NewJob("copy", Spl::kNet);
  kernel_.CopySteps(&job, 1000, MemoryKind::kSystemMemory, MemoryKind::kSystemMemory,
                    Spl::kNet, [&]() { ++done; });
  machine_.cpu().SubmitInterrupt(std::move(job));
  sim_.RunAll();
  EXPECT_EQ(done, 1);
}

TEST_F(KernelFixture, ZeroByteCopyStillRunsOnDone) {
  bool done = false;
  Cpu::Job job = machine_.cpu().NewJob("copy0", Spl::kNone);
  kernel_.CopySteps(&job, 0, MemoryKind::kSystemMemory, MemoryKind::kSystemMemory, Spl::kNone,
                    [&]() { done = true; });
  machine_.cpu().SubmitProcess(std::move(job));
  sim_.RunAll();
  EXPECT_TRUE(done);
}

TEST_F(KernelFixture, RelayForwardsAfterSyscallsAndCopies) {
  std::vector<SimTime> forwarded_at;
  RelayProcess relay(&kernel_, "relay", RelayProcess::Config{},
                     [&](const Packet&) { forwarded_at.push_back(sim_.Now()); });
  Packet packet;
  packet.bytes = 2000;
  relay.Deliver(packet);
  sim_.RunAll();
  ASSERT_EQ(forwarded_at.size(), 1u);
  // ctx switch 400 + 2 syscalls (150 each) + 2 copies of 2000B at 0.9us/B (1800 each).
  EXPECT_EQ(forwarded_at[0], Microseconds(400 + 150 + 1800 + 150 + 1800));
  EXPECT_EQ(relay.forwarded(), 1u);
}

TEST_F(KernelFixture, RelayBatchesQueuedPacketsWithoutReWakeup) {
  int forwarded = 0;
  RelayProcess relay(&kernel_, "relay", RelayProcess::Config{},
                     [&](const Packet&) { ++forwarded; });
  Packet packet;
  packet.bytes = 100;
  relay.Deliver(packet);
  relay.Deliver(packet);
  relay.Deliver(packet);
  sim_.RunAll();
  EXPECT_EQ(forwarded, 3);
  EXPECT_EQ(relay.delivered(), 3u);
}

TEST_F(KernelFixture, RelayDropsWhenReceiveBufferFull) {
  RelayProcess::Config config;
  config.rcv_buffer_bytes = 4000;
  int forwarded = 0;
  RelayProcess relay(&kernel_, "relay", config, [&](const Packet&) { ++forwarded; });
  Packet packet;
  packet.bytes = 2000;
  // Deliver 4 packets back-to-back with no CPU time in between: 2 fit, 2 drop.
  // (Deliver itself starts the relay, which dequeues the first packet immediately, so the
  // third enqueue still fits; the fourth does not.)
  relay.Deliver(packet);
  relay.Deliver(packet);
  relay.Deliver(packet);
  relay.Deliver(packet);
  EXPECT_GT(relay.dropped_rcvbuf(), 0u);
  sim_.RunAll();
  EXPECT_EQ(forwarded + static_cast<int>(relay.dropped_rcvbuf()), 4);
}

TEST_F(KernelFixture, CompetingProcessBurnsCpuPeriodically) {
  CompetingProcess::Config config;
  config.period = Milliseconds(40);
  config.burst = Milliseconds(6);
  CompetingProcess competitor(&kernel_, "burn", config);
  competitor.Start();
  sim_.RunUntil(Seconds(1));
  competitor.Stop();
  // ~15% CPU.
  EXPECT_NEAR(machine_.cpu().Utilization(), 0.15, 0.02);
}

}  // namespace
}  // namespace ctms
