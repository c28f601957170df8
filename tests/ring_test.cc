#include <gtest/gtest.h>

#include <vector>

#include "src/hw/machine.h"
#include "src/ring/adapter.h"
#include "src/ring/frame.h"
#include "src/ring/token_ring.h"
#include "src/sim/simulation.h"

namespace ctms {
namespace {

Frame MakeLlcFrame(RingAddress src, RingAddress dst, int64_t bytes, int priority = 0,
                   uint32_t seq = 0) {
  Frame frame;
  frame.kind = FrameKind::kLlc;
  frame.src = src;
  frame.dst = dst;
  frame.payload_bytes = bytes;
  frame.priority = priority;
  frame.seq = seq;
  frame.protocol = ProtocolId::kCtmsp;
  return frame;
}

TEST(FrameTest, WireBytesAddsOverhead) {
  Frame frame = MakeLlcFrame(1, 2, 2000);
  EXPECT_EQ(WireBytes(frame), 2000 + kFrameOverheadBytes);
  Frame mac;
  mac.kind = FrameKind::kMac;
  EXPECT_EQ(WireBytes(mac), kMacFrameBytes);
}

TEST(FrameTest, DescribeNamesProtocolAndMacType) {
  Frame frame = MakeLlcFrame(1, 2, 100, 6, 42);
  EXPECT_NE(frame.Describe().find("ctmsp"), std::string::npos);
  Frame mac;
  mac.kind = FrameKind::kMac;
  mac.mac_type = MacFrameType::kRingPurge;
  EXPECT_NE(mac.Describe().find("ring-purge"), std::string::npos);
}

TEST(TokenRingTest, WireTimeMatchesFourMegabits) {
  Simulation sim(1);
  TokenRing ring(&sim);
  // 4 Mbit/s -> 2 us per byte; a 2021-byte frame occupies the wire for 4042 us.
  EXPECT_EQ(ring.WireTime(1), Microseconds(2));
  EXPECT_EQ(ring.WireTime(2021), Microseconds(4042));
}

TEST(TokenRingTest, TransmitDeliversAfterTokenPlusWireTime) {
  Simulation sim(1);
  TokenRing ring(&sim);
  SimTime done = -1;
  TxStatus status = TxStatus::kPurgeHit;
  ring.RequestTransmit(MakeLlcFrame(1, 99, 1000), [&](TxStatus s) {
    done = sim.Now();
    status = s;
  });
  sim.RunAll();
  EXPECT_EQ(done, ring.TokenAcquisitionTime() + ring.WireTime(1000 + kFrameOverheadBytes));
  EXPECT_TRUE(Delivered(status));
  EXPECT_EQ(ring.frames_carried(), 1u);
}

TEST(TokenRingTest, OneFrameOnWireAtATime) {
  Simulation sim(1);
  TokenRing ring(&sim);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    ring.RequestTransmit(MakeLlcFrame(1, 99, 1000),
                         [&](TxStatus) { done.push_back(sim.Now()); });
  }
  sim.RunAll();
  ASSERT_EQ(done.size(), 3u);
  const SimDuration service = ring.TokenAcquisitionTime() + ring.WireTime(1021);
  EXPECT_EQ(done[0], service);
  EXPECT_EQ(done[1], 2 * service);
  EXPECT_EQ(done[2], 3 * service);
}

TEST(TokenRingTest, HigherPriorityPassesQueuedFrames) {
  Simulation sim(1);
  TokenRing ring(&sim);
  std::vector<uint32_t> completion_order;
  // Three low-priority frames queued, then a priority-6 frame: it must go second (it cannot
  // preempt the wire, but passes the other queued frames).
  for (uint32_t i = 1; i <= 3; ++i) {
    ring.RequestTransmit(MakeLlcFrame(1, 99, 1000, 0, i),
                         [&, i](TxStatus) { completion_order.push_back(i); });
  }
  ring.RequestTransmit(MakeLlcFrame(2, 99, 1000, 6, 100),
                       [&](TxStatus) { completion_order.push_back(100); });
  sim.RunAll();
  EXPECT_EQ(completion_order, (std::vector<uint32_t>{1, 100, 2, 3}));
}

TEST(TokenRingTest, SamePriorityIsFifo) {
  Simulation sim(1);
  TokenRing ring(&sim);
  std::vector<uint32_t> order;
  for (uint32_t i = 1; i <= 4; ++i) {
    ring.RequestTransmit(MakeLlcFrame(1, 99, 100, 3, i),
                         [&, i](TxStatus) { order.push_back(i); });
  }
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 2, 3, 4}));
}

TEST(TokenRingTest, PurgeDestroysInFlightFrame) {
  Simulation sim(1);
  TokenRing ring(&sim);
  TxStatus status = TxStatus::kDelivered;
  bool completed = false;
  ring.RequestTransmit(MakeLlcFrame(1, 99, 2000), [&](TxStatus s) {
    status = s;
    completed = true;
  });
  sim.After(Microseconds(100), [&]() { ring.TriggerRingPurge(); });
  sim.RunAll();
  EXPECT_TRUE(completed);
  EXPECT_FALSE(Delivered(status));
  EXPECT_EQ(status, TxStatus::kPurgeHit);
  EXPECT_EQ(ring.frames_lost_to_purge(), 1u);
  EXPECT_EQ(ring.purge_count(), 1u);
}

TEST(TokenRingTest, PurgeWithEmptyWireLosesNothing) {
  Simulation sim(1);
  TokenRing ring(&sim);
  ring.TriggerRingPurge();
  sim.RunAll();
  EXPECT_EQ(ring.frames_lost_to_purge(), 0u);
  EXPECT_EQ(ring.purge_count(), 1u);
}

TEST(TokenRingTest, PurgeBlocksRingBriefly) {
  Simulation sim(1);
  TokenRing ring(&sim);
  ring.TriggerRingPurge();
  SimTime done = -1;
  ring.RequestTransmit(MakeLlcFrame(1, 99, 100), [&](TxStatus) { done = sim.Now(); });
  sim.RunAll();
  EXPECT_GE(done, ring.config().purge_recovery);
}

TEST(TokenRingTest, InsertionCausesPurgeBurstAndLongBlock) {
  Simulation sim(1);
  TokenRing ring(&sim);
  const size_t stations_before = ring.station_count();
  ring.TriggerStationInsertion();
  SimTime done = -1;
  ring.RequestTransmit(MakeLlcFrame(1, 99, 100), [&](TxStatus) { done = sim.Now(); });
  sim.RunAll();
  EXPECT_GE(ring.purge_count(), 8u);
  EXPECT_LE(ring.purge_count(), 12u);
  // The reset holds the ring for 100-120 ms — the paper's 120-130 ms exceptional points
  // once queueing and packet latency are added.
  EXPECT_GE(done, Milliseconds(100));
  EXPECT_LE(done, Milliseconds(121));
  EXPECT_EQ(ring.station_count(), stations_before + 1);
  EXPECT_EQ(ring.insertion_count(), 1u);
}

TEST(TokenRingTest, MonitorsSeeFramesAndPurges) {
  Simulation sim(1);
  TokenRing ring(&sim);
  int frames_seen = 0;
  int purges_seen = 0;
  ring.AddFrameMonitor([&](const Frame&, SimTime) { ++frames_seen; });
  ring.AddPurgeMonitor([&](SimTime) { ++purges_seen; });
  ring.RequestTransmit(MakeLlcFrame(1, 99, 100), nullptr);
  sim.RunAll();
  ring.TriggerRingPurge();
  sim.RunAll();
  EXPECT_EQ(frames_seen, 2);  // the LLC frame + the purge MAC frame
  EXPECT_EQ(purges_seen, 1);
}

TEST(TokenRingTest, UtilizationTracksWireOccupancy) {
  Simulation sim(1);
  TokenRing ring(&sim);
  ring.RequestTransmit(MakeLlcFrame(1, 99, 1000), nullptr);
  sim.RunUntil(Milliseconds(10));
  const double util = ring.Utilization();
  EXPECT_GT(util, 0.15);
  EXPECT_LT(util, 0.3);
}

class AdapterTest : public ::testing::Test {
 protected:
  AdapterTest()
      : sim_(1),
        ring_(&sim_),
        tx_machine_(&sim_, "tx"),
        rx_machine_(&sim_, "rx"),
        tx_adapter_(&tx_machine_, &ring_, TokenRingAdapter::Config{}),
        rx_adapter_(&rx_machine_, &ring_, TokenRingAdapter::Config{}) {}

  Simulation sim_;
  TokenRing ring_;
  Machine tx_machine_;
  Machine rx_machine_;
  TokenRingAdapter tx_adapter_;
  TokenRingAdapter rx_adapter_;
};

TEST_F(AdapterTest, AddressesAssignedSequentially) {
  EXPECT_EQ(tx_adapter_.address(), 1);
  EXPECT_EQ(rx_adapter_.address(), 2);
  EXPECT_EQ(ring_.station_count(), 2u);
}

TEST_F(AdapterTest, EndToEndTransmitDeliversToReceiver) {
  std::vector<Frame> received;
  rx_adapter_.SetReceiveHandler([&](const Frame& frame) { received.push_back(frame); });
  bool tx_ok = false;
  ASSERT_TRUE(tx_adapter_.IssueTransmit(MakeLlcFrame(0, rx_adapter_.address(), 2000, 0, 7),
                                        [&](TxStatus status) { tx_ok = Delivered(status); }));
  sim_.RunAll();
  EXPECT_TRUE(tx_ok);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].seq, 7u);
  EXPECT_EQ(received[0].src, tx_adapter_.address());
  EXPECT_EQ(tx_adapter_.frames_transmitted(), 1u);
  EXPECT_EQ(rx_adapter_.frames_received(), 1u);
}

TEST_F(AdapterTest, EndToEndLatencyIncludesBothDmas) {
  SimTime rx_at = -1;
  rx_adapter_.SetReceiveHandler([&](const Frame&) { rx_at = sim_.Now(); });
  tx_adapter_.IssueTransmit(MakeLlcFrame(0, rx_adapter_.address(), 2000), nullptr);
  sim_.RunAll();
  const SimDuration dma = tx_adapter_.tx_dma().TransferTime(2000);
  const SimDuration wire = ring_.TokenAcquisitionTime() + ring_.WireTime(2021);
  // rx side adds DMA plus up to 250 us of card-firmware jitter.
  EXPECT_GE(rx_at, dma + wire + dma);
  EXPECT_LE(rx_at, dma + wire + dma + Microseconds(250));
}

TEST_F(AdapterTest, RejectsSecondTransmitWhileBusy) {
  EXPECT_TRUE(tx_adapter_.IssueTransmit(MakeLlcFrame(0, 2, 100), nullptr));
  EXPECT_TRUE(tx_adapter_.tx_busy());
  EXPECT_FALSE(tx_adapter_.IssueTransmit(MakeLlcFrame(0, 2, 100), nullptr));
  sim_.RunAll();
  EXPECT_FALSE(tx_adapter_.tx_busy());
  EXPECT_TRUE(tx_adapter_.IssueTransmit(MakeLlcFrame(0, 2, 100), nullptr));
  sim_.RunAll();
}

TEST_F(AdapterTest, RxHeldUntilHostBufferReleased) {
  std::vector<Frame> received;
  rx_adapter_.SetReceiveHandler([&](const Frame& frame) { received.push_back(frame); });
  // Consume both host rx buffers without releasing.
  for (int i = 0; i < 2; ++i) {
    tx_adapter_.IssueTransmit(MakeLlcFrame(0, rx_adapter_.address(), 100), nullptr);
    sim_.RunAll();
  }
  EXPECT_EQ(received.size(), 2u);
  EXPECT_EQ(rx_adapter_.free_host_rx_buffers(), 0);
  // A third frame parks on the card until a buffer frees up.
  tx_adapter_.IssueTransmit(MakeLlcFrame(0, rx_adapter_.address(), 100), nullptr);
  sim_.RunAll();
  EXPECT_EQ(received.size(), 2u);
  rx_adapter_.ReleaseRxBuffer();
  sim_.RunAll();
  EXPECT_EQ(received.size(), 3u);
}

TEST_F(AdapterTest, OnboardOverflowDropsFrames) {
  // No releases: 2 host buffers fill, then 8 onboard slots, then drops.
  int received = 0;
  rx_adapter_.SetReceiveHandler([&](const Frame&) { ++received; });
  for (int i = 0; i < 14; ++i) {
    tx_adapter_.IssueTransmit(MakeLlcFrame(0, rx_adapter_.address(), 100), nullptr);
    sim_.RunAll();
  }
  EXPECT_EQ(received, 2);
  EXPECT_GT(rx_adapter_.rx_overruns(), 0u);
}


TEST_F(AdapterTest, BroadcastLlcReachesEveryOtherStation) {
  int tx_saw = 0;
  int rx_saw = 0;
  tx_adapter_.SetReceiveHandler([&](const Frame&) { ++tx_saw; });
  rx_adapter_.SetReceiveHandler([&](const Frame&) { ++rx_saw; });
  Frame frame = MakeLlcFrame(0, kBroadcastAddress, 200);
  frame.protocol = ProtocolId::kArp;
  tx_adapter_.IssueTransmit(std::move(frame), nullptr);
  sim_.RunAll();
  EXPECT_EQ(tx_saw, 0);  // a station does not receive its own broadcast
  EXPECT_EQ(rx_saw, 1);
}

TEST_F(AdapterTest, DetachedStationReceivesNothing) {
  int rx_saw = 0;
  rx_adapter_.SetReceiveHandler([&](const Frame&) { ++rx_saw; });
  const RingAddress dst = rx_adapter_.address();
  ring_.Detach(dst);
  tx_adapter_.IssueTransmit(MakeLlcFrame(0, dst, 200), nullptr);
  sim_.RunAll();
  EXPECT_EQ(rx_saw, 0);
  EXPECT_EQ(ring_.frames_carried(), 1u);  // the wire carried it; nobody copied it
}

TEST_F(AdapterTest, MacFramesInvisibleByDefault) {
  int mac_seen = 0;
  rx_adapter_.SetMacFrameHandler([&](const Frame&) { ++mac_seen; });
  ring_.TriggerRingPurge();
  sim_.RunAll();
  EXPECT_EQ(mac_seen, 0);
  EXPECT_EQ(rx_adapter_.mac_frames_seen(), 1u);  // counted by the card, not the host
}

TEST_F(AdapterTest, MacReceiveModeDeliversMacFrames) {
  int mac_seen = 0;
  rx_adapter_.set_receive_mac_frames(true);
  rx_adapter_.SetMacFrameHandler([&](const Frame& frame) {
    if (frame.mac_type == MacFrameType::kRingPurge) {
      ++mac_seen;
    }
  });
  ring_.TriggerRingPurge();
  sim_.RunAll();
  EXPECT_EQ(mac_seen, 1);
}

// Each adapter draws its receive jitter from its own stream, forked at construction, so an
// extra frame to one adapter shifts no draw of another.
TEST(AdapterStreamTest, ExtraFrameToOneAdapterLeavesAnotherAdaptersJitterAlone) {
  const auto receive_times_of_b = [](bool extra) {
    Simulation sim(7);
    TokenRing ring(&sim);
    Machine ma(&sim, "a");
    Machine mb(&sim, "b");
    TokenRingAdapter a(&ma, &ring, TokenRingAdapter::Config{});
    TokenRingAdapter b(&mb, &ring, TokenRingAdapter::Config{});
    std::vector<SimTime> received;
    a.SetReceiveHandler([&a](const Frame&) { a.ReleaseRxBuffer(); });
    b.SetReceiveHandler([&](const Frame&) {
      received.push_back(sim.Now());
      b.ReleaseRxBuffer();
    });
    for (int i = 0; i < 10; ++i) {
      sim.At(Milliseconds(5) * i, [&b, i]() {
        b.OnFrameOnWire(MakeLlcFrame(9, b.address(), 1000, 0, static_cast<uint32_t>(i)));
      });
    }
    if (extra) {
      sim.At(Milliseconds(1),
             [&a]() { a.OnFrameOnWire(MakeLlcFrame(9, a.address(), 1000)); });
    }
    sim.RunUntil(Milliseconds(100));
    return received;
  };
  const std::vector<SimTime> alone = receive_times_of_b(false);
  ASSERT_EQ(alone.size(), 10u);
  EXPECT_EQ(receive_times_of_b(true), alone);
}

}  // namespace
}  // namespace ctms
