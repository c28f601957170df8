#include <gtest/gtest.h>

#include <vector>

#include "src/hw/machine.h"
#include "src/kern/unix_kernel.h"
#include "src/proto/arp.h"
#include "src/proto/ctmsp.h"
#include "src/proto/ip.h"
#include "src/proto/netif.h"
#include "src/proto/tcp_lite.h"
#include "src/proto/udp.h"
#include "src/sim/simulation.h"
#include "tests/cpu_time.h"

namespace ctms {
namespace {

// A NetIf that captures outputs and can loop packets back into a peer stack.
class FakeNetIf : public NetIf {
 public:
  explicit FakeNetIf(RingAddress address) : address_(address) {}

  RingAddress address() const override { return address_; }
  bool Output(const Packet& packet) override {
    outputs.push_back(packet);
    if (forward) {
      forward(packet);
    }
    return !fail_next || (fail_next = false);
  }

  std::vector<Packet> outputs;
  std::function<void(const Packet&)> forward;
  bool fail_next = false;

 private:
  RingAddress address_;
};

class ProtoFixture : public ::testing::Test {
 protected:
  ProtoFixture()
      : sim_(1),
        machine_(&sim_, "m"),
        kernel_(&machine_),
        netif_(7),
        arp_(&kernel_, &netif_),
        ip_(&kernel_, &netif_, &arp_),
        udp_(&kernel_, &ip_) {
    machine_.cpu().set_dispatch_base(0);
    machine_.cpu().set_dispatch_jitter(0);
  }

  Simulation sim_;
  Machine machine_;
  UnixKernel kernel_;
  FakeNetIf netif_;
  ArpLayer arp_;
  IpLayer ip_;
  UdpLayer udp_;
};

TEST_F(ProtoFixture, ArpStaticEntryResolvesImmediately) {
  arp_.InstallStatic(9);
  bool resolved = false;
  arp_.Resolve(9, [&](bool ok) { resolved = ok; });
  EXPECT_TRUE(resolved);
  EXPECT_TRUE(netif_.outputs.empty());
}

TEST_F(ProtoFixture, ArpMissSendsBroadcastRequest) {
  bool result = false;
  bool called = false;
  arp_.Resolve(9, [&](bool ok) {
    called = true;
    result = ok;
  });
  EXPECT_FALSE(called);
  ASSERT_EQ(netif_.outputs.size(), 1u);
  EXPECT_EQ(netif_.outputs[0].protocol, ProtocolId::kArp);
  EXPECT_EQ(netif_.outputs[0].dst, kBroadcastAddress);
  // A reply arrives.
  Packet reply;
  reply.protocol = ProtocolId::kArp;
  reply.seq = 2;  // reply marker
  reply.src = 9;
  arp_.Input(reply);
  sim_.RunAll();
  EXPECT_TRUE(called);
  EXPECT_TRUE(result);
  EXPECT_TRUE(arp_.IsCached(9));
}

TEST_F(ProtoFixture, ArpCoalescesConcurrentResolves) {
  int called = 0;
  arp_.Resolve(9, [&](bool) { ++called; });
  arp_.Resolve(9, [&](bool) { ++called; });
  EXPECT_EQ(netif_.outputs.size(), 1u);  // one request on the wire
  Packet reply;
  reply.protocol = ProtocolId::kArp;
  reply.seq = 2;
  reply.src = 9;
  arp_.Input(reply);
  sim_.RunAll();
  EXPECT_EQ(called, 2);
}

TEST_F(ProtoFixture, ArpRetriesThenFails) {
  bool result = true;
  bool called = false;
  arp_.Resolve(9, [&](bool ok) {
    called = true;
    result = ok;
  });
  sim_.RunUntil(Seconds(10));
  EXPECT_TRUE(called);
  EXPECT_FALSE(result);
  EXPECT_EQ(arp_.failures(), 1u);
  EXPECT_EQ(netif_.outputs.size(), 3u);  // initial + retries
}

TEST_F(ProtoFixture, ArpRespondsToRequestForOurAddress) {
  Packet request;
  request.protocol = ProtocolId::kArp;
  request.seq = 1;  // request marker
  request.src = 3;
  request.port = 7;  // who-has our address
  arp_.Input(request);
  sim_.RunAll();
  ASSERT_EQ(netif_.outputs.size(), 1u);
  EXPECT_EQ(netif_.outputs[0].dst, 3);
  EXPECT_EQ(arp_.replies_sent(), 1u);
  EXPECT_TRUE(arp_.IsCached(3));  // learned the requester
}

TEST_F(ProtoFixture, ArpIgnoresRequestForOtherAddress) {
  Packet request;
  request.protocol = ProtocolId::kArp;
  request.seq = 1;
  request.src = 3;
  request.port = 55;
  arp_.Input(request);
  sim_.RunAll();
  EXPECT_TRUE(netif_.outputs.empty());
}

TEST_F(ProtoFixture, IpOutputChargesHeaderRecomputePerPacket) {
  sim_.telemetry().tracer.set_enabled(true);  // per-job CPU time comes from step spans
  arp_.InstallStatic(9);
  Packet packet;
  packet.bytes = 2000;
  packet.dst = 9;
  ip_.Output(packet);
  ip_.Output(packet);
  sim_.RunAll();
  EXPECT_EQ(netif_.outputs.size(), 2u);
  // Both output cost and the per-packet Token Ring header recompute were charged.
  const SimDuration per_packet =
      IpLayer::Config{}.output_cost + IpLayer::Config{}.header_recompute;
  EXPECT_EQ(CpuTimeByJob(sim_.telemetry().tracer, "cpu.m").at("ip-output"), 2 * per_packet);
  EXPECT_EQ(ip_.packets_out(), 2u);
}

TEST_F(ProtoFixture, IpInputDemuxesByProtocol) {
  int udp_in = 0;
  // UdpLayer registered itself for protocol 17 at construction; check unknown drops too.
  udp_.Bind(5, [&](const Packet&) { ++udp_in; });
  Packet packet;
  packet.ip_proto = kIpProtoUdp;
  packet.port = 5;
  ip_.Input(packet);
  Packet unknown;
  unknown.ip_proto = 99;
  ip_.Input(unknown);
  sim_.RunAll();
  EXPECT_EQ(udp_in, 1);
  EXPECT_EQ(ip_.no_proto_drops(), 1u);
}

TEST_F(ProtoFixture, UdpPortDemux) {
  int a = 0;
  int b = 0;
  udp_.Bind(5, [&](const Packet&) { ++a; });
  udp_.Bind(6, [&](const Packet&) { ++b; });
  Packet packet;
  packet.ip_proto = kIpProtoUdp;
  packet.port = 6;
  ip_.Input(packet);
  Packet no_listener;
  no_listener.ip_proto = kIpProtoUdp;
  no_listener.port = 7;
  ip_.Input(no_listener);
  sim_.RunAll();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(udp_.no_port_drops(), 1u);
}

TEST_F(ProtoFixture, UdpOutputReachesNetIfWithIpFraming) {
  arp_.InstallStatic(9);
  Packet packet;
  packet.bytes = 500;
  packet.dst = 9;
  packet.port = 5;
  udp_.Output(packet);
  sim_.RunAll();
  ASSERT_EQ(netif_.outputs.size(), 1u);
  EXPECT_EQ(netif_.outputs[0].protocol, ProtocolId::kIp);
  EXPECT_EQ(netif_.outputs[0].ip_proto, kIpProtoUdp);
  EXPECT_EQ(netif_.outputs[0].src, 7);
}

TEST_F(ProtoFixture, IpDropsWhenArpFails) {
  Packet packet;
  packet.bytes = 500;
  packet.dst = 42;  // nobody will ever answer
  ip_.Output(packet);
  sim_.RunUntil(Seconds(10));  // past all ARP retries
  EXPECT_EQ(ip_.no_route_drops(), 1u);
  // Only ARP requests went out; the data packet never did.
  for (const Packet& out : netif_.outputs) {
    EXPECT_EQ(out.protocol, ProtocolId::kArp);
  }
}

// Two machines with TCP-lite endpoints, wired through each other's IP input paths.
class TcpFixture : public ::testing::Test {
 protected:
  TcpFixture()
      : sim_(1),
        m1_(&sim_, "m1"),
        m2_(&sim_, "m2"),
        k1_(&m1_),
        k2_(&m2_),
        n1_(1),
        n2_(2),
        arp1_(&k1_, &n1_),
        arp2_(&k2_, &n2_),
        ip1_(&k1_, &n1_, &arp1_),
        ip2_(&k2_, &n2_, &arp2_),
        tcp1_(&k1_, &ip1_),
        tcp2_(&k2_, &ip2_) {
    arp1_.InstallStatic(2);
    arp2_.InstallStatic(1);
    // Loop the fake interfaces into the peer's IP input.
    n1_.forward = [this](const Packet& packet) {
      if (!drop_data || packet.is_ack) {
        ip2_.Input(packet);
      } else {
        ++dropped;
        drop_data = false;  // drop exactly one data segment
      }
    };
    n2_.forward = [this](const Packet& packet) { ip1_.Input(packet); };
    TcpLiteEndpoint::Config c1;
    c1.local_port = 80;
    c1.remote_port = 80;
    c1.remote = 2;
    e1_ = tcp1_.CreateEndpoint(c1);
    TcpLiteEndpoint::Config c2 = c1;
    c2.remote = 1;
    e2_ = tcp2_.CreateEndpoint(c2);
  }

  Simulation sim_;
  Machine m1_, m2_;
  UnixKernel k1_, k2_;
  FakeNetIf n1_, n2_;
  ArpLayer arp1_, arp2_;
  IpLayer ip1_, ip2_;
  TcpLite tcp1_, tcp2_;
  TcpLiteEndpoint* e1_ = nullptr;
  TcpLiteEndpoint* e2_ = nullptr;
  bool drop_data = false;
  int dropped = 0;
};

TEST_F(TcpFixture, DeliversInOrderAndAcks) {
  std::vector<uint32_t> delivered;
  e2_->SetDeliver([&](const Packet& packet) { delivered.push_back(packet.seq); });
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(e1_->Send(1000));
  }
  sim_.RunUntil(Seconds(2));
  EXPECT_EQ(delivered, (std::vector<uint32_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(e1_->retransmits(), 0u);
  EXPECT_GE(e2_->acks_sent(), 10u);
  EXPECT_EQ(e1_->unacked(), 0u);
}

TEST_F(TcpFixture, WindowLimitsInFlight) {
  // With acks never coming back (peer drops everything), only `window` segments transmit.
  n1_.forward = nullptr;
  for (int i = 0; i < 10; ++i) {
    e1_->Send(500);
  }
  sim_.RunUntil(Milliseconds(100));
  EXPECT_EQ(e1_->unacked(), 4u);  // default window
}

TEST_F(TcpFixture, AckGeneratesReturnTraffic) {
  // The paper's complaint: reliability via acks means extra frames on the network.
  e2_->SetDeliver([](const Packet&) {});
  for (int i = 0; i < 5; ++i) {
    e1_->Send(1000);
  }
  sim_.RunUntil(Seconds(1));
  // n2's outputs are all acks.
  EXPECT_GE(n2_.outputs.size(), 5u);
  for (const Packet& packet : n2_.outputs) {
    EXPECT_TRUE(packet.is_ack);
  }
}

TEST_F(TcpFixture, LostSegmentIsRetransmittedAndDeliveredInOrder) {
  std::vector<uint32_t> delivered;
  e2_->SetDeliver([&](const Packet& packet) { delivered.push_back(packet.seq); });
  drop_data = true;  // first data segment dies
  for (int i = 0; i < 5; ++i) {
    e1_->Send(1000);
  }
  sim_.RunUntil(Seconds(5));
  EXPECT_EQ(dropped, 1);
  EXPECT_GE(e1_->retransmits(), 1u);
  EXPECT_EQ(delivered, (std::vector<uint32_t>{1, 2, 3, 4, 5}));
}

TEST_F(TcpFixture, SendQueueOverflowReported) {
  n1_.forward = nullptr;  // nothing acks
  int accepted = 0;
  for (int i = 0; i < 40; ++i) {
    if (e1_->Send(100)) {
      ++accepted;
    }
  }
  EXPECT_LT(accepted, 40);
  EXPECT_GT(e1_->send_queue_drops(), 0u);
}

TEST_F(TcpFixture, ConnectionFailsAfterMaxRetransmits) {
  n1_.forward = nullptr;  // peer unreachable: data never arrives, acks never come
  e1_->Send(1000);
  sim_.RunUntil(Seconds(60));
  EXPECT_TRUE(e1_->failed());
  EXPECT_GE(e1_->retransmits(), 8u);
  // Once failed, sends are refused.
  EXPECT_FALSE(e1_->Send(1000));
}

TEST_F(TcpFixture, RandomLossStillDeliversInOrder) {
  // Drop ~20% of data segments pseudo-randomly; cumulative acks + go-back-N must still
  // deliver every byte in order.
  Rng drop_rng(1234);
  n1_.forward = [this, &drop_rng](const Packet& packet) {
    if (!packet.is_ack && drop_rng.Chance(0.2)) {
      ++dropped;
      return;
    }
    ip2_.Input(packet);
  };
  std::vector<uint32_t> delivered;
  e2_->SetDeliver([&](const Packet& packet) { delivered.push_back(packet.seq); });
  uint32_t accepted = 0;
  for (int i = 0; i < 30; ++i) {
    if (e1_->Send(500)) {
      ++accepted;  // the send queue may refuse during a retransmission stall
    }
    sim_.RunFor(Milliseconds(40));
  }
  sim_.RunUntil(sim_.Now() + Seconds(60));
  EXPECT_GT(dropped, 0);
  EXPECT_GT(accepted, 20u);
  ASSERT_EQ(delivered.size(), accepted);
  for (uint32_t i = 0; i < accepted; ++i) {
    EXPECT_EQ(delivered[i], i + 1);  // every accepted byte stream arrives exactly in order
  }
  EXPECT_GE(e1_->retransmits(), static_cast<uint64_t>(dropped));
}

TEST(CtmspTest, ReceiverNeverDoubleCountsUnderRandomStreams) {
  // Property: delivered + duplicates + out_of_order equals packets observed, and delivered
  // packets are exactly the distinct new high-water marks.
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    CtmspReceiver receiver(CtmspConnectionConfig{});
    uint64_t observed = 0;
    uint32_t next = 1;
    uint32_t last_sent = 0;
    for (int i = 0; i < 500; ++i) {
      uint32_t seq;
      if (last_sent > 0 && rng.Chance(0.1)) {
        seq = static_cast<uint32_t>(rng.UniformInt(1, last_sent));  // dup or regression
      } else {
        if (rng.Chance(0.05)) {
          next += static_cast<uint32_t>(rng.UniformInt(1, 3));  // losses create gaps
        }
        seq = next++;
        last_sent = seq;
      }
      receiver.OnPacket(seq);
      ++observed;
    }
    EXPECT_EQ(receiver.delivered() + receiver.duplicates() + receiver.out_of_order(),
              observed);
    EXPECT_LE(receiver.delivered() + receiver.lost(),
              static_cast<uint64_t>(next) + receiver.late_recovered());
  }
}

TEST(CtmspTest, ReceiverDeliversInOrder) {
  CtmspReceiver receiver(CtmspConnectionConfig{});
  EXPECT_EQ(receiver.OnPacket(1), CtmspReceiver::Verdict::kDeliver);
  EXPECT_EQ(receiver.OnPacket(2), CtmspReceiver::Verdict::kDeliver);
  EXPECT_EQ(receiver.delivered(), 2u);
  EXPECT_EQ(receiver.lost(), 0u);
}

TEST(CtmspTest, ReceiverCountsGapAsLost) {
  CtmspReceiver receiver(CtmspConnectionConfig{});
  receiver.OnPacket(1);
  receiver.OnPacket(4);  // 2 and 3 died (e.g. to a Ring Purge)
  EXPECT_EQ(receiver.lost(), 2u);
  EXPECT_EQ(receiver.delivered(), 2u);
}

TEST(CtmspTest, ReceiverSuppressesDuplicate) {
  CtmspReceiver receiver(CtmspConnectionConfig{});
  receiver.OnPacket(1);
  EXPECT_EQ(receiver.OnPacket(1), CtmspReceiver::Verdict::kDuplicate);
  EXPECT_EQ(receiver.duplicates(), 1u);
  EXPECT_EQ(receiver.delivered(), 1u);
}

TEST(CtmspTest, LateGapFillIsDeliveredAndUncountsTheLoss) {
  CtmspReceiver receiver(CtmspConnectionConfig{});
  receiver.OnPacket(1);
  receiver.OnPacket(5);  // 2,3,4 written off as lost
  EXPECT_EQ(receiver.lost(), 3u);
  EXPECT_EQ(receiver.OnPacket(3), CtmspReceiver::Verdict::kDeliver);
  EXPECT_EQ(receiver.lost(), 2u);
  EXPECT_EQ(receiver.late_recovered(), 1u);
  // But only once: the same late packet again is a duplicate.
  EXPECT_EQ(receiver.OnPacket(3), CtmspReceiver::Verdict::kDuplicate);
}

TEST(CtmspTest, AncientPacketIsOutOfOrder) {
  CtmspReceiver receiver(CtmspConnectionConfig{});
  receiver.OnPacket(1);
  receiver.OnPacket(200);  // far beyond the tracking window
  EXPECT_EQ(receiver.OnPacket(2), CtmspReceiver::Verdict::kOutOfOrder);
  EXPECT_EQ(receiver.out_of_order(), 1u);
}

TEST(CtmspTest, StaleRetransmissionOfDeliveredPacketIsDuplicate) {
  // The paper's scenario: the transmitter "incorrectly retransmits" after a purge that hit
  // nothing; the packet was already delivered and must be ignored.
  CtmspReceiver receiver(CtmspConnectionConfig{});
  for (uint32_t seq = 1; seq <= 10; ++seq) {
    receiver.OnPacket(seq);
  }
  EXPECT_EQ(receiver.OnPacket(9), CtmspReceiver::Verdict::kDuplicate);
  EXPECT_EQ(receiver.duplicates(), 1u);
  EXPECT_EQ(receiver.out_of_order(), 0u);
}

TEST(CtmspTest, TransmitterSequencesFromOne) {
  CtmspTransmitter tx(CtmspConnectionConfig{});
  EXPECT_EQ(tx.NextSeq(), 1u);
  EXPECT_EQ(tx.NextSeq(), 2u);
  EXPECT_EQ(tx.packets_built(), 2u);
}

TEST_F(TcpFixture, ReorderBufferIsBoundedAndDropsAreCounted) {
  // Inject a long out-of-order run (seq 1 missing) straight into the receiver: the reorder
  // buffer must cap at reorder_limit, with overflow counted as drops rather than buffered.
  std::vector<uint32_t> delivered;
  e2_->SetDeliver([&](const Packet& packet) { delivered.push_back(packet.seq); });
  const auto limit = static_cast<uint32_t>(e2_->config().reorder_limit);
  for (uint32_t seq = 2; seq <= limit + 9; ++seq) {
    Packet segment;
    segment.ip_proto = kIpProtoTcp;
    segment.bytes = 500;
    segment.seq = seq;
    segment.dst = 2;
    segment.port = 80;
    ip2_.Input(segment);
  }
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(delivered.empty());  // nothing can resequence without seq 1
  EXPECT_EQ(e2_->reorder_buffered(), static_cast<size_t>(limit));
  // seqs 2..limit+1 fill the buffer; the remaining 8 are farthest-first evictions.
  EXPECT_EQ(e2_->reorder_drops(), 8u);

  // The missing segment arrives: the retained closest-to-resequencing run flushes in order.
  Packet head;
  head.ip_proto = kIpProtoTcp;
  head.bytes = 500;
  head.seq = 1;
  head.dst = 2;
  head.port = 80;
  ip2_.Input(head);
  sim_.RunUntil(Seconds(2));
  ASSERT_EQ(delivered.size(), static_cast<size_t>(limit) + 1);
  for (uint32_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], i + 1);
  }
  EXPECT_EQ(e2_->reorder_buffered(), 0u);
}

TEST_F(TcpFixture, ReorderOverflowKeepsSegmentsClosestToResequencingPoint) {
  // When the buffer is full and a *closer* segment arrives, the farthest buffered one is
  // evicted in its favour, so go-back-N re-covers only the tail.
  std::vector<uint32_t> delivered;
  e2_->SetDeliver([&](const Packet& packet) { delivered.push_back(packet.seq); });
  const auto limit = static_cast<uint32_t>(e2_->config().reorder_limit);
  auto inject = [this](uint32_t seq) {
    Packet segment;
    segment.ip_proto = kIpProtoTcp;
    segment.bytes = 500;
    segment.seq = seq;
    segment.dst = 2;
    segment.port = 80;
    ip2_.Input(segment);
  };
  // Fill with far segments first (3..limit+3), then offer the nearer seq 2.
  for (uint32_t seq = 3; seq <= limit + 2; ++seq) {
    inject(seq);
  }
  sim_.RunUntil(Milliseconds(500));
  EXPECT_EQ(e2_->reorder_buffered(), static_cast<size_t>(limit));
  inject(2);
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(e2_->reorder_buffered(), static_cast<size_t>(limit));  // still capped
  EXPECT_EQ(e2_->reorder_drops(), 1u);  // the farthest (limit+2) was evicted for seq 2
  inject(1);
  sim_.RunUntil(Seconds(2));
  // 1, then the contiguous run 2..limit+1 (the evicted limit+2 is absent).
  ASSERT_EQ(delivered.size(), static_cast<size_t>(limit) + 1);
  for (uint32_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], i + 1);
  }
}

TEST(CtmspTest, HeaderPrecomputeHandshake) {
  CtmspTransmitter tx(CtmspConnectionConfig{});
  EXPECT_FALSE(tx.header_ready());
  tx.MarkHeaderReady();
  EXPECT_TRUE(tx.header_ready());
}

TEST(CtmspTest, PurgeRetransmitOnlyWhenEnabledAndAtMostOnce) {
  CtmspConnectionConfig off;
  CtmspTransmitter tx_off(off);
  tx_off.RememberLast(7, 2000);
  EXPECT_FALSE(tx_off.OnPurgeDetected().has_value());

  CtmspConnectionConfig on;
  on.retransmit_on_purge = true;
  CtmspTransmitter tx_on(on);
  tx_on.RememberLast(7, 2000);
  auto first = tx_on.OnPurgeDetected();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first, 7u);
  EXPECT_EQ(first->second, 2000);
  // A second purge before any new packet must not duplicate again.
  EXPECT_FALSE(tx_on.OnPurgeDetected().has_value());
  EXPECT_EQ(tx_on.retransmissions(), 1u);
}

}  // namespace
}  // namespace ctms
