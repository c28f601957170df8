#include <gtest/gtest.h>

#include "src/dev/tr_driver.h"
#include "src/hw/machine.h"
#include "src/measure/probe.h"
#include "src/ring/adapter.h"
#include "src/kern/unix_kernel.h"
#include "src/proto/arp.h"
#include "src/proto/ip.h"
#include "src/proto/udp.h"
#include "src/ring/token_ring.h"
#include "src/sim/simulation.h"
#include "src/workload/host_service.h"
#include "src/workload/kernel_activity.h"
#include "src/core/ctms.h"
#include "src/workload/ring_traffic.h"

namespace ctms {
namespace {

TEST(KernelActivityTest, SoftclockAndSectionsConsumeCpu) {
  Simulation sim(1);
  Machine machine(&sim, "m");
  KernelBackgroundActivity activity(&machine, sim.rng().Fork());
  activity.Start();
  sim.RunUntil(Seconds(10));
  activity.Stop();
  EXPECT_GT(activity.sections_run(), 100u);  // ~40/s short + ~1.4/s long
  EXPECT_GT(machine.cpu().busy_time(), 0);
  // Background activity is light: a few percent of the CPU at most.
  EXPECT_LT(machine.cpu().Utilization(), 0.05);
}

TEST(KernelActivityTest, StopActuallyStops) {
  Simulation sim(1);
  Machine machine(&sim, "m");
  KernelBackgroundActivity activity(&machine, sim.rng().Fork());
  activity.Start();
  sim.RunUntil(Seconds(1));
  activity.Stop();
  const uint64_t sections = activity.sections_run();
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(activity.sections_run(), sections);
}

TEST(KernelActivityTest, LongSectionsDelayInterruptDispatch) {
  Simulation sim(1);
  Machine machine(&sim, "m");
  machine.cpu().set_dispatch_base(0);
  machine.cpu().set_dispatch_jitter(0);
  KernelBackgroundActivity::Config config;
  config.short_interarrival_mean = Hours(10);  // isolate the long class
  config.long_interarrival_mean = Milliseconds(10);
  config.long_min = Milliseconds(2);
  config.long_max = Milliseconds(3);
  KernelBackgroundActivity activity(&machine, sim.rng().Fork(), config);
  activity.Start();
  // Sample dispatch latency of a kImp interrupt issued repeatedly.
  SimDuration worst = 0;
  for (int i = 0; i < 200; ++i) {
    sim.After(i * Milliseconds(5), [&sim, &machine, &worst]() {
      const SimTime submitted = sim.Now();
      machine.cpu().SubmitInterrupt("probe", Spl::kImp, 0, [&sim, &worst, submitted]() {
        worst = std::max(worst, sim.Now() - submitted);
      });
    });
  }
  sim.RunUntil(Seconds(2));
  activity.Stop();
  EXPECT_GT(worst, Milliseconds(1));   // a section blocked dispatch
  EXPECT_LE(worst, Milliseconds(10));  // at most a few sections can stack back-to-back
}

TEST(MacFrameTrafficTest, RateMatchesBandwidthFraction) {
  Simulation sim(2);
  TokenRing ring(&sim);
  MacFrameTraffic traffic(&ring, sim.rng().Fork(), MacFrameTraffic::Config{0.006});
  // 0.6% of 4 Mbit in 20-byte frames = 150 frames/s.
  EXPECT_NEAR(traffic.FramesPerSecond(), 150.0, 0.5);
  traffic.Start();
  sim.RunUntil(Seconds(20));
  traffic.Stop();
  EXPECT_NEAR(static_cast<double>(traffic.frames_sent()) / 20.0, 150.0, 20.0);
}

TEST(MacFrameTrafficTest, ZeroFractionSendsNothing) {
  Simulation sim(2);
  TokenRing ring(&sim);
  MacFrameTraffic traffic(&ring, sim.rng().Fork(), MacFrameTraffic::Config{0.0});
  traffic.Start();
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(traffic.frames_sent(), 0u);
}

TEST(GhostTrafficTest, SingleFramesAtConfiguredRate) {
  Simulation sim(3);
  TokenRing ring(&sim);
  GhostTraffic::Config config;
  config.interarrival_mean = Milliseconds(100);
  GhostTraffic traffic(&ring, sim.rng().Fork(), config);
  traffic.Start();
  sim.RunUntil(Seconds(20));
  traffic.Stop();
  EXPECT_NEAR(static_cast<double>(traffic.frames_sent()), 200.0, 45.0);
}

TEST(GhostTrafficTest, BurstsSendMultipleFrames) {
  Simulation sim(3);
  TokenRing ring(&sim);
  GhostTraffic::Config config;
  config.interarrival_mean = Milliseconds(500);
  config.burst_min = 5;
  config.burst_max = 5;
  config.burst_spacing = Milliseconds(1);
  uint64_t frames_on_wire = 0;
  ring.AddFrameMonitor([&](const Frame& frame, SimTime) {
    if (frame.kind == FrameKind::kLlc) {
      ++frames_on_wire;
    }
  });
  GhostTraffic traffic(&ring, sim.rng().Fork(), config);
  traffic.Start();
  sim.RunUntil(Seconds(10));
  traffic.Stop();
  sim.RunUntil(Seconds(11));
  EXPECT_EQ(frames_on_wire, traffic.frames_sent());
  EXPECT_EQ(traffic.frames_sent() % 5, 0u);  // whole bursts
  EXPECT_GT(traffic.frames_sent(), 50u);
}

TEST(GhostTrafficTest, TargetedFramesCarryDemuxHints) {
  Simulation sim(4);
  TokenRing ring(&sim);
  GhostTraffic::Config config;
  config.interarrival_mean = Milliseconds(50);
  config.target = 77;
  config.protocol = ProtocolId::kIp;
  config.ip_proto = kIpProtoUdp;
  config.port = 5000;
  bool checked = false;
  ring.AddFrameMonitor([&](const Frame& frame, SimTime) {
    if (frame.kind == FrameKind::kLlc) {
      EXPECT_EQ(frame.dst, 77);
      EXPECT_EQ(frame.protocol, ProtocolId::kIp);
      EXPECT_EQ(frame.ip_proto, kIpProtoUdp);
      EXPECT_EQ(frame.port, 5000);
      checked = true;
    }
  });
  GhostTraffic traffic(&ring, sim.rng().Fork(), config);
  traffic.Start();
  sim.RunUntil(Seconds(1));
  EXPECT_TRUE(checked);
}

TEST(InsertionScheduleTest, PoissonInsertionsAtConfiguredMean) {
  Simulation sim(5);
  TokenRing ring(&sim);
  InsertionSchedule schedule(&ring, sim.rng().Fork(),
                             InsertionSchedule::Config{Minutes(10)});
  schedule.Start();
  sim.RunUntil(Hours(10));
  schedule.Stop();
  // ~60 expected over 10 hours at 1 per 10 minutes.
  EXPECT_GT(schedule.insertions(), 35u);
  EXPECT_LT(schedule.insertions(), 90u);
  EXPECT_EQ(ring.insertion_count(), schedule.insertions());
}

class HostServiceFixture : public ::testing::Test {
 protected:
  HostServiceFixture()
      : sim_(7),
        machine_(&sim_, "host"),
        kernel_(&machine_),
        ring_(&sim_),
        adapter_(&machine_, &ring_, TokenRingAdapter::Config{}),
        driver_(&kernel_, &adapter_, &probes_, TokenRingDriver::Config{}),
        arp_(&kernel_, &driver_),
        ip_(&kernel_, &driver_, &arp_),
        udp_(&kernel_, &ip_) {
    driver_.SetIpInput([this](const Packet& packet) { ip_.Input(packet); });
    driver_.SetArpInput([this](const Packet& packet) { arp_.Input(packet); });
  }

  Simulation sim_;
  Machine machine_;
  UnixKernel kernel_;
  TokenRing ring_;
  ProbeBus probes_;
  TokenRingAdapter adapter_;
  TokenRingDriver driver_;
  ArpLayer arp_;
  IpLayer ip_;
  UdpLayer udp_;
};

TEST_F(HostServiceFixture, ControlServiceRepliesToRequests) {
  ControlServiceProcess service(&kernel_, &udp_, sim_.rng().Fork());
  arp_.InstallStatic(55);
  uint64_t replies_on_wire = 0;
  ring_.AddFrameMonitor([&](const Frame& frame, SimTime) {
    if (frame.kind == FrameKind::kLlc && frame.src == adapter_.address()) {
      ++replies_on_wire;
    }
  });
  // Inject three requests through the full receive path.
  GhostTraffic::Config requests;
  requests.interarrival_mean = Milliseconds(100);
  requests.target = adapter_.address();
  requests.protocol = ProtocolId::kIp;
  requests.ip_proto = kIpProtoUdp;
  requests.port = 5000;
  GhostTraffic source(&ring_, Rng(99), requests);
  source.Start();
  sim_.RunUntil(Seconds(2));
  source.Stop();
  sim_.RunUntil(Seconds(3));
  EXPECT_GT(service.requests(), 10u);
  EXPECT_EQ(service.requests(), service.replies());
  // Requests arrive from a ghost station the ARP cache learns about on first reply.
  EXPECT_GT(replies_on_wire, 0u);
}

TEST_F(HostServiceFixture, AfsDaemonSendsKeepalives) {
  AfsClientDaemon::Config config;
  config.server = ring_.AllocateGhostAddress();
  config.mean_interval = Milliseconds(200);
  arp_.InstallStatic(config.server);
  AfsClientDaemon daemon(&kernel_, &udp_, sim_.rng().Fork(), config);
  uint64_t keepalives_on_wire = 0;
  ring_.AddFrameMonitor([&](const Frame& frame, SimTime) {
    if (frame.kind == FrameKind::kLlc && frame.dst == config.server) {
      ++keepalives_on_wire;
    }
  });
  daemon.Start();
  sim_.RunUntil(Seconds(4));
  daemon.Stop();
  sim_.RunUntil(Seconds(5));
  EXPECT_GT(daemon.keepalives_sent(), 8u);
  EXPECT_EQ(keepalives_on_wire, daemon.keepalives_sent());
}


TEST(TraceReplayTest, ParsesCsvWithCommentsAndBlanks) {
  const std::string csv = "# campus capture excerpt\n"
                          "0,60\n"
                          "  1200 , 1522  # a file-transfer frame\n"
                          "\n"
                          "2400,300\n";
  const auto trace = TraceReplayTraffic::ParseCsv(csv);
  ASSERT_TRUE(trace.has_value());
  ASSERT_EQ(trace->size(), 3u);
  EXPECT_EQ((*trace)[1].offset, Microseconds(1200));
  EXPECT_EQ((*trace)[1].bytes, 1522);
}

TEST(TraceReplayTest, RejectsMalformedLinesWithLineNumber) {
  int error_line = -1;
  EXPECT_FALSE(TraceReplayTraffic::ParseCsv("0,60\nnot-a-line\n", &error_line).has_value());
  EXPECT_EQ(error_line, 2);
  EXPECT_FALSE(TraceReplayTraffic::ParseCsv("0,-5\n", &error_line).has_value());
  EXPECT_EQ(error_line, 1);
  EXPECT_FALSE(TraceReplayTraffic::LoadCsv("/nonexistent-zzz.csv", &error_line).has_value());
}

TEST(TraceReplayTest, RejectsOffsetsPastTheLongestSimulatedSpan) {
  // 9.3e15 us would overflow SimTime nanoseconds (Microseconds() multiplies by 1000).
  int error_line = -1;
  EXPECT_FALSE(TraceReplayTraffic::ParseCsv("0,60\n9300000000000000,100\n", &error_line));
  EXPECT_EQ(error_line, 2);
  const int64_t last_us = kLongestSimulatedSpan / kMicrosecond;
  const auto at_bound = TraceReplayTraffic::ParseCsv(std::to_string(last_us) + ",100\n");
  ASSERT_TRUE(at_bound.has_value());
  EXPECT_EQ((*at_bound)[0].offset, kLongestSimulatedSpan);
  EXPECT_FALSE(
      TraceReplayTraffic::ParseCsv(std::to_string(last_us + 1) + ",100\n", &error_line));
  EXPECT_EQ(error_line, 1);
}

TEST(TraceReplayTest, RejectsFramesLongerThan8025AllowsAt4Mbps) {
  // A 2 GB frame used to overflow the ring's transmit-time product; any frame whose wire
  // size exceeds kMaxWireBytes is refused, naming its line.
  int error_line = -1;
  EXPECT_FALSE(TraceReplayTraffic::ParseCsv("# big\n0,2000000000\n", &error_line));
  EXPECT_EQ(error_line, 2);
  const int64_t largest = kMaxWireBytes - kFrameOverheadBytes;
  EXPECT_TRUE(TraceReplayTraffic::ParseCsv("0," + std::to_string(largest) + "\n"));
  EXPECT_FALSE(
      TraceReplayTraffic::ParseCsv("0,60\n5," + std::to_string(largest + 1) + "\n", &error_line));
  EXPECT_EQ(error_line, 2);
}

TEST(TraceReplayTest, CampusTraceLoads) {
  // The committed capture: at most 1,522 bytes per frame, offsets up to 0.96 s.
  const auto trace =
      TraceReplayTraffic::LoadCsv(std::string(CTMS_TESTS_DATA_DIR) + "/campus_trace.csv");
  ASSERT_TRUE(trace.has_value());
  EXPECT_FALSE(trace->empty());
}

TEST(TraceReplayTest, ReplaysFramesAtScheduledOffsets) {
  Simulation sim(1);
  TokenRing ring(&sim);
  std::vector<SimTime> on_wire;
  ring.AddFrameMonitor([&](const Frame& frame, SimTime end) {
    if (frame.kind == FrameKind::kLlc) {
      on_wire.push_back(end - ring.TokenAcquisitionTime() -
                        ring.WireTime(WireBytes(frame)));
    }
  });
  std::vector<TraceEntry> trace = {{Milliseconds(5), 100}, {Milliseconds(20), 1522}};
  TraceReplayTraffic replay(&ring, trace);
  replay.Start();
  sim.RunUntil(Seconds(1));
  ASSERT_EQ(on_wire.size(), 2u);
  EXPECT_EQ(on_wire[0], Milliseconds(5));
  EXPECT_EQ(on_wire[1], Milliseconds(20));
  EXPECT_EQ(replay.frames_sent(), 2u);
}

TEST(TraceReplayTest, LoopRepeatsAndStopCancels) {
  Simulation sim(1);
  TokenRing ring(&sim);
  std::vector<TraceEntry> trace = {{Milliseconds(1), 60}};
  TraceReplayTraffic replay(&ring, trace);
  replay.Start(/*loop=*/true, Milliseconds(10));
  sim.RunUntil(Milliseconds(95));
  EXPECT_EQ(replay.frames_sent(), 10u);
  replay.Stop();
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(replay.frames_sent(), 10u);
}

}  // namespace
}  // namespace ctms
