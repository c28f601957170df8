// Calibration locks and edge-case sweeps.
//
// The GoldenCalibration tests pin exact deterministic outputs for seed 1. They exist to make
// any change to the timing model *loud*: if you touch a cost constant, a workload intensity,
// or event ordering, these fail and EXPERIMENTS.md must be regenerated and re-compared
// against the paper. Update the pinned values deliberately, never casually.

#include <gtest/gtest.h>

#include "src/core/ctms.h"

namespace ctms {
namespace {

TEST(GoldenCalibration, TestCaseATenSeconds) {
  CtmsConfig config = TestCaseA();
  config.duration = Seconds(10);
  config.seed = 1;
  const ExperimentReport report = CtmsExperiment(config).Run();
  EXPECT_EQ(report.packets_built, 833u);
  EXPECT_EQ(report.packets_delivered, 832u);  // the 833rd is still in flight at cutoff
  const SummaryStats hist7 = report.ground_truth.pre_tx_to_rx.Summary();
  // The best observed latency over 10 s, exactly (nanoseconds; the analytical floor is
  // 10 739 500 and the rx-side jitter terms rarely all hit zero together).
  EXPECT_EQ(hist7.min, 10747406);
  EXPECT_NEAR(hist7.mean, 1.089e7, 1e5);
}

TEST(GoldenCalibration, LatencyFloorComponentsDocumented) {
  // The floor decomposition quoted in DESIGN.md and the fig5_3 bench: if any of these
  // defaults move, the documentation is stale.
  EXPECT_EQ(TokenRingDriver::Config{}.tx_command_cost, Microseconds(25));
  EXPECT_EQ(TokenRingDriver::Config{}.rx_entry_cost, Microseconds(155));
  EXPECT_EQ(TokenRingDriver::Config{}.classify_cost, Microseconds(57));
  EXPECT_EQ(CopyEngine::Rates{}.sys_to_iocm, 1000);  // the paper's 1 us/byte
  Simulation sim(1);
  TokenRing ring(&sim);
  EXPECT_EQ(ring.WireTime(2021), Microseconds(4042));
  Machine machine(&sim, "m");
  TokenRingAdapter adapter(&machine, &ring, TokenRingAdapter::Config{});
  EXPECT_EQ(adapter.tx_dma().TransferTime(2000), Microseconds(3200));
}

TEST(GoldenCalibration, BaselineVerdictsAreStable) {
  BaselineConfig low;
  low.packet_bytes = 192;
  low.duration = Seconds(15);
  EXPECT_TRUE(BaselineExperiment(low).Run().Sustained());
  BaselineConfig high;
  high.packet_bytes = 2000;
  high.duration = Seconds(15);
  EXPECT_FALSE(BaselineExperiment(high).Run().Sustained());
}

// Sweep a Ring Purge across every phase of a packet's life; whatever the phase, the stream
// must never deliver duplicates to the sink or reorder — loss is the only permitted outcome
// (and with retransmit mode, mostly not even that).
class PurgePhaseProperty : public ::testing::TestWithParam<int> {};

TEST_P(PurgePhaseProperty, AnyPurgePhaseIsSafe) {
  const SimDuration offset = Microseconds(GetParam() * 500);
  for (const bool retransmit : {false, true}) {
    CtmsConfig config = TestCaseA();
    config.duration = Seconds(5);
    config.retransmit_on_purge = retransmit;
    CtmsExperiment experiment(config);
    experiment.Start();
    // One purge per packet period, at the swept phase within the period.
    for (int period = 20; period < 100; period += 7) {
      experiment.sim().After(period * Milliseconds(12) + offset,
                             [&experiment]() { experiment.ring().TriggerRingPurge(); });
    }
    experiment.sim().RunFor(Seconds(5));
    const ExperimentReport report = experiment.Report();
    EXPECT_EQ(report.out_of_order, 0u) << "offset " << GetParam() << " retransmit "
                                       << retransmit;
    // The sink never sees a duplicate (receiver dedup), though the wire may carry them.
    EXPECT_GE(report.packets_delivered + report.packets_lost, report.packets_built - 2)
        << "offset " << GetParam();
    if (retransmit) {
      EXPECT_LE(report.packets_lost, 2u) << "offset " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Phases, PurgePhaseProperty, ::testing::Range(0, 24));

// The stock receive path under an rx storm: ipintrq must drop (not wedge) when splnet work
// cannot keep up.
TEST(StormTest, IpintrqDropsUnderReceiveStorm) {
  Simulation sim(1);
  TokenRing ring(&sim);
  Machine machine(&sim, "host");
  UnixKernel kernel(&machine);
  ProbeBus probes;
  TokenRingAdapter adapter(&machine, &ring, TokenRingAdapter::Config{});
  TokenRingDriver driver(&kernel, &adapter, &probes, TokenRingDriver::Config{});
  uint64_t handled = 0;
  driver.SetIpInput([&](const Packet&) {
    // Pathologically slow protocol processing.
    machine.cpu().SubmitInterrupt("slow-proto", Spl::kNet, Milliseconds(5),
                                  [&handled]() { ++handled; });
  });
  GhostTraffic::Config storm;
  storm.interarrival_mean = Microseconds(400);
  storm.min_bytes = 60;
  storm.max_bytes = 60;
  storm.target = adapter.address();
  storm.protocol = ProtocolId::kIp;
  storm.ip_proto = kIpProtoUdp;
  GhostTraffic source(&ring, Rng(5), storm);
  source.Start();
  sim.RunUntil(Seconds(3));
  source.Stop();
  sim.RunUntil(Seconds(5));
  EXPECT_GT(driver.ipintr_queue().drops(), 0u);
  EXPECT_GT(handled, 0u);
  // The system stayed live: queue drained once the storm stopped.
  EXPECT_TRUE(driver.ipintr_queue().empty());
}

// RtPc pseudo-device buffer overflow: the kernel buffer is finite; overflow is counted,
// not fatal.
TEST(StormTest, PseudoDeviceBufferOverflowCounted) {
  ProbeBus bus;
  RtPcPseudoDevice::Config config;
  config.buffer_capacity = 100;
  RtPcPseudoDevice recorder(&bus, Rng(1), config);
  for (uint32_t i = 0; i < 250; ++i) {
    bus.Emit(ProbePoint::kVcaHandlerEntry, i, i * Microseconds(500));
  }
  EXPECT_EQ(recorder.events().size(), 100u);
  EXPECT_EQ(recorder.overflow_dropped(), 150u);
}

// TAP under a frame burst: the tool (not the ring) drops captures closer than its minimum
// handling gap, and says so.
TEST(StormTest, TapToolDropsAtItsCaptureRateLimit) {
  Simulation sim(1);
  TokenRing ring(&sim);
  TapMonitor::Config config;
  config.min_capture_gap = Milliseconds(2);
  TapMonitor tap(&ring, config);
  const RingAddress src = ring.AllocateGhostAddress();
  for (int i = 0; i < 50; ++i) {
    Frame frame;
    frame.kind = FrameKind::kLlc;
    frame.src = src;
    frame.dst = 99;
    frame.payload_bytes = 100;  // ~240 us apart on the wire — faster than the tool
    frame.seq = static_cast<uint32_t>(i);
    ring.RequestTransmit(std::move(frame), nullptr);
  }
  sim.RunAll();
  EXPECT_GT(tap.tool_dropped(), 0u);
  EXPECT_EQ(tap.records().size() + tap.tool_dropped(), 50u);
}

}  // namespace
}  // namespace ctms
