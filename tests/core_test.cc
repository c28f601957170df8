#include <gtest/gtest.h>

#include "src/core/ctms.h"

namespace ctms {
namespace {

TEST(ScenarioTest, TestCaseAMatchesPaperDescription) {
  const CtmsConfig config = TestCaseA();
  EXPECT_EQ(config.dma_buffer_kind, MemoryKind::kIoChannelMemory);
  EXPECT_FALSE(config.tx_copy_vca_to_mbufs);
  EXPECT_TRUE(config.rx_copy_dma_to_mbufs);
  EXPECT_FALSE(config.rx_copy_mbufs_to_device);
  EXPECT_TRUE(config.driver_priority);
  EXPECT_GT(config.ring_priority, 0);
  EXPECT_FALSE(config.public_network);
  EXPECT_FALSE(config.multiprocessing);
  EXPECT_EQ(config.method, MeasurementMethod::kPcAt);
}

TEST(ScenarioTest, TestCaseBMatchesPaperDescription) {
  const CtmsConfig config = TestCaseB();
  EXPECT_TRUE(config.tx_copy_vca_to_mbufs);
  EXPECT_TRUE(config.rx_copy_dma_to_mbufs);
  EXPECT_TRUE(config.rx_copy_mbufs_to_device);
  EXPECT_TRUE(config.public_network);
  EXPECT_TRUE(config.multiprocessing);
}

TEST(ScenarioTest, OfferedRateArithmetic) {
  CtmsConfig config;
  config.packet_bytes = 2000;
  config.packet_period = Milliseconds(12);
  EXPECT_NEAR(config.OfferedKBytesPerSecond(), 166.67, 0.01);
  config.packet_bytes = 192;
  EXPECT_NEAR(config.OfferedKBytesPerSecond(), 16.0, 0.01);
}

TEST(CopyAnalysisTest, PaperHeadlineNumbers) {
  // "as many as six and as few as four" with "always four copies made by the CPU".
  const CopyCounts both_dma =
      AnalyzeCopyPath({TransferModel::kUserProcess, true, true});
  EXPECT_EQ(both_dma.total(), 6);
  EXPECT_EQ(both_dma.cpu, 4);
  const CopyCounts no_dma =
      AnalyzeCopyPath({TransferModel::kUserProcess, false, false});
  EXPECT_EQ(no_dma.total(), 4);
  EXPECT_EQ(no_dma.cpu, 4);
  // Driver-to-driver "completely eliminates two of the data copies".
  const CopyCounts d2d = AnalyzeCopyPath({TransferModel::kDriverToDriver, true, true});
  EXPECT_EQ(d2d.cpu, 2);
  EXPECT_EQ(d2d.total(), 4);
  // "Given that both devices are capable of DMA, all CPU data copies can be eliminated."
  const CopyCounts pointer = AnalyzeCopyPath({TransferModel::kPointerPassing, true, true});
  EXPECT_EQ(pointer.cpu, 0);
  EXPECT_EQ(pointer.total(), 2);
}

TEST(CopyAnalysisTest, TableCoversAllTwelveCells) {
  const auto rows = CopyCountTable();
  EXPECT_EQ(rows.size(), 12u);
  const std::string rendered = RenderCopyCountTable();
  EXPECT_NE(rendered.find("user-process"), std::string::npos);
  EXPECT_NE(rendered.find("driver-to-driver"), std::string::npos);
  EXPECT_NE(rendered.find("pointer-passing"), std::string::npos);
}

TEST(BufferBudgetTest, PaperArithmetic) {
  // Worst variation 130 ms at 2000 B / 12 ms -> ceil(130/12)+1 = 12 packets = 24 KB.
  std::vector<SimDuration> latencies = {Milliseconds(11), Milliseconds(141)};
  const BufferBudget budget = ComputeBufferBudget(latencies, 2000, Milliseconds(12));
  EXPECT_EQ(budget.worst_variation, Milliseconds(130));
  EXPECT_EQ(budget.packets_needed, 12);
  EXPECT_EQ(budget.bytes_needed, 24000);
  EXPECT_LT(budget.bytes_needed, 25 * 1024);
  EXPECT_NE(RenderBufferBudget(budget).find("24000"), std::string::npos);
}

TEST(BufferBudgetTest, EmptyAndDegenerateInputsAreSafe) {
  EXPECT_EQ(ComputeBufferBudget({}, 2000, Milliseconds(12)).bytes_needed, 0);
  EXPECT_EQ(ComputeBufferBudget({Milliseconds(11)}, 2000, 0).bytes_needed, 0);
  // A single sample: zero variation, one packet of buffering.
  const BufferBudget one = ComputeBufferBudget({Milliseconds(11)}, 2000, Milliseconds(12));
  EXPECT_EQ(one.packets_needed, 1);
}

TEST(ZeroCopyTest, EliminatesTheTransmitCopy) {
  CtmsConfig with_copy = TestCaseA();
  with_copy.duration = Seconds(10);
  const ExperimentReport copy_report = CtmsExperiment(with_copy).Run();

  CtmsConfig zero = TestCaseA();
  zero.tx_zero_copy = true;
  zero.duration = Seconds(10);
  const ExperimentReport zero_report = CtmsExperiment(zero).Run();

  // No tx CPU copies recorded, stream still healthy, latency floor unchanged on the wire
  // side (the DMA and wire time dominate).
  const double packets = static_cast<double>(zero_report.packets_built);
  EXPECT_LT(static_cast<double>(zero_report.tx_cpu_copies) / packets, 0.05);
  EXPECT_EQ(zero_report.packets_lost, 0u);
  EXPECT_EQ(zero_report.sink_underruns, 0u);
  // Handler-to-transmit drops by roughly the 2000 us copy.
  const double copy_hist6 = copy_report.ground_truth.handler_to_pre_tx.Summary().mean;
  const double zero_hist6 = zero_report.ground_truth.handler_to_pre_tx.Summary().mean;
  EXPECT_LT(zero_hist6, copy_hist6 - static_cast<double>(Microseconds(1800)));
}

// The shared-ring capacity question (how many of the paper's streams fit on one ring),
// asked of mediamix with --mix=vca:N. A stream is sustained when it built packets and
// delivered all but the last two in flight, with no loss, queue drop or playout underrun.
bool AllSustained(const MediaMixReport& report) {
  for (const StreamStats& stats : report.streams) {
    if (stats.built == 0 || stats.lost > 0 || stats.underruns > 0 || stats.queue_drops > 0 ||
        stats.delivered + 2 < stats.built) {
      return false;
    }
  }
  return !report.streams.empty();
}

MediaMixReport RunVcaStreams(int streams) {
  MediaMixConfig config;
  config.workload = {{"vca", streams, 0}};
  config.duration = Seconds(20);
  return MediaMixExperiment(config).Run();
}

TEST(MediaMixCapacityTest, TwoStreamsCoexist) {
  const MediaMixReport report = RunVcaStreams(2);
  EXPECT_TRUE(AllSustained(report)) << report.Summary();
  EXPECT_GT(report.ring_utilization, 0.6);
  EXPECT_LT(report.ring_utilization, 0.8);
}

TEST(MediaMixCapacityTest, ThreeStreamsSaturateTheRing) {
  const MediaMixReport report = RunVcaStreams(3);
  EXPECT_FALSE(AllSustained(report));
  EXPECT_GT(report.ring_utilization, 0.95);
  // Fairness: all three degrade together (same priority), none starves outright.
  for (const StreamStats& stream : report.streams) {
    EXPECT_GT(stream.delivered, stream.built * 9 / 10);
  }
}

TEST(RouterTest, KeepsUpInBothModes) {
  for (const bool via_mbufs : {true, false}) {
    RouterConfig config;
    config.forward_via_mbufs = via_mbufs;
    config.duration = Seconds(20);
    RouterExperiment experiment(config);
    const RouterReport report = experiment.Run();
    EXPECT_TRUE(report.KeepsUp()) << report.Summary();
    EXPECT_EQ(report.packets_lost, 0u);
  }
}

TEST(RouterTest, PurgeOnEitherRingIsSurvivable) {
  RouterConfig config;
  config.duration = Seconds(15);
  RouterExperiment experiment(config);
  // Purges on both rings while frames are in flight: at most a few packets die, none
  // reorder, the route keeps flowing.
  for (int i = 1; i <= 20; ++i) {
    experiment.sim().After(i * Milliseconds(700) + Microseconds(6500), [&experiment]() {
      experiment.ring_a().TriggerRingPurge();
    });
    experiment.sim().After(i * Milliseconds(700) + Milliseconds(300), [&experiment]() {
      experiment.ring_b().TriggerRingPurge();
    });
  }
  const RouterReport report = experiment.Run();
  EXPECT_LE(report.packets_lost, 12u);
  EXPECT_GT(report.packets_delivered, report.packets_built * 9 / 10);
}

TEST(RouterTest, ZeroCopyForwardingIsCheaper) {
  RouterConfig mbufs;
  mbufs.duration = Seconds(20);
  const RouterReport mbufs_report = RouterExperiment(mbufs).Run();

  RouterConfig zero;
  zero.forward_via_mbufs = false;
  zero.duration = Seconds(20);
  const RouterReport zero_report = RouterExperiment(zero).Run();

  EXPECT_LT(zero_report.router_cpu_utilization(), mbufs_report.router_cpu_utilization() / 2.0);
  // And faster: two eliminated copies of 2000 bytes each.
  EXPECT_LT(zero_report.end_to_end.Summary().mean,
            mbufs_report.end_to_end.Summary().mean - static_cast<double>(Milliseconds(3)));
}

TEST(RouterTest, EndToEndLatencyIsAboutTwoHops) {
  RouterConfig config;
  config.duration = Seconds(20);
  const RouterReport report = RouterExperiment(config).Run();
  // One hop's floor is ~10.7 ms wire+DMA; two hops plus router forwarding lands in the
  // high-20s to mid-30s of milliseconds.
  const SummaryStats stats = report.end_to_end.Summary();
  EXPECT_GT(stats.min, Milliseconds(24));
  EXPECT_LT(static_cast<SimDuration>(stats.mean), Milliseconds(40));
}

TEST(ExperimentReportTest, SummaryContainsTheHeadlineFields) {
  CtmsConfig config = TestCaseA();
  config.duration = Seconds(5);
  const ExperimentReport report = CtmsExperiment(config).Run();
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("test-case-A"), std::string::npos);
  EXPECT_NE(summary.find("delivered"), std::string::npos);
  EXPECT_NE(summary.find("cpu:"), std::string::npos);
  EXPECT_NE(summary.find("purges"), std::string::npos);
}

TEST(ExperimentControlTest, StartIsIdempotentAndReportWorksMidRun) {
  CtmsConfig config = TestCaseA();
  config.duration = Seconds(30);
  CtmsExperiment experiment(config);
  experiment.Start();
  experiment.Start();  // second call is a no-op
  experiment.sim().RunFor(Seconds(2));
  const ExperimentReport early = experiment.Report();
  experiment.sim().RunFor(Seconds(2));
  const ExperimentReport later = experiment.Report();
  EXPECT_GT(early.packets_built, 100u);
  EXPECT_GT(later.packets_built, early.packets_built);
}

TEST(BaselineTcpTest, TcpAddsTrafficAndStillFails) {
  BaselineConfig udp;
  udp.duration = Seconds(20);
  const BaselineReport udp_report = BaselineExperiment(udp).Run();

  BaselineConfig tcp = udp;
  tcp.use_tcp = true;
  const BaselineReport tcp_report = BaselineExperiment(tcp).Run();

  EXPECT_FALSE(tcp_report.Sustained());
  // The reliable transport delivers no more (usually less) under saturation, while its
  // acks and retransmissions add work.
  EXPECT_LE(tcp_report.delivered_kbytes_per_sec, udp_report.delivered_kbytes_per_sec * 1.05);
}

}  // namespace
}  // namespace ctms
