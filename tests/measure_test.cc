#include <gtest/gtest.h>

#include <vector>

#include "src/measure/histogram.h"
#include "src/measure/export.h"
#include "src/measure/interval_analyzer.h"
#include "src/measure/probe.h"
#include "src/measure/recorders.h"
#include "src/measure/stats.h"
#include "src/measure/tap.h"
#include "src/sim/simulation.h"

namespace ctms {
namespace {

TEST(StatsTest, SummaryOfKnownSamples) {
  const std::vector<SimDuration> samples = {10, 20, 30, 40};
  const SummaryStats stats = Summarize(samples);
  EXPECT_EQ(stats.count, 4u);
  EXPECT_EQ(stats.min, 10);
  EXPECT_EQ(stats.max, 40);
  EXPECT_DOUBLE_EQ(stats.mean, 25.0);
  EXPECT_NEAR(stats.stddev, 11.18, 0.01);
}

TEST(StatsTest, EmptySamplesAreSafe) {
  const SummaryStats stats = Summarize({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(FractionWithin({}, 100, 10), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<SimDuration> samples = {0, 100};
  EXPECT_EQ(Percentile(samples, 0.0), 0);
  EXPECT_EQ(Percentile(samples, 0.5), 50);
  EXPECT_EQ(Percentile(samples, 1.0), 100);
}

TEST(StatsTest, PercentilesMatchesRepeatedPercentileCalls) {
  const std::vector<SimDuration> samples = {500, 100, 400, 200, 300};  // deliberately unsorted
  const std::vector<double> ps = {0.0, 0.25, 0.5, 0.98, 1.0};
  const std::vector<SimDuration> batch = Percentiles(samples, ps);
  ASSERT_EQ(batch.size(), ps.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(batch[i], Percentile(samples, ps[i])) << "p=" << ps[i];
  }
}

TEST(StatsTest, PercentilesLeavesInputUnsorted) {
  const std::vector<SimDuration> samples = {30, 10, 20};
  Percentiles(samples, {0.5});
  EXPECT_EQ(samples, (std::vector<SimDuration>{30, 10, 20}));
}

TEST(StatsTest, SortedPercentileOnPresortedSamples) {
  const std::vector<SimDuration> sorted = {10, 20, 30, 40};
  EXPECT_EQ(SortedPercentile(sorted, 0.0), 10);
  EXPECT_EQ(SortedPercentile(sorted, 1.0), 40);
  EXPECT_EQ(SortedPercentile(sorted, 0.5), 25);  // interpolates between 20 and 30
}

TEST(HistogramTest, PercentilesSortOnce) {
  Histogram hist("h");
  for (int i = 100; i >= 1; --i) {
    hist.Add(Microseconds(i));
  }
  const std::vector<SimDuration> p = hist.Percentiles({0.50, 0.98});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], hist.Percentile(0.50));
  EXPECT_EQ(p[1], hist.Percentile(0.98));
}

TEST(StatsTest, FractionWithinAndBetween) {
  const std::vector<SimDuration> samples = {100, 200, 300, 400, 500};
  EXPECT_DOUBLE_EQ(FractionWithin(samples, 300, 100), 0.6);  // 200,300,400
  EXPECT_DOUBLE_EQ(FractionBetween(samples, 400, 1000), 0.4);
}

TEST(HistogramTest, SummaryLineAndStats) {
  Histogram hist("h");
  hist.AddAll({Microseconds(10), Microseconds(20), Microseconds(30)});
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.Summary().min, Microseconds(10));
  EXPECT_NE(hist.SummaryLine().find("n=3"), std::string::npos);
}

TEST(HistogramTest, RenderShowsBinsAndCounts) {
  Histogram hist("bimodal");
  for (int i = 0; i < 68; ++i) {
    hist.Add(Microseconds(2600));
  }
  for (int i = 0; i < 15; ++i) {
    hist.Add(Microseconds(9400));
  }
  const std::string render = hist.RenderAscii(Microseconds(500));
  EXPECT_NE(render.find("68"), std::string::npos);
  EXPECT_NE(render.find("15"), std::string::npos);
}

TEST(HistogramTest, RenderWidensBinsToCap) {
  Histogram hist("wide");
  hist.Add(0);
  hist.Add(Milliseconds(130));  // huge range vs 1 us bins
  const std::string render = hist.RenderAscii(Microseconds(1), 40, 32);
  // Must not have produced 130000 lines.
  EXPECT_LT(render.size(), 4000u);
}

TEST(ProbeBusTest, EmitFansOutToListeners) {
  ProbeBus bus;
  int count = 0;
  bus.Subscribe([&](const ProbeEvent&) { ++count; });
  bus.Subscribe([&](const ProbeEvent&) { ++count; });
  bus.Emit(ProbePoint::kPreTransmit, 1, 100);
  EXPECT_EQ(count, 2);
}

// Regression: a listener that Subscribes from inside its callback used to grow the
// listener vector mid-iteration, invalidating the range-for's iterators (caught while
// auditing shared state for the campaign worker pool). The late subscriber must miss the
// in-flight event and hear the next one.
TEST(ProbeBusTest, SubscribeDuringEmitIsSafeAndTakesEffectNextEvent) {
  ProbeBus bus;
  int late_events = 0;
  int trigger_events = 0;
  bus.Subscribe([&](const ProbeEvent&) {
    ++trigger_events;
    if (trigger_events == 1) {
      bus.Subscribe([&](const ProbeEvent&) { ++late_events; });
    }
  });
  bus.Emit(ProbePoint::kPreTransmit, 1, 100);
  EXPECT_EQ(trigger_events, 1);
  EXPECT_EQ(late_events, 0);  // subscribed mid-emit: misses the in-flight event
  bus.Emit(ProbePoint::kPreTransmit, 2, 200);
  EXPECT_EQ(trigger_events, 2);
  EXPECT_EQ(late_events, 1);
}

TEST(RecorderTest, GroundTruthRecordsExactly) {
  ProbeBus bus;
  GroundTruthRecorder recorder(&bus);
  bus.Emit(ProbePoint::kVcaIrq, 1, Microseconds(100));
  bus.Emit(ProbePoint::kPreTransmit, 1, Microseconds(250));
  ASSERT_EQ(recorder.events().size(), 2u);
  EXPECT_EQ(recorder.events()[1].time, Microseconds(250));
}

TEST(RecorderTest, RtPcQuantizesTo122Microseconds) {
  ProbeBus bus;
  RtPcPseudoDevice recorder(&bus, Rng(1));
  bus.Emit(ProbePoint::kVcaHandlerEntry, 1, Microseconds(300));
  ASSERT_EQ(recorder.events().size(), 1u);
  // 300 us quantizes down to 2 * 122 = 244 us.
  EXPECT_EQ(recorder.events()[0].time, Microseconds(244));
}

TEST(RecorderTest, RtPcCannotSeeTheIrqLine) {
  ProbeBus bus;
  RtPcPseudoDevice recorder(&bus, Rng(1));
  bus.Emit(ProbePoint::kVcaIrq, 1, Microseconds(300));
  EXPECT_TRUE(recorder.events().empty());
}

TEST(RecorderTest, RtPcInterruptsEnabledCorruptsSomeStamps) {
  ProbeBus bus;
  RtPcPseudoDevice::Config config;
  config.interrupts_disabled = false;
  config.corruption_probability = 1.0;  // force the error path
  RtPcPseudoDevice recorder(&bus, Rng(1), config);
  bus.Emit(ProbePoint::kVcaHandlerEntry, 1, Microseconds(1000));
  ASSERT_EQ(recorder.events().size(), 1u);
  EXPECT_GE(recorder.events()[0].time, Microseconds(976));  // quantized original or later
}

TEST(RecorderTest, PcAtDecodeReconstructsTimesWithinError) {
  ProbeBus bus;
  Simulation sim(1);
  PcAtTimestamper pcat(&bus, &sim, Rng(2));
  // Emit events spread over several rollover periods (16-bit x 2 us = 131.072 ms).
  std::vector<SimTime> truth;
  for (int i = 0; i < 50; ++i) {
    const SimTime t = i * Milliseconds(12);
    sim.RunUntil(t);
    bus.Emit(ProbePoint::kVcaHandlerEntry, static_cast<uint32_t>(i + 1), t);
  }
  sim.RunUntil(Milliseconds(700));
  const std::vector<ProbeEvent> decoded = pcat.Decode();
  ASSERT_EQ(decoded.size(), 50u);
  for (size_t i = 0; i < decoded.size(); ++i) {
    const SimTime t = static_cast<SimTime>(i) * Milliseconds(12);
    // Error: poll latency (<=120 us) plus 2 us quantization, never negative.
    EXPECT_GE(decoded[i].time, t - Microseconds(2));
    EXPECT_LE(decoded[i].time, t + Microseconds(125));
  }
}

TEST(RecorderTest, PcAtWidensSevenBitSequenceNumbers) {
  ProbeBus bus;
  Simulation sim(1);
  PcAtTimestamper::Config config;
  config.poll_latency_max = 0;
  config.handshake_busy_probability = 0.0;
  PcAtTimestamper pcat(&bus, &sim, Rng(3), config);
  // 300 packets: the 7-bit field wraps twice; decode must recover the full numbers.
  for (uint32_t seq = 1; seq <= 300; ++seq) {
    const SimTime t = seq * Milliseconds(12);
    sim.RunUntil(t);
    bus.Emit(ProbePoint::kPreTransmit, seq, t);
  }
  const std::vector<ProbeEvent> decoded = pcat.Decode();
  ASSERT_EQ(decoded.size(), 300u);
  for (uint32_t i = 0; i < 300; ++i) {
    // Widened sequence is the original up to a constant offset fixed by the first packet.
    EXPECT_EQ(decoded[i].seq - decoded[0].seq, i);
  }
}

TEST(RecorderTest, PcAtHandlesQuietRolloverViaMarkers) {
  ProbeBus bus;
  Simulation sim(1);
  PcAtTimestamper::Config config;
  config.poll_latency_max = 0;
  config.handshake_busy_probability = 0.0;
  PcAtTimestamper pcat(&bus, &sim, Rng(4), config);
  // Two events separated by 500 ms of silence — several 131 ms rollovers apart. Without
  // the 50 Hz marker channel the decoder would fold them together.
  sim.RunUntil(Milliseconds(10));
  bus.Emit(ProbePoint::kVcaHandlerEntry, 1, sim.Now());
  sim.RunUntil(Milliseconds(510));
  bus.Emit(ProbePoint::kVcaHandlerEntry, 2, sim.Now());
  sim.RunUntil(Milliseconds(600));
  const std::vector<ProbeEvent> decoded = pcat.Decode();
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_NEAR(static_cast<double>(decoded[1].time - decoded[0].time),
              static_cast<double>(Milliseconds(500)), static_cast<double>(Microseconds(4)));
}

TEST(RecorderTest, LogicAnalyzerOnlySeesConfiguredChannels) {
  ProbeBus bus;
  LogicAnalyzer::Config config;
  config.channels = {ProbePoint::kVcaIrq};
  LogicAnalyzer analyzer(&bus, config);
  bus.Emit(ProbePoint::kVcaIrq, 1, 100);
  bus.Emit(ProbePoint::kPreTransmit, 1, 200);
  EXPECT_EQ(analyzer.trace().size(), 1u);
  EXPECT_EQ(analyzer.trace()[0].time, 100);  // exact, no error model
}

TEST(RecorderTest, LogicAnalyzerDepthLimit) {
  ProbeBus bus;
  LogicAnalyzer::Config config;
  config.channels = {ProbePoint::kVcaIrq};
  config.depth = 10;
  LogicAnalyzer analyzer(&bus, config);
  for (int i = 0; i < 20; ++i) {
    bus.Emit(ProbePoint::kVcaIrq, static_cast<uint32_t>(i), i);
  }
  EXPECT_EQ(analyzer.trace().size(), 10u);
  EXPECT_TRUE(analyzer.full());
}

TEST(IntervalAnalyzerTest, InterOccurrence) {
  std::vector<ProbeEvent> events = {
      {ProbePoint::kVcaIrq, 1, Milliseconds(12)},
      {ProbePoint::kVcaIrq, 2, Milliseconds(24)},
      {ProbePoint::kPreTransmit, 1, Milliseconds(15)},
      {ProbePoint::kVcaIrq, 3, Milliseconds(37)},
  };
  const std::vector<SimDuration> intervals = InterOccurrence(events, ProbePoint::kVcaIrq);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0], Milliseconds(12));
  EXPECT_EQ(intervals[1], Milliseconds(13));
}

TEST(IntervalAnalyzerTest, MatchedDifferenceSkipsUnpaired) {
  std::vector<ProbeEvent> events = {
      {ProbePoint::kVcaHandlerEntry, 1, Microseconds(100)},
      {ProbePoint::kPreTransmit, 1, Microseconds(2700)},
      {ProbePoint::kVcaHandlerEntry, 2, Microseconds(12100)},
      // packet 2 was lost before transmit
      {ProbePoint::kVcaHandlerEntry, 3, Microseconds(24100)},
      {ProbePoint::kPreTransmit, 3, Microseconds(26700)},
  };
  const std::vector<SimDuration> diffs =
      MatchedDifference(events, ProbePoint::kVcaHandlerEntry, ProbePoint::kPreTransmit);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0], Microseconds(2600));
  EXPECT_EQ(diffs[1], Microseconds(2600));
}

TEST(IntervalAnalyzerTest, DuplicateKeepsFirstObservation) {
  std::vector<ProbeEvent> events = {
      {ProbePoint::kPreTransmit, 1, Microseconds(100)},
      {ProbePoint::kRxClassified, 1, Microseconds(10840)},
      {ProbePoint::kRxClassified, 1, Microseconds(20000)},  // duplicate (retransmission)
  };
  const std::vector<SimDuration> diffs =
      MatchedDifference(events, ProbePoint::kPreTransmit, ProbePoint::kRxClassified);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0], Microseconds(10740));
}

TEST(IntervalAnalyzerTest, MatchedDifferenceIsInSeqOrderWhateverTheEventOrder) {
  // Retransmissions reach a probe point out of sequence order; each seq still pairs its
  // first observation at both points, and the output is ordered by seq.
  std::vector<ProbeEvent> events = {
      {ProbePoint::kPreTransmit, 7, Microseconds(100)},
      {ProbePoint::kPreTransmit, 3, Microseconds(200)},
      {ProbePoint::kRxClassified, 3, Microseconds(1200)},
      {ProbePoint::kPreTransmit, 7, Microseconds(300)},  // retransmission of 7
      {ProbePoint::kRxClassified, 7, Microseconds(1400)},
      {ProbePoint::kRxClassified, 3, Microseconds(5000)},  // duplicate of 3
      {ProbePoint::kPreTransmit, 5, Microseconds(6000)},   // never received
  };
  const std::vector<SimDuration> diffs =
      MatchedDifference(events, ProbePoint::kPreTransmit, ProbePoint::kRxClassified);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0], Microseconds(1000));  // seq 3
  EXPECT_EQ(diffs[1], Microseconds(1300));  // seq 7, from its first pre-transmit
}

TEST(IntervalAnalyzerTest, BuildPaperHistogramsFillsAllSeven) {
  std::vector<ProbeEvent> events;
  for (uint32_t i = 1; i <= 3; ++i) {
    const SimTime base = i * Milliseconds(12);
    events.push_back({ProbePoint::kVcaIrq, i, base});
    events.push_back({ProbePoint::kVcaHandlerEntry, i, base + Microseconds(60)});
    events.push_back({ProbePoint::kPreTransmit, i, base + Microseconds(2660)});
    events.push_back({ProbePoint::kRxClassified, i, base + Microseconds(13400)});
  }
  const PaperHistograms h = BuildPaperHistograms(events);
  EXPECT_EQ(h.inter_irq.count(), 2u);
  EXPECT_EQ(h.inter_handler.count(), 2u);
  EXPECT_EQ(h.inter_pre_tx.count(), 2u);
  EXPECT_EQ(h.inter_rx.count(), 2u);
  EXPECT_EQ(h.irq_to_handler.count(), 3u);
  EXPECT_EQ(h.handler_to_pre_tx.count(), 3u);
  EXPECT_EQ(h.pre_tx_to_rx.count(), 3u);
  EXPECT_EQ(h.irq_to_handler.Summary().min, Microseconds(60));
  EXPECT_EQ(h.pre_tx_to_rx.Summary().min, Microseconds(10740));
}


TEST(ExportTest, SamplesCsvRoundTrips) {
  Histogram hist("h");
  hist.AddAll({Microseconds(10740), Microseconds(10894), Microseconds(14600)});
  const std::string path = ::testing::TempDir() + "/samples.csv";
  ASSERT_TRUE(WriteSamplesCsv(hist, path));
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char line[64];
  ASSERT_NE(std::fgets(line, sizeof(line), file), nullptr);
  EXPECT_STREQ(line, "sample_us\n");
  ASSERT_NE(std::fgets(line, sizeof(line), file), nullptr);
  EXPECT_STREQ(line, "10740\n");
  std::fclose(file);
}

TEST(ExportTest, BinnedCsvCountsPerBin) {
  Histogram hist("h");
  for (int i = 0; i < 5; ++i) {
    hist.Add(Microseconds(2600));
  }
  hist.Add(Microseconds(9400));
  const std::string path = ::testing::TempDir() + "/binned.csv";
  ASSERT_TRUE(WriteBinnedCsv(hist, Microseconds(500), path));
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char line[64];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    contents += line;
  }
  std::fclose(file);
  EXPECT_NE(contents.find("2500,5"), std::string::npos);
  EXPECT_NE(contents.find("9000,1"), std::string::npos);
}

TEST(ExportTest, RejectsBadBinWidthAndBadPath) {
  Histogram hist("h");
  hist.Add(1);
  EXPECT_FALSE(WriteBinnedCsv(hist, 0, ::testing::TempDir() + "/x.csv"));
  EXPECT_FALSE(WriteSamplesCsv(hist, "/nonexistent-dir-zzz/x.csv"));
}

TEST(ExportTest, AllWritersReportUnwritablePath) {
  Histogram hist("h");
  hist.Add(Microseconds(1));
  const std::string bad = "/nonexistent-dir-zzz/out.csv";
  EXPECT_FALSE(WriteSamplesCsv(hist, bad));
  EXPECT_FALSE(WriteBinnedCsv(hist, Microseconds(500), bad));
  std::vector<ProbeEvent> events = {{ProbePoint::kPreTransmit, 1, Microseconds(10)}};
  EXPECT_FALSE(WriteEventsCsv(events, bad));
}

TEST(ExportTest, PaperHistogramsWriteSevenFiles) {
  PaperHistograms histograms;
  histograms.pre_tx_to_rx.Add(Microseconds(10740));
  const std::string prefix = ::testing::TempDir() + "/paper";
  EXPECT_EQ(WritePaperHistogramsCsv(histograms, prefix), 7);
}

TEST(ExportTest, EventsCsvNamesProbePoints) {
  std::vector<ProbeEvent> events = {{ProbePoint::kPreTransmit, 7, Microseconds(100)}};
  const std::string path = ::testing::TempDir() + "/events.csv";
  ASSERT_TRUE(WriteEventsCsv(events, path));
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char line[64];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    contents += line;
  }
  std::fclose(file);
  EXPECT_NE(contents.find("pre-transmit,7,100"), std::string::npos);
}

}  // namespace
}  // namespace ctms

