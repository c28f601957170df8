// Journey recorder: unit semantics (id lifecycle, stage deltas, flight ring, anomalies),
// the §5.2.1 trip conditions (lost packet, incorrect ordering, long inter-occurrence) and
// the halt at the first one, and the two end-to-end guarantees — a short Test Case B with
// journeys covers every stage from source IRQ to delivery, and a same-seed run of every
// experiment that reads --journeys reports the same with the recorder on or off.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/core/ctms.h"
#include "src/core/experiment_registry.h"
#include "src/telemetry/journey.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "tests/report_matchers.h"

namespace ctms {
namespace {

TEST(JourneyRecorderTest, DisabledRecorderIsInert) {
  Telemetry telemetry;
  JourneyRecorder& journeys = telemetry.journeys;
  EXPECT_FALSE(journeys.enabled());
  const uint64_t id = journeys.Begin(1, 1000);
  EXPECT_EQ(id, 0u);
  journeys.Stamp(id, JourneyStage::kMbufAlloc, 2000);
  journeys.Complete(id, 3000);
  journeys.Abort(id, JourneyAnomaly::kDrop, 4000);
  EXPECT_TRUE(journeys.flight().empty());
  EXPECT_FALSE(journeys.anomaly_fired());
  // Lazy registration: a disabled recorder leaves the metrics JSON untouched.
  EXPECT_EQ(telemetry.metrics.CountersWithPrefix("journey."), 0u);
}

TEST(JourneyRecorderTest, StageDeltasAndEndToEnd) {
  Telemetry telemetry;
  JourneyRecorder& journeys = telemetry.journeys;
  journeys.Enable();
  const uint64_t id = journeys.Begin(7, 1000);
  ASSERT_NE(id, 0u);
  journeys.Stamp(id, JourneyStage::kMbufAlloc, 1400);
  journeys.Stamp(id, JourneyStage::kIfqEnqueue, 1400);  // same instant: delta 0
  journeys.Stamp(id, JourneyStage::kIfqDequeue, 2000);
  journeys.Complete(id, 5000);
  EXPECT_EQ(journeys.completed(), 1u);
  MetricsRegistry& metrics = telemetry.metrics;
  // First stamped stage anchors at 0; each later stage records the delta from the
  // previous stamped stage; unstamped stages observe nothing.
  EXPECT_EQ(metrics.GetSummary("journey.stage.source_irq")->count(), 1u);
  EXPECT_EQ(metrics.GetSummary("journey.stage.source_irq")->max(), 0);
  EXPECT_EQ(metrics.GetSummary("journey.stage.mbuf_alloc")->max(), 400);
  EXPECT_EQ(metrics.GetSummary("journey.stage.ifq_enqueue")->max(), 0);
  EXPECT_EQ(metrics.GetSummary("journey.stage.ifq_dequeue")->max(), 600);
  EXPECT_EQ(metrics.GetSummary("journey.stage.driver_tx_start")->count(), 0u);
  EXPECT_EQ(metrics.GetSummary("journey.stage.delivery")->max(), 3000);
  EXPECT_EQ(metrics.GetSummary("journey.e2e")->max(), 4000);
  EXPECT_EQ(metrics.GetCounter("journey.completed")->value(), 1u);
}

TEST(JourneyRecorderTest, RestampOverwrites) {
  Telemetry telemetry;
  JourneyRecorder& journeys = telemetry.journeys;
  journeys.Enable();
  const uint64_t id = journeys.Begin(1, 0);
  journeys.Stamp(id, JourneyStage::kDriverTxStart, 100);
  journeys.Stamp(id, JourneyStage::kDriverTxStart, 900);  // final hop wins
  journeys.Complete(id, 1000);
  EXPECT_EQ(telemetry.metrics.GetSummary("journey.stage.driver_tx_start")->max(), 900);
  EXPECT_EQ(telemetry.metrics.GetSummary("journey.stage.delivery")->max(), 100);
}

TEST(JourneyRecorderTest, FlightRingBoundedAndAnomaliesPinned) {
  Telemetry telemetry;
  JourneyRecorder& journeys = telemetry.journeys;
  journeys.set_flight_capacity(4);
  journeys.Enable();
  // One early drop, then far more clean traffic than the ring holds.
  const uint64_t bad = journeys.Begin(0, 0);
  journeys.Abort(bad, JourneyAnomaly::kDrop, 10);
  for (uint32_t i = 1; i <= 20; ++i) {
    const uint64_t id = journeys.Begin(i, i * 100);
    journeys.Complete(id, i * 100 + 50);
  }
  EXPECT_EQ(journeys.flight().size(), 4u);
  bool anomalous_retained = false;
  for (const JourneyRecord& record : journeys.flight()) {
    anomalous_retained = anomalous_retained || record.anomaly >= 0;
  }
  EXPECT_TRUE(anomalous_retained) << "clean journeys evicted the anomaly before the dump";
}

TEST(JourneyRecorderTest, AnomaliesCountAndArmTheDump) {
  Telemetry telemetry;
  JourneyRecorder& journeys = telemetry.journeys;
  journeys.Enable();
  EXPECT_FALSE(journeys.anomaly_fired());
  const uint64_t id = journeys.Begin(3, 500);
  journeys.Stamp(id, JourneyStage::kIfqEnqueue, 700);
  journeys.Abort(id, JourneyAnomaly::kDrop, 800);
  journeys.NoteAnomaly(JourneyAnomaly::kRetransmit, 900);
  EXPECT_TRUE(journeys.anomaly_fired());
  EXPECT_EQ(journeys.aborted(), 1u);
  EXPECT_EQ(journeys.anomaly_count(JourneyAnomaly::kDrop), 1u);
  EXPECT_EQ(journeys.anomaly_count(JourneyAnomaly::kRetransmit), 1u);
  EXPECT_EQ(telemetry.metrics.GetCounter("journey.anomaly.drop")->value(), 1u);
  const std::string json = journeys.FlightJson();
  EXPECT_NE(json.find("\"anomaly\": \"drop\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"retransmit\": 1"), std::string::npos) << json;
}

TEST(JourneyRecorderTest, DeadlineMissFiresOnSlowDelivery) {
  Telemetry telemetry;
  JourneyRecorder& journeys = telemetry.journeys;
  journeys.set_deadline(1000);
  journeys.Enable();
  const uint64_t fast = journeys.Begin(1, 0);
  journeys.Complete(fast, 999);
  EXPECT_FALSE(journeys.anomaly_fired());
  const uint64_t slow = journeys.Begin(2, 0);
  journeys.Complete(slow, 1001);
  EXPECT_TRUE(journeys.anomaly_fired());
  EXPECT_EQ(journeys.anomaly_count(JourneyAnomaly::kDeadlineMiss), 1u);
}

TEST(JourneyRecorderTest, DumpToTracerEmitsPerPacketTracks) {
  Telemetry telemetry;
  telemetry.tracer.set_enabled(true);
  JourneyRecorder& journeys = telemetry.journeys;
  journeys.Enable();
  const uint64_t id = journeys.Begin(11, 100);
  journeys.Stamp(id, JourneyStage::kMbufAlloc, 250);
  journeys.Complete(id, 400);
  journeys.DumpToTracer();
  EXPECT_FALSE(telemetry.tracer.spans().empty());
  bool journey_track = false;
  for (const auto& track : telemetry.tracer.tracks()) {
    journey_track = journey_track || track.find("journey.") != std::string::npos;
  }
  EXPECT_TRUE(journey_track);
}

// --- the §5.2.1 trip conditions ---------------------------------------------------------

TEST(JourneyAnomalyTest, HaltsOnLostPacket) {
  Simulation sim(1);
  JourneyRecorder& journeys = sim.telemetry().journeys;
  journeys.set_deadline(Milliseconds(48));
  journeys.Enable();
  journeys.set_halt_hook([&sim]() { sim.Stop(); });
  for (uint32_t seq = 1; seq <= 5; ++seq) {
    sim.At(seq * Milliseconds(12), [&journeys, &sim, seq]() {
      const uint64_t id = journeys.Begin(seq, sim.Now());
      if (seq == 3) {
        journeys.Abort(id, JourneyAnomaly::kDrop, sim.Now());  // 3 vanished
      } else {
        journeys.Complete(id, sim.Now());
      }
    });
  }
  sim.RunFor(Seconds(10));
  // The drop halted the run at its own instant: packets 4 and 5 never left.
  EXPECT_EQ(sim.Now(), Milliseconds(36));
  EXPECT_EQ(journeys.anomaly_count(JourneyAnomaly::kDrop), 1u);
  EXPECT_EQ(journeys.begun(), 3u);
  // The flight ring is the snapshot: the window up to and including the lost packet.
  ASSERT_EQ(journeys.flight().size(), 3u);
  EXPECT_EQ(journeys.flight().back().seq, 3u);
  EXPECT_EQ(journeys.flight().back().anomaly, static_cast<int>(JourneyAnomaly::kDrop));
}

TEST(JourneyAnomalyTest, CountsReorderEvictionThenStall) {
  Telemetry telemetry;
  JourneyRecorder& journeys = telemetry.journeys;
  journeys.set_deadline(Milliseconds(48));
  journeys.Enable();
  // Incorrect ordering: 4 arrives after 5 and the receiver refuses it.
  journeys.Complete(journeys.Begin(5, Milliseconds(80)), Milliseconds(90));
  journeys.Abort(journeys.Begin(4, Milliseconds(80)), JourneyAnomaly::kReorderEvict,
                 Milliseconds(91));
  journeys.Complete(journeys.Begin(6, Milliseconds(92)), Milliseconds(100));
  EXPECT_EQ(journeys.anomaly_count(JourneyAnomaly::kReorderEvict), 1u);
  EXPECT_EQ(journeys.anomaly_count(JourneyAnomaly::kStall), 0u);
  // A long inter-occurrence: the next delivery comes 200 ms after the one at 100 ms, more
  // than one deadline, though the packet itself is on time.
  journeys.Complete(journeys.Begin(7, Milliseconds(296)), Milliseconds(300));
  EXPECT_EQ(journeys.anomaly_count(JourneyAnomaly::kStall), 1u);
  EXPECT_EQ(journeys.anomaly_count(JourneyAnomaly::kDeadlineMiss), 0u);
  EXPECT_EQ(journeys.flight().back().anomaly, static_cast<int>(JourneyAnomaly::kStall));
  EXPECT_EQ(telemetry.metrics.GetCounter("journey.anomaly.stall")->value(), 1u);
  EXPECT_NE(journeys.FlightJson().find("\"stall\": 1"), std::string::npos);
}

TEST(JourneyAnomalyTest, CleanStreamNeverTrips) {
  Telemetry telemetry;
  JourneyRecorder& journeys = telemetry.journeys;
  journeys.set_deadline(Milliseconds(48));
  journeys.Enable();
  for (uint32_t seq = 1; seq <= 500; ++seq) {
    const uint64_t id = journeys.Begin(seq, seq * Milliseconds(12));
    journeys.Complete(id, seq * Milliseconds(12) + Microseconds(10800));
  }
  EXPECT_FALSE(journeys.anomaly_fired());
  EXPECT_EQ(journeys.completed(), 500u);
}

TEST(JourneyAnomalyTest, HaltsTheWholeTestbedOnInjectedLoss) {
  // End to end, the way the paper used it: a Test Case A stream with the recorder set up as
  // --journeys sets it up and the halt armed; a purge kills a packet mid-run; every machine
  // freezes at the trip point.
  ScenarioConfig cli;
  cli.duration_s = 30;
  cli.journeys = true;
  CtmsExperiment experiment(CtmsConfigFrom(cli));
  JourneyRecorder& journeys = experiment.sim().telemetry().journeys;
  ConfigureJourneys(cli, &journeys);
  journeys.set_halt_hook([&experiment]() { experiment.sim().Stop(); });
  experiment.Start();
  // 511 ms is mid-wire for the packet sent at 504 ms: the purge kills exactly that one.
  experiment.sim().After(Milliseconds(511),
                         [&experiment]() { experiment.ring().TriggerRingPurge(); });
  experiment.sim().RunFor(Seconds(30));
  ASSERT_TRUE(journeys.anomaly_fired());
  EXPECT_EQ(journeys.anomaly_count(JourneyAnomaly::kDrop), 1u);
  EXPECT_EQ(journeys.flight().back().anomaly, static_cast<int>(JourneyAnomaly::kDrop));
  // The halt froze the run well before the configured end.
  EXPECT_LT(experiment.sim().Now(), Seconds(2));
}

TEST(JourneyAnomalyTest, DeadlineScalesWithRouterChainDepth) {
  // Each store-and-forward hop adds about one packet period, so a flat 4-period deadline
  // (48 ms) would mark every delivery of a healthy 3-hop chain (e2e ~63 ms) late.
  ScenarioConfig cli;
  cli.experiment = "router";
  cli.chain_hops = 3;
  cli.duration_s = 3;
  cli.journeys = true;
  const ExperimentRun run = FindExperiment("router")->run(cli, /*output=*/false);
  EXPECT_TRUE(run.healthy);
  EXPECT_GT(run.metrics->GetCounter("journey.completed")->value(), 0u);
  EXPECT_EQ(run.metrics->GetCounter("journey.anomaly.deadline_miss")->value(), 0u);
  EXPECT_GT(run.metrics->GetSummary("journey.e2e")->max(), 4 * Milliseconds(cli.period_ms));
}

// --- end to end ----------------------------------------------------------------------------

TEST(JourneyEndToEndTest, ShortTestCaseBCoversEveryStage) {
  CtmsConfig config = TestCaseB();
  config.duration = Seconds(2);
  CtmsExperiment experiment(config);
  experiment.sim().telemetry().journeys.Enable();
  const ExperimentReport report = experiment.Run();
  MetricsRegistry& metrics = experiment.sim().telemetry().metrics;
  for (int s = 0; s < kJourneyStageCount; ++s) {
    const std::string name =
        std::string("journey.stage.") + JourneyStageName(static_cast<JourneyStage>(s));
    EXPECT_GT(metrics.GetSummary(name)->count(), 0u) << name << " never stamped";
  }
  EXPECT_EQ(metrics.GetCounter("journey.completed")->value(), report.packets_delivered);
  EXPECT_EQ(metrics.GetSummary("journey.e2e")->count(), report.packets_delivered);
  // An e2e latency below one ring rotation or above a second would be nonsense.
  EXPECT_GT(metrics.GetSummary("journey.e2e")->min(), 0);
  EXPECT_LT(metrics.GetSummary("journey.e2e")->max(), Seconds(1));
}

// Every registry entry outside journey.*, rendered for comparison.
std::map<std::string, std::string> NonJourneyEntries(const MetricsRegistry& metrics) {
  std::map<std::string, std::string> entries;
  const auto keep = [](const std::string& name) {
    return name.find("journey.") == std::string::npos;
  };
  for (const auto& [name, counter] : metrics.counters()) {
    if (keep(name)) {
      entries["counter " + name] = std::to_string(counter.value());
    }
  }
  for (const auto& [name, gauge] : metrics.gauges()) {
    if (keep(name)) {
      entries["gauge " + name] =
          std::to_string(gauge.value()) + " peak " + std::to_string(gauge.peak());
    }
  }
  for (const auto& [name, summary] : metrics.summaries()) {
    if (keep(name)) {
      entries["summary " + name] = std::to_string(summary.count()) + " " +
                                   std::to_string(summary.sum()) + " " +
                                   std::to_string(summary.min()) + " " +
                                   std::to_string(summary.max());
    }
  }
  return entries;
}

TEST(GoldenEquivalence, JourneysOnOffReportsIdentical) {
  // The recorder observes; it must not perturb. Every row that reads --journeys runs one
  // seed with journeys off and on (plus stage histograms and a small flight ring where the
  // row reads them): same stats, same health verdict, same registry outside journey.*.
  int rows = 0;
  for (const ExperimentEntry& entry : Experiments()) {
    if (entry.run == nullptr || !ScenarioFlagReadBy("journeys", entry.name)) {
      continue;
    }
    SCOPED_TRACE(entry.name);
    ++rows;
    ScenarioConfig off;
    off.experiment = entry.name;
    off.duration_s = 3;
    off.seed = 3;
    if (ScenarioFlagReadBy("scenario", entry.name)) {
      off.scenario = "B";
    }
    ScenarioConfig on = off;
    on.journeys = true;
    if (ScenarioFlagReadBy("stage-histograms", entry.name)) {
      on.stage_histograms = true;
      on.flight_recorder = 8;
    }
    ASSERT_EQ(ValidateScenarioConfig(on), "");
    const ExperimentRun without = entry.run(off, /*output=*/false);
    const ExperimentRun with = entry.run(on, /*output=*/false);
    ExpectSameStatList(without.info.stats, with.info.stats);
    EXPECT_EQ(without.healthy, with.healthy);
    ASSERT_TRUE(without.metrics != nullptr && with.metrics != nullptr);
    EXPECT_EQ(NonJourneyEntries(*without.metrics), NonJourneyEntries(*with.metrics));
    uint64_t begun = 0;  // a fabric's registry holds every shard's under "shard<i>."
    for (const auto& [name, counter] : with.metrics->counters()) {
      begun += name.ends_with("journey.begun") ? counter.value() : 0;
    }
    EXPECT_GT(begun, 0u);
  }
  EXPECT_EQ(rows, 5);  // ctms, server, router, fabric, mediamix

  // And ctms's report byte for byte: its latency summaries (handler_to_pre_tx,
  // pre_tx_to_rx) are what stamps on CPU steps could shift, and the registry holds neither.
  const auto ctms_summary = [](bool journeys) {
    CtmsConfig config = TestCaseB();
    config.duration = Seconds(3);
    CtmsExperiment experiment(config);
    ScenarioConfig cli;
    cli.journeys = journeys;
    cli.stage_histograms = true;
    cli.flight_recorder = 8;
    ConfigureJourneys(cli, &experiment.sim().telemetry().journeys);
    return experiment.Run().Summary();
  };
  EXPECT_EQ(ctms_summary(false), ctms_summary(true));
}

}  // namespace
}  // namespace ctms
