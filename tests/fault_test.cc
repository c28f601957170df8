#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/core/experiment.h"
#include "src/core/faultsweep.h"
#include "src/core/report_stats.h"
#include "src/core/scenario.h"
#include "src/fabric/fabric.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/proto/degradation.h"
#include "tests/report_matchers.h"

namespace ctms {
namespace {

// --- plan parsing -------------------------------------------------------------------------

constexpr const char* kFullPlanJson = R"({
  "version": 1,
  "events": [
    {"kind": "purge_storm", "at_ms": 2000, "count": 8, "spacing_us": 3000, "jitter_us": 500},
    {"kind": "station_insertion", "at_ms": 3000},
    {"kind": "adapter_stall", "at_ms": 1000, "duration_ms": 40, "station": "tx",
     "component": "driver"},
    {"kind": "frame_corruption", "at_ms": 500, "duration_ms": 200, "probability": 0.25},
    {"kind": "congestion_burst", "at_ms": 700, "count": 50, "spacing_us": 800,
     "bytes": 1522, "priority": 0},
    {"kind": "receiver_overrun", "at_ms": 900, "duration_ms": 30, "station": "rx"}
  ]
})";

TEST(FaultPlanTest, ParsesEveryKindAndSortsByTriggerTime) {
  std::string error;
  auto plan = FaultPlan::Parse(kFullPlanJson, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->size(), 6u);
  // Events come back sorted by at, not in file order.
  const auto& events = plan->events();
  EXPECT_EQ(events[0].kind, FaultKind::kFrameCorruption);
  EXPECT_EQ(events[0].at, Milliseconds(500));
  EXPECT_EQ(events[0].duration, Milliseconds(200));
  EXPECT_DOUBLE_EQ(events[0].probability, 0.25);
  EXPECT_EQ(events[1].kind, FaultKind::kCongestionBurst);
  EXPECT_EQ(events[1].count, 50);
  EXPECT_EQ(events[1].spacing, Microseconds(800));
  EXPECT_EQ(events[2].kind, FaultKind::kReceiverOverrun);
  EXPECT_EQ(events[2].station, "rx");
  EXPECT_EQ(events[3].kind, FaultKind::kAdapterStall);
  EXPECT_EQ(events[3].component, "driver");
  EXPECT_EQ(events[4].kind, FaultKind::kPurgeStorm);
  EXPECT_EQ(events[4].count, 8);
  EXPECT_EQ(events[4].jitter, Microseconds(500));
  EXPECT_EQ(events[5].kind, FaultKind::kStationInsertion);
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  std::string error;
  EXPECT_FALSE(FaultPlan::Parse("not json at all", &error).has_value());
  EXPECT_FALSE(FaultPlan::Parse(R"({"version": 2, "events": []})", &error).has_value());
  EXPECT_FALSE(FaultPlan::Parse(R"({"version": 1})", &error).has_value());
  EXPECT_FALSE(
      FaultPlan::Parse(R"({"version": 1, "events": [{"at_ms": 5}]})", &error).has_value());
  EXPECT_FALSE(
      FaultPlan::Parse(R"({"version": 1, "events": [{"kind": "purge_storm"}]})", &error)
          .has_value());
  EXPECT_FALSE(FaultPlan::Parse(
                   R"({"version": 1, "events": [{"kind": "gamma_ray", "at_ms": 1}]})", &error)
                   .has_value());
  EXPECT_FALSE(FaultPlan::Parse(
                   R"({"version": 1, "events":
                       [{"kind": "frame_corruption", "at_ms": 1, "probability": 1.5}]})",
                   &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(FaultPlanTest, RefusesDeepNestingWithoutOverflowingTheStack) {
  // 100,000 levels used to recurse the parser off the end of the stack (a segfault).
  std::string error;
  EXPECT_FALSE(FaultPlan::Parse(std::string(100'000, '['), &error).has_value());
  EXPECT_EQ(error, "nesting deeper than 64 levels at offset 64");
  // 64 levels is still parsed; the plan is then refused for its shape, not its depth.
  const std::string deep = std::string(64, '[') + std::string(64, ']');
  EXPECT_FALSE(FaultPlan::Parse(deep, &error).has_value());
  EXPECT_EQ(error.find("nesting"), std::string::npos) << error;
}

TEST(FaultPlanTest, LoadFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/fault_plan_test.json";
  {
    std::ofstream out(path);
    out << kFullPlanJson;
  }
  std::string error;
  auto plan = FaultPlan::LoadFile(path, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->size(), 6u);
  std::remove(path.c_str());
  EXPECT_FALSE(FaultPlan::LoadFile(path, &error).has_value());
}

TEST(FaultPlanTest, AddKeepsSameTimeEventsInInsertionOrder) {
  FaultPlan plan;
  plan.Add(FaultPlan::StationInsertion(Milliseconds(10)));
  plan.Add(FaultPlan::PurgeStorm(Milliseconds(5), 3, Milliseconds(1)));
  plan.Add(FaultPlan::CongestionBurst(Milliseconds(10), 4, Microseconds(500)));
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kPurgeStorm);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kStationInsertion);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kCongestionBurst);
}

// --- experiment integration ---------------------------------------------------------------
// ShortScenario() comes from tests/report_matchers.h: TestCaseA, 3 s, seed 7.

TEST(FaultInjectionTest, EmptyPlanInstallsNoInjector) {
  CtmsConfig config = ShortScenario();
  CtmsExperiment experiment(config);
  EXPECT_EQ(experiment.topology().fault_injector(), nullptr);
  experiment.Run();
  // No injector means no fault.* telemetry either: the metrics JSON of a plan-free run is
  // unchanged from before the fault subsystem existed.
  for (const auto& [name, counter] : experiment.sim().telemetry().metrics.counters()) {
    EXPECT_NE(name.rfind("fault.", 0), 0u) << name;
  }
}

TEST(FaultInjectionTest, SameSeedAndPlanReproducesBitIdenticalRuns) {
  auto run_once = [](std::vector<std::pair<std::string, double>>* fault_stats) {
    CtmsConfig config = ShortScenario();
    config.faults.Add(FaultPlan::PurgeStorm(Seconds(1), 10, Milliseconds(4),
                                            /*jitter=*/Microseconds(700)));
    config.faults.Add(FaultPlan::FrameCorruption(Milliseconds(1800), Milliseconds(150), 0.5));
    CtmsExperiment experiment(config);
    const ExperimentReport report = experiment.Run();
    const FaultInjector* injector = experiment.topology().fault_injector();
    EXPECT_NE(injector, nullptr);
    *fault_stats = injector->report().Stats();
    return report;
  };
  std::vector<std::pair<std::string, double>> stats_a;
  std::vector<std::pair<std::string, double>> stats_b;
  const ExperimentReport a = run_once(&stats_a);
  const ExperimentReport b = run_once(&stats_b);
  ExpectSameStatList(stats_a, stats_b);
  ExpectSameAccounting(a, b);
}

TEST(FaultInjectionTest, PurgeStormCausesLossAndRetransmitRecovers) {
  auto run_with = [](DegradationMode mode) {
    CtmsConfig config = ShortScenario();
    config.degradation = mode;
    config.faults.Add(FaultPlan::PurgeStorm(Seconds(1), 25, Milliseconds(4)));
    CtmsExperiment experiment(config);
    return experiment.Run();
  };
  const ExperimentReport drop = run_with(DegradationMode::kDropOldest);
  const ExperimentReport retransmit = run_with(DegradationMode::kPurgeRetransmit);
  EXPECT_GT(drop.packets_lost, 0u);
  EXPECT_GT(retransmit.packets_delivered, drop.packets_delivered);
  EXPECT_GT(retransmit.retransmissions + retransmit.late_recovered, 0u);
}

TEST(FaultInjectionTest, DriverFreezeAndSourceStallAreCountedAndSurvivable) {
  CtmsConfig config = ShortScenario();
  config.faults.Add(
      FaultPlan::AdapterStall(Seconds(1), Milliseconds(40), "tx", "driver"));
  config.faults.Add(
      FaultPlan::AdapterStall(Milliseconds(1500), Milliseconds(30), "tx", "source"));
  config.faults.Add(FaultPlan::AdapterStall(Seconds(2), Milliseconds(20), "tx", "adapter"));
  CtmsExperiment experiment(config);
  const ExperimentReport report = experiment.Run();
  const FaultInjector* injector = experiment.topology().fault_injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(injector->report().driver_freezes, 1u);
  EXPECT_EQ(injector->report().source_stalls, 1u);
  EXPECT_EQ(injector->report().adapter_stalls, 1u);
  EXPECT_EQ(injector->report().events_applied, 3u);
  // The stream keeps flowing after the stalls clear.
  EXPECT_GT(report.packets_delivered, 0u);
}

TEST(FaultInjectionTest, CorruptionWindowDestroysFramesDeterministically) {
  CtmsConfig config = ShortScenario();
  config.faults.Add(FaultPlan::FrameCorruption(Seconds(1), Milliseconds(200), 1.0));
  CtmsExperiment experiment(config);
  const ExperimentReport report = experiment.Run();
  const FaultInjector* injector = experiment.topology().fault_injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(injector->report().corruption_windows, 1u);
  // p=1.0 for ~16 stream periods: every CTMSP frame in the window dies.
  EXPECT_GT(injector->report().frames_corrupted, 10u);
  EXPECT_GT(report.packets_lost, 10u);
}

TEST(FaultInjectionTest, CongestionBurstAndOverrunAreInjected) {
  CtmsConfig config = ShortScenario();
  config.faults.Add(FaultPlan::CongestionBurst(Seconds(1), 40, Microseconds(800)));
  config.faults.Add(FaultPlan::ReceiverOverrun(Milliseconds(1500), Milliseconds(30), "rx"));
  CtmsExperiment experiment(config);
  experiment.Run();
  const FaultInjector* injector = experiment.topology().fault_injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(injector->report().congestion_frames, 40u);
  EXPECT_EQ(injector->report().overrun_windows, 1u);
}

TEST(FaultInjectionTest, BridgeStallDropsAreDeterministicAndAccountedPerHop) {
  auto run = []() {
    FabricConfig config;
    config.topology = FabricTopology::kChain;
    config.rings = 2;
    config.stations_per_ring = 4;
    config.duration = Seconds(5);
    config.fault_shard = 1;
    // Freeze the receiving bridge's driver tx path for ~125 stream periods: the fabric
    // keeps injecting the 0 -> 1 flow into its CTMSP queue, StartNextTx refuses to drain
    // it while frozen, so the 50-deep queue overflows and every overflow must show up in
    // that hop's row. (An adapter-component stall would not do this — a stalled card
    // still consumes frames, completing them kAdapterStalled without touching the wire.)
    config.faults.Add(
        FaultPlan::AdapterStall(Seconds(1), Milliseconds(1500), "bridge0", "driver"));
    FabricExperiment experiment(config);
    const FabricReport report = experiment.Run();
    EXPECT_NE(experiment.shard(1).fault_injector(), nullptr);
    return report;
  };
  const FabricReport report = run();
  ASSERT_EQ(report.hops.size(), 2u);
  // Drops land on the stalled direction's row and nowhere else — no silent loss.
  EXPECT_GT(report.hops[0].queue_drops, 0u);  // s0 -> s1 injects at the stalled bridge
  EXPECT_EQ(report.hops[1].queue_drops, 0u);  // s1 -> s0 is untouched
  EXPECT_GT(report.packets_lost, 0u);         // the receiver observes the gaps
  EXPECT_GE(report.packets_lost, report.hops[0].queue_drops);
  EXPECT_FALSE(report.Healthy());
  // Bit-for-bit reproducible: the whole per-hop stat list, not just headline counters.
  EXPECT_EQ(SummaryStats(report), SummaryStats(run()));
}

TEST(FaultInjectionTest, StopStreamCancelsRetriesPendingInBackoff) {
  CtmsConfig config = ShortScenario();
  config.degradation = DegradationMode::kPurgeRetransmit;
  config.retry_backoff = Milliseconds(50);  // wide window so the stop lands inside it
  config.faults.Add(FaultPlan::PurgeStorm(Seconds(1), 10, Milliseconds(4)));
  CtmsExperiment experiment(config);
  experiment.Start();
  // Stop mid-storm: failed packets have been granted retries whose backoff has not yet
  // expired. Those retries target the driver of a stream that no longer exists.
  experiment.sim().RunUntil(Seconds(1) + Milliseconds(20));
  const DegradationPolicy* policy = experiment.degradation_policy();
  ASSERT_NE(policy, nullptr);
  ASSERT_GT(policy->retransmits(), 0u);  // the stop really lands mid-recovery
  experiment.StopStream();
  const uint64_t requeues_at_stop = experiment.tx_driver().retransmit_requests();
  // Under ASan this is the teardown probe: a surviving backoff retry would fire
  // RetransmitCtmsp into the stopped stream. StopStream must have cancelled them all.
  experiment.sim().RunUntil(Seconds(3));
  EXPECT_EQ(experiment.tx_driver().retransmit_requests(), requeues_at_stop);
}

// --- faultsweep ---------------------------------------------------------------------------

TEST(FaultSweepTest, SweepPlansInheritBaseRngSalt) {
  FaultSweepConfig config;
  config.base = ShortScenario();
  config.base.faults.set_rng_salt(5);
  config.levels = 2;
  FaultSweepExperiment sweep(config);
  // Campaign cells salt the base plan to decorrelate faults across runs; the generated
  // sweep plans must carry the salt through or the decorrelation silently disappears.
  EXPECT_EQ(sweep.PlanForLevel(0).rng_salt(), 5u);
  EXPECT_EQ(sweep.PlanForLevel(1).rng_salt(), 5u);
}

TEST(FaultSweepTest, DegradationCurveIsMonotoneAndRetransmitWins) {
  FaultSweepConfig config;
  config.base = TestCaseA();
  config.base.duration = Seconds(3);
  config.base.seed = 7;
  config.levels = 3;
  config.purges_per_storm = 25;
  config.purge_spacing = Milliseconds(4);
  config.first_storm_at = Seconds(1);
  config.storm_period = Milliseconds(400);
  FaultSweepExperiment sweep(config);

  // Level L's plan is a strict superset of level L-1's (same times, later storms appended).
  const FaultPlan level1 = sweep.PlanForLevel(1);
  const FaultPlan level2 = sweep.PlanForLevel(2);
  ASSERT_EQ(level1.size(), 1u);
  ASSERT_EQ(level2.size(), 2u);
  EXPECT_EQ(level2.events()[0].at, level1.events()[0].at);

  const FaultSweepReport report = sweep.Run();
  ASSERT_EQ(report.rows.size(), 6u);  // 3 levels x 2 policies
  EXPECT_TRUE(report.MonotoneNonIncreasing(DegradationMode::kDropOldest))
      << report.Summary();
  EXPECT_TRUE(report.MonotoneNonIncreasing(DegradationMode::kPurgeRetransmit))
      << report.Summary();
  EXPECT_TRUE(report.RetransmitBeatsDrop()) << report.Summary();
  // Level 0 is fault-free: both policies deliver everything identically.
  const FaultSweepRow* baseline_drop = report.Find(0, DegradationMode::kDropOldest);
  const FaultSweepRow* baseline_retransmit =
      report.Find(0, DegradationMode::kPurgeRetransmit);
  ASSERT_NE(baseline_drop, nullptr);
  ASSERT_NE(baseline_retransmit, nullptr);
  EXPECT_EQ(baseline_drop->packets_delivered, baseline_retransmit->packets_delivered);
  EXPECT_EQ(baseline_drop->purges_injected, 0u);
}

}  // namespace
}  // namespace ctms
