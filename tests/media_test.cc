// Media-class tests: the class registry and --mix parsing, the VBR burst
// rate model, per-class QoE accounting through the mediamix experiment, the unified
// class.<name>.* report rows, the ring priority/reservation machinery the quality
// controller actuates, and the contract that matters most: a vca-class stream is
// behaviourally identical to the legacy unclassed stream, and the quality-centric
// controller beats FIFO on aggregate distortion at the same offered load.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/grid.h"
#include "src/core/media_mix.h"
#include "src/core/report_stats.h"
#include "src/core/router.h"
#include "src/core/scenario_cli.h"
#include "src/core/server.h"
#include "src/dev/media_source.h"
#include "src/dev/vca.h"
#include "src/fabric/fabric.h"
#include "src/hw/machine.h"
#include "src/ring/adapter.h"
#include "src/ring/token_ring.h"
#include "src/sim/simulation.h"
#include "src/telemetry/metrics.h"

namespace ctms {
namespace {

// --- registry and --mix parsing -----------------------------------------------------------

TEST(MediaClassTest, RegistryHasTheFourClasses) {
  const std::vector<MediaClass>& all = AllMediaClasses();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(MediaClassByName("vca").has_value());
  EXPECT_TRUE(MediaClassByName("voice").has_value());
  EXPECT_TRUE(MediaClassByName("vbr").has_value());
  EXPECT_TRUE(MediaClassByName("bulk").has_value());
  EXPECT_FALSE(MediaClassByName("smellovision").has_value());
  EXPECT_EQ(MediaClassById(MediaClassId::kVoice).name, "voice");
  EXPECT_EQ(MediaClassById(MediaClassId::kNone).name, "");
}

TEST(MediaClassTest, ClassesCarryDistinctRateAndUtilityModels) {
  const MediaClass voice = *MediaClassByName("voice");
  EXPECT_EQ(voice.period, Milliseconds(20));
  EXPECT_GT(voice.deadline, 0);
  EXPECT_FALSE(voice.elastic);

  const MediaClass vbr = *MediaClassByName("vbr");
  EXPECT_TRUE(vbr.vbr);
  EXPECT_GT(vbr.vbr_burst_sigma, 0.0);

  const MediaClass bulk = *MediaClassByName("bulk");
  EXPECT_TRUE(bulk.elastic);
  EXPECT_EQ(bulk.deadline, 0);

  // The real-time acceptance mix (voice:8,vbr:4,bulk:2) must overload the 500 KB/s ring —
  // that is the regime where scheduling policy matters.
  const int64_t offered = 8 * voice.RateBytesPerSecond() + 4 * vbr.RateBytesPerSecond() +
                          2 * bulk.RateBytesPerSecond() +
                          MediaClassByName("vca")->RateBytesPerSecond() * 0;
  EXPECT_GT(offered, 500'000);
}

TEST(MediaClassTest, ParseMixSpecAcceptsCountsRatesAndPlusSeparator) {
  std::vector<WorkloadEntry> workload;
  std::string error;
  ASSERT_TRUE(ParseMixSpec("voice:8,vbr:4,bulk:2", &workload, &error)) << error;
  ASSERT_EQ(workload.size(), 3u);
  EXPECT_EQ(workload[0].media_class, "voice");
  EXPECT_EQ(workload[0].count, 8);
  EXPECT_EQ(workload[0].rate_kbps, 0);

  // '+' is the alternate separator for campaign grid axes (',' separates axis values).
  ASSERT_TRUE(ParseMixSpec("voice:2+bulk", &workload, &error)) << error;
  ASSERT_EQ(workload.size(), 2u);
  EXPECT_EQ(workload[1].media_class, "bulk");
  EXPECT_EQ(workload[1].count, 1);

  ASSERT_TRUE(ParseMixSpec("vca:2:100", &workload, &error)) << error;
  EXPECT_EQ(workload[0].rate_kbps, 100);

  // 500 KB/s is the 4 Mbit/s ring's line rate: 6000 bytes per 12 ms vca packet.
  ASSERT_TRUE(ParseMixSpec("vca:1:500", &workload, &error)) << error;
  EXPECT_EQ(ResolveWorkload(workload).front().packet_bytes, 6000);
}

TEST(MediaClassTest, ParseMixSpecRejectsMalformedSpecs) {
  std::vector<WorkloadEntry> workload;
  std::string error;
  EXPECT_FALSE(ParseMixSpec("smellovision:2", &workload, &error));
  EXPECT_NE(error.find("unknown media class"), std::string::npos);
  EXPECT_NE(error.find("voice"), std::string::npos);  // lists the known names
  EXPECT_FALSE(ParseMixSpec("voice:0", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice:65", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice:2:0", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice:2:x", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice,,bulk", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice:1:2:3", &workload, &error));
  // Rates above the ring's line rate, including one whose bytes per period would overflow
  // int64_t, and digit strings too long for any integer type.
  EXPECT_FALSE(ParseMixSpec("vca:1:501", &workload, &error));
  EXPECT_NE(error.find("1..500 KB/s"), std::string::npos) << error;
  EXPECT_FALSE(ParseMixSpec("voice:1:99999999999", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice:1:99999999999999999999999999", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice:18446744073709551617", &workload, &error));
}

TEST(MediaClassTest, ResolveWorkloadExpandsCountsAndFoldsRates) {
  std::vector<WorkloadEntry> workload;
  std::string error;
  ASSERT_TRUE(ParseMixSpec("voice:3,vca:1:100", &workload, &error)) << error;
  const std::vector<MediaClass> classes = ResolveWorkload(workload);
  ASSERT_EQ(classes.size(), 4u);
  EXPECT_EQ(classes[0].name, "voice");
  EXPECT_EQ(classes[2].name, "voice");
  EXPECT_EQ(classes[3].name, "vca");
  // 100 KB/s at a 12 ms period = 1200 bytes per packet.
  EXPECT_EQ(classes[3].packet_bytes, 1200);
}

TEST(MediaClassTest, ScenarioCliValidatesAndThreadsTheMix) {
  ScenarioConfig cli;
  cli.experiment = "mediamix";  // the default ctms experiment does not read --mix
  cli.mix = "voice:2,bulk:1";
  EXPECT_EQ(ValidateScenarioConfig(cli), "");
  const ServerConfig server = ServerConfigFrom(cli);
  EXPECT_EQ(server.workload.size(), 2u);
  const RouterConfig router = RouterConfigFrom(cli);
  ASSERT_TRUE(router.media_class.has_value());
  EXPECT_EQ(router.media_class->name, "voice");
  const MediaMixConfig mix = MediaMixConfigFrom(cli);
  EXPECT_EQ(mix.workload.size(), 2u);

  cli.mix = "smellovision";
  EXPECT_NE(ValidateScenarioConfig(cli), "");
  cli.mix = "";
  EXPECT_EQ(ValidateScenarioConfig(cli), "");
  EXPECT_TRUE(MediaMixConfigFrom(cli).workload.empty());
}

// Each class sets its streams' packet size and period, so a stream-shape flag beside --mix
// would be accepted and ignored; so would every router stream after the first.
TEST(MediaClassTest, ScenarioCliRefusesFlagsTheMixOverrides) {
  struct Case {
    const char* experiment;
    const char* flag;
    const char* value;
  };
  for (const Case& c : {Case{"server", "clients", "3"}, Case{"server", "packet-bytes", "500"},
                        Case{"server", "period-ms", "30"}, Case{"router", "packet-bytes", "500"},
                        Case{"router", "period-ms", "30"}, Case{"fabric", "packet-bytes", "500"},
                        Case{"fabric", "period-ms", "30"}}) {
    ScenarioConfig cli;
    cli.experiment = c.experiment;
    std::string error;
    ASSERT_TRUE(ApplyScenarioAxis(&cli, c.flag, c.value, &error)) << error;
    EXPECT_EQ(ValidateScenarioConfig(cli), "") << c.experiment << " --" << c.flag;
    cli.mix = "voice:1";
    EXPECT_NE(ValidateScenarioConfig(cli).find(std::string("--") + c.flag), std::string::npos)
        << c.experiment << " --" << c.flag;
  }

  ScenarioConfig router;
  router.experiment = "router";
  router.mix = "vca:1";
  EXPECT_EQ(ValidateScenarioConfig(router), "");
  router.mix = "voice:3,vbr:2";
  EXPECT_NE(ValidateScenarioConfig(router).find("--mix"), std::string::npos);

  // Campaign cells are held to the same rule, through the base flags and through a grid.
  ScenarioConfig campaign;
  campaign.experiment = "campaign";
  campaign.cell_experiment = "router";
  campaign.mix = "voice:2";
  EXPECT_NE(ValidateScenarioConfig(campaign).find("--mix"), std::string::npos);
  campaign.mix = "voice:1";
  EXPECT_EQ(ValidateScenarioConfig(campaign), "");
  std::string error;
  auto grid = CampaignGrid::Parse("mix=voice:1,voice:2", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  CampaignRunner runner(campaign, *grid, CampaignRunner::Options{});
  EXPECT_NE(runner.Prepare().find("--mix"), std::string::npos);
}

TEST(MediaClassTest, GridMixAxisKeepsColonsLiteral) {
  // 'mix' values embed ':' for counts/rates; the grid must not read them as lo:hi ranges.
  std::string error;
  auto grid = CampaignGrid::Parse("mix=voice:2+bulk:1,voice:4+bulk:2", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  const auto points = grid->Expand();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].assignments[0].second, "voice:2+bulk:1");
  EXPECT_EQ(points[1].assignments[0].second, "voice:4+bulk:2");
  // Numeric axes still reject range typos instead of silently taking them as literals.
  EXPECT_FALSE(CampaignGrid::Parse("seed=1:x8", &error).has_value());
}

// --- VBR burst rate model -----------------------------------------------------------------

TEST(MediaClassTest, VbrKeyFrameCadenceHoldsTheMean) {
  VcaSourceDriver::Config config;
  config.packet_bytes = 720;
  config.vbr = true;
  config.vbr_key_interval = 10;
  config.vbr_key_scale = 3.0;
  // Key frames 3x, delta frames shrink so one full cycle averages back to the mean.
  int64_t cycle = 0;
  for (uint32_t n = 0; n < 10; ++n) {
    cycle += VcaSourceDriver::WirePacketBytes(config, n);
  }
  EXPECT_NEAR(static_cast<double>(cycle) / 10.0, 720.0, 1.0);
  EXPECT_GT(VcaSourceDriver::WirePacketBytes(config, 0),
            2 * VcaSourceDriver::WirePacketBytes(config, 1));
}

TEST(MediaMixTest, VbrBurstModelIsMeanOneLognormal) {
  MediaMixConfig config;
  config.workload = {{"vbr", 1, 0}};
  config.duration = Seconds(10);
  MediaMixExperiment experiment(config);
  const MediaMixReport report = experiment.Run();
  ASSERT_EQ(experiment.stream_count(), 1u);
  const VcaSourceDriver& source = experiment.endpoints(0).vca_source();
  ASSERT_GT(source.packets_built(), 500u);
  // The lognormal burst factor is mean-one by construction, so the long-run mean byte
  // rate must stay at the descriptor's 720 B/packet despite per-packet variance.
  const double mean = static_cast<double>(source.bytes_built()) /
                      static_cast<double>(source.packets_built());
  EXPECT_NEAR(mean, 720.0, 720.0 * 0.05);
  // And it must actually burst: a quiet single-stream ring still sees byte spread.
  EXPECT_TRUE(report.Healthy()) << report.Summary();
}

// --- ring priority machinery (the controller's actuator) ----------------------------------

TEST(TokenRingPriorityTest, HighPriorityArrivalReservesAgainstInFlightFrame) {
  Simulation sim(1);
  TokenRing ring(&sim);
  std::vector<int> order;
  auto frame = [&](RingAddress src, int priority, uint32_t seq) {
    Frame f;
    f.kind = FrameKind::kLlc;
    f.src = src;
    f.dst = 99;
    f.payload_bytes = 1000;
    f.priority = priority;
    f.seq = seq;
    f.protocol = ProtocolId::kCtmsp;
    return f;
  };
  ring.RequestTransmit(frame(1, 0, 1), [&](TxStatus) { order.push_back(1); });
  ring.RequestTransmit(frame(1, 0, 2), [&](TxStatus) { order.push_back(2); });
  // While frame 1 occupies the wire, a priority-6 arrival must stamp its reservation into
  // the in-flight frame and pass the queued priority-0 frame — 802.5's reservation bits.
  sim.After(Microseconds(50), [&]() {
    ring.RequestTransmit(frame(2, 6, 3), [&](TxStatus) { order.push_back(3); });
  });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(ring.reservations(), 1u);
  EXPECT_EQ(ring.priority_preemptions(), 1u);
}

TEST(TokenRingPriorityTest, AdapterAccessPriorityFloorRaisesLlcFrames) {
  Simulation sim(1);
  TokenRing ring(&sim);
  Machine tx_machine(&sim, "tx");
  Machine rx_machine(&sim, "rx");
  TokenRingAdapter tx(&tx_machine, &ring, TokenRingAdapter::Config{});
  TokenRingAdapter rx(&rx_machine, &ring, TokenRingAdapter::Config{});
  std::vector<int> priorities;
  rx.SetReceiveHandler([&](const Frame& f) {
    priorities.push_back(f.priority);
    rx.ReleaseRxBuffer();
  });

  auto send = [&](int priority) {
    Frame f;
    f.kind = FrameKind::kLlc;
    f.dst = rx.address();
    f.payload_bytes = 100;
    f.priority = priority;
    f.protocol = ProtocolId::kCtmsp;
    tx.IssueTransmit(f, nullptr);
    sim.RunAll();
  };
  send(0);
  tx.set_access_priority_floor(4);
  EXPECT_EQ(tx.access_priority_floor(), 4);
  send(0);  // raised to the floor
  send(6);  // already above: never lowered
  ASSERT_EQ(priorities.size(), 3u);
  EXPECT_EQ(priorities[0], 0);
  EXPECT_EQ(priorities[1], 4);
  EXPECT_EQ(priorities[2], 6);
}

// --- per-class QoE accounting -------------------------------------------------------------

TEST(MediaMixTest, QuietRingVoiceHasCleanQoE) {
  MediaMixConfig config;
  config.workload = {{"voice", 2, 0}};
  config.duration = Seconds(5);
  MediaMixExperiment experiment(config);
  const MediaMixReport report = experiment.Run();
  EXPECT_TRUE(report.Healthy()) << report.Summary();
  ASSERT_EQ(report.classes.size(), 1u);
  const ClassQoE& voice = report.classes[0];
  EXPECT_EQ(voice.name, "voice");
  EXPECT_EQ(voice.streams, 2);
  EXPECT_EQ(voice.deadline_misses, 0u) << report.Summary();
  EXPECT_EQ(voice.lost, 0u);
  EXPECT_EQ(voice.distortion, 0.0);
  EXPECT_EQ(voice.starvation_time, 0);
}

TEST(MediaMixTest, SummaryStatsUseUnifiedClassKeys) {
  MediaMixConfig config;
  config.workload = {{"voice", 1, 0}, {"bulk", 1, 0}};
  config.duration = Seconds(2);
  MediaMixExperiment experiment(config);
  const StatList stats = SummaryStats(experiment.Run());
  auto has = [&](const std::string& key) {
    return std::any_of(stats.begin(), stats.end(),
                       [&](const auto& kv) { return kv.first == key; });
  };
  EXPECT_TRUE(has("aggregate_distortion"));
  EXPECT_TRUE(has("ring_priority_preemptions"));
  for (const std::string name : {"voice", "bulk"}) {
    EXPECT_TRUE(has("class." + name + ".built"));
    EXPECT_TRUE(has("class." + name + ".deadline_miss_rate"));
    EXPECT_TRUE(has("class." + name + ".distortion"));
    EXPECT_TRUE(has("class." + name + ".starvation_ms"));
    EXPECT_TRUE(has("class." + name + ".mean_latency_us"));
  }
}

// --- class rows reconcile with their streams ------------------------------------------------
//
// Every experiment with classed streams writes class.<name>.queue_drops as what the class's
// sources dropped (mbuf + CTMSP queue) and class.<name>.starvation_ms as what its sinks
// counted in qoe.<name>.<station>.starvation_ns. Each run below is an overloaded command
// for its experiment at seed 1, long enough that its classes drop or starve.

struct ClassLedger {
  uint64_t source_drops = 0;
  uint64_t starvation_ns = 0;
};
using ClassLedgers = std::map<std::string, ClassLedger>;

uint64_t CounterValue(const MetricsRegistry& metrics, const std::string& name) {
  const auto it = metrics.counters().find(name);
  return it == metrics.counters().end() ? 0 : it->second.value();
}

// mbuf plus CTMSP-queue drops of the source driver registered under `prefix`.
uint64_t SourceDrops(const MetricsRegistry& metrics, const std::string& prefix) {
  return CounterValue(metrics, prefix + ".mbuf_drops") +
         CounterValue(metrics, prefix + ".queue_drops");
}

// Adds every qoe.<class>.<station>.starvation_ns counter to its class's ledger.
void AddSinkStarvation(const MetricsRegistry& metrics, ClassLedgers* ledgers) {
  for (const auto& [name, counter] : metrics.counters()) {
    if (name.starts_with("qoe.") && name.ends_with(".starvation_ns")) {
      (*ledgers)[name.substr(4, name.find('.', 4) - 4)].starvation_ns += counter.value();
    }
  }
}

void ExpectClassRowsReconcile(const StatList& stats, const ClassLedgers& ledgers) {
  const auto stat = [&](const std::string& key) {
    for (const auto& [name, value] : stats) {
      if (name == key) return value;
    }
    ADD_FAILURE() << "no stat " << key;
    return -1.0;
  };
  const auto rows = std::count_if(stats.begin(), stats.end(), [](const auto& kv) {
    return kv.first.starts_with("class.") && kv.first.ends_with(".streams");
  });
  EXPECT_EQ(static_cast<size_t>(rows), ledgers.size());
  uint64_t lost_to_drops_or_starvation = 0;
  for (const auto& [name, ledger] : ledgers) {
    SCOPED_TRACE("class " + name);
    lost_to_drops_or_starvation += ledger.source_drops + ledger.starvation_ns;
    EXPECT_EQ(stat("class." + name + ".queue_drops"), static_cast<double>(ledger.source_drops));
    EXPECT_NEAR(stat("class." + name + ".starvation_ms"),
                static_cast<double>(ledger.starvation_ns) / 1e6, 1e-6);
  }
  EXPECT_GT(lost_to_drops_or_starvation, 0u) << "nothing to reconcile";
}

ScenarioConfig ClassedRun(const std::string& experiment, const std::string& mix,
                          int64_t duration_s) {
  ScenarioConfig cli;
  cli.experiment = experiment;
  cli.mix = mix;
  cli.duration_s = duration_s;
  return cli;
}

TEST(ClassRowTest, ServerRowsReconcileWithTheirClients) {
  ServerExperiment experiment(ServerConfigFrom(ClassedRun("server", "vbr:4,bulk:2", 20)));
  const ServerReport report = experiment.Run();
  const MetricsRegistry& metrics = experiment.sim().telemetry().metrics;
  ClassLedgers ledgers;
  uint64_t drops = 0;
  for (const StreamStats& client : report.clients) {
    ledgers[client.media_class].source_drops += client.mbuf_drops + client.queue_drops;
    drops += client.mbuf_drops + client.queue_drops;
  }
  // Every client streams from the one server machine, whose counters hold the total.
  EXPECT_EQ(drops, SourceDrops(metrics, "driver.media.server"));
  AddSinkStarvation(metrics, &ledgers);
  ExpectClassRowsReconcile(SummaryStats(report), ledgers);
}

TEST(ClassRowTest, RouterRowReconcilesWithItsSource) {
  ScenarioConfig cli = ClassedRun("router", "vbr:1:400", 10);
  cli.chain_hops = 2;
  RouterExperiment experiment(RouterConfigFrom(cli));
  const RouterReport report = experiment.Run();
  const MetricsRegistry& metrics = experiment.sim().telemetry().metrics;
  ClassLedgers ledgers;
  ledgers["vbr"].source_drops = SourceDrops(metrics, "driver.vca.src");
  AddSinkStarvation(metrics, &ledgers);
  ExpectClassRowsReconcile(SummaryStats(report), ledgers);
}

TEST(ClassRowTest, FabricRowsReconcileAcrossShards) {
  ScenarioConfig cli = ClassedRun("fabric", "vbr:1,voice:1", 10);
  cli.rings = 4;
  const FabricConfig config = FabricConfigFrom(cli);
  FabricExperiment experiment(config);
  const FabricReport report = experiment.Run();
  // Flow f starts at shard f's src and takes class f mod len; its sink is on the next shard.
  const std::vector<MediaClass> classes = ResolveWorkload(config.workload);
  ClassLedgers ledgers;
  for (size_t f = 0; f < experiment.shard_count(); ++f) {
    const MetricsRegistry& metrics = experiment.shard(f).sim().telemetry().metrics;
    ledgers[classes[f % classes.size()].name].source_drops +=
        SourceDrops(metrics, "driver.vca.src");
    AddSinkStarvation(metrics, &ledgers);
  }
  ExpectClassRowsReconcile(SummaryStats(report), ledgers);
}

TEST(ClassRowTest, MediaMixRowsReconcileWithTheirStreams) {
  MediaMixExperiment experiment(
      MediaMixConfigFrom(ClassedRun("mediamix", "voice:8,vbr:4,bulk:2", 10)));
  const MediaMixReport report = experiment.Run();
  const MetricsRegistry& metrics = experiment.sim().telemetry().metrics;
  ClassLedgers ledgers;
  for (size_t i = 0; i < experiment.stream_count(); ++i) {
    StreamEndpoints& stream = experiment.endpoints(i);
    ledgers[stream.media_class()->name].source_drops +=
        SourceDrops(metrics, "driver.vca." + stream.tx().name());
  }
  AddSinkStarvation(metrics, &ledgers);
  ExpectClassRowsReconcile(SummaryStats(report), ledgers);
}

// --- equivalence: the redesigned source layer does not disturb legacy behaviour -----------

TEST(MediaClassTest, VcaClassMatchesLegacyRouterStreamExactly) {
  // The vca class descriptor is the paper's stream: same 2000 B / 12 ms rate model, no
  // burstiness. Adopting the class descriptor must reproduce the legacy stream's
  // delivery behaviour event for event (the class adds accounting, not behaviour).
  for (const uint64_t seed : {1u, 2u, 3u}) {
    RouterConfig legacy;
    legacy.duration = Seconds(5);
    legacy.seed = seed;
    RouterConfig classed = legacy;
    classed.media_class = MediaClassByName("vca");
    const RouterReport a = RouterExperiment(legacy).Run();
    const RouterReport b = RouterExperiment(classed).Run();
    EXPECT_EQ(a.packets_built, b.packets_built) << "seed " << seed;
    EXPECT_EQ(a.packets_delivered, b.packets_delivered) << "seed " << seed;
    EXPECT_EQ(a.packets_lost, b.packets_lost) << "seed " << seed;
    EXPECT_EQ(a.sink_underruns, b.sink_underruns) << "seed " << seed;
    EXPECT_EQ(a.end_to_end.Summary().mean, b.end_to_end.Summary().mean) << "seed " << seed;
    EXPECT_EQ(a.ring_utilization, b.ring_utilization) << "seed " << seed;
    EXPECT_TRUE(a.classes.empty());
    ASSERT_EQ(b.classes.size(), 1u);
    EXPECT_EQ(b.classes[0].name, "vca");
  }
}

// --- the tentpole claim: quality-centric control beats FIFO under overload ----------------

MediaMixReport RunAcceptanceMix(bool controller) {
  std::vector<WorkloadEntry> workload;
  std::string error;
  EXPECT_TRUE(ParseMixSpec("voice:8,vbr:4,bulk:2", &workload, &error)) << error;
  MediaMixConfig config;
  config.workload = workload;
  config.quality_controller = controller;
  config.duration = Seconds(8);
  MediaMixExperiment experiment(config);
  return experiment.Run();
}

TEST(MediaMixTest, ControllerReducesAggregateDistortionVsFifo) {
  const MediaMixReport fifo = RunAcceptanceMix(false);
  const MediaMixReport controlled = RunAcceptanceMix(true);
  // The mix oversubscribes the ring, so FIFO must hurt the real-time classes.
  EXPECT_GT(fifo.aggregate_distortion, 0.0) << fifo.Summary();
  EXPECT_GT(controlled.controller_epochs, 0u);
  EXPECT_GT(controlled.controller_updates, 0u);
  // Same offered load, same seed: mapping class utility onto the 802.5 priorities must
  // strictly reduce the class-weighted distortion total.
  EXPECT_LT(controlled.aggregate_distortion, fifo.aggregate_distortion)
      << "fifo:\n" << fifo.Summary() << "controlled:\n" << controlled.Summary();
  // The elastic bulk class absorbs the overload instead of the real-time classes: bulk is
  // parked at the elastic priority and combined real-time (voice+vbr) distortion drops.
  const auto qoe = [](const MediaMixReport& report, const std::string& name) {
    for (const ClassQoE& c : report.classes) {
      if (c.name == name) return c;
    }
    return ClassQoE{};
  };
  EXPECT_EQ(qoe(controlled, "bulk").ring_priority, 0) << controlled.Summary();
  EXPECT_LT(qoe(controlled, "voice").distortion + qoe(controlled, "vbr").distortion,
            qoe(fifo, "voice").distortion + qoe(fifo, "vbr").distortion)
      << "fifo:\n" << fifo.Summary() << "controlled:\n" << controlled.Summary();
}

// --- campaign determinism with mediamix cells ---------------------------------------------

std::string MediaMixMergedJson(int64_t jobs) {
  ScenarioConfig base;
  base.experiment = "campaign";
  base.cell_experiment = "mediamix";
  base.mix = "voice:2+vbr:1+bulk:1";
  base.duration_s = 1;
  CampaignRunner::Options options;
  options.jobs = jobs;
  std::string error;
  auto grid = CampaignGrid::Parse("seed=1:4", &error);
  EXPECT_TRUE(grid.has_value()) << error;
  CampaignRunner runner(base, std::move(*grid), std::move(options));
  EXPECT_EQ(runner.Prepare(), "");
  return runner.Run().MergedJson();
}

TEST(MediaMixTest, CampaignCellsMergeBitIdenticallyAcrossJobCounts) {
  const std::string jobs1 = MediaMixMergedJson(1);
  const std::string jobs4 = MediaMixMergedJson(4);
  EXPECT_EQ(jobs1, jobs4);
  EXPECT_NE(jobs1.find("class.voice.deadline_miss_rate"), std::string::npos);
  EXPECT_NE(jobs1.find("mediamix-fifo"), std::string::npos);
}

}  // namespace
}  // namespace ctms
