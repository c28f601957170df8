// Tests for the testbed composition layer (src/testbed/): the Station teardown contract,
// topologies the experiment classes cannot express, and golden equivalence — the five
// experiments rebuilt on the testbed must produce the exact same-seed numbers as the
// hand-wired versions they replaced (captured before the refactor).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <utility>

#include "src/campaign/campaign.h"
#include "src/core/ctms.h"
#include "src/core/faultsweep.h"
#include "src/core/media_mix.h"
#include "src/fabric/fabric.h"
#include "tests/report_matchers.h"

namespace ctms {
namespace {

// ---------------------------------------------------------------------------------------
// Teardown order. Queued CPU jobs hold packets whose mbuf chains live in the kernels'
// pools; stopping mid-flight and destroying everything must not touch freed memory (the
// ASan build is the real assertion here).

TEST(TestbedTeardown, MidFlightDestructionIsClean) {
  for (int run = 0; run < 2; ++run) {
    RingTopology topo(7);
    TokenRing& ring = topo.AddRing();
    Station::PortConfig port;
    port.driver.ctms_mode = true;
    Station& tx = topo.AddStation("tx");
    tx.AttachRing(&ring, &topo.probes(), port);
    Station& rx = topo.AddStation("rx");
    rx.AttachRing(&ring, &topo.probes(), port);
    // The stream outlives nothing: declared after the topology, it is destroyed first,
    // while the kernels (and their mbuf pools) are still alive — the documented order.
    StreamEndpoints::Config config;
    StreamEndpoints stream(&tx, &rx, &topo.probes(), config);
    topo.environment().AddMacTraffic(&ring, MacFrameTraffic::Config{0.01});
    topo.StartAll();
    stream.Start();
    // Stop at an offset that is not a multiple of the 12 ms packet period, so device
    // interrupts, driver jobs, and in-DMA receive work are queued when the world ends.
    topo.sim().RunFor(Milliseconds(40) + Microseconds(run == 0 ? 137 : 4211));
    EXPECT_GT(stream.Stats().built, 0u);
  }
}

TEST(TestbedTeardown, StandaloneStationDrainsItsOwnCpu) {
  RingTopology topo(9);
  TokenRing& ring = topo.AddRing();
  Station::PortConfig port;
  port.driver.ctms_mode = true;
  Station& solo = topo.AddStation("solo");
  solo.AttachRing(&ring, &topo.probes(), port);
  solo.AttachBackgroundActivity(topo.sim().rng().Fork());
  solo.Start();
  topo.sim().RunFor(Milliseconds(17));
  // ~Station drains the CPU itself; a second explicit drain must be harmless.
  solo.CancelJobs();
}

// ---------------------------------------------------------------------------------------
// A topology the pre-testbed experiment classes could not express: four stations on three
// rings, forwarding one CTMSP stream across two store-and-forward hops.

struct ChainResult {
  StreamStats stats;
  uint64_t forwarded_hop1 = 0;
  uint64_t forwarded_hop2 = 0;
  int64_t stations_gauge = 0;
  int64_t rings_gauge = 0;
};

ChainResult RunChain(uint64_t seed, SimDuration duration) {
  RingTopology topo(seed);
  TokenRing& ring_a = topo.AddRing();
  TokenRing& ring_b = topo.AddRing();
  TokenRing& ring_c = topo.AddRing();

  Station::PortConfig port;
  port.driver.ctms_mode = true;

  Station& src = topo.AddStation("src");
  src.AttachRing(&ring_a, &topo.probes(), port);
  Station& hop1 = topo.AddStation("hop1");
  hop1.AttachRing(&ring_a, &topo.probes(), port);
  hop1.AttachRing(&ring_b, &topo.probes(), port);
  Station& hop2 = topo.AddStation("hop2");
  hop2.AttachRing(&ring_b, &topo.probes(), port);
  hop2.AttachRing(&ring_c, &topo.probes(), port);
  Station& dst = topo.AddStation("dst");
  dst.AttachRing(&ring_c, &topo.probes(), port);

  StreamEndpoints::Config config;
  config.sink.prime_packets = 6;  // two extra hops of jitter
  StreamEndpoints stream(&src, &dst, &topo.probes(), config);
  CtmspRelay relay1(&hop1, /*in_port=*/0, /*out_port=*/1, hop2.address(0));
  CtmspRelay relay2(&hop2, /*in_port=*/0, /*out_port=*/1, dst.address());

  topo.environment().AddMacTraffic(&ring_b, MacFrameTraffic::Config{0.002});
  topo.StartAll();
  stream.Start(hop1.address(0));
  topo.sim().RunFor(duration);

  ChainResult result;
  result.stats = stream.Stats();
  result.forwarded_hop1 = relay1.forwarded();
  result.forwarded_hop2 = relay2.forwarded();
  result.stations_gauge = topo.sim().telemetry().metrics.GetGauge("topology.stations")->value();
  result.rings_gauge = topo.sim().telemetry().metrics.GetGauge("topology.rings")->value();
  return result;
}

TEST(ChainTopology, TwoHopRelayChainDelivers) {
  const ChainResult result = RunChain(/*seed=*/11, Seconds(3));
  EXPECT_GT(result.stats.built, 200u);
  EXPECT_EQ(result.stats.lost, 0u);
  EXPECT_GE(result.forwarded_hop1, result.stats.delivered);
  EXPECT_GE(result.forwarded_hop2, result.stats.delivered);
  EXPECT_GT(result.stats.delivered + 6, result.stats.built);  // at most in-flight shortfall
  EXPECT_EQ(result.stations_gauge, 4);
  EXPECT_EQ(result.rings_gauge, 3);
}

TEST(ChainTopology, SameSeedRunsAreIdentical) {
  const ChainResult a = RunChain(/*seed=*/11, Seconds(3));
  const ChainResult b = RunChain(/*seed=*/11, Seconds(3));
  ExpectSameStreamStats(a.stats, b.stats);
  EXPECT_EQ(a.forwarded_hop1, b.forwarded_hop1);
  EXPECT_EQ(a.forwarded_hop2, b.forwarded_hop2);
}

// ---------------------------------------------------------------------------------------
// Worker isolation. The campaign runner's determinism rests on the claim that two live
// topologies share no state at all; interleave two experiments in one thread and require
// bit-identical accounting against solo runs. (campaign_test.cc covers the threaded case
// under TSan.)

TEST(TwoInstanceIsolation, InterleavedExperimentsMatchSoloRuns) {
  CtmsConfig config_a = ShortScenario();
  CtmsConfig config_b = ShortScenario();
  config_b.seed = 8;
  const ExperimentReport solo_a = CtmsExperiment(config_a).Run();
  const ExperimentReport solo_b = CtmsExperiment(config_b).Run();

  CtmsExperiment interleaved_a(config_a);
  CtmsExperiment interleaved_b(config_b);
  interleaved_a.Start();
  interleaved_b.Start();
  for (int slice = 0; slice < 30; ++slice) {
    interleaved_a.sim().RunFor(Milliseconds(100));
    interleaved_b.sim().RunFor(Milliseconds(100));
  }
  ExpectSameAccounting(interleaved_a.Report(), solo_a);
  ExpectSameAccounting(interleaved_b.Report(), solo_b);
}

TEST(TwoInstanceIsolation, InterleavedRegistriesAndTracersStayIndependent) {
  RingTopology topo_a(3);
  RingTopology topo_b(3);
  topo_a.AddRing();
  topo_b.AddRing();
  topo_a.sim().telemetry().metrics.GetCounter("test.only_in_a")->Increment();
  topo_b.sim().RunFor(Milliseconds(5));
  EXPECT_EQ(topo_a.sim().telemetry().metrics.CountersWithPrefix("test."), 1u);
  EXPECT_EQ(topo_b.sim().telemetry().metrics.CountersWithPrefix("test."), 0u);
  EXPECT_EQ(topo_a.sim().Now(), 0);
  EXPECT_EQ(topo_b.sim().Now(), Milliseconds(5));
}

// ---------------------------------------------------------------------------------------
// Golden equivalence. These exact numbers were produced by the pre-testbed experiment
// classes (each building its hosts by hand) at the same seeds. The refactor must be
// numerically invisible: construction order, RNG fork order, and event insertion order all
// feed the event queue's tie-breaking, so any drift shows up here as a hard failure.

TEST(GoldenEquivalence, CtmsTestCaseBFiveSecondsSeed3) {
  CtmsConfig config = TestCaseB();
  config.duration = Seconds(5);
  config.seed = 3;
  const ExperimentReport r = CtmsExperiment(config).Run();
  EXPECT_EQ(r.packets_built, 416u);
  EXPECT_EQ(r.packets_delivered, 415u);
  EXPECT_EQ(r.packets_lost, 0u);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.out_of_order, 0u);
  EXPECT_EQ(r.source_mbuf_drops, 0u);
  EXPECT_EQ(r.source_queue_drops, 0u);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_EQ(r.sink_underruns, 0u);
  EXPECT_EQ(r.sink_peak_buffer, 18000);
  EXPECT_NEAR(r.tx_cpu_utilization, 0.459663889800, 1e-9);
  EXPECT_NEAR(r.rx_cpu_utilization, 0.618190838400, 1e-9);
  EXPECT_NEAR(r.ring_utilization, 0.488485900000, 1e-9);
  EXPECT_EQ(r.ring_purges, 0u);
  ASSERT_FALSE(r.ground_truth.pre_tx_to_rx.empty());
  EXPECT_EQ(r.ground_truth.pre_tx_to_rx.Summary().min, 10771924);
  EXPECT_NEAR(r.ground_truth.pre_tx_to_rx.Summary().mean, 11287212.653012, 1e-3);
}

TEST(GoldenEquivalence, BaselineUdpTenSecondsSeed4) {
  BaselineConfig config;
  config.packet_bytes = 2000;
  config.duration = Seconds(10);
  config.seed = 4;
  const BaselineReport r = BaselineExperiment(config).Run();
  EXPECT_EQ(r.packets_captured, 833u);
  EXPECT_EQ(r.packets_delivered, 671u);
  EXPECT_EQ(r.source_mbuf_drops, 0u);
  EXPECT_EQ(r.tx_relay_rcvbuf_drops, 0u);
  EXPECT_EQ(r.tx_ifsnd_drops, 0u);
  EXPECT_EQ(r.rx_ipintr_drops, 0u);
  EXPECT_EQ(r.rx_relay_rcvbuf_drops, 151u);
  EXPECT_EQ(r.rx_adapter_overruns, 0u);
  EXPECT_EQ(r.sink_underruns, 154u);
  EXPECT_NEAR(r.tx_cpu_utilization, 0.965561949300, 1e-9);
  EXPECT_NEAR(r.rx_cpu_utilization, 0.997120956000, 1e-9);
  EXPECT_NEAR(r.ring_utilization, 0.368985900000, 1e-9);
}

TEST(GoldenEquivalence, BaselineTcpSixSecondsSeed4) {
  BaselineConfig config;
  config.packet_bytes = 2000;
  config.duration = Seconds(6);
  config.seed = 4;
  config.use_tcp = true;
  const BaselineReport r = BaselineExperiment(config).Run();
  EXPECT_EQ(r.packets_captured, 499u);
  EXPECT_EQ(r.packets_delivered, 343u);
  EXPECT_EQ(r.tcp_retransmits, 0u);
  EXPECT_EQ(r.sink_underruns, 148u);
  EXPECT_NEAR(r.ring_utilization, 0.374548666667, 1e-9);
}

// Two of the paper's streams sharing one ring: mediamix with --mix=vca:2. The latency pins
// depend on the station names tx_vca<i>/rx_vca<i>, because each machine's first hardclock
// tick is phased by a hash of its name (EXPERIMENTS.md, "Golden re-pins").
TEST(GoldenEquivalence, MediaMixVcaTwoStreamsTenSecondsSeed2) {
  MediaMixConfig config;
  config.workload = {{"vca", 2, 0}};
  config.duration = Seconds(10);
  config.seed = 2;
  const MediaMixReport r = MediaMixExperiment(config).Run();
  EXPECT_NEAR(r.ring_utilization, 0.682866350000, 1e-9);
  ASSERT_EQ(r.streams.size(), 2u);
  const StreamStats& s0 = r.streams[0];
  EXPECT_EQ(s0.built, 833u);
  EXPECT_EQ(s0.delivered, 832u);
  EXPECT_EQ(s0.lost, 0u);
  EXPECT_EQ(s0.queue_drops, 0u);
  EXPECT_EQ(s0.underruns, 0u);
  EXPECT_EQ(s0.mean_latency, 17690620);
  EXPECT_EQ(s0.max_latency, 21327786);
  const StreamStats& s1 = r.streams[1];
  EXPECT_EQ(s1.built, 832u);
  EXPECT_EQ(s1.delivered, 831u);
  EXPECT_EQ(s1.lost, 0u);
  EXPECT_EQ(s1.queue_drops, 0u);
  EXPECT_EQ(s1.underruns, 0u);
  EXPECT_EQ(s1.mean_latency, 17802959);
  EXPECT_EQ(s1.max_latency, 21538550);
}

TEST(GoldenEquivalence, ServerTwoClientsTenSecondsSeed2) {
  ServerConfig config;
  config.clients = 2;
  config.packet_bytes = 1000;
  config.read_chunk_bytes = 32 * 1024;
  config.duration = Seconds(10);
  config.seed = 2;
  const ServerReport r = ServerExperiment(config).Run();
  EXPECT_NEAR(r.server_cpu_utilization, 0.423934820800, 1e-9);
  EXPECT_NEAR(r.disk_utilization, 0.196258802700, 1e-9);
  EXPECT_NEAR(r.disk_sequential_fraction, 0.055555555556, 1e-9);
  EXPECT_EQ(r.disk_worst_service, 45119346);
  EXPECT_NEAR(r.ring_utilization, 0.344388800000, 1e-9);
  ASSERT_EQ(r.clients.size(), 2u);
  const uint64_t expected_built[2] = {827, 826};
  const uint64_t expected_starvations[2] = {0, 1};
  for (size_t i = 0; i < r.clients.size(); ++i) {
    const StreamStats& client = r.clients[i];
    EXPECT_EQ(client.built, expected_built[i]) << "client " << i;
    EXPECT_EQ(client.delivered, expected_built[i] - 1) << "client " << i;
    EXPECT_EQ(client.lost, 0u) << "client " << i;
    EXPECT_EQ(client.starvations, expected_starvations[i]) << "client " << i;
    EXPECT_EQ(client.underruns, 0u) << "client " << i;
  }
}

TEST(GoldenEquivalence, RouterViaMbufsTenSecondsSeed2) {
  RouterConfig config;
  config.forward_via_mbufs = true;
  config.duration = Seconds(10);
  config.seed = 2;
  const RouterReport r = RouterExperiment(config).Run();
  EXPECT_EQ(r.packets_built, 833u);
  EXPECT_EQ(r.packets_forwarded, 832u);
  EXPECT_EQ(r.packets_delivered, 830u);
  EXPECT_EQ(r.packets_lost, 0u);
  EXPECT_EQ(r.router_queue_drops(), 0u);
  EXPECT_EQ(r.sink_underruns, 0u);
  EXPECT_NEAR(r.router_cpu_utilization(), 0.411246183700, 1e-9);
  EXPECT_NEAR(r.ring_a_utilization(), 0.343734800000, 1e-9);
  EXPECT_NEAR(r.ring_b_utilization(), 0.343560575000, 1e-9);
  ASSERT_FALSE(r.end_to_end.empty());
  EXPECT_EQ(r.end_to_end.Summary().min, 32410773);
  EXPECT_NEAR(r.end_to_end.Summary().mean, 32901949.804819, 1e-3);
}

TEST(GoldenEquivalence, RouterZeroCopyTenSecondsSeed2) {
  RouterConfig config;
  config.forward_via_mbufs = false;
  config.duration = Seconds(10);
  config.seed = 2;
  const RouterReport r = RouterExperiment(config).Run();
  EXPECT_EQ(r.packets_built, 833u);
  EXPECT_EQ(r.packets_forwarded, 832u);
  EXPECT_EQ(r.packets_delivered, 831u);
  EXPECT_EQ(r.packets_lost, 0u);
  EXPECT_EQ(r.router_queue_drops(), 0u);
  EXPECT_EQ(r.sink_underruns, 0u);
  EXPECT_NEAR(r.router_cpu_utilization(), 0.074919674900, 1e-9);
  EXPECT_NEAR(r.ring_a_utilization(), 0.343734800000, 1e-9);
  EXPECT_NEAR(r.ring_b_utilization(), 0.343560575000, 1e-9);
  ASSERT_FALSE(r.end_to_end.empty());
  EXPECT_EQ(r.end_to_end.Summary().min, 28345225);
  EXPECT_NEAR(r.end_to_end.Summary().mean, 28730949.368675, 1e-3);
}

// Later-PR experiments pinned at the same bar: the zero-copy frame-arena swap (PR 10) must
// leave every one of these byte-identical, including cross-shard fabric forwarding, the
// faultsweep's purge/retransmit accounting, and mediamix's controller-driven QoE numbers.

TEST(GoldenEquivalence, FabricFourRingsFiveSecondsSeed3) {
  FabricConfig config;
  config.rings = 4;
  config.stations_per_ring = 6;
  config.duration = Seconds(5);
  config.seed = 3;
  FabricExperiment experiment(config);
  for (size_t i = 0; i < experiment.shard_count(); ++i) {
    // Exercise cross-shard journey Detach/Adopt too.
    experiment.shard(i).sim().telemetry().journeys.Enable();
  }
  const FabricReport r = experiment.Run();
  EXPECT_EQ(r.packets_built, 1664u);
  EXPECT_EQ(r.packets_delivered, 1656u);
  EXPECT_EQ(r.packets_lost, 0u);
  EXPECT_EQ(r.sink_underruns, 0u);
  EXPECT_EQ(r.sync_rounds, 10000u);
  // 142861 with one event per CPU step, 85958 with step runs alone, 62664 before the CPU ran
  // background interrupts without events (EXPERIMENTS.md, "Golden re-pins").
  EXPECT_EQ(r.events_executed, 47141u);
  ASSERT_EQ(r.hops.size(), 8u);
  const uint64_t expected_forwarded[8] = {415, 0, 415, 0, 415, 0, 0, 415};
  for (size_t i = 0; i < r.hops.size(); ++i) {
    EXPECT_EQ(r.hops[i].forwarded, expected_forwarded[i]) << r.hops[i].name;
    EXPECT_EQ(r.hops[i].queue_drops, 0u) << r.hops[i].name;
  }
  ASSERT_EQ(r.ring_utilization.size(), 4u);
  EXPECT_NEAR(r.ring_utilization[0], 0.681283650000, 1e-9);
  EXPECT_NEAR(r.ring_utilization[1], 0.681342700000, 1e-9);
  EXPECT_NEAR(r.ring_utilization[2], 0.680253100000, 1e-9);
  EXPECT_NEAR(r.ring_utilization[3], 0.679922600000, 1e-9);
}

TEST(GoldenEquivalence, FaultSweepTwoLevelsHybridSeed5) {
  FaultSweepConfig config;
  config.base.duration = Seconds(3);
  config.base.seed = 5;
  config.levels = 2;
  config.recoveries = {RecoveryMode::kNone, RecoveryMode::kHybrid};
  const FaultSweepReport r = FaultSweepExperiment(config).Run();
  ASSERT_EQ(r.rows.size(), 8u);
  // One expectation row per cell (level-major, policy order, recovery within policy):
  // {purges, built, delivered, lost, rtx, late, underruns, nacks, resends, parity_bytes}.
  struct Cell {
    uint64_t purges, built, delivered, lost, rtx, late, underruns, nacks, resends;
    int64_t parity_bytes;
    double ratio, mean_us, p98_us;
  };
  const Cell expected[8] = {
      {0, 249, 248, 0, 0, 0, 0, 0, 0, 0, 0.995983935743, 15722.189976, 17751.872},
      {0, 249, 248, 0, 0, 0, 0, 0, 0, 62000, 0.995983935743, 17542.937077, 23400.011},
      {0, 249, 248, 0, 0, 0, 0, 0, 0, 0, 0.995983935743, 15722.189976, 17751.872},
      {0, 249, 248, 0, 0, 0, 0, 0, 0, 62000, 0.995983935743, 17542.937077, 23400.011},
      {25, 249, 240, 8, 0, 0, 7, 0, 0, 0, 0.963855421687, 15713.030025, 17262.116},
      {25, 249, 245, 0, 0, 8, 17, 23, 23, 62000, 0.983935742972, 92765.569265, 228719.282},
      {25, 249, 246, 2, 10, 1, 7, 0, 0, 0, 0.987951807229, 19654.840817, 72797.826},
      {25, 249, 248, 0, 9, 3, 8, 5, 5, 62000, 0.995983935743, 37290.551476, 114767.395},
  };
  for (size_t i = 0; i < r.rows.size(); ++i) {
    const FaultSweepRow& row = r.rows[i];
    const Cell& want = expected[i];
    EXPECT_EQ(row.purges_injected, want.purges) << "row " << i;
    EXPECT_EQ(row.packets_built, want.built) << "row " << i;
    EXPECT_EQ(row.packets_delivered, want.delivered) << "row " << i;
    EXPECT_EQ(row.packets_lost, want.lost) << "row " << i;
    EXPECT_EQ(row.retransmissions, want.rtx) << "row " << i;
    EXPECT_EQ(row.late_recovered, want.late) << "row " << i;
    EXPECT_EQ(row.sink_underruns, want.underruns) << "row " << i;
    EXPECT_EQ(row.nacks_sent, want.nacks) << "row " << i;
    EXPECT_EQ(row.resends, want.resends) << "row " << i;
    EXPECT_EQ(row.parity_overhead_bytes, want.parity_bytes) << "row " << i;
    EXPECT_NEAR(row.delivered_ratio, want.ratio, 1e-9) << "row " << i;
    EXPECT_NEAR(row.mean_latency_us, want.mean_us, 1e-3) << "row " << i;
    EXPECT_NEAR(row.p98_latency_us, want.p98_us, 1e-3) << "row " << i;
  }
}

TEST(GoldenEquivalence, MediaMixControllerFiveSecondsSeed2) {
  MediaMixConfig config;
  config.quality_controller = true;
  config.duration = Seconds(5);
  config.seed = 2;
  const MediaMixReport r = MediaMixExperiment(config).Run();
  EXPECT_NEAR(r.ring_utilization, 0.609100950000, 1e-9);
  EXPECT_NEAR(r.aggregate_distortion, 52.0, 1e-9);
  EXPECT_EQ(r.ring_priority_preemptions, 289u);
  EXPECT_EQ(r.ring_reservations, 947u);
  EXPECT_EQ(r.controller_epochs, 50u);
  EXPECT_EQ(r.controller_updates, 45u);
  EXPECT_EQ(r.streams.size(), 7u);
  ASSERT_EQ(r.classes.size(), 3u);
  EXPECT_EQ(r.classes[0].name, "voice");
  EXPECT_EQ(r.classes[0].streams, 4);
  EXPECT_EQ(r.classes[0].built, 996u);
  EXPECT_EQ(r.classes[0].delivered, 996u);
  EXPECT_EQ(r.classes[0].lost, 0u);
  EXPECT_EQ(r.classes[0].underruns, 0u);
  EXPECT_EQ(r.classes[0].mean_latency, 4622587);
  EXPECT_EQ(r.classes[0].max_latency, 10687086);
  EXPECT_EQ(r.classes[0].ring_priority, 5);
  EXPECT_EQ(r.classes[1].name, "vbr");
  EXPECT_EQ(r.classes[1].streams, 2);
  EXPECT_EQ(r.classes[1].built, 832u);
  EXPECT_EQ(r.classes[1].delivered, 830u);
  EXPECT_EQ(r.classes[1].lost, 0u);
  EXPECT_EQ(r.classes[1].underruns, 26u);
  EXPECT_EQ(r.classes[1].starvation_time, 160766661);
  EXPECT_NEAR(r.classes[1].distortion, 52.0, 1e-9);
  EXPECT_EQ(r.classes[1].mean_latency, 7937800);
  EXPECT_EQ(r.classes[1].max_latency, 33371794);
  EXPECT_EQ(r.classes[1].ring_priority, 6);
  EXPECT_EQ(r.classes[2].name, "bulk");
  EXPECT_EQ(r.classes[2].streams, 1);
  EXPECT_EQ(r.classes[2].built, 415u);
  EXPECT_EQ(r.classes[2].delivered, 415u);
  EXPECT_EQ(r.classes[2].lost, 0u);
  EXPECT_EQ(r.classes[2].underruns, 0u);
  EXPECT_EQ(r.classes[2].mean_latency, 12659811);
  EXPECT_EQ(r.classes[2].max_latency, 27672017);
  EXPECT_EQ(r.classes[2].ring_priority, 0);
}

// The merged campaign document, pinned byte for byte against a committed golden file. This
// freezes the whole surface at once: every per-run stat, the aggregate percentiles, the
// "run<i>." metric namespacing, and the JSON spelling itself. Regenerate with
//   ctms_sim --experiment=campaign --grid=seed=1:3 --duration=2
//            --metrics-json=tests/golden/campaign_seed_sweep.json  (one line)
TEST(GoldenEquivalence, CampaignSeedSweepMatchesGoldenFile) {
  ScenarioConfig base;
  base.experiment = "campaign";
  base.duration_s = 2;
  std::string error;
  auto grid = CampaignGrid::Parse("seed=1:3", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  CampaignRunner runner(base, std::move(*grid), CampaignRunner::Options{});
  ASSERT_EQ(runner.Prepare(), "");
  const CampaignReport report = runner.Run();

  std::ifstream in(std::string(CTMS_TESTS_GOLDEN_DIR) + "/campaign_seed_sweep.json");
  ASSERT_TRUE(in.good()) << "missing golden file";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(report.MergedJson(), golden.str());
}

}  // namespace
}  // namespace ctms
