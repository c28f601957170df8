// Fabric tests: the routing-table contract (shapes, deterministic tie-breaks), healthy
// delivery across every topology, cross-shard journey adoption, and seed sensitivity.
// Fabric output is pinned byte-identical across campaign worker counts in
// tests/campaign_test.cc, and against golden numbers in tests/testbed_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/fabric/routing.h"

namespace ctms {
namespace {

// --- links and routes ---------------------------------------------------------------------

TEST(FabricRoutingTest, ParseAndNameRoundTrip) {
  for (const char* name : {"chain", "star", "ring-of-rings"}) {
    auto topology = ParseFabricTopology(name);
    ASSERT_TRUE(topology.has_value()) << name;
    EXPECT_STREQ(FabricTopologyName(*topology), name);
  }
  EXPECT_FALSE(ParseFabricTopology("mesh").has_value());
}

TEST(FabricRoutingTest, LinkShapes) {
  EXPECT_TRUE(BuildLinks(FabricTopology::kChain, 1).empty());
  EXPECT_TRUE(BuildLinks(FabricTopology::kRingOfRings, 1).empty());

  const auto chain = BuildLinks(FabricTopology::kChain, 4);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].a, 0);
  EXPECT_EQ(chain[0].b, 1);
  EXPECT_EQ(chain[2].a, 2);
  EXPECT_EQ(chain[2].b, 3);

  const auto star = BuildLinks(FabricTopology::kStar, 4);
  ASSERT_EQ(star.size(), 3u);
  for (size_t k = 0; k < star.size(); ++k) {
    EXPECT_EQ(star[k].a, 0);
    EXPECT_EQ(star[k].b, static_cast<int>(k) + 1);
  }

  // Ring-of-rings is the chain closed with (0, n-1); two shards would duplicate the only
  // edge, so the closing link appears only above two.
  EXPECT_EQ(BuildLinks(FabricTopology::kRingOfRings, 2).size(), 1u);
  const auto loop = BuildLinks(FabricTopology::kRingOfRings, 4);
  ASSERT_EQ(loop.size(), 4u);
  EXPECT_EQ(loop[3].a, 0);
  EXPECT_EQ(loop[3].b, 3);
}

TEST(FabricRoutingTest, ChainRoutesHopByHop) {
  const auto links = BuildLinks(FabricTopology::kChain, 4);
  const RoutingTable routes(links, 4);
  EXPECT_EQ(routes.HopCount(0, 0), 0);
  EXPECT_EQ(routes.NextLink(0, 0), -1);
  EXPECT_EQ(routes.HopCount(0, 3), 3);
  EXPECT_EQ(routes.NextLink(0, 3), 0);
  EXPECT_EQ(routes.NextLink(1, 3), 1);
  EXPECT_EQ(routes.NextLink(3, 0), 2);
  EXPECT_EQ(routes.HopCount(3, 0), 3);
}

TEST(FabricRoutingTest, StarRoutesThroughTheHub) {
  const auto links = BuildLinks(FabricTopology::kStar, 4);
  const RoutingTable routes(links, 4);
  EXPECT_EQ(routes.HopCount(1, 3), 2);
  EXPECT_EQ(routes.NextLink(1, 3), 0);  // leaf -> hub on the leaf's only link
  EXPECT_EQ(routes.NextLink(0, 3), 2);  // hub -> leaf directly
  EXPECT_EQ(routes.HopCount(0, 2), 1);
}

TEST(FabricRoutingTest, RingOfRingsBreaksTiesTowardTheLowerLink) {
  // 4 shards in a loop: 0 -> 2 is two hops either way around. BFS expands links in index
  // order, so the route goes via shard 1 (link 0), not via shard 3 (link 3) — the
  // deterministic contract every bridge forwards by.
  const auto links = BuildLinks(FabricTopology::kRingOfRings, 4);
  const RoutingTable routes(links, 4);
  EXPECT_EQ(routes.HopCount(0, 2), 2);
  EXPECT_EQ(routes.NextLink(0, 2), 0);
  EXPECT_EQ(routes.HopCount(2, 0), 2);
  EXPECT_EQ(routes.NextLink(2, 0), 1);
  // The closing link is still the best first hop where it is genuinely shorter.
  EXPECT_EQ(routes.HopCount(0, 3), 1);
  EXPECT_EQ(routes.NextLink(0, 3), 3);
}

// --- the experiment -----------------------------------------------------------------------

FabricConfig ShortFabric(FabricTopology topology, int64_t rings) {
  FabricConfig config;
  config.topology = topology;
  config.rings = rings;
  config.stations_per_ring = 6;
  config.duration = Seconds(4);
  return config;
}

TEST(FabricTest, SingleShardDegeneratesToOneLocalRing) {
  FabricExperiment experiment(ShortFabric(FabricTopology::kRingOfRings, 1));
  const FabricReport report = experiment.Run();
  EXPECT_TRUE(report.Healthy());
  EXPECT_TRUE(report.hops.empty());
  EXPECT_EQ(report.sync_rounds, 1u);  // no links, so one window covers the whole run
  EXPECT_GT(report.packets_delivered, 0u);
}

TEST(FabricTest, ChainDeliversWithoutLossAndCountsEveryHop) {
  FabricConfig config = ShortFabric(FabricTopology::kChain, 3);
  // Halve the payload: at the default 2000 B / 12 ms the middle ring of a 3-shard chain
  // carries three stream traversals (inbound, its own outbound, and transit) and sits at
  // ~99% of the 4 Mbit/s wire — this test asserts routing and hop accounting, not
  // saturation behaviour.
  config.packet_bytes = 1000;
  FabricExperiment experiment(config);
  const FabricReport report = experiment.Run();
  EXPECT_TRUE(report.Healthy());
  EXPECT_EQ(report.packets_lost, 0u);
  ASSERT_EQ(report.hops.size(), 4u);  // 2 links x 2 directions
  // Flow 2 -> 0 transits both links; every directed hop therefore carries traffic.
  for (const FabricHopStats& hop : report.hops) {
    EXPECT_GT(hop.forwarded, 0u) << hop.name;
    EXPECT_EQ(hop.queue_drops, 0u) << hop.name;
  }
}

TEST(FabricTest, RingOfRingsDeliversWithoutLoss) {
  FabricExperiment experiment(ShortFabric(FabricTopology::kRingOfRings, 4));
  const FabricReport report = experiment.Run();
  EXPECT_TRUE(report.Healthy());
  EXPECT_GT(report.packets_delivered, 0u);
  EXPECT_EQ(report.ring_utilization.size(), 4u);
  // Successor flows each cross exactly one link in a loop: forwarded counts balance.
  ASSERT_EQ(report.hops.size(), 8u);
}

TEST(FabricTest, JourneysSurviveBridgeHandoffWithProvenance) {
  const FabricConfig config = ShortFabric(FabricTopology::kChain, 2);
  FabricExperiment experiment(config);
  for (size_t i = 0; i < experiment.shard_count(); ++i) {
    experiment.shard(i).sim().telemetry().journeys.Enable();
  }
  const FabricReport report = experiment.Run();
  EXPECT_TRUE(report.Healthy());
  // Shard 1's sink terminates the 0 -> 1 flow, so its flight recorder holds journeys born
  // on shard 0 that crossed one bridge — with the transit stamped no earlier than one link
  // latency after birth.
  const JourneyRecorder& journeys = experiment.shard(1).sim().telemetry().journeys;
  ASSERT_FALSE(journeys.flight().empty());
  size_t adopted = 0;
  for (const JourneyRecord& record : journeys.flight()) {
    if (record.origin_shard != 0) {
      continue;
    }
    ++adopted;
    EXPECT_EQ(record.hops, 1);
    const SimTime born = record.stamps[static_cast<int>(JourneyStage::kSourceIrq)];
    const SimTime transit = record.stamps[static_cast<int>(JourneyStage::kRingTransit)];
    ASSERT_NE(born, kJourneyUnstamped);
    ASSERT_NE(transit, kJourneyUnstamped);
    EXPECT_GE(transit - born, config.link_latency);
  }
  EXPECT_GT(adopted, 0u);
}

// --- determinism --------------------------------------------------------------------------

TEST(FabricDeterminismTest, DifferentSeedsDiverge) {
  FabricConfig config = ShortFabric(FabricTopology::kChain, 2);
  FabricExperiment first(config);
  const uint64_t events_first = first.Run().events_executed;
  config.seed = 2;
  FabricExperiment second(config);
  EXPECT_NE(events_first, second.Run().events_executed);
}

}  // namespace
}  // namespace ctms
