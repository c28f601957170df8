#include <gtest/gtest.h>

#include <string>

#include "src/core/server.h"
#include "src/dev/disk.h"
#include "src/dev/media_server.h"
#include "src/hw/machine.h"
#include "src/sim/simulation.h"

namespace ctms {
namespace {

class DiskFixture : public ::testing::Test {
 protected:
  DiskFixture() : sim_(1), machine_(&sim_, "server"), disk_(&machine_) {
    machine_.cpu().set_dispatch_base(0);
    machine_.cpu().set_dispatch_jitter(0);
  }
  Simulation sim_;
  Machine machine_;
  MediaDisk disk_;
};

TEST_F(DiskFixture, FilesAreContiguousAndBounded) {
  EXPECT_TRUE(disk_.CreateFile("a", 1000));
  EXPECT_TRUE(disk_.CreateFile("b", 2000));
  EXPECT_FALSE(disk_.CreateFile("a", 10));  // duplicate name
  EXPECT_EQ(disk_.FileSize("a"), 1000);
  EXPECT_EQ(disk_.FileSize("b"), 2000);
  EXPECT_EQ(disk_.FileSize("missing"), -1);
  // Capacity exhaustion.
  EXPECT_FALSE(disk_.CreateFile("huge", 400 * 1024 * 1024));
}

TEST_F(DiskFixture, ReadRejectsBadRanges) {
  disk_.CreateFile("a", 1000);
  int rejected = 0;
  const auto expect_reject = [&](int64_t offset, int64_t bytes) {
    disk_.Read("a", offset, bytes, [&](bool ok) {
      if (!ok) {
        ++rejected;
      }
    });
  };
  expect_reject(-1, 10);
  expect_reject(0, 0);
  expect_reject(900, 200);  // past EOF
  disk_.Read("missing", 0, 10, [&](bool ok) {
    if (!ok) {
      ++rejected;
    }
  });
  EXPECT_EQ(rejected, 4);
  EXPECT_EQ(disk_.stats().reads, 0u);
}

TEST_F(DiskFixture, ColdReadPaysSeekAndRotation) {
  disk_.CreateFile("pad", 100 * 1024 * 1024);  // push "a" away from byte 0
  disk_.CreateFile("a", 1024 * 1024);
  SimTime done = -1;
  disk_.Read("a", 0, 2000, [&](bool ok) {
    ASSERT_TRUE(ok);
    done = sim_.Now();
  });
  sim_.RunAll();
  // Controller 0.5 ms + a seek of a third of the disk (~11 ms) + up to one rotation
  // (16.7 ms) + transfer 1.33 ms + interrupt cost.
  EXPECT_GT(done, Milliseconds(5));
  EXPECT_LT(done, Milliseconds(32));
}

TEST_F(DiskFixture, SequentialReadsSkipTheMechanics) {
  disk_.CreateFile("a", 1024 * 1024);
  std::vector<SimTime> completions;
  // First read positions the head; the following reads continue where it stopped.
  for (int i = 0; i < 4; ++i) {
    disk_.Read("a", i * 2000, 2000, [&](bool) { completions.push_back(sim_.Now()); });
  }
  sim_.RunAll();
  ASSERT_EQ(completions.size(), 4u);
  // All four: the head parks at byte 0, exactly where file "a" begins.
  EXPECT_EQ(disk_.stats().sequential_reads, 4u);
  // Sequential service: controller 0.5 ms + transfer 1.33 ms (+0.12 interrupt).
  const SimDuration gap = completions[2] - completions[1];
  EXPECT_NEAR(static_cast<double>(gap), static_cast<double>(Microseconds(1833)),
              static_cast<double>(Microseconds(200)));
}

TEST_F(DiskFixture, InterleavedStreamsThrashTheHead) {
  disk_.CreateFile("a", 50 * 1024 * 1024);
  disk_.CreateFile("b", 50 * 1024 * 1024);
  int64_t offset = 0;
  for (int i = 0; i < 10; ++i) {
    disk_.Read("a", offset, 2000, nullptr);
    disk_.Read("b", offset, 2000, nullptr);
    offset += 2000;
  }
  sim_.RunAll();
  EXPECT_EQ(disk_.stats().reads, 20u);
  // Nothing (except possibly the very first pair) is sequential: the head ping-pongs.
  EXPECT_LE(disk_.stats().sequential_reads, 1u);
  // Average service is dominated by seek + rotation, far above the 1.8 ms streaming rate.
  const double avg_service = static_cast<double>(disk_.stats().busy_time) / 20.0;
  EXPECT_GT(avg_service, static_cast<double>(Milliseconds(8)));
}

TEST_F(DiskFixture, UtilizationAndWorstServiceTracked) {
  disk_.CreateFile("a", 1024 * 1024);
  disk_.Read("a", 0, 64 * 1024, nullptr);
  sim_.RunAll();
  EXPECT_GT(disk_.Utilization(), 0.5);  // nothing else happened in this run
  EXPECT_GT(disk_.stats().worst_service, Milliseconds(40));  // 64 KB at 1.5 MB/s
}

TEST(ServerExperimentTest, SingleClientSustainsFullRate) {
  ServerConfig config;
  config.clients = 1;
  config.duration = Seconds(20);
  const ServerReport report = ServerExperiment(config).Run();
  EXPECT_TRUE(report.AllSustained()) << report.Summary();
  EXPECT_GT(report.disk_sequential_fraction, 0.9);
}

TEST(ServerExperimentTest, TwoHalfRateClientsNeedReadAhead) {
  ServerConfig thrash;
  thrash.clients = 2;
  thrash.packet_bytes = 1000;
  thrash.read_chunk_bytes = 1000;  // per-packet reads
  thrash.duration = Seconds(20);
  const ServerReport thrash_report = ServerExperiment(thrash).Run();
  EXPECT_FALSE(thrash_report.AllSustained());
  uint64_t starvations = 0;
  for (const auto& client : thrash_report.clients) {
    starvations += client.starvations;
  }
  EXPECT_GT(starvations, 100u);
  EXPECT_GT(thrash_report.disk_utilization, 0.9);

  ServerConfig chunked = thrash;
  chunked.read_chunk_bytes = 32 * 1024;
  const ServerReport chunked_report = ServerExperiment(chunked).Run();
  EXPECT_TRUE(chunked_report.AllSustained()) << chunked_report.Summary();
  EXPECT_LT(chunked_report.disk_utilization, 0.4);
}

TEST(ServerExperimentTest, AdapterSerializationCapsFullRateStreams) {
  // Even with a happy disk, the strictly-serialized driver cannot push two full-rate
  // streams through one adapter (~10 ms service per 2000-byte packet).
  ServerConfig config;
  config.clients = 2;
  config.read_chunk_bytes = 32 * 1024;
  config.duration = Seconds(20);
  const ServerReport report = ServerExperiment(config).Run();
  EXPECT_FALSE(report.AllSustained());
  uint64_t lost = 0;
  uint64_t starvations = 0;
  for (const auto& client : report.clients) {
    lost += client.lost;
    starvations += client.starvations;
  }
  EXPECT_GT(lost, 100u);       // the driver queue overflows
  EXPECT_LT(starvations, 20u);  // and it is NOT the disk's fault
}


TEST(ServerExperimentTest, SmallFileLoopsAtEof) {
  // A file holding only ~2 s of media: the stream must wrap and keep playing (the head
  // seeks back to the extent start at each wrap).
  ServerConfig config;
  config.clients = 1;
  config.file_bytes = 2000 * 170;  // ~170 packets
  config.read_chunk_bytes = 16 * 1024;
  config.duration = Seconds(10);
  const ServerReport report = ServerExperiment(config).Run();
  EXPECT_TRUE(report.AllSustained()) << report.Summary();
  EXPECT_GT(report.clients[0].built, 700u);  // several times the file's length
  // Wraps break pure sequentiality but only once per pass.
  EXPECT_LT(report.disk_sequential_fraction, 1.0);
  EXPECT_GT(report.disk_sequential_fraction, 0.8);
}

TEST(ServerExperimentTest, SummaryNamesEachClientsSourceDrops) {
  // Two full-rate clients exhaust the server's mbufs: each failed allocation is a source
  // drop of one client, and the client's summary line names its count.
  ServerConfig config;
  config.clients = 2;
  config.duration = Seconds(10);
  ServerExperiment experiment(config);
  const ServerReport report = experiment.Run();
  const std::string summary = report.Summary();
  uint64_t drops = 0;
  for (size_t i = 0; i < report.clients.size(); ++i) {
    const uint64_t client_drops = report.clients[i].mbuf_drops + report.clients[i].queue_drops;
    EXPECT_GT(client_drops, 0u);
    drops += client_drops;
    const size_t line = summary.find("client " + std::to_string(i) + ":");
    ASSERT_NE(line, std::string::npos) << summary;
    EXPECT_NE(summary.substr(line, summary.find('\n', line) - line)
                  .find(", " + std::to_string(client_drops) + " source drops,"),
              std::string::npos)
        << summary;
  }
  const auto& counters = experiment.sim().telemetry().metrics.counters();
  EXPECT_EQ(drops, counters.at("driver.media.server.mbuf_drops").value() +
                       counters.at("driver.media.server.queue_drops").value());
}

TEST(ServerExperimentTest, SummaryListsClients) {
  ServerConfig config;
  config.clients = 2;
  config.packet_bytes = 1000;
  config.duration = Seconds(5);
  const ServerReport report = ServerExperiment(config).Run();
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("client 0"), std::string::npos);
  EXPECT_NE(summary.find("client 1"), std::string::npos);
  EXPECT_NE(summary.find("read-ahead"), std::string::npos);
}

}  // namespace
}  // namespace ctms
