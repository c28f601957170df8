// Extension: serving continuous media from disk — the server half of the distributed
// multimedia system ("deliver data to a presentation machine from a remote machine").
//
// Two separate mechanical limits show up, and this bench isolates both:
//
//   1. The disk head. One stream reads sequentially and is trivial; two streams from
//      different extents thrash the head — a cold read costs a seek plus half a rotation
//      (~14 ms, more than a whole 12 ms period). Chunked read-ahead amortizes the mechanics
//      and restores service.
//   2. The transmit path. The paper's strictly-serialized driver spends ~10 ms per
//      2000-byte packet (copy + DMA + wire), so ONE full-rate stream per adapter is the
//      ceiling; two streams must drop to half rate to share the adapter.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/ctms.h"

namespace {

void Run(const char* label, ctms::ServerConfig config) {
  config.duration = ctms::Seconds(30);
  ctms::ServerExperiment experiment(config);
  const ctms::ServerReport report = experiment.Run();
  uint64_t starvations = 0;
  uint64_t lost = 0;
  uint64_t underruns = 0;
  for (const auto& client : report.clients) {
    starvations += client.starvations;
    lost += client.lost;
    underruns += client.underruns;
  }
  std::printf("  %-44s %-11s disk %5.1f%% (%3.0f%% seq)  lost=%-5llu starv=%-5llu u=%llu\n",
              label, report.AllSustained() ? "SUSTAINED" : "DEGRADED",
              report.disk_utilization * 100.0, report.disk_sequential_fraction * 100.0,
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(starvations),
              static_cast<unsigned long long>(underruns));
}

}  // namespace

int main() {
  using namespace ctms;
  PrintHeader("Extension: a CTMS media file server (30 s per row)");

  std::printf("Full rate = 2000 B / 12 ms (166 KB/s); half rate = 1000 B / 12 ms.\n\n");

  {
    ServerConfig config;
    config.clients = 1;
    config.read_chunk_bytes = 2000;  // per-packet reads
    Run("1 client, full rate, per-packet reads", config);
  }
  {
    ServerConfig config;
    config.clients = 1;
    config.read_chunk_bytes = 32 * 1024;
    Run("1 client, full rate, 32 KB read-ahead", config);
  }
  {
    ServerConfig config;
    config.clients = 2;
    config.packet_bytes = 1000;
    config.read_chunk_bytes = 1000;  // per-packet reads: the head thrashes between extents
    Run("2 clients, half rate, per-packet reads", config);
  }
  {
    ServerConfig config;
    config.clients = 2;
    config.packet_bytes = 1000;
    config.read_chunk_bytes = 32 * 1024;
    Run("2 clients, half rate, 32 KB read-ahead", config);
  }
  {
    ServerConfig config;
    config.clients = 2;
    config.read_chunk_bytes = 32 * 1024;  // read-ahead fine; the ADAPTER is the limit
    Run("2 clients, full rate, 32 KB read-ahead", config);
  }

  std::printf(
      "\nReadings: a single stream is sequential on disk and needs no read-ahead. Two\n"
      "streams thrash the head (seek + half-rotation per cold read > the 12 ms period)\n"
      "unless reads are chunked. And even with a happy disk, the strictly-serialized\n"
      "driver of the paper spends ~10 ms sending each 2000-byte packet, so one adapter\n"
      "carries one full-rate stream — a server wanting more must pipeline its driver or\n"
      "pass pointers (see bench/abl_transfer_models).\n");
  return 0;
}
