// Extension: how many 150 KB/s-class CTMSP streams does a 4 Mbit Token Ring carry?
//
// The paper streams one connection; each 2000-byte/12 ms stream occupies ~34% of the wire,
// so the capacity question has a sharp answer this bench measures: two streams coexist,
// a third saturates the ring and all three degrade together (priority is shared, so the
// failure is fair). Each row is the mediamix experiment with --mix=vca:N.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/ctms.h"

namespace {

// A stream is sustained when it built packets and delivered all but the last two in
// flight, with no loss, queue drop or playout underrun.
bool Sustained(const ctms::StreamStats& stats) {
  return stats.built > 0 && stats.lost == 0 && stats.underruns == 0 &&
         stats.queue_drops == 0 && stats.delivered + 2 >= stats.built;
}

}  // namespace

int main() {
  using namespace ctms;
  PrintHeader("Extension: CTMSP stream capacity of one 4 Mbit ring (30 s per row)");

  std::printf("  %-9s %-10s %-12s %-14s %-14s %-16s\n", "streams", "ring busy", "verdict",
              "worst lost", "worst underruns", "worst max latency");
  std::printf("  %-9s %-10s %-12s %-14s %-14s %-16s\n", "-------", "---------", "-------",
              "----------", "---------------", "-----------------");
  for (int n = 1; n <= 4; ++n) {
    MediaMixConfig config;
    config.workload = {{"vca", n, 0}};
    config.duration = Seconds(30);
    MediaMixExperiment experiment(config);
    const MediaMixReport report = experiment.Run();
    bool sustained = true;
    uint64_t worst_lost = 0;
    uint64_t worst_underruns = 0;
    SimDuration worst_latency = 0;
    for (const StreamStats& stats : report.streams) {
      sustained = sustained && Sustained(stats);
      worst_lost = std::max(worst_lost, stats.lost + stats.queue_drops);
      worst_underruns = std::max(worst_underruns, stats.underruns);
      worst_latency = std::max(worst_latency, stats.max_latency);
    }
    std::printf("  %-9d %-10s %-12s %-14llu %-15llu %-16s\n", n,
                Pct(report.ring_utilization).c_str(), sustained ? "SUSTAINED" : "DEGRADED",
                static_cast<unsigned long long>(worst_lost),
                static_cast<unsigned long long>(worst_underruns),
                FormatDuration(worst_latency).c_str());
  }
  std::printf("\nTwo CD-quality-class streams fit; the third pushes the wire to ~100%% and\n"
              "latency grows without bound. The 1991 answer to 'how many video calls per\n"
              "Token Ring' was: two.\n");
  return 0;
}
