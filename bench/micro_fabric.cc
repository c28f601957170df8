// Scaling microbenchmark of the sharded fabric's conservative-lookahead rounds.
//
// Simulation speed for a ring-of-rings fabric as it grows (1, 2, 4, 8 shards): simulated
// seconds times shards per wall second of Run(), so one shard-second costs the same at
// every size when the sync rounds are cheap. Speed, not events per second: a CPU step run
// is one event however many steps it covers, so a faster fabric can execute fewer events
// per second. The 8-shard run's sync-round count is also emitted — rounds ~= duration /
// link latency, the knob that trades lookahead for the number of rounds.
//
// Emits the human table plus one JSON line per headline number; --json=PATH additionally
// writes the JSON lines to PATH (CI saves it as BENCH_fabric.json). --smoke shortens the
// simulated duration so the run stays sub-second on a shared runner. Each size runs three
// times and keeps its fastest run, so one slow phase of the host cannot fail the trajectory
// gate on its own.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/fabric/fabric.h"

namespace ctms {
namespace {

struct Sample {
  double sim_s_per_wall_s;  // shard-seconds simulated per wall second
  uint64_t events;
  uint64_t rounds;
};

Sample RunOnce(int64_t rings, SimDuration duration) {
  FabricConfig config;
  config.topology = FabricTopology::kRingOfRings;
  config.rings = rings;
  config.stations_per_ring = 16;
  config.duration = duration;
  FabricExperiment experiment(config);
  const auto start = std::chrono::steady_clock::now();
  const FabricReport report = experiment.Run();
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  if (!report.Healthy()) {
    std::fputs("bench fabric run was not healthy\n", stderr);
  }
  return Sample{ToSecondsF(duration) * static_cast<double>(rings) / seconds,
                report.events_executed, report.sync_rounds};
}

}  // namespace
}  // namespace ctms

int main(int argc, char** argv) {
  using namespace ctms;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }
  const SimDuration duration = smoke ? Seconds(2) : Seconds(20);

  std::string json;
  PrintHeader("micro_fabric — ring-of-rings, simulated shard-seconds per wall second");
  std::printf("  %-8s %16s %12s %10s\n", "shards", "sim s/wall s", "events", "rounds");
  uint64_t rounds = 0;  // of the last, 8-shard run
  for (const int64_t rings : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8}}) {
    Sample sample = RunOnce(rings, duration);
    for (int run = 1; run < 3; ++run) {
      sample.sim_s_per_wall_s =
          std::max(sample.sim_s_per_wall_s, RunOnce(rings, duration).sim_s_per_wall_s);
    }
    std::printf("  %-8lld %16.1f %12llu %10llu\n", static_cast<long long>(rings),
                sample.sim_s_per_wall_s, static_cast<unsigned long long>(sample.events),
                static_cast<unsigned long long>(sample.rounds));
    char line[128];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"fabric\",\"metric\":\"shards%lld_sim_s_per_wall_s\","
                  "\"value\":%.1f}\n",
                  static_cast<long long>(rings), sample.sim_s_per_wall_s);
    json += line;
    rounds = sample.rounds;
  }
  char line[128];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"fabric\",\"metric\":\"sync_rounds\",\"value\":%llu}\n",
                static_cast<unsigned long long>(rounds));
  json += line;
  std::fputs(json.c_str(), stdout);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}
