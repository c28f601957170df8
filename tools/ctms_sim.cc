// ctms_sim — command-line front end to the CTMS reproduction.
//
// Run any scenario from the paper's measurement matrix without writing code:
//
//   ctms_sim --scenario=A --duration=60
//   ctms_sim --scenario=B --duration=120 --histogram=6 --bin-us=500
//   ctms_sim --scenario=B --zero-copy --method=truth
//   ctms_sim --experiment=baseline --packet-bytes=2000 --tcp
//   ctms_sim --experiment=mediamix --mix=vca:3 --duration=20
//   ctms_sim --experiment=server --clients=2 --duration=20
//   ctms_sim --experiment=router --zero-copy
//   ctms_sim --scenario=B --faults=plan.json --degradation=retransmit
//   ctms_sim --experiment=faultsweep --sweep-levels=4 --duration=10
//   ctms_sim --experiment=campaign --grid=seed=1:8 --jobs=4 --duration=10
//   ctms_sim --scenario=B --csv-prefix=/tmp/run1 --duration=300
//
// Prints the experiment summary, optionally an ASCII histogram, and optionally exports all
// seven paper histograms as CSV.
//
// Every flag is applied through the shared tables in src/core/scenario_cli.h — so the
// campaign grid (`--grid=seed=1:4;memory=iocm,system`) can sweep any flag this tool accepts, by
// the same name — and the selected experiment runs through its row of the experiment
// registry (src/core/experiment_registry.h), the same dispatch the campaign cells use.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/campaign/campaign.h"
#include "src/core/experiment_registry.h"
#include "src/core/scenario_cli.h"

namespace {

using namespace ctms;

void PrintUsage() {
  std::printf(
      "ctms_sim — reproduce the USENIX'91 CTMS experiments\n\n"
      "A flag the selected experiment does not read is an error, not a no-op.\n\n"
      "experiment selection:\n"
      "  --experiment=NAME     ctms (default), baseline, server, router, faultsweep,\n"
      "                        fabric, mediamix, or campaign\n"
      "  --scenario=A|B        Test Case A (private quiet ring) or B (loaded public ring)\n"
      "  --tcp                 baseline uses TCP-lite instead of UDP\n"
      "  --clients=N           server: client machines fed from one media disk (default 2);\n"
      "                        refused beside --mix, which makes one client per stream\n"
      "  --chain-hops=N        router: store-and-forward bridges in the chain (default 1)\n\n"
      "media workload (mediamix; --mix also applies to server/router/fabric):\n"
      "  --mix=SPEC            declarative class mix, e.g. voice:8,vbr:4,bulk:2; entries\n"
      "                        are class[:count[:rate_kbps]] separated by ',' or '+'\n"
      "                        (classes: vca, voice, vbr, bulk; rate at most 500 KB/s);\n"
      "                        vca:N is N of the paper's 150 KB/s streams on one ring.\n"
      "                        Each class sets its streams' packet size and period, so\n"
      "                        --packet-bytes and --period-ms are refused beside it, and\n"
      "                        a router mix must make exactly one stream\n"
      "  --quality-controller  map class utility onto 802.5 ring access priorities,\n"
      "                        re-ranked by distortion pressure each epoch (default off:\n"
      "                        all classes share one priority, FIFO between them)\n"
      "  --controller-epoch-ms=N  controller re-evaluation period (default 100)\n\n"
      "fabric (--experiment=fabric, sharded multi-ring campus):\n"
      "  --rings=N             ring shards, one event core each (default 4)\n"
      "  --stations-per-ring=N stations on each shard ring (default 8)\n"
      "  --fabric-topology=T   chain, star, or ring-of-rings (default)\n"
      "  --link-latency-us=N   inter-ring link latency; also the conservative-lookahead\n"
      "                        window (default 500)\n\n"
      "stream and environment:\n"
      "  --duration=SECONDS    simulated run length (default 30)\n"
      "  --seed=N              simulation seed (default 1)\n"
      "  --packet-bytes=N      payload per device interrupt (default 2000)\n"
      "  --period-ms=N         device interrupt period (default 12)\n"
      "  --memory=iocm|system  fixed DMA buffer placement\n"
      "  --no-driver-priority  CTMSP shares if_snd with ARP/IP\n"
      "  --ring-priority=N     Token Ring access priority 0-7, 0=off (default 6)\n"
      "  --zero-copy           pointer-passing transmit (router: zero-copy forwarding)\n"
      "  --retransmit          MAC-receive purge recovery\n"
      "  --insertions=MINUTES  mean minutes between station insertions (0=off)\n"
      "  --trace=FILE          replay a background-traffic CSV (offset_us,bytes) on loop\n\n"
      "faults and degradation:\n"
      "  --faults=FILE         deterministic fault plan JSON (see src/fault/fault_plan.h)\n"
      "  --degradation=MODE    drop (default, silent loss), block, or retransmit\n"
      "  --retry-budget=N      retransmit mode: retries per packet (default 3)\n"
      "  --retry-backoff-ms=N  retransmit mode: delay before each retry (default 2)\n"
      "  --recovery=MODE       receiver-side loss recovery: none (default), resend (NACK),\n"
      "                        fec (XOR parity groups), or hybrid (FEC first, NACK\n"
      "                        fallback); faultsweep accepts a ','/'+'-separated list and\n"
      "                        sweeps every named family\n"
      "  --fec-group=N         fec/hybrid: data packets per parity packet, 1..32 (default 8)\n"
      "  --nack-delay-us=N     resend/hybrid: gap confirmation before the first NACK\n"
      "                        (default 500)\n"
      "  --sweep-levels=N      faultsweep: purge-storm intensity levels, 2..16 (default 4)\n"
      "  --sweep-purges=N      faultsweep: purges per storm (default 25)\n"
      "  --sweep-spacing-ms=N  faultsweep: spacing between purges in a storm (default 4)\n"
      "  --jobs=N              faultsweep: cell worker threads; the report is\n"
      "                        byte-identical for every N (default 1)\n\n"
      "campaign (--experiment=campaign):\n"
      "  --grid=SPEC           swept axes, e.g. seed=1:8 or seed=1:4;memory=iocm,system;\n"
      "                        axis names are the flag names above, values are lists\n"
      "                        (v1,v2) or inclusive integer ranges (lo:hi or lo:hi:step);\n"
      "                        at most 10000 points\n"
      "  --jobs=N              worker threads (default 1); the merged report is\n"
      "                        byte-identical for every N\n"
      "  --cell-experiment=E   experiment each grid point runs (default ctms)\n"
      "  --independent-faults  salt each run's fault-RNG fork with its grid index\n\n"
      "measurement and output:\n"
      "  --method=pcat|rtpc|logic|truth   instrument (default pcat)\n"
      "  --histogram=1..7      render a paper histogram as ASCII\n"
      "  --bin-us=N            histogram bin width (default 500)\n"
      "  --ground-truth        render histograms from the perfect observer\n"
      "  --csv-prefix=PATH     export all seven histograms as PATH_histN.csv\n"
      "  --metrics-json=FILE   write the run summary + full metrics registry as JSON\n"
      "                        (campaign: the merged aggregate + per-run document)\n"
      "  --trace-json=FILE     write a Chrome trace-event JSON (Perfetto-loadable)\n"
      "  --print-metrics       print every telemetry counter after the run\n\n"
      "packet journeys (ctms, server, router, mediamix; fabric and campaign cells count\n"
      "--journeys in metrics only):\n"
      "  --journeys            per-packet lifecycle recording with a per-stage latency\n"
      "                        breakdown (source IRQ to delivery) in the run summary;\n"
      "                        deadline 4 x --period-ms per --chain-hops hop\n"
      "  --flight-recorder=N   finished journeys retained for post-mortems (default 64)\n"
      "  --journey-json=FILE   write the flight-recorder dump; when omitted, an anomaly\n"
      "                        (deadline miss, drop, retransmit, reorder-evict, stall: a\n"
      "                        delivery more than one deadline after the previous one\n"
      "                        of any stream in the run, not per stream)\n"
      "                        writes flight_recorder.json automatically\n"
      "  --stage-histograms    per-stage log2 delta histograms in the breakdown\n");
}

// Parses argv into one ScenarioConfig through the shared flag tables
// (src/core/scenario_cli.h): `--name=value` goes through ApplyScenarioAxis, bare `--name`
// through ApplyScenarioPresenceFlag, and the post-parse checks through
// ValidateScenarioConfig — the exact code paths the campaign grid uses, so tool and grid
// cannot drift.
bool ParseOptions(int argc, char** argv, ScenarioConfig* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", arg.c_str());
      return false;
    }
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      if (!ApplyScenarioPresenceFlag(options, arg.substr(2))) {
        std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
        return false;
      }
      continue;
    }
    std::string error;
    if (!ApplyScenarioAxis(options, arg.substr(2, eq - 2), arg.substr(eq + 1), &error)) {
      std::fprintf(stderr, "%s (try --help)\n", error.c_str());
      return false;
    }
  }
  std::string error = ValidateScenarioConfig(*options);
  if (error.empty()) {
    error = LoadScenarioFiles(options);
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s (try --help)\n", error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintUsage();
      return 0;
    }
  }
  ScenarioConfig options;
  if (!ParseOptions(argc, argv, &options)) {
    return 1;
  }
  // The campaign's run function sits above the registry (src/campaign).
  const ExperimentRunFn run = options.experiment == "campaign"
                                  ? RunCampaign
                                  : FindExperiment(options.experiment)->run;
  const ExperimentRun result = run(options, /*output=*/true);
  return !result.ok ? 1 : result.healthy ? 0 : 2;
}
