// ScenarioConfig — the command-line scenario aggregate.
//
// ctms_sim's flag table fills exactly one of these; the per-experiment converters below turn
// it into the experiment-specific config structs. That keeps the flag surface, the defaults,
// and the string->enum spellings in one place instead of five hand-copied blocks, and makes
// the whole CLI surface unit-testable without spawning the binary.
//
// The string-typed fields (memory, method, degradation, ...) deliberately keep the CLI
// spellings; converters translate them. Validation of those spellings is the flag table's
// job (ctms_sim rejects unknown values before converting), so the converters just map with
// a safe default.

#ifndef SRC_CORE_SCENARIO_CLI_H_
#define SRC_CORE_SCENARIO_CLI_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/baseline.h"
#include "src/core/faultsweep.h"
#include "src/core/media_mix.h"
#include "src/core/router.h"
#include "src/core/scenario.h"
#include "src/core/server.h"
#include "src/fabric/fabric.h"
#include "src/fault/fault_plan.h"
#include "src/proto/degradation.h"
#include "src/proto/recovery.h"
#include "src/telemetry/journey.h"
#include "src/workload/trace_replay.h"

namespace ctms {

struct ScenarioConfig {
  // --- experiment selection ------------------------------------------------------------
  // The spellings are the rows of the experiment registry (experiment_registry.h), the one
  // table both --experiment and --cell-experiment validate against.
  std::string experiment = "ctms";
  std::string scenario = "A";       // ctms: Test Case A or B preset
  bool tcp = false;                 // baseline: TCP-lite instead of UDP
  int64_t clients = 2;              // server: identical clients when --mix is not set
  int64_t chain_hops = 1;           // router: store-and-forward chain depth

  // --- media workload ------------------------------------------------------------------
  // Declarative class mix, e.g. --mix=voice:8,vbr:4,bulk:2 (entries also accept '+' as
  // separator inside campaign grid axes; fields are class[:count[:rate_kbps]]). Each class
  // fixes its own stream shape, so ValidateScenarioConfig refuses --clients, --packet-bytes
  // and --period-ms beside it, and a router mix of more than one stream.
  std::string mix;
  bool quality_controller = false;   // mediamix: map class utility onto ring priorities
  int64_t controller_epoch_ms = 100;  // controller re-evaluation period

  // --- fabric --------------------------------------------------------------------------
  int64_t rings = 4;
  int64_t stations_per_ring = 8;
  std::string fabric_topology = "ring-of-rings";  // chain|star|ring-of-rings
  int64_t link_latency_us = 500;

  // --- stream and environment ----------------------------------------------------------
  int64_t duration_s = 30;
  uint64_t seed = 1;
  int64_t packet_bytes = 2000;
  int64_t period_ms = 12;
  std::string memory = "iocm";  // iocm|system
  bool driver_priority = true;
  int ring_priority = 6;
  bool zero_copy = false;
  bool retransmit = false;        // MAC-receive purge recovery
  int64_t insertion_mean_min = 0;

  // --- measurement ---------------------------------------------------------------------
  std::string method = "pcat";  // pcat|rtpc|logic|truth

  // --- faults and degradation ----------------------------------------------------------
  std::string faults_path;       // --faults=plan.json; empty = no plan
  FaultPlan faults;              // the parsed plan (filled by LoadScenarioFiles)
  std::string degradation = "drop";  // drop|block|retransmit
  int retry_budget = 3;
  int64_t retry_backoff_ms = 2;

  // --- recovery families ---------------------------------------------------------------
  // none|resend|fec|hybrid. The faultsweep experiment also accepts a list (separated by
  // ',' or by '+' inside campaign grid axes, where ',' splits grid values) and runs every
  // named family as its own sweep axis; other experiments use the first entry.
  std::string recovery = "none";
  int64_t fec_group = 8;        // kFec/kHybrid: data packets per parity packet (1..32)
  int64_t nack_delay_us = 500;  // kResend/kHybrid: gap confirmation before the first NACK

  // --- faultsweep ----------------------------------------------------------------------
  int64_t sweep_levels = 4;
  int64_t sweep_purges = 25;      // purges per storm
  int64_t sweep_spacing_ms = 4;   // within-storm purge spacing

  // --- campaign ------------------------------------------------------------------------
  int64_t jobs = 1;                      // worker threads (campaign / faultsweep cells)
  std::string grid_spec;                 // e.g. "seed=1:4;memory=iocm,system"
  std::string cell_experiment = "ctms";  // experiment each grid point runs
  bool independent_faults = false;       // per-run fault RNG salt (FaultPlan::set_rng_salt)

  // --- observability -------------------------------------------------------------------
  bool journeys = false;           // --journeys: packet-lifecycle recording
  int64_t flight_recorder = 64;    // --flight-recorder=N: post-mortem ring depth
  std::string journey_json;        // --journey-json=PATH: flight-recorder dump target
  bool stage_histograms = false;   // --stage-histograms: per-stage log2 histograms

  // --- output --------------------------------------------------------------------------
  int histogram = 0;  // 0 = none, 1..7 = paper histogram number
  int64_t bin_us = 500;
  std::string csv_prefix;
  std::string trace_path;         // background-traffic replay CSV
  std::vector<TraceEntry> trace;  // the parsed replay schedule (filled by LoadScenarioFiles)
  bool ground_truth_output = false;
  std::string metrics_json;
  std::string trace_json;
  bool print_metrics = false;

  // --- typed views of the string spellings ---------------------------------------------
  MemoryKind MemoryKindValue() const;
  MeasurementMethod MethodValue() const;
  DegradationMode DegradationValue() const;
  // The parsed --recovery list (assumes ValidateScenarioConfig passed); single-mode
  // consumers take RecoveryValues().front().
  std::vector<RecoveryMode> RecoveryValues() const;
};

// --- the flag surface as data ----------------------------------------------------------
//
// Every `--flag=value` axis ctms_sim accepts is applied through ApplyScenarioAxis, and the
// campaign grid reuses the same tables — an axis name in `--grid=seed=1:4;memory=iocm,system`
// is exactly a ctms_sim flag name, so new flags become sweepable for free.

// Sets the field registered under the flag/axis `name` (no leading "--"). Value flags take
// the string verbatim or as a number; presence-style bool flags (tcp, zero-copy, ...) accept
// 0/1/true/false. Returns false and fills *error for unknown names, empty values, or
// malformed bool values.
bool ApplyScenarioAxis(ScenarioConfig* config, const std::string& name,
                       const std::string& value, std::string* error);

// Presence form of the bool flags (`--tcp` with no value). Returns false if `name` is not a
// registered presence flag.
bool ApplyScenarioPresenceFlag(ScenarioConfig* config, const std::string& name);

// Post-parse validation shared by the tool and the campaign grid: enumerated string
// spellings (experiment, scenario, memory, method, degradation), numeric ranges, that the
// selected experiment reads every flag set to a non-default value (a campaign reads its own
// flags plus its cell experiment's, minus the output flags), and that no flag a --mix
// overrides is set beside it. Returns an empty string when the config is valid, else a
// one-line error naming the flag.
std::string ValidateScenarioConfig(const ScenarioConfig& config);

// Loads the --faults plan into `faults` and the --trace schedule into `trace`. Returns ""
// on success, else a one-line error.
std::string LoadScenarioFiles(ScenarioConfig* config);

// Every flag name (no leading "--"), in table order, and whether the table row of `flag`
// names `experiment` among its readers.
std::vector<std::string> ScenarioFlagNames();
bool ScenarioFlagReadBy(const std::string& flag, const std::string& experiment);

// Per-experiment converters. Each copies the fields its experiment understands and leaves
// the rest of the experiment config at its own defaults.
CtmsConfig CtmsConfigFrom(const ScenarioConfig& cli);
BaselineConfig BaselineConfigFrom(const ScenarioConfig& cli);
ServerConfig ServerConfigFrom(const ScenarioConfig& cli);
RouterConfig RouterConfigFrom(const ScenarioConfig& cli);
FaultSweepConfig FaultSweepConfigFrom(const ScenarioConfig& cli);
FabricConfig FabricConfigFrom(const ScenarioConfig& cli);
MediaMixConfig MediaMixConfigFrom(const ScenarioConfig& cli);

// Turns on one simulation's journey recorder under --journeys, with the --flight-recorder
// depth, --stage-histograms, and a deadline of 4x --period-ms per --chain-hops hop; no-op
// without --journeys.
// The one place a recorder is set up from flags: the experiment registry calls it for every
// simulation of a run (once per fabric shard).
void ConfigureJourneys(const ScenarioConfig& cli, JourneyRecorder* journeys);

// The parsed --mix workload; empty when --mix was not given. Assumes the config already
// passed ValidateScenarioConfig (malformed specs are rejected there).
std::vector<WorkloadEntry> ScenarioWorkload(const ScenarioConfig& cli);

}  // namespace ctms

#endif  // SRC_CORE_SCENARIO_CLI_H_
