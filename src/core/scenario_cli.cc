#include "src/core/scenario_cli.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/experiment_registry.h"
#include "src/sim/time.h"

namespace ctms {

namespace {

// ---------------------------------------------------------------------------------------
// Table-driven flag surface (moved here from tools/ctms_sim.cc so the campaign grid can
// sweep any flag). Two tables describe every axis: the flags, each filling one
// ScenarioConfig member, and the post-parse validations. Adding a flag is one table row.

// Who reads a flag: the experiments whose run reads it, by registry name ("cells" names
// every experiment a campaign cell may run), and whether only the output step reads it.
// Campaign cells never run the output step, so a campaign passes them no output flag.
struct Readers {
  const char* experiments;
  bool output = false;
};

constexpr Readers Output(const char* experiments) { return {experiments, true}; }

// The experiments that read --faults; --independent-faults salts exactly their plans.
constexpr Readers kFaultReaders{"ctms baseline server router fabric mediamix"};

using BoolMember = bool ScenarioConfig::*;
using FlagField = std::variant<BoolMember, std::string ScenarioConfig::*,
                               int64_t ScenarioConfig::*, uint64_t ScenarioConfig::*,
                               int ScenarioConfig::*>;

// A bool flag also works bare: `--x` sets its field to true, `--no-x` to false. Of a
// --x / --no-x pair, the spelling that sets the non-default value comes first, so errors
// name the spelling the user typed.
struct Flag {
  const char* name;
  FlagField field;
  Readers readers;
};

const Flag kFlags[] = {
    {"experiment", &ScenarioConfig::experiment, {"cells campaign"}},
    {"scenario", &ScenarioConfig::scenario, {"ctms faultsweep"}},
    {"duration", &ScenarioConfig::duration_s, {"cells"}},
    {"seed", &ScenarioConfig::seed, {"cells"}},
    {"packet-bytes", &ScenarioConfig::packet_bytes,
     {"ctms faultsweep baseline server router fabric"}},
    {"period-ms", &ScenarioConfig::period_ms, {"ctms faultsweep baseline server router fabric"}},
    {"tcp", &ScenarioConfig::tcp, {"baseline"}},
    {"clients", &ScenarioConfig::clients, {"server"}},
    {"chain-hops", &ScenarioConfig::chain_hops, {"router"}},
    {"mix", &ScenarioConfig::mix, {"server router fabric mediamix"}},
    {"quality-controller", &ScenarioConfig::quality_controller, {"mediamix"}},
    {"no-quality-controller", &ScenarioConfig::quality_controller, {"mediamix"}},
    {"controller-epoch-ms", &ScenarioConfig::controller_epoch_ms, {"mediamix"}},
    {"rings", &ScenarioConfig::rings, {"fabric"}},
    {"stations-per-ring", &ScenarioConfig::stations_per_ring, {"fabric"}},
    {"fabric-topology", &ScenarioConfig::fabric_topology, {"fabric"}},
    {"link-latency-us", &ScenarioConfig::link_latency_us, {"fabric"}},
    {"memory", &ScenarioConfig::memory, {"cells"}},
    {"no-driver-priority", &ScenarioConfig::driver_priority, {"ctms faultsweep"}},
    {"driver-priority", &ScenarioConfig::driver_priority, {"ctms faultsweep"}},
    {"ring-priority", &ScenarioConfig::ring_priority, {"ctms faultsweep mediamix"}},
    {"zero-copy", &ScenarioConfig::zero_copy, {"ctms faultsweep router"}},
    {"retransmit", &ScenarioConfig::retransmit, {"ctms"}},
    {"insertions", &ScenarioConfig::insertion_mean_min, {"ctms faultsweep"}},
    {"trace", &ScenarioConfig::trace_path, {"ctms"}},
    {"method", &ScenarioConfig::method, {"ctms faultsweep"}},
    {"faults", &ScenarioConfig::faults_path, kFaultReaders},
    {"degradation", &ScenarioConfig::degradation, {"ctms"}},
    {"retry-budget", &ScenarioConfig::retry_budget, {"ctms faultsweep"}},
    {"retry-backoff-ms", &ScenarioConfig::retry_backoff_ms, {"ctms faultsweep"}},
    {"recovery", &ScenarioConfig::recovery, {"ctms faultsweep"}},
    {"fec-group", &ScenarioConfig::fec_group, {"ctms faultsweep"}},
    {"nack-delay-us", &ScenarioConfig::nack_delay_us, {"ctms faultsweep"}},
    {"sweep-levels", &ScenarioConfig::sweep_levels, {"faultsweep"}},
    {"sweep-purges", &ScenarioConfig::sweep_purges, {"faultsweep"}},
    {"sweep-spacing-ms", &ScenarioConfig::sweep_spacing_ms, {"faultsweep"}},
    {"jobs", &ScenarioConfig::jobs, {"faultsweep campaign"}},
    {"grid", &ScenarioConfig::grid_spec, {"campaign"}},
    {"cell-experiment", &ScenarioConfig::cell_experiment, {"campaign"}},
    {"independent-faults", &ScenarioConfig::independent_faults, {"campaign"}},
    {"journeys", &ScenarioConfig::journeys, {"ctms server router fabric mediamix"}},
    {"flight-recorder", &ScenarioConfig::flight_recorder, Output("ctms server router mediamix")},
    {"journey-json", &ScenarioConfig::journey_json, Output("ctms server router mediamix")},
    {"stage-histograms", &ScenarioConfig::stage_histograms,
     Output("ctms server router mediamix")},
    {"histogram", &ScenarioConfig::histogram, Output("ctms")},
    {"bin-us", &ScenarioConfig::bin_us, Output("ctms")},
    {"ground-truth", &ScenarioConfig::ground_truth_output, Output("ctms")},
    {"csv-prefix", &ScenarioConfig::csv_prefix, Output("ctms baseline")},
    {"metrics-json", &ScenarioConfig::metrics_json, Output("cells campaign")},
    {"trace-json", &ScenarioConfig::trace_json, Output("ctms baseline server router mediamix")},
    {"print-metrics", &ScenarioConfig::print_metrics,
     Output("ctms baseline server router fabric mediamix")},
};

// The row of `name`, or null.
const Flag* FindFlag(const std::string& name) {
  for (const Flag& flag : kFlags) {
    if (name == flag.name) {
      return &flag;
    }
  }
  return nullptr;
}

// What bare `--name` sets a bool flag's field to.
bool PresenceValue(const Flag& flag) {
  return std::string_view(flag.name).substr(0, 3) != "no-";
}

// Whether `readers` names `experiment`, directly or through "cells".
bool Names(const Readers& readers, std::string_view experiment) {
  const ExperimentEntry* entry = FindExperiment(experiment);
  for (std::string_view list = readers.experiments; !list.empty();) {
    const std::string_view word = list.substr(0, list.find(' '));
    list.remove_prefix(std::min(word.size() + 1, list.size()));
    if (word == experiment || (word == "cells" && entry != nullptr && entry->cell)) {
      return true;
    }
  }
  return false;
}

// Whether a run of `config` reads a flag with these readers: its experiment's, or for a
// campaign its own flags plus what its cells read outside the output step.
bool Reads(const ScenarioConfig& config, const Readers& readers) {
  if (config.experiment != "campaign") {
    return Names(readers, config.experiment);
  }
  return Names(readers, "campaign") ||
         (!readers.output && Names(readers, config.cell_experiment));
}

// Whether `config` sets the field of `flag` to a non-default value.
bool IsSet(const ScenarioConfig& config, const Flag& flag) {
  static const ScenarioConfig defaults;
  return std::visit([&](auto member) { return config.*member != defaults.*member; },
                    flag.field);
}

// The error for the first flag set to a non-default value that a run of `config` does not
// read, or "".
std::string UnreadFlagError(const ScenarioConfig& config) {
  for (const Flag& flag : kFlags) {
    if (IsSet(config, flag) && !Reads(config, flag.readers)) {
      return "--" + std::string(flag.name) + " is not read by the " +
             (config.experiment == "campaign"
                  ? "campaign experiment or its " + config.cell_experiment + " cells"
                  : config.experiment + " experiment");
    }
  }
  if (config.experiment == "campaign" && config.independent_faults &&
      !Names(kFaultReaders, config.cell_experiment)) {
    return "--independent-faults salts the cells' fault plans, and " +
           config.cell_experiment + " cells do not read --faults";
  }
  return "";
}

// The error for a flag set beside a --mix that overrides it, or "". Each class sets its
// streams' packet size and period, and the mix sets the stream count; the router carries
// one connection, so its mix must make exactly one stream. Runs after UnreadFlagError, so
// a --mix here is read by the run.
std::string MixConflictError(const ScenarioConfig& config,
                             const std::vector<WorkloadEntry>& workload) {
  if (workload.empty()) {
    return "";
  }
  for (const char* name : {"clients", "packet-bytes", "period-ms"}) {
    if (IsSet(config, *FindFlag(name))) {
      return "--" + std::string(name) + " cannot be combined with --mix, which sets the streams";
    }
  }
  const std::string& experiment =
      config.experiment == "campaign" ? config.cell_experiment : config.experiment;
  const size_t streams = ResolveWorkload(workload).size();
  if (experiment == "router" && streams > 1) {
    return "--mix=" + config.mix + " makes " + std::to_string(streams) +
           " streams, and the router experiment carries one";
  }
  return "";
}

void StoreValue(ScenarioConfig* options, const FlagField& target, const std::string& value) {
  std::visit(
      [&](auto member) {
        using Field = std::remove_reference_t<decltype(options->*member)>;
        if constexpr (std::is_same_v<Field, std::string>) {
          options->*member = value;
        } else {
          options->*member = static_cast<Field>(std::atoll(value.c_str()));
        }
      },
      target);
}

std::vector<const char*> ExperimentNames(bool cell_only) {
  std::vector<const char*> names;
  for (const ExperimentEntry& entry : Experiments()) {
    if (!cell_only || entry.cell) {
      names.push_back(entry.name);
    }
  }
  return names;
}

// A string flag restricted to an enumerated set of spellings.
struct ChoiceCheck {
  const char* name;
  std::string ScenarioConfig::*field;
  std::vector<const char*> allowed;
};

const std::vector<ChoiceCheck>& ChoiceChecks() {
  static const std::vector<ChoiceCheck> checks = {
      {"experiment", &ScenarioConfig::experiment, ExperimentNames(/*cell_only=*/false)},
      {"cell-experiment", &ScenarioConfig::cell_experiment,
       ExperimentNames(/*cell_only=*/true)},
      {"scenario", &ScenarioConfig::scenario, {"A", "B"}},
      {"memory", &ScenarioConfig::memory, {"iocm", "system"}},
      {"method", &ScenarioConfig::method, {"pcat", "rtpc", "logic", "truth"}},
      {"fabric-topology",
       &ScenarioConfig::fabric_topology,
       {"chain", "star", "ring-of-rings"}},
      {"degradation",
       &ScenarioConfig::degradation,
       {"drop", "drop-oldest", "block", "retransmit", "purge-retransmit"}},
  };
  return checks;
}

// The longest simulated span a time flag may name, ~11.6 days: far above the longest run in
// the repo (3,600 s), and small enough that no converter's multiply into nanoseconds, nor a
// sum of a few such spans, can overflow SimTime.
constexpr SimDuration kLongestSimulatedSpan = Seconds(1'000'000);

// The largest value of a time flag counted in `unit`.
constexpr int64_t MaxTimeIn(SimDuration unit) { return kLongestSimulatedSpan / unit; }

// A numeric flag with an inclusive valid range.
struct RangeCheck {
  const char* name;
  std::variant<int64_t ScenarioConfig::*, int ScenarioConfig::*> field;
  int64_t min;
  int64_t max;
  const char* message;  // null: "--<name> must be between <min> and <max>"
};

const RangeCheck kRangeChecks[] = {
    {"duration", &ScenarioConfig::duration_s, 1, MaxTimeIn(kSecond), nullptr},
    {"packet-bytes", &ScenarioConfig::packet_bytes, 1, INT64_MAX,
     "--packet-bytes must be positive"},
    {"period-ms", &ScenarioConfig::period_ms, 1, MaxTimeIn(kMillisecond), nullptr},
    {"clients", &ScenarioConfig::clients, 1, 16, nullptr},
    {"retry-budget", &ScenarioConfig::retry_budget, 0, 1000, nullptr},
    {"retry-backoff-ms", &ScenarioConfig::retry_backoff_ms, 0, MaxTimeIn(kMillisecond),
     nullptr},
    {"sweep-levels", &ScenarioConfig::sweep_levels, 2, 16,
     "--sweep-levels must be between 2 and 16 (level 0 is the fault-free reference)"},
    {"sweep-purges", &ScenarioConfig::sweep_purges, 1, 1000, nullptr},
    {"sweep-spacing-ms", &ScenarioConfig::sweep_spacing_ms, 1, MaxTimeIn(kMillisecond),
     nullptr},
    {"fec-group", &ScenarioConfig::fec_group, 1, 32,
     "--fec-group must be between 1 and 32 (the parity coverage mask is 32 bits)"},
    {"nack-delay-us", &ScenarioConfig::nack_delay_us, 0, MaxTimeIn(kMicrosecond), nullptr},
    {"jobs", &ScenarioConfig::jobs, 1, 64, nullptr},
    {"chain-hops", &ScenarioConfig::chain_hops, 1, 8, nullptr},
    {"ring-priority", &ScenarioConfig::ring_priority, 0, 7,
     "--ring-priority must be between 0 and 7 (802.5 has eight access priorities)"},
    {"rings", &ScenarioConfig::rings, 1, 64, nullptr},
    {"stations-per-ring", &ScenarioConfig::stations_per_ring, 2, 4096, nullptr},
    {"link-latency-us", &ScenarioConfig::link_latency_us, 1, MaxTimeIn(kMicrosecond),
     nullptr},
    {"insertions", &ScenarioConfig::insertion_mean_min, 0, MaxTimeIn(kMinute), nullptr},
    {"bin-us", &ScenarioConfig::bin_us, 1, MaxTimeIn(kMicrosecond), nullptr},
    {"histogram", &ScenarioConfig::histogram, 0, 7,
     "--histogram must be between 1 and 7, or 0 for none"},
    {"flight-recorder", &ScenarioConfig::flight_recorder, 1, 1'000'000, nullptr},
    {"controller-epoch-ms", &ScenarioConfig::controller_epoch_ms, 1, 60'000, nullptr},
};

// Splits a --recovery spelling into its family tokens. The flag accepts a list ("resend,
// fec") so the faultsweep can run several families in one invocation, and '+' doubles as
// the separator inside campaign grid axes (where ',' already splits grid values).
std::vector<std::string> SplitRecoverySpec(const std::string& spec) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : spec) {
    if (c == ',' || c == '+') {
      tokens.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  tokens.push_back(current);
  return tokens;
}

// The fields every other experiment's config shares with the scenario.
template <typename Config>
Config SharedConfig(const ScenarioConfig& cli) {
  Config config;
  config.duration = Seconds(cli.duration_s);
  config.seed = cli.seed;
  config.dma_buffer_kind = cli.MemoryKindValue();
  config.faults = cli.faults;
  return config;
}

}  // namespace

bool ApplyScenarioAxis(ScenarioConfig* config, const std::string& name,
                       const std::string& value, std::string* error) {
  const Flag* flag = FindFlag(name);
  std::string problem;
  if (flag == nullptr) {
    problem = "unknown flag --" + name;
  } else if (!std::holds_alternative<BoolMember>(flag->field)) {
    if (value.empty()) {
      problem = "--" + name + " requires a value";
    } else {
      StoreValue(config, flag->field, value);
    }
  } else if (value != "1" && value != "true" && value != "0" && value != "false") {
    problem = "--" + name + " takes 0/1/true/false, got \"" + value + "\"";
  } else {
    // 1 means "as if the flag were present", 0 the opposite — so a "no-" spelling inverts.
    const bool present = value == "1" || value == "true";
    config->*std::get<BoolMember>(flag->field) = present == PresenceValue(*flag);
  }
  if (!problem.empty() && error != nullptr) {
    *error = problem;
  }
  return problem.empty();
}

bool ApplyScenarioPresenceFlag(ScenarioConfig* config, const std::string& name) {
  const Flag* flag = FindFlag(name);
  if (flag == nullptr || !std::holds_alternative<BoolMember>(flag->field)) {
    return false;
  }
  config->*std::get<BoolMember>(flag->field) = PresenceValue(*flag);
  return true;
}

std::string ValidateScenarioConfig(const ScenarioConfig& config) {
  for (const ChoiceCheck& check : ChoiceChecks()) {
    const std::string& value = config.*check.field;
    if (std::none_of(check.allowed.begin(), check.allowed.end(),
                     [&](const char* allowed) { return value == allowed; })) {
      std::string expected;
      for (const char* allowed : check.allowed) {
        expected += expected.empty() ? allowed : std::string(" or ") + allowed;
      }
      return "unknown --" + std::string(check.name) + "=" + value + " (expected " + expected +
             ")";
    }
  }
  for (const RangeCheck& check : kRangeChecks) {
    const int64_t value = std::visit(
        [&](auto member) { return static_cast<int64_t>(config.*member); }, check.field);
    if (value < check.min || value > check.max) {
      return check.message != nullptr ? check.message
                                       : "--" + std::string(check.name) + " must be between " +
                                             std::to_string(check.min) + " and " +
                                             std::to_string(check.max);
    }
  }
  // --recovery is a list flag (faultsweep runs every named family), so it validates here
  // instead of through ChoiceChecks, which only knows single spellings.
  for (const std::string& token : SplitRecoverySpec(config.recovery)) {
    if (!ParseRecoveryMode(token).has_value()) {
      return "unknown --recovery=" + token + " (expected none or resend or fec or hybrid)";
    }
  }
  std::vector<WorkloadEntry> workload;
  if (!config.mix.empty()) {
    std::string error;
    if (!ParseMixSpec(config.mix, &workload, &error)) {
      return error;
    }
  }
  const std::string unread = UnreadFlagError(config);
  return !unread.empty() ? unread : MixConflictError(config, workload);
}

std::string LoadScenarioFiles(ScenarioConfig* config) {
  if (!config->faults_path.empty()) {
    std::string error;
    std::optional<FaultPlan> plan = FaultPlan::LoadFile(config->faults_path, &error);
    if (!plan.has_value()) {
      return "bad fault plan " + config->faults_path + ": " + error;
    }
    config->faults = std::move(*plan);
  }
  if (!config->trace_path.empty()) {
    int error_line = 0;
    auto trace = TraceReplayTraffic::LoadCsv(config->trace_path, &error_line);
    if (!trace.has_value()) {
      return "bad trace file " + config->trace_path + " (line " +
             std::to_string(error_line) + ")";
    }
    config->trace = std::move(*trace);
  }
  return "";
}

std::vector<std::string> ScenarioFlagNames() {
  std::vector<std::string> names;
  for (const Flag& flag : kFlags) {
    names.push_back(flag.name);
  }
  return names;
}

bool ScenarioFlagReadBy(const std::string& flag, const std::string& experiment) {
  const Flag* row = FindFlag(flag);
  return row != nullptr && Names(row->readers, experiment);
}

std::vector<WorkloadEntry> ScenarioWorkload(const ScenarioConfig& cli) {
  std::vector<WorkloadEntry> workload;
  if (!cli.mix.empty()) {
    std::string error;
    ParseMixSpec(cli.mix, &workload, &error);
  }
  return workload;
}

MemoryKind ScenarioConfig::MemoryKindValue() const {
  return memory == "system" ? MemoryKind::kSystemMemory : MemoryKind::kIoChannelMemory;
}

MeasurementMethod ScenarioConfig::MethodValue() const {
  if (method == "rtpc") {
    return MeasurementMethod::kRtPcPseudoDevice;
  }
  if (method == "logic") {
    return MeasurementMethod::kLogicAnalyzer;
  }
  if (method == "truth") {
    return MeasurementMethod::kGroundTruth;
  }
  return MeasurementMethod::kPcAt;
}

DegradationMode ScenarioConfig::DegradationValue() const {
  return ParseDegradationMode(degradation).value_or(DegradationMode::kDropOldest);
}

std::vector<RecoveryMode> ScenarioConfig::RecoveryValues() const {
  std::vector<RecoveryMode> modes;
  for (const std::string& token : SplitRecoverySpec(recovery)) {
    const auto parsed = ParseRecoveryMode(token);
    if (parsed.has_value()) {
      modes.push_back(*parsed);
    }
  }
  if (modes.empty()) {
    modes.push_back(RecoveryMode::kNone);
  }
  return modes;
}

CtmsConfig CtmsConfigFrom(const ScenarioConfig& cli) {
  CtmsConfig config = cli.scenario == "B" ? TestCaseB() : TestCaseA();
  config.duration = Seconds(cli.duration_s);
  config.seed = cli.seed;
  config.packet_bytes = cli.packet_bytes;
  config.packet_period = Milliseconds(cli.period_ms);
  config.dma_buffer_kind = cli.MemoryKindValue();
  config.driver_priority = cli.driver_priority;
  config.ring_priority = cli.ring_priority;
  config.tx_zero_copy = cli.zero_copy;
  config.retransmit_on_purge = cli.retransmit;
  config.insertion_mean = Minutes(cli.insertion_mean_min);
  config.method = cli.MethodValue();
  config.degradation = cli.DegradationValue();
  config.retry_budget = cli.retry_budget;
  config.retry_backoff = Milliseconds(cli.retry_backoff_ms);
  // Single-mode experiments take the first --recovery entry; the faultsweep converter
  // below re-reads the full list as its own axis.
  config.recovery = cli.RecoveryValues().front();
  config.fec_group = static_cast<int>(cli.fec_group);
  config.nack_delay = Microseconds(cli.nack_delay_us);
  config.faults = cli.faults;
  return config;
}

BaselineConfig BaselineConfigFrom(const ScenarioConfig& cli) {
  BaselineConfig config = SharedConfig<BaselineConfig>(cli);
  config.packet_bytes = cli.packet_bytes;
  config.packet_period = Milliseconds(cli.period_ms);
  config.use_tcp = cli.tcp;
  return config;
}

ServerConfig ServerConfigFrom(const ScenarioConfig& cli) {
  ServerConfig config = SharedConfig<ServerConfig>(cli);
  config.clients = static_cast<int>(cli.clients);
  config.packet_bytes = cli.packet_bytes;
  config.packet_period = Milliseconds(cli.period_ms);
  config.workload = ScenarioWorkload(cli);  // non-empty overrides the legacy knobs above
  return config;
}

RouterConfig RouterConfigFrom(const ScenarioConfig& cli) {
  RouterConfig config = SharedConfig<RouterConfig>(cli);
  config.packet_bytes = cli.packet_bytes;
  config.packet_period = Milliseconds(cli.period_ms);
  // The router carries one connection; ValidateScenarioConfig holds a --mix to one stream.
  const std::vector<WorkloadEntry> workload = ScenarioWorkload(cli);
  if (!workload.empty()) {
    const std::vector<MediaClass> classes = ResolveWorkload(workload);
    if (!classes.empty()) {
      config.media_class = classes.front();
    }
  }
  config.forward_via_mbufs = !cli.zero_copy;  // --zero-copy selects zero-copy forwarding
  config.chain_hops = cli.chain_hops;
  return config;
}

FabricConfig FabricConfigFrom(const ScenarioConfig& cli) {
  FabricConfig config = SharedConfig<FabricConfig>(cli);
  config.rings = cli.rings;
  config.stations_per_ring = cli.stations_per_ring;
  config.topology =
      ParseFabricTopology(cli.fabric_topology).value_or(FabricTopology::kRingOfRings);
  config.link_latency = Microseconds(cli.link_latency_us);
  config.packet_bytes = cli.packet_bytes;
  config.packet_period = Milliseconds(cli.period_ms);
  config.workload = ScenarioWorkload(cli);  // classes round-robin over the per-shard flows
  return config;
}

MediaMixConfig MediaMixConfigFrom(const ScenarioConfig& cli) {
  MediaMixConfig config = SharedConfig<MediaMixConfig>(cli);
  config.workload = ScenarioWorkload(cli);  // empty = the experiment's moderate default mix
  config.quality_controller = cli.quality_controller;
  config.controller_epoch = Milliseconds(cli.controller_epoch_ms);
  config.ring_priority = cli.ring_priority;
  return config;
}

void ConfigureJourneys(const ScenarioConfig& cli, JourneyRecorder* journeys) {
  if (!cli.journeys) {
    return;
  }
  // Journey recording reads SimTime only, so enabling it cannot perturb the run. The
  // deadline is 4x the packet period per store-and-forward hop (--chain-hops is 1 outside
  // router; each router hop adds about one period of latency), so only genuinely late
  // packets fire the deadline-miss anomaly. A stall fires when the whole recorder (every
  // stream of one simulation) delivers nothing for more than one deadline.
  journeys->set_flight_capacity(static_cast<size_t>(cli.flight_recorder));
  journeys->set_stage_histograms(cli.stage_histograms);
  journeys->set_deadline(4 * Milliseconds(cli.period_ms) * cli.chain_hops);
  journeys->Enable();
}

FaultSweepConfig FaultSweepConfigFrom(const ScenarioConfig& cli) {
  FaultSweepConfig config;
  config.base = CtmsConfigFrom(cli);
  // The sweep owns the faults and policy axes; a --faults plan or --degradation choice
  // would otherwise leak into every cell.
  config.base.faults = FaultPlan();
  config.base.degradation = DegradationMode::kDropOldest;
  config.base.recovery = RecoveryMode::kNone;  // the sweep owns the recovery axis too
  config.recoveries = cli.RecoveryValues();
  config.levels = static_cast<int>(cli.sweep_levels);
  config.purges_per_storm = static_cast<int>(cli.sweep_purges);
  config.purge_spacing = Milliseconds(cli.sweep_spacing_ms);
  config.jobs = static_cast<int>(cli.jobs);
  return config;
}

}  // namespace ctms
