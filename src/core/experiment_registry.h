// The experiment registry: one row per experiment, driven by both ctms_sim and the
// campaign runner. Adding an experiment takes one row here, plus its name in the reader
// list of every flag it reads (the flag tables in scenario_cli.cc).

#ifndef SRC_CORE_EXPERIMENT_REGISTRY_H_
#define SRC_CORE_EXPERIMENT_REGISTRY_H_

#include <memory>
#include <span>
#include <string_view>

#include "src/core/scenario_cli.h"
#include "src/telemetry/json_export.h"
#include "src/telemetry/metrics.h"

namespace ctms {

// What one run leaves behind, cut loose from its Simulation.
struct ExperimentRun {
  RunSummaryInfo info;  // scenario label, flat stats, fault report
  bool healthy = false;
  // A copy of the run's registry (a fabric's holds every shard's under "shard<i>."); null
  // for faultsweep, which spans many simulations.
  std::unique_ptr<MetricsRegistry> metrics;
  bool ok = true;  // false when an output file could not be written or a grid was bad
};

// Builds the experiment from `config`, runs it, and records it. With `output`, the live run
// also goes through the shared output step: the summary on stdout, then every line and
// file the output flags ask for. Campaign cells run without output.
using ExperimentRunFn = ExperimentRun (*)(const ScenarioConfig& config, bool output);

struct ExperimentEntry {
  const char* name;
  bool cell;            // a campaign grid cell may run it
  ExperimentRunFn run;  // null for campaign, whose RunCampaign lives above src/core
};

std::span<const ExperimentEntry> Experiments();
const ExperimentEntry* FindExperiment(std::string_view name);  // null when unknown

}  // namespace ctms

#endif  // SRC_CORE_EXPERIMENT_REGISTRY_H_
