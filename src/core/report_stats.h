// Flat name -> value stat lists for every experiment report, in the fixed orders the
// run-summary JSON has always used. ctms_sim and the campaign runner both render runs
// through these, so a stat added here shows up in single runs, merged campaign reports,
// and the aggregate percentile tables alike — and the two front ends cannot drift apart.

#ifndef SRC_CORE_REPORT_STATS_H_
#define SRC_CORE_REPORT_STATS_H_

#include <string>
#include <utility>
#include <vector>

#include "src/core/baseline.h"
#include "src/core/experiment.h"
#include "src/core/faultsweep.h"
#include "src/core/media_mix.h"
#include "src/core/router.h"
#include "src/core/server.h"
#include "src/fabric/fabric.h"

namespace ctms {

using StatList = std::vector<std::pair<std::string, double>>;

StatList SummaryStats(const ExperimentReport& report);
StatList SummaryStats(const BaselineReport& report);
StatList SummaryStats(const ServerReport& report);
StatList SummaryStats(const RouterReport& report);
// Per-class QoE plus the controller/ring-priority counters, all under class.<name>.*.
StatList SummaryStats(const MediaMixReport& report);
// Flat totals plus one row per directed inter-ring hop and per shard ring.
StatList SummaryStats(const FabricReport& report);
// One row per (level, policy) cell, "L<level>_<policy>_" prefixed — the degradation curve
// flattened for JSON export.
StatList SummaryStats(const FaultSweepReport& report);

}  // namespace ctms

#endif  // SRC_CORE_REPORT_STATS_H_
