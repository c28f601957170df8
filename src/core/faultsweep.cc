#include "src/core/faultsweep.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "src/core/parallel.h"

namespace ctms {

namespace {

// One (level, policy, recovery) grid point, fully described before any worker runs it so
// the cell list — and therefore the row order — is fixed independent of scheduling.
struct SweepCell {
  int level = 0;
  DegradationMode policy = DegradationMode::kDropOldest;
  RecoveryMode recovery = RecoveryMode::kNone;
};

// Whether the recovery-free curves are swept.
bool SweepsNone(const FaultSweepConfig& config) {
  return std::find(config.recoveries.begin(), config.recoveries.end(), RecoveryMode::kNone) !=
         config.recoveries.end();
}

}  // namespace

FaultSweepExperiment::FaultSweepExperiment(FaultSweepConfig config)
    : config_(std::move(config)) {}

FaultPlan FaultSweepExperiment::PlanForLevel(int level) const {
  FaultPlan plan;
  plan.set_rng_salt(config_.base.faults.rng_salt());
  for (int storm = 0; storm < level; ++storm) {
    const SimTime at = config_.first_storm_at + storm * config_.storm_period;
    plan.Add(FaultPlan::PurgeStorm(at, config_.purges_per_storm, config_.purge_spacing));
  }
  return plan;
}

FaultSweepReport FaultSweepExperiment::Run() {
  FaultSweepReport report;
  report.config = config_;

  std::vector<SweepCell> cells;
  for (int level = 0; level < config_.levels; ++level) {
    for (DegradationMode policy : config_.policies) {
      for (RecoveryMode recovery : config_.recoveries) {
        cells.push_back(SweepCell{level, policy, recovery});
      }
    }
  }
  report.rows.resize(cells.size());

  // Runs one cell and fills its exclusive row slot. Each call owns a whole CtmsExperiment
  // (its own simulation), so concurrent calls share nothing but the report vector, which
  // they index disjointly.
  const auto run_cell = [&](size_t index) {
    const SweepCell& cell_spec = cells[index];
    CtmsConfig cell = config_.base;
    cell.faults = PlanForLevel(cell_spec.level);
    cell.degradation = cell_spec.policy;
    cell.recovery = cell_spec.recovery;
    cell.retransmit_on_purge = false;  // the policy axis owns recovery; no double path

    CtmsExperiment experiment(std::move(cell));
    const ExperimentReport cell_report = experiment.Run();

    FaultSweepRow row;
    row.level = cell_spec.level;
    row.policy = cell_spec.policy;
    row.recovery = cell_spec.recovery;
    if (const FaultInjector* injector = experiment.topology().fault_injector()) {
      row.purges_injected = injector->report().purges_injected;
    }
    row.packets_built = cell_report.packets_built;
    row.packets_delivered = cell_report.packets_delivered;
    row.packets_lost = cell_report.packets_lost;
    // MAC-mode retransmissions when retransmit_on_purge is on; otherwise the policy's.
    row.retransmissions = cell_report.retransmissions;
    if (const DegradationPolicy* policy = experiment.degradation_policy()) {
      row.retransmissions += policy->retransmits();
    }
    row.late_recovered = cell_report.late_recovered;
    row.sink_underruns = cell_report.sink_underruns;
    row.delivered_ratio =
        row.packets_built == 0
            ? 0.0
            : static_cast<double>(row.packets_delivered) /
                  static_cast<double>(row.packets_built);
    row.repaired = cell_report.repaired;
    row.nacks_sent = cell_report.nacks_sent;
    row.resends = cell_report.resends;
    row.parity_overhead_bytes = cell_report.parity_overhead_bytes;
    // packets_lost is post-repair (a repaired packet moved back to delivered), so this is
    // the residual-loss axis of the loss-vs-latency frontier.
    row.loss_ratio = row.packets_built == 0
                         ? 0.0
                         : static_cast<double>(row.packets_lost) /
                               static_cast<double>(row.packets_built);
    row.mean_latency_us = cell_report.sink_latency.Summary().mean / 1000.0;
    row.p98_latency_us = ToSecondsF(cell_report.sink_latency.Percentile(0.98)) * 1e6;
    report.rows[index] = row;
  };

  ParallelFor(cells.size(), config_.jobs, run_cell);
  return report;
}

const FaultSweepRow* FaultSweepReport::Find(int level, DegradationMode policy,
                                            RecoveryMode recovery) const {
  for (const FaultSweepRow& row : rows) {
    if (row.level == level && row.policy == policy && row.recovery == recovery) {
      return &row;
    }
  }
  return nullptr;
}

bool FaultSweepReport::MonotoneNonIncreasing(DegradationMode policy,
                                             RecoveryMode recovery) const {
  const FaultSweepRow* previous = nullptr;
  for (int level = 0; level < config.levels; ++level) {
    const FaultSweepRow* row = Find(level, policy, recovery);
    if (row == nullptr) {
      return false;
    }
    if (previous != nullptr && row->delivered_ratio > previous->delivered_ratio) {
      return false;
    }
    previous = row;
  }
  return previous != nullptr;
}

bool FaultSweepReport::Healthy() const {
  bool healthy = !SweepsNone(config) || RetransmitBeatsDrop();
  for (DegradationMode policy : config.policies) {
    for (RecoveryMode recovery : config.recoveries) {
      healthy = healthy && MonotoneNonIncreasing(policy, recovery);
    }
  }
  return healthy;
}

bool FaultSweepReport::RetransmitBeatsDrop() const {
  bool compared = false;
  for (int level = 1; level < config.levels; ++level) {
    const FaultSweepRow* drop = Find(level, DegradationMode::kDropOldest);
    const FaultSweepRow* retransmit = Find(level, DegradationMode::kPurgeRetransmit);
    if (drop == nullptr || retransmit == nullptr) {
      continue;
    }
    compared = true;
    if (retransmit->packets_delivered <= drop->packets_delivered) {
      return false;
    }
  }
  return compared;
}

std::string FaultSweepReport::Summary() const {
  std::ostringstream os;
  os << "fault sweep: " << config.levels << " intensity levels x " << config.policies.size()
     << " policies x " << config.recoveries.size() << " recovery families ("
     << config.purges_per_storm << " purges / " << FormatDuration(config.purge_spacing)
     << " spacing per storm)\n";
  os << "  level  purges  policy            recovery  delivered/built   ratio      loss  "
        "rexmit  resend  repaired  nacks   p98-us\n";
  for (const FaultSweepRow& row : rows) {
    os << "  " << std::setw(5) << row.level << "  " << std::setw(6) << row.purges_injected
       << "  " << std::setw(16) << std::left << DegradationModeName(row.policy) << std::right
       << "  " << std::setw(8) << std::left << RecoveryModeName(row.recovery) << std::right
       << "  " << std::setw(7) << row.packets_delivered << "/" << std::setw(7) << std::left
       << row.packets_built << std::right << "  " << std::fixed << std::setprecision(4)
       << row.delivered_ratio << "  " << row.loss_ratio << "  " << std::setw(6)
       << row.retransmissions << "  " << std::setw(6) << row.resends << "  " << std::setw(8)
       << row.repaired << "  " << std::setw(5) << row.nacks_sent << "  " << std::setw(7)
       << std::setprecision(1) << row.p98_latency_us << "\n";
    os.unsetf(std::ios::fixed);
  }
  for (DegradationMode policy : config.policies) {
    for (RecoveryMode recovery : config.recoveries) {
      os << "  " << DegradationModeName(policy);
      if (recovery != RecoveryMode::kNone) {
        os << "+" << RecoveryModeName(recovery);
      }
      os << ": "
         << (MonotoneNonIncreasing(policy, recovery) ? "monotone non-increasing"
                                                     : "NOT MONOTONE")
         << "\n";
    }
  }
  if (SweepsNone(config)) {
    os << "  purge-retransmit beats drop-oldest at every non-zero intensity: "
       << (RetransmitBeatsDrop() ? "yes" : "NO") << "\n";
  }
  return os.str();
}

}  // namespace ctms
