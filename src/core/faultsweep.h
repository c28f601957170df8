// FaultSweepExperiment: the degradation curve — delivered ratio vs. purge-storm intensity,
// one curve per (degradation policy, recovery family) pair.
//
// Intensity level L injects the first L storms of a fixed schedule, so every level's purge
// times are a strict superset of the level below it (no jitter): more intensity can only
// add damage, which is what makes "delivered ratio is monotone non-increasing in L" a
// meaningful acceptance check rather than a coin flip. Each (level, policy, recovery) cell
// runs the full CtmsExperiment with the same seed; only the FaultPlan, the DegradationMode,
// and the RecoveryMode differ. Cells are independent simulations, so `jobs` workers run
// them on ParallelFor (src/core/parallel.h) and write disjoint row slots — the report is
// byte-identical at any worker count.

#ifndef SRC_CORE_FAULTSWEEP_H_
#define SRC_CORE_FAULTSWEEP_H_

#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/scenario.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/proto/degradation.h"
#include "src/proto/recovery.h"
#include "src/sim/time.h"

namespace ctms {

struct FaultSweepConfig {
  // Stream/topology parameters shared by every cell; faults, degradation, and
  // retransmit_on_purge are overwritten per cell.
  CtmsConfig base;

  // Intensity axis: level L injects storms 0..L-1 of the schedule below.
  int levels = 4;
  int purges_per_storm = 25;
  SimDuration purge_spacing = Milliseconds(4);  // dense against the 12 ms stream period
  SimTime first_storm_at = Seconds(1);
  SimDuration storm_period = Milliseconds(400);

  // Policy axis.
  std::vector<DegradationMode> policies = {DegradationMode::kDropOldest,
                                           DegradationMode::kPurgeRetransmit};

  // Recovery-family axis (PROTOCOL.md 2.4.3). The default keeps the legacy sweep: one
  // kNone curve per policy, byte-identical names, rows, and stats.
  std::vector<RecoveryMode> recoveries = {RecoveryMode::kNone};

  // Worker threads claiming cells; 1 = sequential. Any value yields identical reports.
  int jobs = 1;
};

struct FaultSweepRow {
  int level = 0;
  DegradationMode policy = DegradationMode::kDropOldest;
  RecoveryMode recovery = RecoveryMode::kNone;
  uint64_t purges_injected = 0;
  uint64_t packets_built = 0;
  uint64_t packets_delivered = 0;
  uint64_t packets_lost = 0;
  uint64_t retransmissions = 0;
  uint64_t late_recovered = 0;
  uint64_t sink_underruns = 0;
  double delivered_ratio = 0.0;  // delivered / built
  // Recovery-family outcomes (all zero for kNone rows) and the frontier coordinates.
  uint64_t repaired = 0;              // FEC-rebuilt losses
  uint64_t nacks_sent = 0;            // reverse-signalling messages
  uint64_t resends = 0;               // NACK-triggered retransmissions
  int64_t parity_overhead_bytes = 0;  // wire bytes spent on parity
  double loss_ratio = 0.0;            // lost / built, after repair
  double mean_latency_us = 0.0;       // sink latency mean
  double p98_latency_us = 0.0;        // sink latency 98th percentile
};

struct FaultSweepReport {
  FaultSweepConfig config;
  // Level-major; policies in config order within a level, recoveries within a policy.
  std::vector<FaultSweepRow> rows;

  const FaultSweepRow* Find(int level, DegradationMode policy,
                            RecoveryMode recovery = RecoveryMode::kNone) const;

  // Delivered ratio never rises as intensity does (per policy-and-recovery curve).
  bool MonotoneNonIncreasing(DegradationMode policy,
                             RecoveryMode recovery = RecoveryMode::kNone) const;
  // At every non-zero intensity, purge-retransmit delivers strictly more than drop-oldest
  // (compares the recovery-free curves; meaningless unless kNone is swept).
  bool RetransmitBeatsDrop() const;
  // The sweep's acceptance: every curve is monotone non-increasing and, when the
  // recovery-free curves were swept, purge-retransmit beats drop-oldest.
  bool Healthy() const;

  std::string Summary() const;
};

class FaultSweepExperiment {
 public:
  explicit FaultSweepExperiment(FaultSweepConfig config);

  FaultSweepExperiment(const FaultSweepExperiment&) = delete;
  FaultSweepExperiment& operator=(const FaultSweepExperiment&) = delete;

  // The plan intensity level L runs under (storms 0..L-1, jitter-free).
  FaultPlan PlanForLevel(int level) const;

  FaultSweepReport Run();

 private:
  FaultSweepConfig config_;
};

}  // namespace ctms

#endif  // SRC_CORE_FAULTSWEEP_H_
