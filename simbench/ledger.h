// The benchmark's own instruments, all applied from outside the simulator: a phase timer
// around the calls into each layer, host-time spans written as Chrome trace-event JSON, and
// the fold of a run's MetricsRegistry into per-layer counts.

#ifndef SIMBENCH_LEDGER_H_
#define SIMBENCH_LEDGER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "src/telemetry/metrics.h"
#include "src/telemetry/span_tracer.h"

namespace simbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point start, Clock::time_point end);

// Host-time spans, kept in memory and written once at exit. The simulator's SpanTracer and
// Chrome exporter carry them: its int64 nanosecond timestamps here hold host nanoseconds
// since this trace was created instead of simulated time.
class HostTrace {
 public:
  HostTrace();

  ctms::TrackId Track(const std::string& name) { return tracer_.RegisterTrack(name); }
  void Add(ctms::TrackId track, std::string name, Clock::time_point start,
           Clock::time_point end);
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  ctms::SpanTracer tracer_;
};

// The four phases every repetition passes through, in order.
enum Phase { kSetup, kRun, kReport, kExport, kPhaseCount };

// Times the phases of one repetition back to back and counts the heap allocations in each,
// so wall time and allocations split by phase come from one clock and one counter. With a
// trace attached, each phase also becomes a span on `track`.
class PhaseTimer {
 public:
  explicit PhaseTimer(HostTrace* trace = nullptr, ctms::TrackId track = 0)
      : trace_(trace), track_(track) {}

  void Start();
  // Closes the phase that began at the previous mark; `span` names it in the trace.
  void End(Phase phase, const char* span);

  double seconds(Phase phase) const { return seconds_[phase]; }
  uint64_t allocs(Phase phase) const { return allocs_[phase]; }
  uint64_t total_allocs() const;
  double wall() const { return SecondsBetween(start_, mark_); }

 private:
  HostTrace* trace_;
  ctms::TrackId track_;
  Clock::time_point start_{};
  Clock::time_point mark_{};
  uint64_t alloc_mark_ = 0;
  std::array<double, kPhaseCount> seconds_{};
  std::array<uint64_t, kPhaseCount> allocs_{};
};

// Registry counters folded by module prefix, after stripping the "run<i>." (campaign) and
// "shard<i>." (fabric) namespaces, so station names never need to be known:
//   sim.  cpu./dma. -> hw   kern.   driver. -> dev   adapter./ring. -> ring
struct LayerCounts {
  uint64_t events = 0;
  uint64_t wheel_pops = 0;
  uint64_t heap_pops = 0;
  int64_t event_pool_live_peak = 0;

  uint64_t cpu_steps = 0;
  uint64_t cpu_jobs = 0;
  uint64_t preemptions = 0;
  uint64_t interrupts = 0;
  uint64_t dma_transfers = 0;

  uint64_t mbuf_allocs = 0;
  uint64_t mbuf_failures = 0;
  uint64_t ifq_enqueues = 0;
  uint64_t ifq_drops = 0;
  int64_t ifq_depth_peak = 0;

  uint64_t packets_built = 0;
  uint64_t source_drops = 0;
  uint64_t sink_underruns = 0;

  uint64_t frames_carried = 0;
  uint64_t mac_frames = 0;
  uint64_t rx_overruns = 0;
  int64_t onboard_rx_depth_peak = 0;

  size_t registry_entries = 0;
};

LayerCounts FoldRegistry(const ctms::MetricsRegistry& registry);

// FNV-1a over `summary` and the registry's counters in name order: the run's answer, which a
// change that only alters speed must leave identical.
uint64_t Digest(const std::string& summary, const ctms::MetricsRegistry& registry);

}  // namespace simbench

#endif  // SIMBENCH_LEDGER_H_
