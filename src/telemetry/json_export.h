// JSON exporters for the telemetry subsystem.
//
// Two artifacts per run:
//   - Chrome trace-event JSON (array-of-events form) from a SpanTracer, loadable in
//     Perfetto / chrome://tracing: one "thread" per registered track, "X" complete events
//     for spans, "i" instant events for points.
//   - A run-summary JSON that dumps the full MetricsRegistry (counters, gauges, summaries)
//     plus experiment-level stats, for CI trend lines and scripted comparison.
//
// All output is rendered from integers and deterministic doubles only; two runs with the
// same seed produce byte-identical files.

#ifndef SRC_TELEMETRY_JSON_EXPORT_H_
#define SRC_TELEMETRY_JSON_EXPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/span_tracer.h"

namespace ctms {

// Writes `text` to `path` (the one file writer behind every exporter, and behind the
// flight-recorder dump). Returns false on I/O failure.
bool WriteText(const std::string& text, const std::string& path);

// Escapes `s` for inclusion inside a JSON string literal (quotes, backslashes, control
// characters; non-ASCII bytes pass through untouched).
std::string JsonEscape(const std::string& s);

// Renders the tracer as Chrome trace-event JSON text (array-of-events form). Timestamps are
// microseconds with nanosecond precision (three decimals), matching the trace-viewer unit.
std::string ChromeTraceJson(const SpanTracer& tracer);

// Writes ChromeTraceJson to `path`. Returns false on I/O failure.
bool WriteChromeTraceJson(const SpanTracer& tracer, const std::string& path);

// Renders just the registry as a JSON object {"counters":{...},"gauges":{...},
// "summaries":{...}} in name order.
std::string MetricsJson(const MetricsRegistry& metrics);

// Writes MetricsJson to `path`. Returns false on I/O failure.
bool WriteMetricsJson(const MetricsRegistry& metrics, const std::string& path);

// Experiment-level facts embedded alongside the registry in the run summary.
struct RunSummaryInfo {
  std::string scenario;
  double duration_s = 0.0;
  uint64_t seed = 0;
  // Flat name -> value stats (delivery counts, utilizations, ...). Values that are whole
  // numbers render without a decimal point.
  std::vector<std::pair<std::string, double>> stats;
  // FaultReport::Stats() when the run had a fault injector; empty = section omitted, so a
  // plan-free run's summary is byte-identical to one from before faults existed.
  std::vector<std::pair<std::string, double>> fault;
};

// Renders {"run":{...},"stats":{...}[,"fault_report":{...}],"metrics":{...}}.
std::string RunSummaryJson(const MetricsRegistry& metrics, const RunSummaryInfo& info);

// Writes RunSummaryJson to `path`. Returns false on I/O failure.
bool WriteRunSummaryJson(const MetricsRegistry& metrics, const RunSummaryInfo& info,
                         const std::string& path);

// One campaign run as the merged-campaign exporter sees it. `metrics` may be null (a
// faultsweep cell spans many simulations and has no single registry).
struct CampaignRunView {
  std::string label;
  bool healthy = false;
  const RunSummaryInfo* info = nullptr;
  const MetricsRegistry* metrics = nullptr;
};

// Renders the merged campaign document:
//   {"campaign":{...},"aggregate":{...},"runs":[...],"metrics":{...}}
// "aggregate" holds count/min/mean/p50/p90/max per stat name (names in first-seen order
// across the runs); "runs" keeps every run's summary in the order given; "metrics" is one
// combined registry with run i's metrics namespaced under "run<i>.". The output depends
// only on the views' contents and order — the campaign runner hands them over in
// job-submission order, which is what makes the merged report independent of worker count.
std::string CampaignJson(const std::string& experiment, const std::string& grid,
                         const std::vector<CampaignRunView>& runs);

// Writes CampaignJson to `path`. Returns false on I/O failure.
bool WriteCampaignJson(const std::string& experiment, const std::string& grid,
                       const std::vector<CampaignRunView>& runs, const std::string& path);

}  // namespace ctms

#endif  // SRC_TELEMETRY_JSON_EXPORT_H_
