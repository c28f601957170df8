#include "src/core/experiment_registry.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "src/core/report_stats.h"
#include "src/measure/export.h"
#include "src/telemetry/journey.h"
#include "src/workload/trace_replay.h"

namespace ctms {

namespace {

// What the output step reads from a live run; null where the experiment has no such part.
struct LiveRun {
  Telemetry* telemetry = nullptr;               // one simulation: registry, tracer, journeys
  const MetricsRegistry* metrics = nullptr;     // the registry of a run on many simulations
  const TraceReplayTraffic* replay = nullptr;   // ctms --trace
  const PaperHistograms* histograms = nullptr;  // ctms --histogram and --csv-prefix
  const Histogram* latency = nullptr;           // baseline --csv-prefix
};

constexpr Histogram PaperHistograms::*kPaperHistograms[] = {
    &PaperHistograms::inter_irq,      &PaperHistograms::inter_handler,
    &PaperHistograms::inter_pre_tx,   &PaperHistograms::inter_rx,
    &PaperHistograms::irq_to_handler, &PaperHistograms::handler_to_pre_tx,
    &PaperHistograms::pre_tx_to_rx};

// The one output step: the summary, then what the output flags ask for. Returns false if a
// requested file could not be written.
bool EmitOutput(const ScenarioConfig& config, const std::string& summary,
                const RunSummaryInfo& info, const LiveRun& live) {
  std::cout << summary;
  if (live.replay != nullptr) {
    std::printf("replayed %llu background frames from %s\n",
                static_cast<unsigned long long>(live.replay->frames_sent()),
                config.trace_path.c_str());
  }
  if (live.histograms != nullptr && config.histogram != 0) {
    const Histogram& histogram = live.histograms->*kPaperHistograms[config.histogram - 1];
    std::cout << "\n" << histogram.SummaryLine() << "\n";
    std::cout << histogram.RenderAscii(Microseconds(config.bin_us));
  }
  if (live.histograms != nullptr && !config.csv_prefix.empty()) {
    const int written = WritePaperHistogramsCsv(*live.histograms, config.csv_prefix);
    std::printf("wrote %d CSV files with prefix %s\n", written, config.csv_prefix.c_str());
  }
  if (live.latency != nullptr && !config.csv_prefix.empty()) {
    WriteSamplesCsv(*live.latency, config.csv_prefix + "_latency.csv");
    std::printf("wrote %s_latency.csv\n", config.csv_prefix.c_str());
  }
  bool ok = true;
  const auto wrote = [&](bool written, const std::string& path) {
    if (written) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      ok = false;
    }
  };
  if (live.telemetry != nullptr && live.telemetry->journeys.enabled()) {
    JourneyRecorder& journeys = live.telemetry->journeys;
    std::cout << "\n" << journeys.StageBreakdown();
    if (journeys.anomaly_fired()) {
      // An anomaly arms the automatic post-mortem: spans onto the trace (before it is
      // written below) and a JSON dump even when no --journey-json path was given.
      journeys.DumpToTracer();
    }
    const std::string path = !config.journey_json.empty() ? config.journey_json
                             : journeys.anomaly_fired()   ? "flight_recorder.json"
                                                          : "";
    if (!path.empty()) {
      wrote(WriteText(journeys.FlightJson(), path), path);
    }
  }
  const MetricsRegistry none;
  const MetricsRegistry& metrics = live.telemetry != nullptr ? live.telemetry->metrics
                                   : live.metrics != nullptr ? *live.metrics
                                                             : none;
  if (config.print_metrics) {
    std::printf("telemetry counters:\n");
    for (const auto& [name, counter] : metrics.counters()) {
      std::printf("  %-48s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(counter.value()));
    }
  }
  if (live.telemetry != nullptr && !config.trace_json.empty()) {
    wrote(WriteChromeTraceJson(live.telemetry->tracer, config.trace_json), config.trace_json);
  }
  if (!config.metrics_json.empty()) {
    wrote(WriteRunSummaryJson(metrics, info, config.metrics_json), config.metrics_json);
  }
  return ok;
}

// Records a run: its summary header and stats, the fault report of `faulted`, and a copy
// of a single simulation's registry. With `output`, the run goes through the output step.
template <typename Report>
ExperimentRun Finish(const ScenarioConfig& config, bool output, std::string scenario,
                     const Report& report, bool healthy, const LiveRun& live,
                     RingTopology* faulted) {
  ExperimentRun run;
  run.info.scenario = std::move(scenario);
  run.info.duration_s = static_cast<double>(config.duration_s);
  run.info.seed = config.seed;
  run.info.stats = SummaryStats(report);
  if (const FaultInjector* injector = faulted ? faulted->fault_injector() : nullptr) {
    run.info.fault = injector->report().Stats();
  }
  run.healthy = healthy;
  if (live.telemetry != nullptr) {
    run.metrics = std::make_unique<MetricsRegistry>();
    run.metrics->MergeFrom(live.telemetry->metrics);
  }
  if (output) {
    run.ok = EmitOutput(config, report.Summary(), run.info, live);
  }
  return run;
}

// The simulation's telemetry, with the tracer on when the output step will write it and
// the journey recorder on under --journeys.
Telemetry& Traced(Simulation& sim, const ScenarioConfig& config, bool output) {
  sim.telemetry().tracer.set_enabled(output && !config.trace_json.empty());
  ConfigureJourneys(config, &sim.telemetry().journeys);
  return sim.telemetry();
}

ExperimentRun RunCtms(const ScenarioConfig& config, bool output) {
  const CtmsConfig ctms = CtmsConfigFrom(config);
  CtmsExperiment experiment(ctms);
  Telemetry& telemetry = Traced(experiment.sim(), config, output);
  std::unique_ptr<TraceReplayTraffic> replay;
  if (!config.trace_path.empty()) {
    replay = std::make_unique<TraceReplayTraffic>(&experiment.ring(), config.trace);
    SimDuration span = 0;
    for (const TraceEntry& entry : replay->trace()) {
      span = std::max(span, entry.offset);
    }
    replay->Start(/*loop=*/true, span + Milliseconds(50));
  }
  const ExperimentReport report = experiment.Run();
  const bool healthy = report.packets_delivered > 0 && report.packets_lost == 0 &&
                       report.sink_underruns == 0;
  const LiveRun live{.telemetry = &telemetry,
                     .replay = replay.get(),
                     .histograms = config.ground_truth_output ? &report.ground_truth
                                                              : &report.measured};
  return Finish(config, output, ctms.name, report, healthy, live, &experiment.topology());
}

ExperimentRun RunBaseline(const ScenarioConfig& config, bool output) {
  BaselineExperiment experiment(BaselineConfigFrom(config));
  Telemetry& telemetry = Traced(experiment.sim(), config, output);
  const BaselineReport report = experiment.Run();
  return Finish(config, output, config.tcp ? "baseline-tcp" : "baseline-udp", report,
                report.Sustained(),
                {.telemetry = &telemetry, .latency = &report.end_to_end_latency},
                &experiment.topology());
}

ExperimentRun RunServer(const ScenarioConfig& config, bool output) {
  ServerExperiment experiment(ServerConfigFrom(config));
  Telemetry& telemetry = Traced(experiment.sim(), config, output);
  const ServerReport report = experiment.Run();
  return Finish(config, output, "server", report, report.AllSustained(),
                {.telemetry = &telemetry}, &experiment.topology());
}

ExperimentRun RunRouter(const ScenarioConfig& config, bool output) {
  RouterExperiment experiment(RouterConfigFrom(config));
  Telemetry& telemetry = Traced(experiment.sim(), config, output);
  const RouterReport report = experiment.Run();
  return Finish(config, output, config.zero_copy ? "router-zero-copy" : "router-mbuf", report,
                report.KeepsUp(), {.telemetry = &telemetry}, &experiment.topology());
}

ExperimentRun RunMediaMix(const ScenarioConfig& config, bool output) {
  MediaMixExperiment experiment(MediaMixConfigFrom(config));
  Telemetry& telemetry = Traced(experiment.sim(), config, output);
  const MediaMixReport report = experiment.Run();
  return Finish(config, output,
                config.quality_controller ? "mediamix-controller" : "mediamix-fifo", report,
                report.Healthy(), {.telemetry = &telemetry}, &experiment.topology());
}

// Many simulations and no single registry: --metrics-json carries the curve as stats.
ExperimentRun RunFaultSweep(const ScenarioConfig& config, bool output) {
  const FaultSweepReport report = FaultSweepExperiment(FaultSweepConfigFrom(config)).Run();
  return Finish(config, output, "faultsweep", report, report.Healthy(), {}, nullptr);
}

ExperimentRun RunFabric(const ScenarioConfig& config, bool output) {
  FabricExperiment experiment(FabricConfigFrom(config));
  for (size_t i = 0; i < experiment.shard_count(); ++i) {
    ConfigureJourneys(config, &experiment.shard(i).sim().telemetry().journeys);
  }
  const FabricReport report = experiment.Run();
  auto merged = std::make_unique<MetricsRegistry>();
  experiment.MergeMetricsInto(merged.get());
  ExperimentRun run =
      Finish(config, output, "fabric", report, report.Healthy(), {.metrics = merged.get()},
             &experiment.shard(static_cast<size_t>(report.config.fault_shard)));
  run.metrics = std::move(merged);
  return run;
}

// Row order is the --experiment spelling order in error messages.
constexpr ExperimentEntry kRegistry[] = {
    {"ctms", true, RunCtms},
    {"baseline", true, RunBaseline},
    {"server", true, RunServer},
    {"router", true, RunRouter},
    {"faultsweep", true, RunFaultSweep},
    {"fabric", true, RunFabric},
    {"mediamix", true, RunMediaMix},
    {"campaign", false, nullptr},
};

}  // namespace

std::span<const ExperimentEntry> Experiments() { return kRegistry; }

const ExperimentEntry* FindExperiment(std::string_view name) {
  for (const ExperimentEntry& entry : kRegistry) {
    if (name == entry.name) {
      return &entry;
    }
  }
  return nullptr;
}

}  // namespace ctms
