// simbench — end-to-end host-cost benchmark of the CTMS simulator.
//
//   simbench --workload ctms_b --seed 1 --seconds 28 --trace 0 [--trace-out FILE]
//
// Runs one workload — a whole experiment, configured through the same ScenarioConfig flag
// tables and *ConfigFrom converters ctms_sim uses — over and over for a host-time budget,
// one experiment at a time (a closed batch: no arrival process). Every repetition passes
// through four phases, timed from outside around public calls:
//
//   setup   the experiment constructor (topology, stations, streams)
//   run     Start + Simulation::RunUntil, or Run() where the experiment has no split
//           (mediamix), FabricExperiment::Run, or CampaignRunner::Run
//   report  CtmsExperiment::Report (or the report's rendering) and Summary
//   export  the JSON exporters (run summary, merged fabric registry, merged campaign JSON)
//
// Each repetition's answer — its Summary() text plus its name-ordered registry counters —
// is hashed into a digest that must equal the first repetition's. With --trace 0 the last
// stdout line carries the end-to-end metrics. With --trace 1, traced repetitions alternate
// with untraced ones; they record a span around each call (plus per-slice, per-cell and
// report sub-call spans), the spans are written as Chrome trace-event JSON, and the last
// line carries the per-layer numbers. See README.md for the metric table.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "simbench/alloc_count.h"
#include "simbench/ledger.h"
#include "src/campaign/campaign.h"
#include "src/core/experiment.h"
#include "src/core/report_stats.h"
#include "src/core/scenario_cli.h"
#include "src/telemetry/json_export.h"

namespace simbench {
namespace {

using namespace ctms;

// --- workloads ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  // ctms_sim flags; the benchmark seed is appended as --seed, or as the campaign's grid.
  std::vector<std::string> flags;
  int64_t campaign_cells = 0;  // > 0: the seed picks a block of this many cell seeds
  // > 0: the traced run repeats the workload once at this --jobs (capped at the core
  // count), and the thread pool must give the same answer.
  int64_t cross_check_jobs = 0;
};

const Workload kWorkloads[] = {
    // The paper's headline experiment: the loaded public ring measured by the PC/AT
    // timestamper. Per-packet path plus post-run PC/AT matching; no fabric, no campaign.
    {"ctms_b", {"--scenario=B", "--duration=1800"}},
    // Fourteen typed stream pairs in overload with ring reservations and controller epochs.
    // The same per-packet layers, a different mix; no PC/AT matching.
    {"mediamix_overload",
     {"--experiment=mediamix", "--mix=voice:8,vbr:4,bulk:2", "--quality-controller",
      "--duration=300"}},
    // 1,024 stations on 16 shard rings, 40,000 lookahead rounds of ~57 events. Timed on the
    // sequential round loop: at --jobs=4 the per-round barrier waits for the slowest vCPU
    // 40,000 times, and steal bursts on a shared host spread whole runs by up to 2x. The
    // traced run still measures --jobs=4 against it (fabric.jobs_speedup).
    {"fabric_16x64",
     {"--experiment=fabric", "--rings=16", "--stations-per-ring=64", "--jobs=1",
      "--duration=20"},
     0,
     4},
    // A seed-axis grid of scenario-A cells on the campaign worker pool.
    {"campaign_seeds",
     {"--experiment=campaign", "--cell-experiment=ctms", "--scenario=A", "--jobs=4",
      "--duration=600"},
     16,
     1},
};

int64_t CoreCount() {
  return static_cast<int64_t>(std::max(1u, std::thread::hardware_concurrency()));
}

std::optional<ScenarioConfig> BuildConfig(const Workload& workload, uint64_t seed,
                                          std::string* error) {
  std::vector<std::string> flags = workload.flags;
  if (workload.campaign_cells > 0) {
    const uint64_t first = seed * static_cast<uint64_t>(workload.campaign_cells) + 1;
    flags.push_back("--grid=seed=" + std::to_string(first) + ":" +
                    std::to_string(first + static_cast<uint64_t>(workload.campaign_cells) - 1));
  } else {
    flags.push_back("--seed=" + std::to_string(seed));
  }
  ScenarioConfig config;
  for (const std::string& flag : flags) {
    const std::string body = flag.substr(2);
    const size_t eq = body.find('=');
    if (eq == std::string::npos) {
      if (!ApplyScenarioPresenceFlag(&config, body)) {
        *error = "unknown flag " + flag;
        return std::nullopt;
      }
    } else if (!ApplyScenarioAxis(&config, body.substr(0, eq), body.substr(eq + 1), error)) {
      return std::nullopt;
    }
  }
  // Never more worker threads than host cores.
  config.jobs = std::min(config.jobs, CoreCount());
  *error = ValidateScenarioConfig(config);
  if (!error->empty()) {
    return std::nullopt;
  }
  return config;
}

// --- one repetition ----------------------------------------------------------------------

// The model's stage-7 latency against the paper's Figure 5-4 (ctms workloads only).
struct Fidelity {
  double min_ms = 0.0;
  double p50_ms = 0.0;
  double p98_ms = 0.0;
  double within_160us_of_10900us = 0.0;
  double between_15_and_40ms = 0.0;
  uint64_t lost = 0;
  uint64_t underruns = 0;
};

struct Rep {
  std::string error;  // empty = the repetition ran and its outputs checked out
  uint64_t digest = 0;
  PhaseTimer phases;
  double sim_seconds = 0.0;  // simulated time advanced, summed over shards / cells
  uint64_t delivered = 0;
  uint64_t events = 0;
  std::optional<Fidelity> fidelity;

  // Traced repetitions only.
  std::unique_ptr<MetricsRegistry> registry;
  std::vector<double> slice_ns;  // host ns per simulated slice of the run phase
  double pcat_decode_s = 0.0;
  double histograms_s = 0.0;
  double tap_analyze_s = 0.0;
  uint64_t probe_events = 0;
  uint64_t sync_rounds = 0;
  std::vector<double> cell_s;
};

// How a repetition is observed: untraced (timer only) or traced into `trace` on tracks
// named after `label`.
struct Observer {
  HostTrace* trace = nullptr;
  std::string label;
};

constexpr SimDuration kSlice = Seconds(1);

RunSummaryInfo MakeInfo(const ScenarioConfig& config, std::string scenario) {
  RunSummaryInfo info;
  info.scenario = std::move(scenario);
  info.duration_s = static_cast<double>(config.duration_s);
  info.seed = config.seed;
  return info;
}

bool LooksLikeJsonObject(const std::string& json) {
  const size_t last = json.find_last_not_of(" \n");
  return !json.empty() && json.front() == '{' && last != std::string::npos &&
         json[last] == '}';
}

std::unique_ptr<MetricsRegistry> Snapshot(const MetricsRegistry& live) {
  auto copy = std::make_unique<MetricsRegistry>();
  copy->MergeFrom(live);
  return copy;
}

Fidelity MeasureFidelity(const ExperimentReport& report) {
  const Histogram& h = report.measured.pre_tx_to_rx;
  const std::vector<SimDuration> p = h.Percentiles({0.50, 0.98});
  Fidelity f;
  f.min_ms = static_cast<double>(h.Summary().min) / 1e6;
  f.p50_ms = static_cast<double>(p[0]) / 1e6;
  f.p98_ms = static_cast<double>(p[1]) / 1e6;
  f.within_160us_of_10900us = h.FractionWithin(Microseconds(10900), Microseconds(160));
  f.between_15_and_40ms = h.FractionBetween(Microseconds(15000), Microseconds(40050));
  f.lost = report.packets_lost;
  f.underruns = report.sink_underruns;
  return f;
}

void RunCtms(const ScenarioConfig& scenario, const Observer& observer, Rep& rep) {
  const CtmsConfig config = CtmsConfigFrom(scenario);
  HostTrace* trace = observer.trace;
  PhaseTimer& t = rep.phases;

  t.Start();
  auto experiment = std::make_unique<CtmsExperiment>(config);
  t.End(kSetup, "testbed.build");
  Simulation& sim = experiment->sim();
  experiment->Start();
  if (trace == nullptr) {
    sim.RunUntil(config.duration);
  } else {
    // Fixed simulated slices expose host cost that grows with run length.
    const TrackId slices = trace->Track(observer.label + " sim slices");
    for (SimTime until = 0; until < config.duration;) {
      until = std::min(until + kSlice, config.duration);
      const Clock::time_point start = Clock::now();
      sim.RunUntil(until);
      const Clock::time_point end = Clock::now();
      rep.slice_ns.push_back(SecondsBetween(start, end) * 1e9);
      trace->Add(slices, "sim.slice", start, end);
    }
  }
  t.End(kRun, "sim.run");
  const ExperimentReport report = experiment->Report();
  const std::string summary = report.Summary();
  RunSummaryInfo info = MakeInfo(scenario, config.name);
  info.stats = SummaryStats(report);
  t.End(kReport, "measure.report");
  const std::string json = RunSummaryJson(sim.telemetry().metrics, info);
  t.End(kExport, "telemetry.export");

  const MetricsRegistry& metrics = sim.telemetry().metrics;
  rep.digest = Digest(summary, metrics);
  rep.sim_seconds = static_cast<double>(config.duration) / 1e9;
  rep.delivered = report.packets_delivered;
  rep.events = sim.events_executed();
  if (!LooksLikeJsonObject(json)) {
    rep.error = "run-summary JSON is malformed";
  }
  rep.fidelity = MeasureFidelity(report);
  if (trace != nullptr) {
    rep.registry = Snapshot(metrics);
    // Report()'s measure sub-calls, re-run one at a time after the timed repetition so the
    // split does not distort it.
    const TrackId sub = trace->Track(observer.label + " report sub-calls (re-run)");
    Clock::time_point start = Clock::now();
    const std::vector<ProbeEvent> decoded =
        experiment->pcat() != nullptr ? experiment->pcat()->Decode() : std::vector<ProbeEvent>{};
    Clock::time_point end = Clock::now();
    rep.pcat_decode_s = SecondsBetween(start, end);
    trace->Add(sub, "measure.pcat_decode", start, end);
    start = end;
    const PaperHistograms measured = BuildPaperHistograms(decoded);
    const PaperHistograms truth = BuildPaperHistograms(experiment->ground_truth().events());
    end = Clock::now();
    rep.histograms_s = SecondsBetween(start, end);
    trace->Add(sub, "measure.histograms", start, end);
    start = end;
    const TapMonitor::StreamReport tap = experiment->tap().AnalyzeStream(ProtocolId::kCtmsp);
    end = Clock::now();
    rep.tap_analyze_s = SecondsBetween(start, end);
    trace->Add(sub, "measure.tap_analyze", start, end);
    if (measured.pre_tx_to_rx.count() != report.measured.pre_tx_to_rx.count() ||
        truth.pre_tx_to_rx.count() != report.ground_truth.pre_tx_to_rx.count() ||
        tap.observed != report.tap_ctmsp.observed) {
      rep.error = "re-run report sub-calls disagree with Report()";
    }
    rep.probe_events =
        experiment->ground_truth().events().size() +
        (experiment->pcat() != nullptr ? experiment->pcat()->raw_records().size() : 0);
  }
}

void RunMediaMix(const ScenarioConfig& scenario, const Observer& observer, Rep& rep) {
  const MediaMixConfig config = MediaMixConfigFrom(scenario);
  HostTrace* trace = observer.trace;
  PhaseTimer& t = rep.phases;

  t.Start();
  auto experiment = std::make_unique<MediaMixExperiment>(config);
  t.End(kSetup, "testbed.build");
  const MediaMixReport report = experiment->Run();
  t.End(kRun, "sim.run");
  const std::string summary = report.Summary();
  RunSummaryInfo info = MakeInfo(
      scenario, config.quality_controller ? "mediamix-controller" : "mediamix-fifo");
  info.stats = SummaryStats(report);
  t.End(kReport, "measure.report");
  const MetricsRegistry& metrics = experiment->sim().telemetry().metrics;
  const std::string json = RunSummaryJson(metrics, info);
  t.End(kExport, "telemetry.export");

  rep.digest = Digest(summary, metrics);
  rep.sim_seconds = static_cast<double>(config.duration) / 1e9;
  for (const MediaMixClassQoE& qoe : report.classes) {
    rep.delivered += qoe.delivered;
  }
  rep.events = experiment->sim().events_executed();
  if (!LooksLikeJsonObject(json)) {
    rep.error = "run-summary JSON is malformed";
  } else if (!report.Healthy()) {
    rep.error = "mediamix report is unhealthy";
  }
  if (trace != nullptr) {
    rep.registry = Snapshot(metrics);
  }
}

// The fabric summary echoes its --jobs setting, which is not part of the answer: the report
// must be the same at every thread count.
std::string WithoutJobs(std::string summary) {
  const size_t at = summary.find("jobs=");
  if (at != std::string::npos) {
    const size_t end = summary.find_first_not_of("0123456789", at + 5);
    summary.replace(at, end - at, "jobs=*");
  }
  return summary;
}

void RunFabric(const ScenarioConfig& scenario, const Observer& observer, Rep& rep) {
  const FabricConfig config = FabricConfigFrom(scenario);
  HostTrace* trace = observer.trace;
  PhaseTimer& t = rep.phases;

  t.Start();
  auto experiment = std::make_unique<FabricExperiment>(config);
  t.End(kSetup, "testbed.build");
  const FabricReport report = experiment->Run();
  t.End(kRun, "fabric.run");
  const std::string summary = report.Summary();
  RunSummaryInfo info = MakeInfo(scenario, "fabric");
  info.stats = SummaryStats(report);
  t.End(kReport, "measure.report");
  auto merged = std::make_unique<MetricsRegistry>();
  experiment->MergeMetricsInto(merged.get());
  const std::string json = RunSummaryJson(*merged, info);
  t.End(kExport, "telemetry.export");

  rep.digest = Digest(WithoutJobs(summary), *merged);
  rep.sim_seconds =
      static_cast<double>(config.duration) / 1e9 * static_cast<double>(config.rings);
  rep.delivered = report.packets_delivered;
  rep.events = report.events_executed;
  rep.sync_rounds = report.sync_rounds;
  if (!LooksLikeJsonObject(json)) {
    rep.error = "run-summary JSON is malformed";
  } else if (!report.Healthy()) {
    rep.error = "fabric report is unhealthy";
  }
  if (trace != nullptr) {
    rep.registry = std::move(merged);
  }
}

// Parses the grid and expands the cells, as ctms_sim does.
CampaignRunner PrepareCampaign(const ScenarioConfig& config, CampaignRunner::Options options) {
  std::string error;
  std::optional<CampaignGrid> grid = CampaignGrid::Parse(config.grid_spec, &error);
  if (!grid.has_value()) {
    throw std::runtime_error("bad grid: " + error);
  }
  CampaignRunner runner(config, std::move(*grid), std::move(options));
  error = runner.Prepare();
  if (!error.empty()) {
    throw std::runtime_error("bad campaign: " + error);
  }
  return runner;
}

void RunCampaign(const ScenarioConfig& scenario, const Observer& observer, Rep& rep) {
  HostTrace* trace = observer.trace;
  PhaseTimer& t = rep.phases;

  // Traced: time each RunScenarioJob on its worker; each worker writes only its jobs' slots,
  // and the pool joins before they are read.
  struct CellTime {
    Clock::time_point start;
    Clock::time_point end;
    std::thread::id thread;
  };
  std::vector<CellTime> cells;
  CampaignRunner::Options options;
  options.jobs = scenario.jobs;
  options.independent_faults = scenario.independent_faults;
  if (trace != nullptr) {
    options.run_job = [&cells](const CampaignJob& job) {
      const Clock::time_point start = Clock::now();
      CampaignRunRecord record = RunScenarioJob(job);
      cells[job.index] = {start, Clock::now(), std::this_thread::get_id()};
      return record;
    };
  }

  t.Start();
  CampaignRunner runner = PrepareCampaign(scenario, std::move(options));
  cells.resize(runner.jobs().size());
  t.End(kSetup, "campaign.prepare");
  const CampaignReport report = runner.Run();
  t.End(kRun, "campaign.run");
  const std::string summary = report.Summary();
  t.End(kReport, "measure.report");
  const std::string json = report.MergedJson();
  t.End(kExport, "telemetry.export");

  auto merged = std::make_unique<MetricsRegistry>();
  for (size_t i = 0; i < report.runs.size(); ++i) {
    const CampaignRunRecord& run = report.runs[i];
    if (run.metrics != nullptr) {
      merged->MergeFrom(*run.metrics, "run" + std::to_string(i) + ".");
    }
    for (const auto& [name, value] : run.info.stats) {
      if (name == "packets_delivered") {
        rep.delivered += static_cast<uint64_t>(value);
      }
    }
  }
  rep.digest = Digest(summary, *merged);
  rep.sim_seconds =
      static_cast<double>(scenario.duration_s) * static_cast<double>(report.runs.size());
  rep.events = FoldRegistry(*merged).events;
  if (!LooksLikeJsonObject(json)) {
    rep.error = "merged campaign JSON is malformed";
  }
  if (trace != nullptr) {
    rep.registry = std::move(merged);
    std::map<std::thread::id, TrackId> workers;
    for (const CellTime& cell : cells) {
      auto it = workers.find(cell.thread);
      if (it == workers.end()) {
        const std::string name =
            observer.label + " worker " + std::to_string(workers.size());
        it = workers.emplace(cell.thread, trace->Track(name)).first;
      }
      trace->Add(it->second, "campaign.cell RunScenarioJob", cell.start, cell.end);
      rep.cell_s.push_back(SecondsBetween(cell.start, cell.end));
    }
  }
}

// Runs one repetition and checks what can be checked without a reference.
Rep RunRep(const ScenarioConfig& config, const Observer& observer) {
  Rep rep;
  if (observer.trace != nullptr) {
    rep.phases = PhaseTimer(observer.trace, observer.trace->Track(observer.label));
  }
  try {
    if (config.experiment == "mediamix") {
      RunMediaMix(config, observer, rep);
    } else if (config.experiment == "fabric") {
      RunFabric(config, observer, rep);
    } else if (config.experiment == "campaign") {
      RunCampaign(config, observer, rep);
    } else {
      RunCtms(config, observer, rep);
    }
  } catch (const std::exception& e) {
    rep.error = std::string("threw: ") + e.what();
  }
  if (rep.error.empty() && (rep.delivered == 0 || rep.events == 0)) {
    rep.error = "nothing delivered";
  }
  return rep;
}

// --- set-up samples ----------------------------------------------------------------------

// Host time and allocations of constructing the workload's experiment(s) without running
// them. For a campaign that is Prepare plus every cell's testbed, built one after another.
struct SetupSample {
  double seconds = 0.0;
  uint64_t allocs = 0;
};

template <typename Experiment, typename Config>
SetupSample TimeConstructor(const Config& config) {
  const uint64_t allocs = AllocationCount();
  const Clock::time_point start = Clock::now();
  auto experiment = std::make_unique<Experiment>(config);
  // Destruction falls outside the sample.
  return {SecondsBetween(start, Clock::now()), AllocationCount() - allocs};
}

SetupSample MeasureSetup(const ScenarioConfig& config) {
  if (config.experiment == "mediamix") {
    return TimeConstructor<MediaMixExperiment>(MediaMixConfigFrom(config));
  }
  if (config.experiment == "fabric") {
    return TimeConstructor<FabricExperiment>(FabricConfigFrom(config));
  }
  if (config.experiment != "campaign") {
    return TimeConstructor<CtmsExperiment>(CtmsConfigFrom(config));
  }
  const uint64_t allocs = AllocationCount();
  const Clock::time_point start = Clock::now();
  const CampaignRunner runner = PrepareCampaign(config, CampaignRunner::Options{});
  SetupSample sample{SecondsBetween(start, Clock::now()), AllocationCount() - allocs};
  for (const CampaignJob& job : runner.jobs()) {
    const SetupSample cell = TimeConstructor<CtmsExperiment>(CtmsConfigFrom(job.config));
    sample.seconds += cell.seconds;
    sample.allocs += cell.allocs;
  }
  return sample;
}

// --- statistics and output ---------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

template <typename F>
double MedianOf(const std::vector<Rep>& reps, F f) {
  std::vector<double> values;
  for (const Rep& rep : reps) {
    values.push_back(static_cast<double>(f(rep)));
  }
  return Median(values);
}

double PerPacket(double value, uint64_t delivered) {
  return delivered == 0 ? 0.0 : value / static_cast<double>(delivered);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double MedianSetupSeconds(const std::vector<SetupSample>& setups) {
  std::vector<double> seconds;
  for (const SetupSample& s : setups) {
    seconds.push_back(s.seconds);
  }
  return Median(seconds);
}

std::vector<Metric> EndToEndMetrics(const std::vector<Rep>& reps,
                                    const std::vector<SetupSample>& setups) {
  return {
      {"wall_s", MedianOf(reps, [](const Rep& r) { return r.phases.wall(); }), "s"},
      {"setup_s", MedianSetupSeconds(setups), "s"},
      {"sim_s_per_wall_s",
       MedianOf(reps, [](const Rep& r) { return r.sim_seconds / r.phases.seconds(kRun); }),
       "s/s"},
      {"host_ns_per_packet",
       MedianOf(reps, [](const Rep& r) { return PerPacket(r.phases.wall() * 1e9, r.delivered); }),
       "ns"},
      {"events_per_packet",
       MedianOf(reps,
                [](const Rep& r) { return PerPacket(static_cast<double>(r.events), r.delivered); }),
       "count"},
      {"allocs_per_packet",
       MedianOf(reps,
                [](const Rep& r) {
                  return PerPacket(static_cast<double>(r.phases.total_allocs()), r.delivered);
                }),
       "count"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// Per-layer numbers from the traced repetitions. Times are medians over them; counts are
// deterministic and come from the last one. A layer the workload does not reach from outside
// reports 0 (see README.md).
std::vector<Metric> PerLayerMetrics(const ScenarioConfig& config, const std::vector<Rep>& traced,
                                    const std::vector<Rep>& plain,
                                    const std::vector<SetupSample>& setups,
                                    double jobs_speedup) {
  const Rep& last = traced.back();
  const LayerCounts c = FoldRegistry(*last.registry);
  const auto per_packet = [&](uint64_t n) {
    return PerPacket(static_cast<double>(n), last.delivered);
  };
  const bool campaign = config.experiment == "campaign";
  const bool fabric = config.experiment == "fabric";
  const auto phase_s = [&](Phase p) {
    return MedianOf(traced, [p](const Rep& r) { return r.phases.seconds(p); });
  };

  // The campaign's cells build and run inside RunScenarioJob on the workers; its testbed
  // numbers come from the set-up samples instead.
  const double build_s = campaign ? MedianSetupSeconds(setups) : phase_s(kSetup);
  const uint64_t build_allocs = campaign ? setups.back().allocs : last.phases.allocs(kSetup);
  const double run_s = campaign ? 0.0 : phase_s(kRun);

  std::vector<double> slices;
  std::vector<double> cells;
  for (const Rep& rep : traced) {
    slices.insert(slices.end(), rep.slice_ns.begin(), rep.slice_ns.end());
    cells.insert(cells.end(), rep.cell_s.begin(), rep.cell_s.end());
  }
  // Busy share of the pool: cell time over threads x run phase, within one repetition.
  const double threads = static_cast<double>(
      std::min<size_t>(static_cast<size_t>(config.jobs), last.cell_s.size()));
  const auto pool_efficiency = [threads](const Rep& r) {
    double busy = 0.0;
    for (double s : r.cell_s) {
      busy += s;
    }
    return busy / (threads * r.phases.seconds(kRun));
  };
  const double traced_wall = MedianOf(traced, [](const Rep& r) { return r.phases.wall(); });
  const double plain_wall = MedianOf(plain, [](const Rep& r) { return r.phases.wall(); });
  const double rounds = static_cast<double>(last.sync_rounds);

  return {
      {"testbed.build_s", build_s, "s"},
      {"testbed.build_allocs", static_cast<double>(build_allocs), "count"},
      {"sim.run_s", run_s, "s"},
      {"sim.host_ns_per_event", campaign ? 0.0 : PerPacket(run_s * 1e9, c.events), "ns"},
      {"sim.heap_pop_fraction",
       PerPacket(static_cast<double>(c.heap_pops), c.heap_pops + c.wheel_pops), "fraction"},
      {"sim.event_pool_live_peak", static_cast<double>(c.event_pool_live_peak), "count"},
      {"sim.slice_ns_p50", Percentile(slices, 0.50), "ns"},
      {"sim.slice_ns_p99", Percentile(slices, 0.99), "ns"},
      {"hw.cpu_steps_per_packet", per_packet(c.cpu_steps), "count"},
      {"hw.cpu_jobs_per_packet", per_packet(c.cpu_jobs), "count"},
      {"hw.preemptions_per_packet", per_packet(c.preemptions), "count"},
      {"hw.interrupts_per_packet", per_packet(c.interrupts), "count"},
      {"hw.dma_transfers_per_packet", per_packet(c.dma_transfers), "count"},
      {"kern.mbuf_allocs_per_packet", per_packet(c.mbuf_allocs), "count"},
      {"kern.mbuf_failures", static_cast<double>(c.mbuf_failures), "count"},
      {"kern.ifq_enqueues_per_packet", per_packet(c.ifq_enqueues), "count"},
      {"kern.ifq_drops", static_cast<double>(c.ifq_drops), "count"},
      {"kern.ifq_depth_peak", static_cast<double>(c.ifq_depth_peak), "count"},
      {"dev.packets_built", static_cast<double>(c.packets_built), "count"},
      {"dev.source_drops", static_cast<double>(c.source_drops), "count"},
      {"dev.sink_underruns", static_cast<double>(c.sink_underruns), "count"},
      {"ring.frames_per_packet", per_packet(c.frames_carried), "count"},
      {"ring.mac_frames", static_cast<double>(c.mac_frames), "count"},
      {"ring.rx_overruns", static_cast<double>(c.rx_overruns), "count"},
      {"ring.onboard_rx_depth_peak", static_cast<double>(c.onboard_rx_depth_peak), "count"},
      {"alloc.setup", static_cast<double>(last.phases.allocs(kSetup)), "count"},
      {"alloc.run_per_packet", per_packet(last.phases.allocs(kRun)), "count"},
      {"alloc.report", static_cast<double>(last.phases.allocs(kReport)), "count"},
      {"alloc.export", static_cast<double>(last.phases.allocs(kExport)), "count"},
      {"measure.report_s", phase_s(kReport), "s"},
      {"measure.pcat_decode_s", MedianOf(traced, [](const Rep& r) { return r.pcat_decode_s; }),
       "s"},
      {"measure.histograms_s", MedianOf(traced, [](const Rep& r) { return r.histograms_s; }),
       "s"},
      {"measure.tap_analyze_s", MedianOf(traced, [](const Rep& r) { return r.tap_analyze_s; }),
       "s"},
      {"measure.probe_events", static_cast<double>(last.probe_events), "count"},
      {"telemetry.export_s", phase_s(kExport), "s"},
      {"telemetry.registry_entries", static_cast<double>(c.registry_entries), "count"},
      {"fabric.sync_rounds", rounds, "count"},
      {"fabric.us_per_round", rounds > 0 ? phase_s(kRun) * 1e6 / rounds : 0.0, "us"},
      {"fabric.events_per_round", rounds > 0 ? static_cast<double>(c.events) / rounds : 0.0,
       "count"},
      {"fabric.jobs_speedup", fabric ? jobs_speedup : 0.0, "x"},
      {"campaign.cell_s_p50", Median(cells), "s"},
      {"campaign.cell_s_max", cells.empty() ? 0.0 : *std::max_element(cells.begin(), cells.end()),
       "s"},
      {"campaign.pool_efficiency", threads > 0 ? MedianOf(traced, pool_efficiency) : 0.0,
       "fraction"},
      {"campaign.merge_s", campaign ? phase_s(kExport) : 0.0, "s"},
      {"trace.wall_s", traced_wall, "s"},
      {"trace.overhead_s", traced_wall - plain_wall, "s"},
  };
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), FormatNumber(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// --- main --------------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "simbench: %s needs a value\n", key.c_str());
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args->workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        args->trace = std::stoi(value) != 0;
      } else if (key == "--trace-out") {
        args->trace_out = value;
      } else {
        std::fprintf(stderr, "simbench: unknown argument %s\n", key.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "simbench: bad value for %s: %s\n", key.c_str(), value.c_str());
      return false;
    }
  }
  if (!have_workload || args->seconds <= 0) {
    std::fprintf(stderr,
                 "usage: simbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return false;
  }
  return true;
}

void PrintFidelity(const Fidelity& f) {
  std::printf(
      "fidelity (stage 7, pre-transmit -> rx, PC/AT): min %.3f ms, p50 %.3f ms, p98 %.3f ms, "
      "%.1f%% within 160 us of 10.9 ms, %.2f%% in 15-40.05 ms, %llu lost, %llu underruns\n"
      "  paper Fig. 5-4 (EXPERIMENTS.md): min 10.750 ms, 76%% within 160 us of 10.9 ms "
      "(p50 at that peak), 2.49%% in 15-40.05 ms (p98 just above 15 ms), \"a few\" lost\n",
      f.min_ms, f.p50_ms, f.p98_ms, 100.0 * f.within_160us_of_10900us,
      100.0 * f.between_15_and_40ms, static_cast<unsigned long long>(f.lost),
      static_cast<unsigned long long>(f.underruns));
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    workload = args.workload == w.name ? &w : workload;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "simbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::string error;
  const std::optional<ScenarioConfig> config = BuildConfig(*workload, args.seed, &error);
  if (!config.has_value()) {
    std::fprintf(stderr, "simbench: bad workload config: %s\n", error.c_str());
    return 2;
  }

  const Clock::time_point begin = Clock::now();
  const auto elapsed = [&begin]() { return SecondsBetween(begin, Clock::now()); };

  // Repetitions until the budget is spent. The traced pass interleaves untraced and traced
  // repetitions so the tracing overhead is measured under the same conditions.
  HostTrace trace;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  size_t attempted = 0;
  size_t failed = 0;
  std::optional<uint64_t> reference;
  const auto check = [&](Rep& rep, const char* what) {
    ++attempted;
    if (rep.error.empty() && !reference.has_value()) {
      reference = rep.digest;
    }
    if (rep.error.empty() && rep.digest != *reference) {
      rep.error = "digest differs from the reference";
    }
    if (!rep.error.empty()) {
      ++failed;
      std::printf("FAILED %s repetition %zu: %s\n", what, attempted, rep.error.c_str());
    }
    return rep.error.empty();
  };
  const size_t min_reps = args.trace ? 2 : 3;
  std::vector<SetupSample> setups;
  double rep_s = 0.0;
  while (elapsed() + rep_s < args.seconds || (plain.size() < min_reps && failed == 0)) {
    const Clock::time_point start = Clock::now();
    // Set-up samples ride along with every repetition (about a twentieth of its time, at
    // least three), so they see the same host conditions over the run as the repetitions.
    for (size_t n = 0; n < 3 || (n < 1000 && SecondsBetween(start, Clock::now()) < rep_s / 20);
         ++n) {
      setups.push_back(MeasureSetup(*config));
    }
    Rep rep = RunRep(*config, Observer{});
    if (attempted == 0 && rep.fidelity.has_value()) {
      PrintFidelity(*rep.fidelity);
    }
    if (check(rep, "untraced")) {
      plain.push_back(std::move(rep));
    }
    if (args.trace) {
      Observer observer{&trace, "rep " + std::to_string(traced.size() + 1) + " traced"};
      Rep traced_rep = RunRep(*config, observer);
      if (check(traced_rep, "traced")) {
        traced.push_back(std::move(traced_rep));
      }
    }
    rep_s = SecondsBetween(start, Clock::now());
  }

  // The thread pools promise the same answer at any thread count: hold them to it, and
  // report the speedup as the --jobs=1 wall over the multi-threaded one.
  double jobs_speedup = 0.0;
  if (args.trace && workload->cross_check_jobs > 0) {
    ScenarioConfig other = *config;
    other.jobs = std::min(workload->cross_check_jobs, CoreCount());
    Rep rep =
        RunRep(other, Observer{&trace, "jobs=" + std::to_string(other.jobs) + " cross-check"});
    if (check(rep, "cross-check") && !plain.empty()) {
      const double own = MedianOf(plain, [](const Rep& r) { return r.phases.wall(); });
      const double cross = rep.phases.wall();
      jobs_speedup = config->jobs < other.jobs ? own / cross : cross / own;
    }
  }

  std::printf("repetition wall s:");
  for (const Rep& rep : plain) {
    std::printf(" %.4f", rep.phases.wall());
  }
  std::printf("\n");
  const bool correct = failed == 0 && !plain.empty() && (!args.trace || !traced.empty());
  std::printf("simbench %s seed=%llu: %zu repetitions, %zu failed, digest %016llx%s\n",
              workload->name, static_cast<unsigned long long>(args.seed), attempted, failed,
              static_cast<unsigned long long>(reference.value_or(0)),
              failed == 0 ? " (every repetition matches)" : "");
  if (!correct) {
    PrintResult(false, attempted, failed, {});
    return 0;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(plain, setups);
  } else {
    metrics = PerLayerMetrics(*config, traced, plain, setups, jobs_speedup);
    double phase_sum = 0.0;
    for (Phase p : {kSetup, kRun, kReport, kExport}) {
      phase_sum += MedianOf(traced, [p](const Rep& r) { return r.phases.seconds(p); });
    }
    const double traced_wall = MedianOf(traced, [](const Rep& r) { return r.phases.wall(); });
    const double plain_wall = MedianOf(plain, [](const Rep& r) { return r.phases.wall(); });
    std::printf(
        "ledger (medians over traced repetitions): setup + run + report + export = %.6f s of "
        "%.6f s traced wall (gap %.6f s); tracing overhead %.6f s\n",
        phase_sum, traced_wall, traced_wall - phase_sum, traced_wall - plain_wall);
    std::printf(
        "note: host self time of hw/kern/dev/ring/proto inside the event loop cannot be split "
        "from outside; those layers report counts only\n");
    if (!args.trace_out.empty()) {
      if (!trace.Write(args.trace_out)) {
        std::fprintf(stderr, "simbench: cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
      std::printf("wrote %s\n", args.trace_out.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) { return simbench::Main(argc, argv); }
