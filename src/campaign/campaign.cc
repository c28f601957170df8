#include "src/campaign/campaign.h"

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <utility>

#include "src/core/parallel.h"

namespace ctms {

CampaignRunRecord RunScenarioJob(const CampaignJob& job) {
  return {FindExperiment(job.config.experiment)->run(job.config, /*output=*/false), job.label};
}

CampaignRunner::CampaignRunner(ScenarioConfig base, CampaignGrid grid, Options options)
    : base_(std::move(base)), grid_(std::move(grid)), options_(std::move(options)) {}

std::string CampaignRunner::Prepare() {
  jobs_.clear();
  prepared_ = false;
  if (options_.jobs < 1) {
    return "--jobs must be at least 1";
  }
  const std::vector<CampaignGrid::Point> points = grid_.Expand();
  jobs_.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    CampaignJob job;
    job.index = i;
    job.label = points[i].Label();
    ScenarioConfig cell = base_;
    std::string error;
    for (const auto& [name, value] : points[i].assignments) {
      if (ScenarioFlagReadBy(name, "campaign")) {
        return "grid axis '" + name + "' cannot be swept inside a campaign";
      }
      if (!ApplyScenarioAxis(&cell, name, value, &error)) {
        return "grid point " + job.label + ": " + error;
      }
    }
    // Still a campaign config here, so validation refuses what its cells do not read.
    error = ValidateScenarioConfig(cell);
    if (error.empty() &&
        (cell.faults_path != base_.faults_path || cell.trace_path != base_.trace_path)) {
      error = LoadScenarioFiles(&cell);  // an axis swept a file; the parsed copy is stale
    }
    if (!error.empty()) {
      return "grid point " + job.label + ": " + error;
    }
    // The campaign keeps its own flags. A cell runs without output, so it never writes a
    // file or prints (workers would race on the same paths).
    cell.experiment = base_.cell_experiment;
    cell.cell_experiment = ScenarioConfig().cell_experiment;
    cell.grid_spec.clear();
    cell.jobs = 1;
    cell.independent_faults = false;
    cell.metrics_json.clear();
    if (options_.independent_faults) {
      // Submission index + 1: salt 0 means "no salt" to the injector fork.
      cell.faults.set_rng_salt(static_cast<uint64_t>(i) + 1);
    }
    job.config = std::move(cell);
    jobs_.push_back(std::move(job));
  }
  prepared_ = true;
  return "";
}

CampaignReport CampaignRunner::Run() {
  CampaignReport report;
  report.cell_experiment = base_.cell_experiment;
  report.grid_spec = grid_.Spec();
  if (!prepared_) {
    return report;
  }
  // Job i writes only report.runs[i], so the merge below needs no synchronization.
  report.runs.resize(jobs_.size());
  ParallelFor(jobs_.size(), options_.jobs, [&](size_t i) {
    if (options_.before_run) {
      options_.before_run(i);
    }
    report.runs[i] = options_.run_job ? options_.run_job(jobs_[i]) : RunScenarioJob(jobs_[i]);
    report.runs[i].label = jobs_[i].label;
  });
  return report;
}

size_t CampaignReport::HealthyCount() const {
  size_t healthy = 0;
  for (const CampaignRunRecord& run : runs) {
    if (run.healthy) {
      ++healthy;
    }
  }
  return healthy;
}

bool CampaignReport::AllHealthy() const { return HealthyCount() == runs.size(); }

std::string CampaignReport::Summary() const {
  std::ostringstream os;
  os << "campaign: " << runs.size() << " " << cell_experiment << " runs over grid "
     << (grid_spec.empty() ? "(base config)" : grid_spec) << "\n";
  os << "  index  healthy  label\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    os << "  " << std::setw(5) << i << "  " << std::setw(7)
       << (runs[i].healthy ? "yes" : "NO") << "  " << runs[i].label << "\n";
  }
  os << "  healthy: " << HealthyCount() << "/" << runs.size() << "\n";
  return os.str();
}

std::vector<CampaignRunView> CampaignReport::Views() const {
  std::vector<CampaignRunView> views;
  views.reserve(runs.size());
  for (const CampaignRunRecord& run : runs) {
    CampaignRunView view;
    view.label = run.label;
    view.healthy = run.healthy;
    view.info = &run.info;
    view.metrics = run.metrics.get();
    views.push_back(std::move(view));
  }
  return views;
}

std::string CampaignReport::MergedJson() const {
  return CampaignJson(cell_experiment, grid_spec, Views());
}

bool CampaignReport::WriteMergedJson(const std::string& path) const {
  return WriteCampaignJson(cell_experiment, grid_spec, Views(), path);
}

ExperimentRun RunCampaign(const ScenarioConfig& config, bool output) {
  ExperimentRun run;
  std::string error;
  std::optional<CampaignGrid> grid = CampaignGrid::Parse(config.grid_spec, &error);
  std::optional<CampaignRunner> runner;
  if (grid.has_value()) {
    CampaignRunner::Options options;
    options.jobs = config.jobs;
    options.independent_faults = config.independent_faults;
    runner.emplace(config, std::move(*grid), std::move(options));
    error = runner->Prepare();
  }
  if (!error.empty()) {
    std::fprintf(stderr, "bad campaign: %s\n", error.c_str());
    run.ok = false;
    return run;
  }
  const CampaignReport report = runner->Run();
  run.healthy = report.AllHealthy();
  if (output) {
    std::cout << report.Summary();
    if (!config.metrics_json.empty()) {
      run.ok = report.WriteMergedJson(config.metrics_json);
      std::fprintf(run.ok ? stdout : stderr, "%s %s\n", run.ok ? "wrote" : "cannot write",
                   config.metrics_json.c_str());
    }
  }
  return run;
}

}  // namespace ctms
