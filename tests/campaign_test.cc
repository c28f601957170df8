// Campaign runner tests: grid parsing, cell preparation, the deterministic-merge contract
// (bit-identical MergedJson across worker counts, including under adversarial completion
// order), worker teardown mid-campaign, and per-run fault-RNG salting. The CI sanitizer
// matrix reruns everything here under ThreadSanitizer with real worker pools.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/grid.h"
#include "src/core/experiment.h"
#include "tests/report_matchers.h"

namespace ctms {
namespace {

// --- grid ---------------------------------------------------------------------------------

TEST(CampaignGridTest, EmptySpecIsOneBasePoint) {
  std::string error;
  auto grid = CampaignGrid::Parse("", &error);
  ASSERT_TRUE(grid.has_value());
  EXPECT_EQ(grid->PointCount(), 1u);
  const auto points = grid->Expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].assignments.empty());
  EXPECT_EQ(points[0].Label(), "base");
  EXPECT_EQ(grid->Spec(), "");
}

TEST(CampaignGridTest, RangesListsAndStepsExpandInOrder) {
  std::string error;
  auto grid =
      CampaignGrid::Parse("seed=1:3;streams=1,2,4;packet-bytes=1000:2000:500", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  ASSERT_EQ(grid->axes().size(), 3u);
  EXPECT_EQ(grid->PointCount(), 27u);
  EXPECT_EQ(grid->Spec(), "seed=1,2,3;streams=1,2,4;packet-bytes=1000,1500,2000");
  const auto points = grid->Expand();
  ASSERT_EQ(points.size(), 27u);
  // Cartesian order: first axis slowest, last axis fastest.
  EXPECT_EQ(points[0].Label(), "seed=1,streams=1,packet-bytes=1000");
  EXPECT_EQ(points[1].Label(), "seed=1,streams=1,packet-bytes=1500");
  EXPECT_EQ(points[3].Label(), "seed=1,streams=2,packet-bytes=1000");
  EXPECT_EQ(points[26].Label(), "seed=3,streams=4,packet-bytes=2000");
}

TEST(CampaignGridTest, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(CampaignGrid::Parse("seed", &error).has_value());
  EXPECT_FALSE(CampaignGrid::Parse("=1,2", &error).has_value());
  EXPECT_FALSE(CampaignGrid::Parse("seed=", &error).has_value());
  EXPECT_FALSE(CampaignGrid::Parse("seed=1,,2", &error).has_value());
  EXPECT_FALSE(CampaignGrid::Parse("seed=4:1", &error).has_value());
  EXPECT_FALSE(CampaignGrid::Parse("seed=1:8:0", &error).has_value());
  EXPECT_FALSE(CampaignGrid::Parse("seed=1:x", &error).has_value());
  EXPECT_FALSE(CampaignGrid::Parse("seed=1:2:3:4", &error).has_value());
  EXPECT_FALSE(CampaignGrid::Parse("seed=1;seed=2", &error).has_value());
  EXPECT_FALSE(error.empty());
  // More than kMaxGridPoints points, refused before any value is built: one long range, a
  // range whose span overflows int64_t, and a product of axes that each fit.
  EXPECT_FALSE(CampaignGrid::Parse("seed=1:2000000000", &error).has_value());
  EXPECT_FALSE(CampaignGrid::Parse("seed=-9223372036854775808:9223372036854775807", &error)
                   .has_value());
  EXPECT_FALSE(CampaignGrid::Parse("seed=1:100;packet-bytes=1:101", &error).has_value());
  EXPECT_NE(error.find("10000 points"), std::string::npos) << error;
}

// A range ends at its last value at or below hi, even where one more step would pass
// INT64_MAX; and the point cap admits exactly kMaxGridPoints points.
TEST(CampaignGridTest, RangesAtTheLimitsExpandExactly) {
  std::string error;
  auto grid = CampaignGrid::Parse("seed=1:9223372036854775807:4611686018427387904", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  EXPECT_EQ(grid->Spec(), "seed=1,4611686018427387905");
  grid = CampaignGrid::Parse(
      "seed=-9223372036854775808:9223372036854775807:9223372036854775807", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  EXPECT_EQ(grid->Spec(), "seed=-9223372036854775808,-1,9223372036854775806");
  grid = CampaignGrid::Parse("seed=1:100;packet-bytes=1:100", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  EXPECT_EQ(grid->PointCount(), kMaxGridPoints);
  EXPECT_EQ(grid->Expand().size(), kMaxGridPoints);
}

// --- runner preparation -------------------------------------------------------------------

ScenarioConfig CampaignBase(int64_t duration_s = 1) {
  ScenarioConfig base;
  base.experiment = "campaign";
  base.duration_s = duration_s;
  return base;
}

CampaignRunner MakeRunner(const ScenarioConfig& base, const std::string& spec,
                          CampaignRunner::Options options) {
  std::string error;
  auto grid = CampaignGrid::Parse(spec, &error);
  EXPECT_TRUE(grid.has_value()) << error;
  return CampaignRunner(base, std::move(*grid), std::move(options));
}

TEST(CampaignRunnerTest, PrepareExpandsCellsWithAxesApplied) {
  CampaignRunner runner = MakeRunner(CampaignBase(), "seed=2:3;zero-copy=0,1", {});
  ASSERT_EQ(runner.Prepare(), "");
  ASSERT_EQ(runner.jobs().size(), 4u);
  EXPECT_EQ(runner.jobs()[0].config.seed, 2u);
  EXPECT_FALSE(runner.jobs()[0].config.zero_copy);
  EXPECT_TRUE(runner.jobs()[1].config.zero_copy);
  EXPECT_EQ(runner.jobs()[3].config.seed, 3u);
  EXPECT_TRUE(runner.jobs()[3].config.zero_copy);
  for (const CampaignJob& job : runner.jobs()) {
    EXPECT_EQ(job.config.experiment, "ctms");  // the default cell experiment
    EXPECT_EQ(job.config.jobs, 1);
    EXPECT_TRUE(job.config.grid_spec.empty());
  }
}

TEST(CampaignRunnerTest, PrepareRejectsBadAxesAndNestedCampaigns) {
  EXPECT_NE(MakeRunner(CampaignBase(), "warp=1,2", {}).Prepare(), "");
  EXPECT_NE(MakeRunner(CampaignBase(), "jobs=1,2", {}).Prepare(), "");
  EXPECT_NE(MakeRunner(CampaignBase(), "experiment=ctms,baseline", {}).Prepare(), "");
  EXPECT_NE(MakeRunner(CampaignBase(), "duration=0,1", {}).Prepare(), "");
  EXPECT_NE(MakeRunner(CampaignBase(), "packet-bytes=0:4", {}).Prepare(), "");
}

// Only faultsweep runs a list of recovery families. Elsewhere a list would run its first
// family under a label naming all of them, so it is refused, on the command line and in a
// campaign grid point alike.
TEST(CampaignRunnerTest, RecoveryListsRunOnlyInFaultSweep) {
  ScenarioConfig ctms;
  ctms.recovery = "fec,resend";
  EXPECT_NE(ValidateScenarioConfig(ctms).find("--recovery=fec,resend"), std::string::npos);
  ctms.recovery = "hybrid";
  EXPECT_EQ(ValidateScenarioConfig(ctms), "");

  ScenarioConfig sweep;
  sweep.experiment = "faultsweep";
  sweep.recovery = "fec,resend";
  EXPECT_EQ(ValidateScenarioConfig(sweep), "");

  ScenarioConfig sweep_cells = CampaignBase();
  sweep_cells.cell_experiment = "faultsweep";
  sweep_cells.recovery = "none+fec";
  EXPECT_EQ(ValidateScenarioConfig(sweep_cells), "");
  EXPECT_EQ(MakeRunner(sweep_cells, "recovery=fec+resend,none", {}).Prepare(), "");

  const std::string error =
      MakeRunner(CampaignBase(), "recovery=fec+resend,none", {}).Prepare();
  EXPECT_NE(error.find("grid point recovery=fec+resend"), std::string::npos) << error;
  EXPECT_NE(error.find("ctms"), std::string::npos) << error;
}

// --- deterministic merge ------------------------------------------------------------------

std::string MergedJsonFor(const ScenarioConfig& base, const std::string& spec,
                          int64_t jobs) {
  CampaignRunner::Options options;
  options.jobs = jobs;
  CampaignRunner runner = MakeRunner(base, spec, std::move(options));
  EXPECT_EQ(runner.Prepare(), "");
  return runner.Run().MergedJson();
}

// The tentpole contract: real simulations on 1, 2, and 8 workers must merge to the same
// bytes. (The CLI lane checks the same thing end to end through the binary.)
TEST(CampaignDeterminismTest, MergedJsonIsBitIdenticalAcrossJobCounts) {
  const ScenarioConfig base = CampaignBase(/*duration_s=*/1);
  const std::string spec = "seed=1:4";
  const std::string jobs1 = MergedJsonFor(base, spec, 1);
  const std::string jobs2 = MergedJsonFor(base, spec, 2);
  const std::string jobs8 = MergedJsonFor(base, spec, 8);
  EXPECT_EQ(jobs1, jobs2);
  EXPECT_EQ(jobs1, jobs8);
  EXPECT_NE(jobs1.find("\"runs\": 4"), std::string::npos);
}

// Other cell experiments merge the same way. The fabric cells run four and five shards
// with journeys on, so cross-shard Detach/Adopt runs on the worker threads too.
TEST(CampaignDeterminismTest, MediaMixAndFabricCellsMergeIdenticallyToo) {
  struct Input {
    const char* cell_experiment;
    const char* spec;
    const char* expected_key;
  };
  for (const Input& input : {Input{"mediamix", "mix=vca:1,vca:2", "\"runs\": 2"},
                             Input{"fabric", "journeys=1;rings=4,5", "shard3."}}) {
    ScenarioConfig base = CampaignBase(/*duration_s=*/1);
    base.cell_experiment = input.cell_experiment;
    const std::string jobs1 = MergedJsonFor(base, input.spec, 1);
    EXPECT_NE(jobs1.find(input.expected_key), std::string::npos) << input.cell_experiment;
    EXPECT_EQ(jobs1, MergedJsonFor(base, input.spec, 4)) << input.cell_experiment;
  }
}

// A synthetic instant job whose record depends only on the job, paired below with a
// before_run hook that makes EARLIER jobs finish LAST — completion order becomes the exact
// reverse of submission order, and the merge must not care.
CampaignRunRecord SyntheticRecord(const CampaignJob& job) {
  CampaignRunRecord record;
  record.healthy = true;
  record.info.scenario = "synthetic";
  record.info.duration_s = 1.0;
  record.info.seed = job.config.seed;
  record.info.stats = {{"index", static_cast<double>(job.index)},
                       {"seed", static_cast<double>(job.config.seed)}};
  record.metrics = std::make_unique<MetricsRegistry>();
  record.metrics->GetCounter("synthetic.value")->Increment(job.index + 100);
  return record;
}

TEST(CampaignDeterminismTest, MergeOrderSurvivesAdversarialRunDurations) {
  const std::string spec = "seed=1:8";
  CampaignRunner::Options fair;
  fair.jobs = 1;
  fair.run_job = SyntheticRecord;
  CampaignRunner baseline = MakeRunner(CampaignBase(), spec, std::move(fair));
  ASSERT_EQ(baseline.Prepare(), "");
  const std::string expected = baseline.Run().MergedJson();

  CampaignRunner::Options adversarial;
  adversarial.jobs = 4;
  adversarial.run_job = SyntheticRecord;
  adversarial.before_run = [](size_t index) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2 * (8 - index)));
  };
  CampaignRunner scrambled = MakeRunner(CampaignBase(), spec, std::move(adversarial));
  ASSERT_EQ(scrambled.Prepare(), "");
  const CampaignReport report = scrambled.Run();
  EXPECT_EQ(report.MergedJson(), expected);
  ASSERT_EQ(report.runs.size(), 8u);
  for (size_t i = 0; i < report.runs.size(); ++i) {
    EXPECT_EQ(report.runs[i].label, "seed=" + std::to_string(i + 1));
  }
}

// --- worker teardown ----------------------------------------------------------------------

// Workers build a full testbed each, run it partway, and abandon it mid-flight — concurrent
// construction and mid-flight destruction across four threads. The sanitizer lanes
// (ASan/LSan for leaks and lifetimes, TSan for races) are the real assertions; the test
// itself checks the merge stayed in submission order.
TEST(CampaignTeardownTest, MidFlightWorkerTeardownIsCleanAndOrdered) {
  CampaignRunner::Options options;
  options.jobs = 4;
  options.run_job = [](const CampaignJob& job) {
    CtmsExperiment experiment(CtmsConfigFrom(job.config));
    experiment.Start();
    // Stop at an offset that is never a multiple of the 12 ms packet period, so device
    // interrupts, driver jobs, and in-DMA receives are queued when the world ends.
    experiment.sim().RunFor(Milliseconds(40) +
                            Microseconds(137 * (static_cast<int64_t>(job.index) + 1)));
    CampaignRunRecord record;
    record.healthy = true;
    record.info.scenario = "abandoned";
    record.info.seed = job.config.seed;
    record.info.stats = {
        {"built", static_cast<double>(experiment.Report().packets_built)}};
    return record;  // the experiment dies here, mid-flight, on the worker thread
  };
  CampaignRunner runner =
      MakeRunner(CampaignBase(/*duration_s=*/30), "seed=1:8", std::move(options));
  ASSERT_EQ(runner.Prepare(), "");
  const CampaignReport report = runner.Run();
  ASSERT_EQ(report.runs.size(), 8u);
  for (size_t i = 0; i < report.runs.size(); ++i) {
    EXPECT_EQ(report.runs[i].label, "seed=" + std::to_string(i + 1));
    EXPECT_FALSE(report.runs[i].info.stats.empty());
  }
}

// --- per-run fault RNG forking ------------------------------------------------------------

ScenarioConfig FaultyBase() {
  ScenarioConfig base = CampaignBase(/*duration_s=*/3);
  base.seed = 7;
  base.faults.Add(FaultPlan::PurgeStorm(Seconds(1), 10, Milliseconds(4),
                                        /*jitter=*/Microseconds(700)));
  // p=0.5 over ~50 frames: every corruption decision is a fault-RNG draw, so a different
  // salt almost surely kills a different frame set.
  base.faults.Add(FaultPlan::FrameCorruption(Milliseconds(1800), Milliseconds(600), 0.5));
  return base;
}

TEST(CampaignFaultTest, UnsaltedIdenticalCellsProduceIdenticalRecords) {
  // retry-budget=3,3 expands to two cells with identical configs.
  CampaignRunner runner = MakeRunner(FaultyBase(), "retry-budget=3,3", {});
  ASSERT_EQ(runner.Prepare(), "");
  EXPECT_EQ(runner.jobs()[0].config.faults.rng_salt(), 0u);
  const CampaignReport report = runner.Run();
  ASSERT_EQ(report.runs.size(), 2u);
  ExpectSameStatList(report.runs[0].info.stats, report.runs[1].info.stats);
  ExpectSameStatList(report.runs[0].info.fault, report.runs[1].info.fault);
}

TEST(CampaignFaultTest, IndependentFaultsDecorrelateIdenticalCells) {
  CampaignRunner::Options options;
  options.independent_faults = true;
  CampaignRunner runner = MakeRunner(FaultyBase(), "retry-budget=3,3", std::move(options));
  ASSERT_EQ(runner.Prepare(), "");
  EXPECT_EQ(runner.jobs()[0].config.faults.rng_salt(), 1u);
  EXPECT_EQ(runner.jobs()[1].config.faults.rng_salt(), 2u);
  const CampaignReport report = runner.Run();
  ASSERT_EQ(report.runs.size(), 2u);
  // Same scenario, same stream seed — only the fault RNG fork differs, so the delivery or
  // fault pattern must diverge somewhere.
  auto differs = [](const std::vector<std::pair<std::string, double>>& a,
                    const std::vector<std::pair<std::string, double>>& b) {
    if (a.size() != b.size()) return true;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].second != b[i].second) return true;
    }
    return false;
  };
  EXPECT_TRUE(differs(report.runs[0].info.stats, report.runs[1].info.stats) ||
              differs(report.runs[0].info.fault, report.runs[1].info.fault));
}

TEST(CampaignFaultTest, SaltedCampaignsAreStillReproducible) {
  auto run = []() {
    CampaignRunner::Options options;
    options.independent_faults = true;
    options.jobs = 2;
    CampaignRunner runner =
        MakeRunner(FaultyBase(), "retry-budget=3,3", std::move(options));
    EXPECT_EQ(runner.Prepare(), "");
    return runner.Run().MergedJson();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace ctms
