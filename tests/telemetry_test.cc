// Telemetry subsystem: registry semantics, tracer capacity, JSON exporter structure and
// escaping, and the end-to-end acceptance run — a short Test Case B with the tracer on must
// yield counters in every layer namespace, CPU-step and ring-frame spans, valid JSON for
// both artifacts, and byte-identical output across two same-seed runs. Last, every row of
// the experiment registry must export through the shared output step and refuse the flags
// it does not read.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/campaign/campaign.h"
#include "src/core/ctms.h"
#include "src/core/experiment_registry.h"
#include "src/telemetry/json_export.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span_tracer.h"

namespace ctms {
namespace {

// --- a minimal recursive-descent JSON validator --------------------------------------------
// Enough of RFC 8259 to catch structural breakage in the exporters (unbalanced brackets,
// missing commas, bad escapes, bare tokens). Numbers are validated loosely.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= s_.size() || s_[pos_] != '}') {
      return false;
    }
    ++pos_;
    return true;
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= s_.size() || s_[pos_] != ']') {
      return false;
    }
    ++pos_;
    return true;
  }

  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= s_.size() || !IsHex(s_[pos_ + i])) {
              return false;
            }
          }
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' && e != 'n' &&
                   e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (IsDigit(s_[pos_]) || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start && IsDigit(s_[pos_ - 1]);
  }

  bool Literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }
  static bool IsHex(char c) {
    return IsDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) { return JsonChecker(text).Valid(); }

// --- registry ------------------------------------------------------------------------------

TEST(MetricsRegistryTest, PointersAreStableAcrossInsertions) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("a.first");
  first->Increment(3);
  // Force rebalancing traffic; node-based storage must not move the slot.
  for (int i = 0; i < 1000; ++i) {
    registry.GetCounter("b.filler." + std::to_string(i));
  }
  EXPECT_EQ(first, registry.GetCounter("a.first"));
  EXPECT_EQ(first->value(), 3u);
}

TEST(MetricsRegistryTest, CountersWithPrefixCountsNamespaces) {
  MetricsRegistry registry;
  registry.GetCounter("ring.frames");
  registry.GetCounter("ring.bytes");
  registry.GetCounter("driver.tr.tx.ctmsp_tx");
  EXPECT_EQ(registry.CountersWithPrefix("ring."), 2u);
  EXPECT_EQ(registry.CountersWithPrefix("driver."), 1u);
  EXPECT_EQ(registry.CountersWithPrefix("nothing."), 0u);
}

TEST(MetricsRegistryTest, SummaryTracksBounds) {
  MetricsRegistry registry;
  Summary* s = registry.GetSummary("lat");
  s->Observe(10);
  s->Observe(-4);
  s->Observe(6);
  EXPECT_EQ(s->count(), 3u);
  EXPECT_EQ(s->min(), -4);
  EXPECT_EQ(s->max(), 10);
  EXPECT_DOUBLE_EQ(s->Mean(), 4.0);
}

TEST(MetricsRegistryTest, SummaryMergeFromEmptyIsIdentity) {
  Summary target;
  target.Observe(5);
  target.Observe(9);
  Summary empty;  // count == 0: merging it must not disturb min/max/sum
  target.Merge(empty);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.min(), 5);
  EXPECT_EQ(target.max(), 9);
  EXPECT_EQ(target.sum(), 14);

  // And merging into an empty target adopts the source verbatim.
  Summary fresh;
  fresh.Merge(target);
  EXPECT_EQ(fresh.count(), 2u);
  EXPECT_EQ(fresh.min(), 5);
  EXPECT_EQ(fresh.max(), 9);
}

TEST(MetricsRegistryTest, SummaryMergeSingleValue) {
  Summary a;
  a.Observe(7);
  Summary b;
  b.Observe(-3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), -3);
  EXPECT_EQ(a.max(), 7);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(MetricsRegistryTest, SummaryMergePropagatesBounds) {
  Summary a;
  a.Observe(10);
  a.Observe(20);
  Summary b;
  b.Observe(-100);
  b.Observe(500);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), -100);
  EXPECT_EQ(a.max(), 500);
  EXPECT_EQ(a.sum(), 430);
}

TEST(MetricsRegistryTest, GaugeTracksHighWatermark) {
  Gauge gauge;
  gauge.Set(4);
  gauge.Set(17);
  gauge.Set(2);
  EXPECT_EQ(gauge.value(), 2);
  EXPECT_EQ(gauge.peak(), 17);
  gauge.Add(3);
  EXPECT_EQ(gauge.value(), 5);
  EXPECT_EQ(gauge.peak(), 17);
  gauge.ResetPeak();
  EXPECT_EQ(gauge.peak(), 5);
}

TEST(MetricsRegistryTest, MergeFromCarriesGaugePeaks) {
  MetricsRegistry run;
  Gauge* depth = run.GetGauge("ifq.depth");
  depth->Set(30);  // peak 30...
  depth->Set(1);   // ...but only 1 at snapshot time
  MetricsRegistry merged;
  merged.MergeFrom(run, "run0.");
  EXPECT_EQ(merged.GetGauge("run0.ifq.depth")->value(), 1);
  EXPECT_EQ(merged.GetGauge("run0.ifq.depth")->peak(), 30);
}

TEST(JsonExportTest, EmptySummaryExports) {
  MetricsRegistry registry;
  registry.GetSummary("never.observed");  // count == 0: export must stay valid JSON
  const std::string json = MetricsJson(registry);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("never.observed"), std::string::npos);
}

TEST(JsonExportTest, GaugePeakExports) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("adapter.onboard_rx.depth");
  gauge->Set(9);
  gauge->Set(3);
  const std::string json = MetricsJson(registry);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"adapter.onboard_rx.depth\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"adapter.onboard_rx.depth.peak\": 9"), std::string::npos) << json;
}

// --- tracer --------------------------------------------------------------------------------

TEST(SpanTracerTest, DisabledByDefault) {
  SpanTracer tracer;
  const TrackId t = tracer.RegisterTrack("cpu");
  tracer.AddComplete(t, "step", 0, 100);
  tracer.AddInstant(t, "irq", 50);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.tracks().size(), 1u);  // track metadata survives being disabled
}

TEST(SpanTracerTest, CapacityEvictionReportsDropped) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  tracer.set_capacity(16);
  const TrackId t = tracer.RegisterTrack("cpu");
  for (int i = 0; i < 100; ++i) {
    tracer.AddComplete(t, "step", i * 10, 5);
  }
  EXPECT_LE(tracer.spans().size(), 16u);
  EXPECT_GT(tracer.dropped(), 0u);
  // A truncated trace must advertise itself in the export.
  EXPECT_NE(ChromeTraceJson(tracer).find("dropped"), std::string::npos);
}

// --- JSON exporters ------------------------------------------------------------------------

TEST(JsonExportTest, EscapesMetricNames) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");

  MetricsRegistry registry;
  registry.GetCounter("weird.\"name\"\\with\nbreaks")->Increment();
  const std::string json = MetricsJson(registry);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\\\"name\\\""), std::string::npos);
}

TEST(JsonExportTest, ChromeTraceStructure) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  const TrackId cpu = tracer.RegisterTrack("cpu.tx");
  const TrackId ring = tracer.RegisterTrack("ring");
  tracer.AddComplete(cpu, "vca-intr", 1500, 2500, {{"seq", 7}});
  tracer.AddInstant(ring, "ring_purge", 9000);

  const std::string json = ChromeTraceJson(tracer);
  EXPECT_TRUE(IsValidJson(json)) << json;
  // Track metadata names the Chrome threads.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu.tx\""), std::string::npos);
  // One X complete and one i instant, microsecond timestamps with ns precision.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
  // No truncation marker on an uncapped trace.
  EXPECT_EQ(json.find("dropped"), std::string::npos);
}

TEST(JsonExportTest, RunSummaryShape) {
  MetricsRegistry registry;
  registry.GetCounter("sim.events_executed")->Increment(42);
  registry.GetGauge("kern.tx.mbuf.level")->Set(-3);
  registry.GetSummary("ring.latency")->Observe(100);

  RunSummaryInfo info;
  info.scenario = "test-case-b";
  info.duration_s = 30.0;
  info.seed = 1;
  info.stats = {{"packets_built", 833.0}, {"ring_utilization", 0.253}};
  const std::string json = RunSummaryJson(registry, info);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"scenario\": \"test-case-b\""), std::string::npos);
  EXPECT_NE(json.find("\"packets_built\": 833"), std::string::npos);
  EXPECT_NE(json.find("\"sim.events_executed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"kern.tx.mbuf.level\": -3"), std::string::npos);
  EXPECT_NE(json.find("\"ring.latency\""), std::string::npos);
}

TEST(JsonExportTest, WritersFailOnUnwritablePath) {
  MetricsRegistry registry;
  SpanTracer tracer;
  RunSummaryInfo info;
  EXPECT_FALSE(WriteMetricsJson(registry, "/no-such-dir/metrics.json"));
  EXPECT_FALSE(WriteChromeTraceJson(tracer, "/no-such-dir/trace.json"));
  EXPECT_FALSE(WriteRunSummaryJson(registry, info, "/no-such-dir/summary.json"));
}

TEST(JsonExportTest, WritersRoundTripToDisk) {
  MetricsRegistry registry;
  registry.GetCounter("sim.events_executed")->Increment(5);
  const std::string path = ::testing::TempDir() + "telemetry_roundtrip.json";
  ASSERT_TRUE(WriteMetricsJson(registry, path));
  std::string content;
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content, MetricsJson(registry) + "\n");
}

// --- end-to-end acceptance -----------------------------------------------------------------

CtmsConfig ShortTestCaseB() {
  CtmsConfig config = TestCaseB();
  config.duration = Seconds(2);
  return config;
}

TEST(TelemetryAcceptanceTest, ScenarioBCoversEveryLayer) {
  CtmsExperiment experiment(ShortTestCaseB());
  experiment.sim().telemetry().tracer.set_enabled(true);
  experiment.Run();

  const MetricsRegistry& metrics = experiment.sim().telemetry().metrics;
  // The paper's point: the stream crosses every layer. So must the counters.
  EXPECT_GE(metrics.CountersWithPrefix("ring."), 1u);
  EXPECT_GE(metrics.CountersWithPrefix("driver."), 1u);
  EXPECT_GE(metrics.CountersWithPrefix("kern."), 1u);
  EXPECT_GE(metrics.CountersWithPrefix("cpu."), 1u);
  EXPECT_GE(metrics.CountersWithPrefix("sim."), 1u);

  size_t nonzero = 0;
  for (const auto& [name, counter] : metrics.counters()) {
    if (counter.value() > 0) {
      ++nonzero;
    }
  }
  EXPECT_GE(nonzero, 15u) << "expected a populated registry after a scenario-B run";

  // The tracer saw CPU job steps and ring frames.
  const SpanTracer& tracer = experiment.sim().telemetry().tracer;
  bool cpu_step = false;
  bool ring_frame = false;
  for (const TraceSpan& span : tracer.spans()) {
    if (span.phase == TraceSpan::Phase::kComplete) {
      const std::string& track = tracer.tracks()[static_cast<size_t>(span.track)];
      if (span.name == "frame" && track == "ring") {
        ring_frame = true;
      }
      if (track.rfind("cpu.", 0) == 0) {
        cpu_step = true;
      }
    }
  }
  EXPECT_TRUE(cpu_step);
  EXPECT_TRUE(ring_frame);

  // Both artifacts are well-formed JSON.
  EXPECT_TRUE(IsValidJson(MetricsJson(metrics)));
  EXPECT_TRUE(IsValidJson(ChromeTraceJson(tracer)));
}

TEST(TelemetryAcceptanceTest, SameSeedRunsAreByteIdentical) {
  auto run = [](std::string* metrics_json, std::string* trace_json) {
    CtmsExperiment experiment(ShortTestCaseB());
    experiment.sim().telemetry().tracer.set_enabled(true);
    experiment.Run();
    *metrics_json = MetricsJson(experiment.sim().telemetry().metrics);
    *trace_json = ChromeTraceJson(experiment.sim().telemetry().tracer);
  };
  std::string metrics_a, trace_a, metrics_b, trace_b;
  run(&metrics_a, &trace_a);
  run(&metrics_b, &trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_EQ(trace_a, trace_b);
}

// --- experiment registry ------------------------------------------------------------------

// A non-default value for every flag, each valid on its own.
const std::map<std::string, std::string>& NonDefaultFlagValues() {
  static const std::map<std::string, std::string> values = {
      {"scenario", "B"},
      {"duration", "2"},
      {"seed", "2"},
      {"packet-bytes", "1000"},
      {"period-ms", "10"},
      {"streams", "3"},
      {"clients", "3"},
      {"chain-hops", "2"},
      {"mix", "voice:1"},
      {"controller-epoch-ms", "50"},
      {"rings", "2"},
      {"stations-per-ring", "4"},
      {"fabric-topology", "chain"},
      {"link-latency-us", "250"},
      {"memory", "system"},
      {"method", "truth"},
      {"ring-priority", "5"},
      {"insertions", "5"},
      {"faults", "plan.json"},
      {"degradation", "block"},
      {"retry-budget", "2"},
      {"retry-backoff-ms", "3"},
      {"recovery", "fec"},
      {"fec-group", "4"},
      {"nack-delay-us", "250"},
      {"sweep-levels", "3"},
      {"sweep-purges", "10"},
      {"sweep-spacing-ms", "5"},
      {"jobs", "2"},
      {"grid", "seed=1,2"},
      {"cell-experiment", "baseline"},
      {"histogram", "7"},
      {"bin-us", "250"},
      {"csv-prefix", "prefix"},
      {"trace", "trace.csv"},
      {"metrics-json", "m.json"},
      {"trace-json", "t.json"},
      {"flight-recorder", "32"},
      {"journey-json", "j.json"},
      {"tcp", "1"},
      {"no-driver-priority", "1"},
      {"driver-priority", "0"},
      {"zero-copy", "1"},
      {"retransmit", "1"},
      {"ground-truth", "1"},
      {"print-metrics", "1"},
      {"independent-faults", "1"},
      {"quality-controller", "1"},
      {"no-quality-controller", "0"},
      {"journeys", "1"},
      {"stage-histograms", "1"},
  };
  return values;
}

double StatNamed(const RunSummaryInfo& info, const std::string& name) {
  for (const auto& [stat, value] : info.stats) {
    if (stat == name) {
      return value;
    }
  }
  ADD_FAILURE() << "no stat " << name;
  return -1.0;
}

TEST(ExperimentRegistryTest, EveryRowExportsRefusesUnreadFlagsAndCellsReplayTraces) {
  // 1. A 1-s run of every row through the output step writes --metrics-json as an object.
  for (const ExperimentEntry& entry : Experiments()) {
    ScenarioConfig config;
    config.experiment = entry.name;
    config.duration_s = 1;
    config.metrics_json = ::testing::TempDir() + "registry_" + entry.name + ".json";
    if (entry.run == nullptr) {
      config.grid_spec = "seed=1,2";
    }
    ASSERT_EQ(ValidateScenarioConfig(config), "") << entry.name;
    const ExperimentRunFn run = entry.run != nullptr ? entry.run : RunCampaign;
    EXPECT_TRUE(run(config, /*output=*/true).ok) << entry.name;
    std::ifstream in(config.metrics_json);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_TRUE(IsValidJson(text.str())) << entry.name;
    EXPECT_EQ(text.str().rfind('{', 0), 0u) << entry.name;
    std::remove(config.metrics_json.c_str());
  }

  // 2. Every flag whose table row does not name the experiment (or, for a campaign, its
  // ctms cells) is refused at a non-default value, by name.
  for (const ExperimentEntry& entry : Experiments()) {
    const bool campaign = entry.run == nullptr;
    for (const std::string& flag : ScenarioFlagNames()) {
      if (flag == "experiment") {
        continue;  // the selector itself
      }
      ASSERT_EQ(NonDefaultFlagValues().count(flag), 1u) << "no sample value for --" << flag;
      ScenarioConfig config;
      config.experiment = entry.name;
      std::string error;
      ASSERT_TRUE(ApplyScenarioAxis(&config, flag, NonDefaultFlagValues().at(flag), &error))
          << error;
      const std::string verdict = ValidateScenarioConfig(config);
      if (ScenarioFlagReadBy(flag, entry.name)) {
        EXPECT_EQ(verdict, "") << entry.name << " --" << flag;
      } else if (!campaign || !ScenarioFlagReadBy(flag, "ctms")) {
        // A --no-x spelling may be reported as its --x twin.
        const std::string stem = flag.rfind("no-", 0) == 0 ? flag.substr(3) : flag;
        EXPECT_NE(verdict.find(stem), std::string::npos) << entry.name << ": " << verdict;
        EXPECT_NE(verdict.find(entry.name), std::string::npos) << verdict;
      }
    }
  }
  // A campaign takes its cells' flags, but never their output flags.
  for (const std::string flag : {"histogram", "trace-json", "print-metrics", "journey-json"}) {
    ScenarioConfig config;
    config.experiment = "campaign";
    ASSERT_TRUE(ApplyScenarioAxis(&config, flag, NonDefaultFlagValues().at(flag), nullptr));
    EXPECT_NE(ValidateScenarioConfig(config).find("--" + flag), std::string::npos) << flag;
  }

  // 3. A ctms campaign cell replays --trace exactly as the same run alone does.
  ScenarioConfig alone;
  alone.duration_s = 1;
  alone.trace_path = std::string(CTMS_TESTS_DATA_DIR) + "/campus_trace.csv";
  ASSERT_EQ(LoadScenarioFiles(&alone), "");
  const ExperimentRun solo = FindExperiment("ctms")->run(alone, /*output=*/false);
  ScenarioConfig campaign = alone;
  campaign.experiment = "campaign";
  std::string error;
  auto grid = CampaignGrid::Parse("seed=1", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  CampaignRunner runner(campaign, std::move(*grid), CampaignRunner::Options{});
  ASSERT_EQ(runner.Prepare(), "");
  const CampaignReport report = runner.Run();
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_EQ(StatNamed(report.runs[0].info, "ring_utilization"),
            StatNamed(solo.info, "ring_utilization"));
  ScenarioConfig quiet;
  quiet.duration_s = 1;
  EXPECT_NE(StatNamed(FindExperiment("ctms")->run(quiet, false).info, "ring_utilization"),
            StatNamed(solo.info, "ring_utilization"));
}

}  // namespace
}  // namespace ctms
