#include "src/telemetry/json_export.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace ctms {

namespace {

// Microseconds with nanosecond precision: the trace-viewer unit is us, SimTime is ns.
std::string TsMicros(int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000, ns % 1000);
  return buf;
}

std::string NumberJson(double value) {
  char buf[40];
  if (std::nearbyint(value) == value && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", value);
  }
  return buf;
}

void AppendArgs(std::ostringstream& os, const std::vector<TraceArg>& args) {
  os << "{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << "\"" << JsonEscape(args[i].key) << "\":" << args[i].value;
  }
  os << "}";
}

}  // namespace

bool WriteText(const std::string& text, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool ok = written == text.size() && std::fclose(file) == 0;
  if (!ok && written != text.size()) {
    std::fclose(file);
  }
  return ok;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ChromeTraceJson(const SpanTracer& tracer) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  const auto comma = [&]() {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n";
  };
  // Track metadata: names and a stable top-to-bottom order in the viewer.
  const std::vector<std::string>& tracks = tracer.tracks();
  for (size_t tid = 0; tid < tracks.size(); ++tid) {
    comma();
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << JsonEscape(tracks[tid])
       << "\"}}";
    comma();
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << tid << "}}";
  }
  if (tracer.dropped() > 0) {
    // A truncated trace must never be mistaken for a full one.
    comma();
    os << "{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"s\":\"g\",\"name\":"
       << "\"trace truncated: oldest spans dropped\",\"args\":{\"dropped\":"
       << tracer.dropped() << "}}";
  }
  for (const TraceSpan& span : tracer.spans()) {
    comma();
    os << "{\"ph\":\"" << (span.phase == TraceSpan::Phase::kComplete ? "X" : "i")
       << "\",\"pid\":0,\"tid\":" << span.track << ",\"ts\":" << TsMicros(span.start);
    if (span.phase == TraceSpan::Phase::kComplete) {
      os << ",\"dur\":" << TsMicros(span.duration);
    } else {
      os << ",\"s\":\"t\"";
    }
    os << ",\"cat\":\"sim\",\"name\":\"" << JsonEscape(span.name) << "\",\"args\":";
    AppendArgs(os, span.args);
    os << "}";
  }
  os << "\n]\n";
  return os.str();
}

bool WriteChromeTraceJson(const SpanTracer& tracer, const std::string& path) {
  return WriteText(ChromeTraceJson(tracer), path);
}

std::string MetricsJson(const MetricsRegistry& metrics) {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : metrics.counters()) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": " << counter.value();
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : metrics.gauges()) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": " << gauge.value();
    os << ",\n    \"" << JsonEscape(name) << ".peak\": " << gauge.peak();
    first = false;
  }
  os << "\n  },\n  \"summaries\": {";
  first = true;
  for (const auto& [name, summary] : metrics.summaries()) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": {\"count\": "
       << summary.count() << ", \"sum\": " << summary.sum() << ", \"min\": " << summary.min()
       << ", \"max\": " << summary.max() << "}";
    first = false;
  }
  os << "\n  }\n}";
  return os.str();
}

bool WriteMetricsJson(const MetricsRegistry& metrics, const std::string& path) {
  return WriteText(MetricsJson(metrics) + "\n", path);
}

std::string RunSummaryJson(const MetricsRegistry& metrics, const RunSummaryInfo& info) {
  std::ostringstream os;
  os << "{\n\"run\": {\"scenario\": \"" << JsonEscape(info.scenario)
     << "\", \"duration_s\": " << NumberJson(info.duration_s) << ", \"seed\": " << info.seed
     << "},\n\"stats\": {";
  for (size_t i = 0; i < info.stats.size(); ++i) {
    os << (i > 0 ? "," : "") << "\n  \"" << JsonEscape(info.stats[i].first)
       << "\": " << NumberJson(info.stats[i].second);
  }
  os << "\n}";
  if (!info.fault.empty()) {
    os << ",\n\"fault_report\": {";
    for (size_t i = 0; i < info.fault.size(); ++i) {
      os << (i > 0 ? "," : "") << "\n  \"" << JsonEscape(info.fault[i].first)
         << "\": " << NumberJson(info.fault[i].second);
    }
    os << "\n}";
  }
  os << ",\n\"metrics\": " << MetricsJson(metrics) << "\n}\n";
  return os.str();
}

bool WriteRunSummaryJson(const MetricsRegistry& metrics, const RunSummaryInfo& info,
                         const std::string& path) {
  return WriteText(RunSummaryJson(metrics, info), path);
}

namespace {

void AppendStatsObject(std::ostringstream& os,
                       const std::vector<std::pair<std::string, double>>& stats) {
  os << "{";
  for (size_t i = 0; i < stats.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << JsonEscape(stats[i].first)
       << "\": " << NumberJson(stats[i].second);
  }
  os << "}";
}

// Nearest-rank percentile over an ascending-sorted vector; pure integer index math so the
// pick is exactly reproducible.
double Percentile(const std::vector<double>& sorted, size_t pct) {
  const size_t index = ((sorted.size() - 1) * pct + 50) / 100;
  return sorted[index];
}

}  // namespace

std::string CampaignJson(const std::string& experiment, const std::string& grid,
                         const std::vector<CampaignRunView>& runs) {
  size_t healthy = 0;
  for (const CampaignRunView& run : runs) {
    healthy += run.healthy ? 1 : 0;
  }
  std::ostringstream os;
  os << "{\n\"campaign\": {\"experiment\": \"" << JsonEscape(experiment) << "\", \"grid\": \""
     << JsonEscape(grid) << "\", \"runs\": " << runs.size() << ", \"healthy\": " << healthy
     << "},\n\"aggregate\": {";
  // Stat names in first-seen order across the runs (submission order), values per name.
  std::vector<std::pair<std::string, std::vector<double>>> columns;
  for (const CampaignRunView& run : runs) {
    for (const auto& [name, value] : run.info->stats) {
      auto column = std::find_if(columns.begin(), columns.end(),
                                 [&](const auto& c) { return c.first == name; });
      if (column == columns.end()) {
        columns.emplace_back(name, std::vector<double>{});
        column = columns.end() - 1;
      }
      column->second.push_back(value);
    }
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    std::vector<double> sorted = columns[c].second;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (const double value : sorted) {
      sum += value;
    }
    os << (c > 0 ? "," : "") << "\n  \"" << JsonEscape(columns[c].first)
       << "\": {\"count\": " << sorted.size() << ", \"min\": " << NumberJson(sorted.front())
       << ", \"mean\": " << NumberJson(sum / static_cast<double>(sorted.size()))
       << ", \"p50\": " << NumberJson(Percentile(sorted, 50))
       << ", \"p90\": " << NumberJson(Percentile(sorted, 90))
       << ", \"max\": " << NumberJson(sorted.back()) << "}";
  }
  os << "\n},\n\"runs\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    const CampaignRunView& run = runs[i];
    os << (i > 0 ? "," : "") << "\n{\"label\": \"" << JsonEscape(run.label)
       << "\", \"healthy\": " << (run.healthy ? "true" : "false") << ",\n \"run\": {\"scenario\": \""
       << JsonEscape(run.info->scenario) << "\", \"duration_s\": " << NumberJson(run.info->duration_s)
       << ", \"seed\": " << run.info->seed << "},\n \"stats\": ";
    AppendStatsObject(os, run.info->stats);
    if (!run.info->fault.empty()) {
      os << ",\n \"fault_report\": ";
      AppendStatsObject(os, run.info->fault);
    }
    os << "}";
  }
  os << "\n],\n\"metrics\": ";
  MetricsRegistry combined;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].metrics != nullptr) {
      combined.MergeFrom(*runs[i].metrics, "run" + std::to_string(i) + ".");
    }
  }
  os << MetricsJson(combined) << "\n}\n";
  return os.str();
}

bool WriteCampaignJson(const std::string& experiment, const std::string& grid,
                       const std::vector<CampaignRunView>& runs, const std::string& path) {
  return WriteText(CampaignJson(experiment, grid, runs), path);
}

}  // namespace ctms
