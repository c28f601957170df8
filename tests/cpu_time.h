// Per-job CPU time read back from the span trace. The Cpu keeps no per-job ledger; with the
// tracer enabled, every step it runs is a complete span on its "cpu.<instance>" track,
// named after the step's job and lasting the step's (stretched) duration.

#ifndef TESTS_CPU_TIME_H_
#define TESTS_CPU_TIME_H_

#include <map>
#include <string>

#include "src/sim/time.h"
#include "src/telemetry/span_tracer.h"

namespace ctms {

inline std::map<std::string, SimDuration> CpuTimeByJob(const SpanTracer& tracer,
                                                       const std::string& track) {
  std::map<std::string, SimDuration> by_job;
  for (const TraceSpan& span : tracer.spans()) {
    if (span.phase == TraceSpan::Phase::kComplete &&
        tracer.tracks()[static_cast<size_t>(span.track)] == track) {
      by_job[span.name] += span.duration;
    }
  }
  return by_job;
}

}  // namespace ctms

#endif  // TESTS_CPU_TIME_H_
