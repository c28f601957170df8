// Trace-driven background traffic: replay a recorded frame schedule onto the ring.
//
// The statistical generators in ring_traffic.h model the ITC campus mix; this module replays
// an explicit schedule instead — either loaded from a CSV capture ("offset_us,bytes" per
// line, '#' comments) or built programmatically — so experiments can be pinned to a specific
// traffic pattern, or to a pattern exported from a TAP capture.

#ifndef SRC_WORKLOAD_TRACE_REPLAY_H_
#define SRC_WORKLOAD_TRACE_REPLAY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/ring/token_ring.h"

namespace ctms {

struct TraceEntry {
  SimDuration offset = 0;  // from replay start
  int64_t bytes = 0;
};

class TraceReplayTraffic {
 public:
  TraceReplayTraffic(TokenRing* ring, std::vector<TraceEntry> trace);

  // Parses "offset_us,bytes" lines; returns nullopt on malformed input (the line number of
  // the first error is written to *error_line when provided). An offset must lie within
  // kLongestSimulatedSpan, and a frame of `bytes` payload must fit kMaxWireBytes on the wire.
  static std::optional<std::vector<TraceEntry>> LoadCsv(const std::string& path,
                                                        int* error_line = nullptr);
  static std::optional<std::vector<TraceEntry>> ParseCsv(const std::string& text,
                                                         int* error_line = nullptr);

  // Schedules the whole trace starting now; with `loop`, the trace repeats every
  // `loop_period` (which must cover the last entry's offset).
  void Start(bool loop = false, SimDuration loop_period = 0);
  void Stop();

  uint64_t frames_sent() const { return frames_sent_; }
  const std::vector<TraceEntry>& trace() const { return trace_; }

 private:
  void ScheduleAll(SimTime base);

  TokenRing* ring_;
  std::vector<TraceEntry> trace_;
  RingAddress src_;
  RingAddress dst_;
  bool running_ = false;
  bool loop_ = false;
  SimDuration loop_period_ = 0;
  uint64_t frames_sent_ = 0;
  std::vector<EventId> pending_;
};

}  // namespace ctms

#endif  // SRC_WORKLOAD_TRACE_REPLAY_H_
