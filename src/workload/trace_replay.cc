#include "src/workload/trace_replay.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <utility>

#include "src/ring/frame.h"
#include "src/sim/time.h"

namespace ctms {

TraceReplayTraffic::TraceReplayTraffic(TokenRing* ring, std::vector<TraceEntry> trace)
    : ring_(ring), trace_(std::move(trace)) {
  src_ = ring_->AllocateGhostAddress();
  dst_ = ring_->AllocateGhostAddress();
}

std::optional<std::vector<TraceEntry>> TraceReplayTraffic::ParseCsv(const std::string& text,
                                                                    int* error_line) {
  std::vector<TraceEntry> trace;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    // Strip comments and whitespace-only lines.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    int64_t offset_us = 0;
    int64_t bytes = 0;
    char trailing = 0;
    const int matched =
        std::sscanf(line.c_str(), " %ld , %ld %c", &offset_us, &bytes, &trailing);
    // An offset past the longest simulated span would overflow SimTime in Microseconds(),
    // and a frame longer than 802.5 allows at 4 Mbit/s cannot cross the ring.
    if (matched != 2 || offset_us < 0 || offset_us > kLongestSimulatedSpan / kMicrosecond ||
        bytes <= 0 || bytes > kMaxWireBytes - kFrameOverheadBytes) {
      if (error_line != nullptr) {
        *error_line = line_number;
      }
      return std::nullopt;
    }
    trace.push_back(TraceEntry{Microseconds(offset_us), bytes});
  }
  return trace;
}

std::optional<std::vector<TraceEntry>> TraceReplayTraffic::LoadCsv(const std::string& path,
                                                                   int* error_line) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    if (error_line != nullptr) {
      *error_line = 0;
    }
    return std::nullopt;
  }
  std::string text;
  char buffer[4096];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return ParseCsv(text, error_line);
}

void TraceReplayTraffic::Start(bool loop, SimDuration loop_period) {
  Stop();
  running_ = true;
  loop_ = loop;
  loop_period_ = loop_period;
  ScheduleAll(ring_->sim()->Now());
}

void TraceReplayTraffic::ScheduleAll(SimTime base) {
  pending_.clear();
  for (const TraceEntry& entry : trace_) {
    pending_.push_back(ring_->sim()->At(base + entry.offset, [this, entry]() {
      if (!running_) {
        return;
      }
      Frame frame;
      frame.kind = FrameKind::kLlc;
      frame.src = src_;
      frame.dst = dst_;
      frame.protocol = ProtocolId::kIp;
      frame.payload_bytes = entry.bytes;
      frame.seq = static_cast<uint32_t>(++frames_sent_);
      frame.created_at = ring_->sim()->Now();
      ring_->RequestTransmit(std::move(frame), nullptr);
    }));
  }
  if (loop_ && loop_period_ > 0) {
    pending_.push_back(ring_->sim()->At(base + loop_period_, [this, base]() {
      if (running_) {
        ScheduleAll(base + loop_period_);
      }
    }));
  }
}

void TraceReplayTraffic::Stop() {
  running_ = false;
  for (const EventId id : pending_) {
    ring_->sim()->Cancel(id);
  }
  pending_.clear();
}

}  // namespace ctms
