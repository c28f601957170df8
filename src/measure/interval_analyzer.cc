#include "src/measure/interval_analyzer.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace ctms {

std::vector<SimDuration> InterOccurrence(const std::vector<ProbeEvent>& events,
                                         ProbePoint point) {
  std::vector<SimDuration> out;
  bool have_prev = false;
  SimTime prev = 0;
  for (const ProbeEvent& event : events) {
    if (event.point != point) {
      continue;
    }
    if (have_prev) {
      out.push_back(event.time - prev);
    }
    prev = event.time;
    have_prev = true;
  }
  return out;
}

namespace {

// (seq, time) of every event at `point`, sorted by seq with only the first observation of
// each seq kept, so a retransmitted duplicate does not overwrite the original (matching the
// paper's dedup handling). Events arrive in time order, where seqs are nearly always
// ascending already.
std::vector<std::pair<uint32_t, SimTime>> FirstTimeBySeq(const std::vector<ProbeEvent>& events,
                                                         ProbePoint point) {
  std::vector<std::pair<uint32_t, SimTime>> times;
  for (const ProbeEvent& event : events) {
    if (event.point == point) {
      times.emplace_back(event.seq, event.time);
    }
  }
  const auto by_seq = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (!std::is_sorted(times.begin(), times.end(), by_seq)) {
    std::stable_sort(times.begin(), times.end(), by_seq);
  }
  times.erase(std::unique(times.begin(), times.end(),
                          [](const auto& a, const auto& b) { return a.first == b.first; }),
              times.end());
  return times;
}

}  // namespace

std::vector<SimDuration> MatchedDifference(const std::vector<ProbeEvent>& events,
                                           ProbePoint from, ProbePoint to) {
  const std::vector<std::pair<uint32_t, SimTime>> from_times = FirstTimeBySeq(events, from);
  const std::vector<std::pair<uint32_t, SimTime>> to_times = FirstTimeBySeq(events, to);
  // Merge-join on seq; the output is in ascending seq order.
  std::vector<SimDuration> out;
  out.reserve(from_times.size());
  auto to_it = to_times.begin();
  for (const auto& [seq, t_from] : from_times) {
    while (to_it != to_times.end() && to_it->first < seq) {
      ++to_it;
    }
    if (to_it != to_times.end() && to_it->first == seq) {
      out.push_back(to_it->second - t_from);
    }
  }
  return out;
}

PaperHistograms BuildPaperHistograms(const std::vector<ProbeEvent>& events) {
  PaperHistograms h;
  h.inter_irq.AddAll(InterOccurrence(events, ProbePoint::kVcaIrq));
  h.inter_handler.AddAll(InterOccurrence(events, ProbePoint::kVcaHandlerEntry));
  h.inter_pre_tx.AddAll(InterOccurrence(events, ProbePoint::kPreTransmit));
  h.inter_rx.AddAll(InterOccurrence(events, ProbePoint::kRxClassified));
  h.irq_to_handler.AddAll(
      MatchedDifference(events, ProbePoint::kVcaIrq, ProbePoint::kVcaHandlerEntry));
  h.handler_to_pre_tx.AddAll(
      MatchedDifference(events, ProbePoint::kVcaHandlerEntry, ProbePoint::kPreTransmit));
  h.pre_tx_to_rx.AddAll(
      MatchedDifference(events, ProbePoint::kPreTransmit, ProbePoint::kRxClassified));
  return h;
}

}  // namespace ctms
