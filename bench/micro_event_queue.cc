// Before/after microbenchmark of the event core rebuild.
//
// Carries a copy of the pre-rebuild EventQueue (binary heap + unordered_map +
// std::function, lazy-tombstone cancellation) and drives both implementations through the
// workloads the simulator actually generates:
//
//   periodic   — 64 periodic sources with 8–16 ms periods (the VCA tick shape): every pop
//                schedules the next firing inside the wheel horizon.
//   completion — short-horizon driver/ring completions, 20–600 us ahead: the DMA-complete /
//                token-rotation shape.
//   rto_rearm  — 500 ms timers re-armed on every "ack": each round schedules a far timer
//                and cancels it ~1 ms later, the TCP-lite pattern that used to leak dead
//                heap entries and map tombstones for the whole run.
//
// Emits the human table plus one JSON line per headline number; --json=PATH additionally
// writes the JSON lines to PATH (CI saves it as BENCH_event_queue.json). --smoke shrinks
// the event counts so the run stays sub-second on a shared runner.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace ctms {
namespace {

// The pre-rebuild implementation, verbatim but for the current Schedule and RunNext
// signatures: the baseline the tentpole is measured against.
class LegacyEventQueue {
 public:
  using Action = std::function<void()>;

  EventId Schedule(SimTime when, SimTime /*queued_at*/, Action action) {
    const EventId id = next_id_++;
    heap_.push(Entry{when, id});
    actions_.emplace(id, std::move(action));
    return id;
  }

  bool Cancel(EventId id) { return actions_.erase(id) > 0; }

  bool empty() const { return actions_.empty(); }

  Action PopNext(SimTime* when) {
    SkipCancelled();
    const Entry top = heap_.top();
    heap_.pop();
    auto it = actions_.find(top.id);
    Action action = std::move(it->second);
    actions_.erase(it);
    *when = top.when;
    return action;
  }

  // The current EventQueue's pop interface over the legacy one.
  SimTime RunNext() {
    SimTime when = 0;
    PopNext(&when)();
    return when;
  }

 private:
  struct Entry {
    SimTime when;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.id > b.id;
    }
  };
  void SkipCancelled() {
    while (!heap_.empty() && actions_.find(heap_.top().id) == actions_.end()) {
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_map<EventId, Action> actions_;
  EventId next_id_ = 1;
};

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

// The capture shape of the stack's real event closures — a `this` pointer plus a few words
// of context (`[this, seq, bytes]`, `[this, frame]`, a shared_ptr pair). 32 bytes exceeds
// libstdc++ std::function's 16-byte inline buffer, so the legacy queue pays one functor
// allocation per schedule on top of its map node; InlineFunction stores it in the record.
struct EventCtx {
  uint64_t* fired;
  uint64_t seq;
  int64_t bytes;
  SimTime deadline;

  void operator()() const { *fired += seq ^ static_cast<uint64_t>(bytes + deadline); }
};

// 64 periodic sources (the 8–16 ms VCA-tick shape); every pop re-arms the next firing
// inside the wheel horizon. Returns events/sec.
template <typename Q>
double RunPeriodic(uint64_t total_events) {
  Q queue;
  Rng rng(42);
  uint64_t fired = 0;
  std::vector<SimDuration> periods;
  std::vector<SimTime> next_at;
  for (int i = 0; i < 64; ++i) {
    periods.push_back(Milliseconds(8) + Microseconds(rng.UniformInt(0, 8000)));
    next_at.push_back(periods.back());
  }
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < periods.size(); ++i) {
    queue.Schedule(next_at[i], 0, EventCtx{&fired, i, 1000, next_at[i]});
  }
  uint64_t popped = 0;
  size_t cursor = 0;
  while (popped < total_events) {
    const SimTime when = queue.RunNext();
    ++popped;
    // Re-arm round-robin: same count of schedules as pops, all inside the wheel horizon.
    const size_t i = cursor++ % periods.size();
    next_at[i] = (next_at[i] + periods[i] > when ? next_at[i] + periods[i]
                                                 : when + periods[i]);
    queue.Schedule(next_at[i], when, EventCtx{&fired, i, 1000, next_at[i]});
  }
  const auto stop = std::chrono::steady_clock::now();
  if (fired == 0) {
    std::fputs("impossible\n", stderr);  // keep the side effect observable
  }
  return static_cast<double>(popped) / Seconds(start, stop);
}

// Short-horizon driver/ring completions 20–600 us ahead, standing population of 512 (the
// DMA-complete / token-rotation shape). Returns events/sec.
template <typename Q>
double RunCompletions(uint64_t total_events) {
  Q queue;
  Rng rng(7);
  uint64_t fired = 0;
  SimTime now = 0;
  for (uint64_t i = 0; i < 512; ++i) {
    const SimTime at = now + Microseconds(rng.UniformInt(20, 600));
    queue.Schedule(at, now, EventCtx{&fired, i, 4096, at});
  }
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t popped = 0; popped < total_events; ++popped) {
    now = queue.RunNext();
    const SimTime at = now + Microseconds(rng.UniformInt(20, 600));
    queue.Schedule(at, now, EventCtx{&fired, popped, 4096, at});
  }
  const auto stop = std::chrono::steady_clock::now();
  if (fired == 0) {
    std::fputs("impossible\n", stderr);
  }
  return static_cast<double>(total_events) / Seconds(start, stop);
}

// The RTO pattern: 32 connections each holding one armed 500 ms timer that is cancelled
// and re-armed on every simulated ack (~1 ms apart). Returns (schedule+cancel) pairs/sec.
template <typename Q>
double RunRtoRearm(uint64_t total_rearms) {
  Q queue;
  uint64_t fired = 0;
  SimTime now = 0;
  std::vector<EventId> armed(32, kInvalidEventId);
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < total_rearms; ++i) {
    const size_t conn = i % armed.size();
    if (armed[conn] != kInvalidEventId) {
      queue.Cancel(armed[conn]);
    }
    now += Microseconds(31);  // acks arrive far sooner than the timers fire
    armed[conn] = queue.Schedule(now + Milliseconds(500), now, EventCtx{&fired, i, 1000, now});
  }
  const auto stop = std::chrono::steady_clock::now();
  if (fired != 0) {
    std::fputs("rto timers unexpectedly fired\n", stderr);
  }
  return static_cast<double>(total_rearms) / Seconds(start, stop);
}

struct Row {
  const char* name;
  double legacy;
  double current;
};

}  // namespace
}  // namespace ctms

int main(int argc, char** argv) {
  using namespace ctms;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }
  const uint64_t n = smoke ? 100'000 : 2'000'000;

  PrintHeader("micro_event_queue — slab+wheel event core vs legacy heap+map (events/sec)");
  Row rows[] = {
      {"periodic", RunPeriodic<LegacyEventQueue>(n), RunPeriodic<EventQueue>(n)},
      {"completion", RunCompletions<LegacyEventQueue>(n), RunCompletions<EventQueue>(n)},
      {"rto_rearm", RunRtoRearm<LegacyEventQueue>(n), RunRtoRearm<EventQueue>(n)},
  };
  std::printf("  %-14s %14s %14s %8s\n", "workload", "legacy", "current", "ratio");
  std::string json;
  for (const Row& row : rows) {
    const double ratio = row.current / row.legacy;
    std::printf("  %-14s %14.0f %14.0f %7.2fx\n", row.name, row.legacy, row.current, ratio);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"event_queue\",\"metric\":\"%s_events_per_sec\","
                  "\"value\":%.0f}\n"
                  "{\"bench\":\"event_queue\",\"metric\":\"%s_speedup\",\"value\":%.3f}\n",
                  row.name, row.current, row.name, ratio);
    json += line;
  }
  std::fputs(json.c_str(), stdout);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}
