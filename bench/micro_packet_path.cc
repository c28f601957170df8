// Self-measurement of the packet hot path: what does --journeys cost, and what did the
// zero-copy frame arena buy?
//
// Part 1 — the zero-copy swap (the PR-10 tentpole). A synthetic per-packet hot path is
// timed two ways from the same MbufPool accounting model:
//
//   legacy — what the code did before the arena: pool.Allocate, wrap the chain in a
//            std::make_shared<MbufChain> (one heap allocation per packet), carry the
//            shared_ptr through an if_snd-style deque with atomic refcount traffic at
//            every copy, drop the last reference at the transmit command.
//   arena  — what it does now: pool.Allocate + Detach into a generation-tagged arena slot,
//            carry a 16-byte PayloadRef (plain increments) through the same queue shape,
//            StampFrame onto the wire descriptor, ReleaseChain at the transmit command.
//
// Both sides charge and credit the identical pool, so the comparison isolates the carrier
// cost. The gate: arena must move >= kMinArenaSpeedup more packets/s than legacy, or this
// binary exits nonzero and check.sh fails — the perf claim is CI-enforced, not prose.
//
// Part 2 — the journey recorder, two levels, because the recorder has two prices:
//
//   micro      — a synthetic packet lifecycle (Begin, eight Stamps, Complete) driven
//                straight at a JourneyRecorder, in three variants: `bare` (the loop with no
//                recorder calls at all — the compiled-out floor), `disabled` (recorder
//                present but --journeys off: every hook is an early-return branch, the price
//                every packet always pays), and `enabled` (full recording: active map,
//                per-stage fold, flight ring).
//   experiment — the real thing: CtmsExperiment test-case B run twice from the same seed for
//                60 simulated seconds, journeys off and on, side by side in alternating
//                one-second slices, process CPU time compared. This is the number the
//                overhead budget gates on, since it includes the cache and branch effects
//                the micro loop can't see.
//
// The budget: the journeys-on run may cost at most 15% more CPU time than the same-seed
// journeys-off run (best pair of N, to damp shared-runner noise). Exceeding it makes this
// binary exit nonzero, which fails the check.sh bench stage — the recorder is not allowed to
// grow expensive silently. Each side runs for tens of milliseconds in both modes; CPU time
// leaves out the time the process spends descheduled, and the alternating slices spread a
// change of host speed over both sides, so neither reads as tens of percent.
//
// Emits the human table plus one JSON line per headline number; --json=PATH additionally
// writes the JSON lines to PATH (CI saves it as BENCH_packet_path.json). --smoke shrinks
// the other parts' counts so the run stays a few seconds on a shared runner.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/core/experiment.h"
#include "src/core/scenario_cli.h"
#include "src/kern/mbuf.h"
#include "src/kern/packet.h"
#include "src/ring/frame.h"
#include "src/sim/frame_arena.h"
#include "src/telemetry/journey.h"
#include "src/telemetry/telemetry.h"

namespace ctms {
namespace {

// CPU-time overhead budget for --journeys on a real experiment run. Documented in
// ARCHITECTURE.md ("Observability"); change both together.
constexpr double kOverheadBudgetPct = 15.0;

// Simulated length of each part-3 experiment run, in smoke and full mode alike.
constexpr int64_t kExperimentSeconds = 60;

// Minimum packets/s gain the arena path must show over the legacy shared_ptr path
// (ISSUE 10 acceptance criterion; EXPERIMENTS.md records the measured number).
constexpr double kMinArenaSpeedup = 1.5;

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

// CPU time this process has used so far, in seconds.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------------------
// Part 1: legacy shared_ptr chain carrier vs the zero-copy arena.

// The descriptor shapes the pre-arena code moved per packet: the same metadata as the real
// Packet/Frame plus the old carriers — a shared_ptr to the heap-wrapped chain on the packet,
// an annotation shared_ptr slot on the frame (embedded here the way micro_event_queue embeds
// the legacy heap+map queue — the production structs no longer have this form).
struct LegacyPacket {
  ProtocolId protocol = ProtocolId::kCtmsp;
  int64_t bytes = 0;
  uint32_t seq = 0;
  RingAddress src = 0;
  RingAddress dst = 0;
  SimTime created_at = 0;
  int mbuf_segments = 0;
  uint8_t ip_proto = 0;
  uint16_t port = 0;
  bool is_ack = false;
  uint32_t ack_seq = 0;
  uint64_t journey = 0;
  uint8_t media_class = 0;
  uint8_t ctmsp_kind = 0;
  uint32_t fec_base = 0;
  uint32_t fec_mask = 0;
  std::shared_ptr<MbufChain> chain;
};

// Mirror of the real Frame layout, with the annotation slot a pre-arena Frame carried.
struct LegacyFrame {
  uint64_t id = 0;
  FrameKind kind = FrameKind::kLlc;
  MacFrameType mac_type = MacFrameType::kNone;
  RingAddress src = 0;
  RingAddress dst = 0;
  int priority = 0;
  int reservation = 0;
  uint8_t media_class = 0;
  ProtocolId protocol = ProtocolId::kNone;
  int64_t payload_bytes = 0;
  uint32_t seq = 0;
  uint8_t ip_proto = 0;
  uint16_t port = 0;
  bool is_ack = false;
  uint32_t ack_seq = 0;
  uint8_t ctmsp_kind = 0;
  uint32_t fec_base = 0;
  uint32_t fec_mask = 0;
  uint64_t journey = 0;
  SimTime created_at = 0;
  std::shared_ptr<void> annotation;
};

// The pre-StampFrame wire boundary: hand-copied field lists, one scattered store per field
// across two different layouts — exactly what every driver did before PR 9 centralized it
// (and what PR 9's round-trip tests exist to police). The legacy side must pay this the
// same way the arena side pays StampFrame/PacketFromFrame.
void StampLegacyFrame(LegacyFrame* frame, const LegacyPacket& packet) {
  frame->dst = packet.dst;
  frame->protocol = packet.protocol;
  frame->payload_bytes = packet.bytes;
  frame->seq = packet.seq;
  frame->ip_proto = packet.ip_proto;
  frame->port = packet.port;
  frame->is_ack = packet.is_ack;
  frame->ack_seq = packet.ack_seq;
  frame->journey = packet.journey;
  frame->media_class = packet.media_class;
  frame->created_at = packet.created_at;
  frame->ctmsp_kind = packet.ctmsp_kind;
  frame->fec_base = packet.fec_base;
  frame->fec_mask = packet.fec_mask;
  // The payload rides the frame, same as StampFrame puts the PayloadRef on the wire. For
  // the chain carrier that is the annotation slot — and an atomic refcount pair.
  frame->annotation = packet.chain;
}


constexpr int64_t kBenchPacketBytes = 2000;
constexpr int kTrain = 8;  // packets pushed per queue drain, a bridge packet train

// Both paths walk the full payload-carrying journey the arena refactor created: source
// allocation (pool charge + carrier wrap), if_snd enqueue/dequeue, the stamp onto the wire
// descriptor, the adapter's insertion buffer, the bridge capture queue, and finally the
// delivery point where the last carrier reference dies and the pool is credited. That is
// the same-capability comparison: payload identity end to end (what the recovery planes
// and the flight recorder consume), implemented once with the pre-arena carrier — a heap
// shared_ptr<MbufChain> riding the frame's annotation slot, which is exactly what that
// slot carried sidecars for — and once with the arena handle. Same queue shapes, same
// scattered field stamping, same pool accounting on both sides; the only variable is the
// carrier, which pays at every hop: make_shared + an atomic refcount pair per queue copy
// versus a free-list pop + a plain increment per queue copy.
//
// Process state matters: both loops run with a worker thread parked (see main), because
// the hot path also runs multi-threaded — in campaign and faultsweep cells on the
// ParallelFor worker threads. In a single-threaded process, glibc sets
// __libc_single_threaded and libstdc++ quietly downgrades shared_ptr refcounts to plain
// increments, which would understate what the legacy carrier actually cost in a campaign
// by >2x. The arena path does not care (its refcounts are always plain).

// One iteration = kTrain packets through the journey. Returns wall-clock seconds.
double LegacyPathSeconds(uint64_t iterations) {
  MbufPool pool(256, 64);
  std::deque<LegacyPacket> ifq;       // kernel if_snd
  std::deque<LegacyFrame> adapter;    // adapter insertion buffer
  std::deque<LegacyFrame> bridge;     // bridge capture queue
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iterations; ++i) {
    for (int t = 0; t < kTrain; ++t) {
      std::optional<MbufChain> chain = pool.Allocate(kBenchPacketBytes);
      if (!chain.has_value()) {
        std::fputs("legacy pool dry\n", stderr);
        return 0.0;
      }
      LegacyPacket packet;
      packet.bytes = kBenchPacketBytes;
      packet.seq = static_cast<uint32_t>(i * kTrain + static_cast<uint64_t>(t));
      packet.mbuf_segments = chain->segments();
      packet.chain = std::make_shared<MbufChain>(std::move(*chain));
      ifq.push_back(packet);  // queue copy: atomic refcount ++/--
    }
    while (!ifq.empty()) {
      LegacyPacket packet = ifq.front();  // atomic ++
      ifq.pop_front();                    // atomic --
      LegacyFrame frame;
      StampLegacyFrame(&frame, packet);  // atomic ++ (carrier onto the wire descriptor)
      adapter.push_back(frame);          // atomic ++/-- (DMA into the insertion buffer)
    }
    while (!adapter.empty()) {
      bridge.push_back(adapter.front());  // atomic ++ (bridge captures off the ring)
      adapter.pop_front();                // atomic --
    }
    while (!bridge.empty()) {
      LegacyFrame frame = bridge.front();  // atomic ++
      bridge.pop_front();                  // atomic --
      DoNotOptimize(frame.seq);
      // Delivery: the last reference dies here; control block freed, pool credited.
      frame.annotation.reset();
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return Seconds(start, stop);
}

// The same hot path as it exists today: arena handles through the real Packet/Frame types
// and the shared StampFrame wire boundary.
double ArenaPathSeconds(uint64_t iterations) {
  MbufPool pool(256, 64);
  FrameArena arena;
  std::deque<Packet> ifq;        // kernel if_snd
  std::deque<Frame> adapter;     // adapter insertion buffer
  std::deque<Frame> bridge;      // bridge capture queue
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iterations; ++i) {
    for (int t = 0; t < kTrain; ++t) {
      std::optional<MbufChain> chain = pool.Allocate(kBenchPacketBytes);
      if (!chain.has_value()) {
        std::fputs("arena pool dry\n", stderr);
        return 0.0;
      }
      Packet packet;
      packet.bytes = kBenchPacketBytes;
      packet.seq = static_cast<uint32_t>(i * kTrain + static_cast<uint64_t>(t));
      packet.mbuf_segments = chain->segments();
      packet.payload = arena.Allocate(kBenchPacketBytes, packet.mbuf_segments, chain->Detach());
      ifq.push_back(packet);  // queue copy: plain refcount ++
    }
    while (!ifq.empty()) {
      Packet packet = ifq.front();  // plain ++
      ifq.pop_front();              // plain --
      Frame frame;
      StampFrame(&frame, packet);  // plain ++ (handle onto the wire descriptor)
      adapter.push_back(frame);    // plain ++/-- (DMA into the insertion buffer)
    }
    while (!adapter.empty()) {
      bridge.push_back(adapter.front());  // plain ++ (bridge captures off the ring)
      adapter.pop_front();                // plain --
    }
    while (!bridge.empty()) {
      Frame frame = bridge.front();  // plain ++
      bridge.pop_front();            // plain --
      DoNotOptimize(frame.seq);
      // Delivery: credit the pool and drop the last handle; the slot returns to the
      // free list for the next train.
      arena.ReleaseChain(frame.payload);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return Seconds(start, stop);
}

// ---------------------------------------------------------------------------------------
// Part 2: the journey recorder.

// The stage sequence a delivered CTMSP packet walks, as the hooks fire in the stack.
constexpr JourneyStage kPath[] = {
    JourneyStage::kMbufAlloc,   JourneyStage::kIfqEnqueue, JourneyStage::kIfqDequeue,
    JourneyStage::kDriverTxStart, JourneyStage::kAdapterDma, JourneyStage::kRingTransit,
    JourneyStage::kRxInterrupt, JourneyStage::kRxClassify,
};

// One synthetic packet lifecycle per iteration against `recorder` (enabled or not).
// Returns ns per lifecycle.
double RunRecorderLoop(JourneyRecorder& recorder, uint64_t iterations) {
  uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iterations; ++i) {
    SimTime now = static_cast<SimTime>(i) * 12'000'000;
    const uint64_t id = recorder.Begin(static_cast<uint32_t>(i), now);
    for (const JourneyStage stage : kPath) {
      now += 500'000;  // 500 us per stage, a plausible CTMS hop
      recorder.Stamp(id, stage, now);
    }
    recorder.Complete(id, now + 500'000);
    DoNotOptimize(id);
  }
  const auto stop = std::chrono::steady_clock::now();
  DoNotOptimize(sink);
  return Seconds(start, stop) * 1e9 / static_cast<double>(iterations);
}

// The same loop with the recorder calls removed — the compiled-out floor. The previous
// "impossible sink" version was eliminated entirely by the optimizer (committed
// bare_ns_per_packet: 0.0); DoNotOptimize forces `now` to be materialized per stage, and
// the caller wraps this in MeasureAtLeast so the result is never below clock resolution.
double BareLoopSeconds(uint64_t iterations) {
  uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iterations; ++i) {
    SimTime now = static_cast<SimTime>(i) * 12'000'000;
    for (size_t s = 0; s < sizeof(kPath) / sizeof(kPath[0]); ++s) {
      now += 500'000;
      DoNotOptimize(now);
      sink += static_cast<uint64_t>(now) & 1;
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  DoNotOptimize(sink);
  return Seconds(start, stop);
}

// One pair: test-case B built twice from the same seed, journeys off and on, and run side
// by side in one-simulated-second slices that alternate which side goes first. Each side's
// build, slices and report are timed in process CPU time and summed into *off_s / *on_s. A
// shift of host speed, which can land between two whole runs, then weighs on both sides
// alike. The report numbers must not depend on `journeys` —
// GoldenEquivalence.JourneysOnOffReportsIdentical pins that; here we only time it.
void RunPairOnce(int64_t duration_s, double* off_s, double* on_s) {
  ScenarioConfig cli;
  cli.scenario = "B";
  cli.duration_s = duration_s;
  cli.seed = 3;
  const CtmsConfig config = CtmsConfigFrom(cli);
  std::unique_ptr<CtmsExperiment> experiments[2];
  double spent[2] = {0.0, 0.0};
  for (int side = 0; side < 2; ++side) {
    const double start = ProcessCpuSeconds();
    experiments[side] = std::make_unique<CtmsExperiment>(config);
    cli.journeys = side == 1;
    ConfigureJourneys(cli, &experiments[side]->sim().telemetry().journeys);  // as --journeys
    experiments[side]->Start();
    spent[side] += ProcessCpuSeconds() - start;
  }
  for (int64_t second = 1; second <= duration_s; ++second) {
    for (int k = 0; k < 2; ++k) {
      const int side = static_cast<int>((second + k) % 2);
      const double start = ProcessCpuSeconds();
      experiments[side]->sim().RunUntil(ctms::Seconds(second));
      spent[side] += ProcessCpuSeconds() - start;
    }
  }
  for (int side = 0; side < 2; ++side) {
    const double start = ProcessCpuSeconds();
    const ExperimentReport report = experiments[side]->Report();
    spent[side] += ProcessCpuSeconds() - start;
    if (report.packets_built == 0) {
      std::fputs("experiment produced no packets\n", stderr);
    }
  }
  *off_s = spent[0];
  *on_s = spent[1];
}

// Paired best-of-N CPU time: the pair with the fastest combined time wins, a consistent
// snapshot of one machine state. Independent minima would compare an off sample from a
// fast state against an on sample from a slow one (or vice versa) and make the overhead
// gate flake on a shared runner.
void BestPair(int reps, int64_t duration_s, double* off_s, double* on_s) {
  double best_pair = 1e99;
  for (int i = 0; i < reps; ++i) {
    double off_rep = 0.0;
    double on_rep = 0.0;
    RunPairOnce(duration_s, &off_rep, &on_rep);
    std::fprintf(stderr, "  part3 rep %d: off %.1f on %.1f ms (overhead %.1f%%)\n", i,
                 off_rep * 1e3, on_rep * 1e3, (on_rep / off_rep - 1.0) * 100.0);
    if (off_rep + on_rep < best_pair) {
      best_pair = off_rep + on_rep;
      *off_s = off_rep;
      *on_s = on_rep;
    }
  }
}

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
  const uint64_t loop_n = smoke ? 200'000 : 2'000'000;
  const int reps = smoke ? 2 : 3;

  PrintHeader("micro_packet_path — zero-copy arena gain + journey recorder overhead gate");

  // Part 1: legacy shared_ptr carrier vs the arena handle, identical pool accounting.
  // A parked worker thread reproduces a campaign's process state (worker threads alive), so
  // the shared_ptr side pays the atomic refcounts it really pays there — see the comment on
  // LegacyPathSeconds.
  const uint64_t train_iters = loop_n / (kTrain * 4);
  double legacy_ns = 0.0;
  double arena_ns = 0.0;
  {
    std::mutex pool_mutex;
    std::condition_variable pool_cv;
    bool pool_stop = false;
    std::thread pool_thread([&] {
      std::unique_lock<std::mutex> lock(pool_mutex);
      pool_cv.wait(lock, [&] { return pool_stop; });
    });
    // Paired best-of-N: on a shared machine each sample swings tens of percent (frequency
    // scaling, neighbors), but a legacy/arena pair measured back to back sits in the same
    // machine state, so the pair with the fastest combined time is a consistent snapshot.
    // Judging the gate on independent minima would compare samples from different states.
    double best_pair = 1e99;
    for (int rep = 0; rep < reps + 1; ++rep) {
      const double legacy_rep =
          MeasureAtLeast([](uint64_t n) { return LegacyPathSeconds(n); }, train_iters) / kTrain;
      const double arena_rep =
          MeasureAtLeast([](uint64_t n) { return ArenaPathSeconds(n); }, train_iters) / kTrain;
      std::fprintf(stderr, "  part1 rep %d: legacy %.1f arena %.1f ns/packet (ratio %.2f)\n",
                   rep, legacy_rep, arena_rep, legacy_rep / arena_rep);
      if (legacy_rep + arena_rep < best_pair) {
        best_pair = legacy_rep + arena_rep;
        legacy_ns = legacy_rep;
        arena_ns = arena_rep;
      }
    }
    {
      std::lock_guard<std::mutex> lock(pool_mutex);
      pool_stop = true;
    }
    pool_cv.notify_one();
    pool_thread.join();
  }
  const double legacy_pps = 1e9 / legacy_ns;
  const double arena_pps = 1e9 / arena_ns;
  const double speedup = legacy_ns / arena_ns;
  std::printf("  %-26s %10.1f ns/packet   (%.2fM packets/s)\n", "legacy shared_ptr path",
              legacy_ns, legacy_pps / 1e6);
  std::printf("  %-26s %10.1f ns/packet   (%.2fM packets/s)\n", "arena handle path",
              arena_ns, arena_pps / 1e6);
  std::printf("  %-26s %10.2f x           (gate: >= %.1fx)\n", "zero-copy speedup", speedup,
              kMinArenaSpeedup);

  // Part 2 micro level: ns per packet lifecycle through the hooks.
  const double bare_ns = MeasureAtLeast([](uint64_t n) { return BareLoopSeconds(n); }, loop_n);
  Telemetry off_telemetry;  // recorder bound but never enabled: the always-on price
  const double disabled_ns = RunRecorderLoop(off_telemetry.journeys, loop_n);
  Telemetry on_telemetry;
  on_telemetry.journeys.Enable();
  const double enabled_ns = RunRecorderLoop(on_telemetry.journeys, loop_n);
  std::printf("  %-26s %10.1f ns/packet   (loop without recorder calls)\n", "bare",
              bare_ns);
  std::printf("  %-26s %10.1f ns/packet   (--journeys off: early-return hooks)\n",
              "recorder disabled", disabled_ns);
  std::printf("  %-26s %10.1f ns/journey  (--journeys on: full recording)\n",
              "recorder enabled", enabled_ns);

  // Experiment level: same-seed test-case B CPU time, off vs on.
  double off_s = 0.0;
  double on_s = 0.0;
  BestPair(reps + 1, kExperimentSeconds, &off_s, &on_s);
  const double overhead_pct = (on_s / off_s - 1.0) * 100.0;
  std::printf("  %-26s %10.1f ms CPU      (test-case B, %llds sim, best of %d)\n",
              "experiment journeys off", off_s * 1e3,
              static_cast<long long>(kExperimentSeconds), reps + 1);
  std::printf("  %-26s %10.1f ms CPU\n", "experiment journeys on", on_s * 1e3);
  std::printf("  %-26s %10.1f %%           (budget %.0f%%)\n", "CPU-time overhead",
              overhead_pct, kOverheadBudgetPct);

  std::string json;
  char line[2048];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"packet_path\",\"metric\":\"legacy_ns_per_packet\",\"value\":%.1f}\n"
      "{\"bench\":\"packet_path\",\"metric\":\"arena_ns_per_packet\",\"value\":%.1f}\n"
      "{\"bench\":\"packet_path\",\"metric\":\"legacy_packets_per_sec\",\"value\":%.0f}\n"
      "{\"bench\":\"packet_path\",\"metric\":\"arena_packets_per_sec\",\"value\":%.0f}\n"
      "{\"bench\":\"packet_path\",\"metric\":\"arena_speedup_x\",\"value\":%.3f}\n"
      "{\"bench\":\"packet_path\",\"metric\":\"bare_ns_per_packet\",\"value\":%.1f}\n"
      "{\"bench\":\"packet_path\",\"metric\":\"disabled_ns_per_packet\",\"value\":%.1f}\n"
      "{\"bench\":\"packet_path\",\"metric\":\"enabled_ns_per_journey\",\"value\":%.1f}\n"
      "{\"bench\":\"packet_path\",\"metric\":\"experiment_off_ms\",\"value\":%.2f}\n"
      "{\"bench\":\"packet_path\",\"metric\":\"experiment_on_ms\",\"value\":%.2f}\n"
      "{\"bench\":\"packet_path\",\"metric\":\"overhead_pct\",\"value\":%.2f}\n"
      "{\"bench\":\"packet_path\",\"metric\":\"overhead_budget_pct\",\"value\":%.1f}\n",
      legacy_ns, arena_ns, legacy_pps, arena_pps, speedup, bare_ns, disabled_ns, enabled_ns,
      off_s * 1e3, on_s * 1e3, overhead_pct, kOverheadBudgetPct);
  json = line;
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
  if (overhead_pct > kOverheadBudgetPct) {
    std::fprintf(stderr,
                 "FAIL: --journeys CPU-time overhead %.2f%% exceeds the %.0f%% budget\n",
                 overhead_pct, kOverheadBudgetPct);
    return 1;
  }
  if (speedup < kMinArenaSpeedup) {
    std::fprintf(stderr, "FAIL: arena speedup %.2fx is below the %.1fx gate\n", speedup,
                 kMinArenaSpeedup);
    return 1;
  }
  if (bare_ns <= 0.0) {
    std::fputs("FAIL: bare loop timed at 0 ns/packet — sink optimized away again\n", stderr);
    return 1;
  }
  return 0;
}
