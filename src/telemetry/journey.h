// JourneyRecorder: per-packet lifecycle tracking — the simulator's answer to the paper's
// per-stage latency tables (§5), which break a packet's life down from VCA interrupt to
// ring delivery rather than reporting one end-to-end number.
//
// Every CTMSP packet is assigned a stable journey id at birth (the VCA IRQ or media-server
// read that creates it). As the packet crosses each stage boundary — mbuf allocation,
// ifqueue enqueue/dequeue, driver transmit start, adapter DMA, ring transit, rx interrupt,
// rx classification, delivery — the owning layer stamps the current SimTime against that
// id. On completion the recorder folds the per-stage deltas into always-on registry
// Summaries (`journey.stage.<name>`) and, when enabled, opt-in log2 histograms, producing
// a paper-style stage breakdown table in the run summary.
//
// A bounded flight recorder retains the last N finished journeys (completed or aborted).
// When an anomaly fires — deadline miss, drop, retransmit, reorder-evict, stall — the run
// harness dumps the ring as JSON and as SpanTracer spans on a per-packet track, so a run
// yields a post-mortem of the exact packets that went wrong.
//
// The anomalies include the trip conditions of the paper's §5.2.1 real-time harness, which
// halted every machine and took a snapshot "if a packet was lost, had an extremely long
// inter-departure or inter-arrival time, or there was an incorrect ordering of packets": a
// lost packet is `drop` (fired by the layer that loses it), incorrect ordering is
// `reorder_evict` (the receiver's sequence verdict), and the long inter-occurrence is
// `stall` (a completion more than one deadline after the previous one). The flight ring is
// the snapshot; the halt hook stops the run at the first anomaly.
//
// Determinism contract (same as the rest of telemetry): the recorder reads only SimTime
// values passed by callers, never the RNG, the scheduler, or the wall clock. Journey ids
// are handed out from a private monotonic counter. A same-seed run is bit-identical with
// the recorder on, off, or absent; when disabled, every call returns after one branch.

#ifndef SRC_TELEMETRY_JOURNEY_H_
#define SRC_TELEMETRY_JOURNEY_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/sim/time.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span_tracer.h"

namespace ctms {

// Stage boundaries in path order, source IRQ to delivery. Each stage's Summary records the
// delta from the previous *stamped* stage, so optional stages (e.g. the mbuf copy skipped
// by zero-copy transmit) drop out without distorting their neighbours.
enum class JourneyStage : int {
  kSourceIrq = 0,   // packet birth: VCA IRQ fires / media server reads a block
  kMbufAlloc,       // kernel mbuf chain allocated
  kIfqEnqueue,      // queued on the driver ifqueue
  kIfqDequeue,      // dequeued for transmit
  kDriverTxStart,   // driver issues the transmit command to the adapter
  kAdapterDma,      // adapter tx DMA finished pulling the frame onboard
  kRingTransit,     // frame delivered off the wire (token wait + serialization)
  kRxInterrupt,     // receive-side DMA complete, rx interrupt raised
  kRxClassify,      // protocol classified in the rx handler
  kDelivery,        // handed to the sink device (journey complete)
};
inline constexpr int kJourneyStageCount = 10;
const char* JourneyStageName(JourneyStage stage);

enum class JourneyAnomaly : int {
  kDeadlineMiss = 0,  // delivered, but later than the configured deadline
  kDrop,              // lost: mbuf exhaustion, ifqueue overflow, overrun, or wire loss
  kRetransmit,        // degradation policy re-sent a (presumed lost) packet
  kReorderEvict,      // receiver refused it: duplicate or outside the reorder window
  kStall,             // delivered more than one deadline after the previous delivery
};
inline constexpr int kJourneyAnomalyCount = 5;
const char* JourneyAnomalyName(JourneyAnomaly anomaly);

inline constexpr SimTime kJourneyUnstamped = -1;

struct JourneyRecord {
  uint64_t id = 0;
  uint32_t seq = 0;
  bool complete = false;
  int anomaly = -1;  // JourneyAnomaly index, or -1
  // Cross-shard provenance (fabric runs): the shard the packet was born on and the number
  // of bridge handoffs it has survived. Single-simulation runs leave both at the defaults
  // and the flight-recorder JSON omits them.
  int origin_shard = -1;
  int hops = 0;
  std::array<SimTime, kJourneyStageCount> stamps;

  JourneyRecord() { stamps.fill(kJourneyUnstamped); }
};

class JourneyRecorder {
 public:
  JourneyRecorder() = default;
  JourneyRecorder(const JourneyRecorder&) = delete;
  JourneyRecorder& operator=(const JourneyRecorder&) = delete;

  // Wired once by the owning Telemetry context.
  void Bind(MetricsRegistry* metrics, SpanTracer* tracer) {
    metrics_ = metrics;
    tracer_ = tracer;
  }

  // Registers the journey.* counters and per-stage summaries and starts assigning ids.
  // Deliberately lazy: a run that never enables journeys exports exactly the same metrics
  // JSON as before the recorder existed.
  void Enable();
  bool enabled() const { return enabled_; }

  // Flight-recorder depth: how many finished journeys the ring retains.
  void set_flight_capacity(size_t n) { flight_capacity_ = n; }
  size_t flight_capacity() const { return flight_capacity_; }

  // Opt-in per-stage log2 histograms in the breakdown table.
  void set_stage_histograms(bool on) { stage_histograms_ = on; }
  bool stage_histograms() const { return stage_histograms_; }

  // End-to-end budget; a completed journey slower than this fires kDeadlineMiss, and one
  // completing more than this after the previous completion in this recorder (any stream
  // of the simulation, not the same stream) fires kStall. 0 = off.
  void set_deadline(SimDuration deadline) { deadline_ = deadline; }
  SimDuration deadline() const { return deadline_; }

  // Starts a journey at packet birth; returns its id (0 when disabled — id 0 threads
  // through Packet/Frame as "untracked" and every later call no-ops on it).
  uint64_t Begin(uint32_t seq, SimTime at);

  // Stamps a stage boundary. Re-stamping a stage overwrites (multi-hop forwarding re-runs
  // tx stages; the final hop's timing wins and deltas stay non-negative).
  void Stamp(uint64_t id, JourneyStage stage, SimTime at);

  // Called once, at the first anomaly, the way the §5.2.1 harness halted every machine;
  // tests point it at Simulation::Stop. Unset by default.
  void set_halt_hook(std::function<void()> hook) { halt_hook_ = std::move(hook); }

  // Finishes a journey at delivery: stamps kDelivery, folds per-stage deltas into the
  // summaries/histograms, checks the deadline and the gap since the previous delivery,
  // archives into the flight ring. A late journey that also ends a stall counts under both
  // anomalies; its record carries kDeadlineMiss.
  void Complete(uint64_t id, SimTime at);

  // Finishes a journey that did not reach delivery (drop, reorder eviction). Folds the
  // stages it did traverse and archives the incomplete record.
  void Abort(uint64_t id, JourneyAnomaly why, SimTime at);

  // Records an anomaly not tied to a live journey (a retransmit builds a fresh packet, so
  // it carries no id). Counts it and arms the post-run dump.
  void NoteAnomaly(JourneyAnomaly why, SimTime at);

  // Cross-shard handoff, source side: removes the live journey from this recorder without
  // folding or archiving it and returns the record so a fabric bridge can carry it to the
  // destination shard. Returns nullopt for id 0, an unknown id, or when disabled — the
  // bridge then just forwards the packet untracked.
  std::optional<JourneyRecord> Detach(uint64_t id);

  // Cross-shard handoff, destination side: re-homes a detached record under a fresh local
  // id (returned; the bridge rewrites the packet's journey id to it), incrementing `hops`
  // and stamping kRingTransit at `at` — the instant the packet crossed the inter-ring
  // link. Stamps stay on the global timebase, so the folded per-stage deltas remain
  // end-to-end across shards. Returns 0 when disabled.
  uint64_t Adopt(JourneyRecord record, SimTime at);

  // True once any anomaly fired; the run harness uses this to auto-dump the flight ring.
  bool anomaly_fired() const { return anomaly_fired_; }

  const std::deque<JourneyRecord>& flight() const { return flight_; }
  uint64_t begun() const { return next_id_ - 1; }
  uint64_t completed() const { return completed_; }
  uint64_t aborted() const { return aborted_; }
  uint64_t anomaly_count(JourneyAnomaly why) const {
    return anomaly_counts_[static_cast<size_t>(why)];
  }

  // The paper-style stage breakdown table for the run summary (plus histograms when on).
  std::string StageBreakdown() const;

  // Flight-recorder dump: one JSON object per retained journey with absolute stage stamps.
  std::string FlightJson() const;

  // Replays the flight ring onto the span tracer, one track per retained packet, one span
  // per stage delta. No-op unless the tracer is enabled.
  void DumpToTracer();

 private:
  void Finish(uint64_t id, SimTime at, bool complete, int anomaly);
  void FoldStages(const JourneyRecord& record);
  void CountAnomaly(JourneyAnomaly why);

  MetricsRegistry* metrics_ = nullptr;
  SpanTracer* tracer_ = nullptr;
  bool enabled_ = false;
  bool stage_histograms_ = false;
  bool anomaly_fired_ = false;
  SimDuration deadline_ = 0;
  SimTime last_completion_ = kJourneyUnstamped;
  std::function<void()> halt_hook_;
  uint64_t next_id_ = 1;
  uint64_t completed_ = 0;
  uint64_t aborted_ = 0;
  size_t flight_capacity_ = 64;

  // Journeys between Begin and Complete/Abort. Keyed by id (monotonic), so the oldest
  // journey is begin() — lost packets that never reach an Abort hook are evicted from the
  // front once the map outgrows kMaxActive, bounding memory on any run length.
  static constexpr size_t kMaxActive = 8192;
  std::map<uint64_t, JourneyRecord> active_;
  std::deque<JourneyRecord> flight_;

  std::array<uint64_t, kJourneyAnomalyCount> anomaly_counts_{};
  std::array<Counter*, kJourneyAnomalyCount> anomaly_counters_{};
  std::array<Summary*, kJourneyStageCount> stage_summaries_{};
  Summary* e2e_summary_ = nullptr;
  Counter* begun_counter_ = nullptr;
  Counter* completed_counter_ = nullptr;
  Counter* aborted_counter_ = nullptr;
  Counter* evicted_counter_ = nullptr;

  // Opt-in log2-bucket histograms: bucket k holds deltas in [2^(k-1), 2^k) ns, bucket 0
  // holds exact zeros. Fixed arrays — no allocation on the stamp path.
  static constexpr int kHistogramBuckets = 40;
  std::array<std::array<uint64_t, kHistogramBuckets>, kJourneyStageCount> histograms_{};
};

}  // namespace ctms

#endif  // SRC_TELEMETRY_JOURNEY_H_
