// Typed media classes and the MediaSource interface.
//
// The paper's data-rate argument treats every stream as the same 150 KB/s video-conference
// feed; a real distributed-multimedia campus carries a mix — constant-rate voice, bursty
// compressed video, elastic bulk file transfer — and what each class needs from the network
// differs in kind, not just in rate. Following the Korrontea data model (typed media flows as
// first-class components) and Media-TCP (congestion control keyed on per-class
// distortion/deadline utility rather than raw throughput), a MediaClass descriptor carries
// both a rate model (period, mean packet size, VBR shape) and a utility model (playout
// deadline plus weights translating loss / late delivery / playout underruns into a scalar
// distortion proxy). Concrete traffic generators (VcaSourceDriver, MediaServerSource)
// implement the MediaSource interface so experiments can hold heterogeneous mixes behind one
// contract.

#ifndef SRC_DEV_MEDIA_SOURCE_H_
#define SRC_DEV_MEDIA_SOURCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/ring/frame.h"
#include "src/sim/time.h"

namespace ctms {

// Stable wire identifier for a media class. Fits the uint8_t media_class field stamped on
// Packet and Frame so relays and fabric bridges can account traffic per class without
// carrying the descriptor around. kNone marks legacy/unclassed traffic and must stay 0.
enum class MediaClassId : uint8_t {
  kNone = 0,
  kVca = 1,    // the paper's 2000-byte / 12 ms video-conference stream
  kVoice = 2,  // CBR telephony-grade audio
  kVbr = 3,    // bursty variable-bit-rate compressed video
  kBulk = 4,   // elastic file transfer riding the same transport
};

// Descriptor for one class of media traffic: how it loads the ring, and how its quality
// degrades when the ring pushes back.
struct MediaClass {
  MediaClassId id = MediaClassId::kNone;
  std::string name;  // report key: rows appear as class.<name>.*

  // --- rate model -------------------------------------------------------------------------
  SimDuration period = Milliseconds(12);
  int64_t packet_bytes = 2000;  // mean payload bytes per period
  bool vbr = false;
  int vbr_key_interval = 10;
  double vbr_key_scale = 3.0;
  // Lognormal per-packet burst factor (sigma of the underlying normal); 0 keeps the
  // deterministic key/delta cadence. Mean-one so the long-run rate is unchanged.
  double vbr_burst_sigma = 0.0;

  // --- distortion / deadline utility model ------------------------------------------------
  // Source-to-playout latency budget; a delivered packet older than this is a deadline
  // miss. 0 means elastic traffic with no playout deadline.
  SimDuration deadline = 0;
  double loss_weight = 1.0;      // distortion per lost packet
  double late_weight = 1.0;      // distortion per deadline miss
  double underrun_weight = 1.0;  // distortion per playout underrun
  // Elastic classes have no real-time utility: the quality controller parks them at the
  // lowest ring access priority so they absorb overload first.
  bool elastic = false;
  // Tie-break rank the controller uses before it has observed any distortion pressure
  // (higher = more latency-sensitive).
  int priority_hint = 0;

  int64_t RateBytesPerSecond() const;
  // Payload bytes per period for a rate override in KB/s; 0 keeps the class default.
  int64_t PacketBytesForRate(int64_t rate_kbps) const;
};

// The built-in class registry.
const std::vector<MediaClass>& AllMediaClasses();
std::optional<MediaClass> MediaClassByName(const std::string& name);
const MediaClass& MediaClassById(MediaClassId id);  // kNone for unknown ids

// One entry of a declarative workload block: "count streams of this class, optionally at an
// overridden rate". The CLI spelling is `--mix=voice:8,vbr:4,bulk:2` — entries separated by
// ',' or '+' ('+' exists because ',' already separates values inside a campaign grid axis),
// fields by ':' as name[:count[:rate_kbps]].
struct WorkloadEntry {
  std::string media_class;
  int count = 1;
  int64_t rate_kbps = 0;  // KB/s; 0 keeps the class default rate
};

// Parses a --mix spec. Returns false and sets *error on unknown classes or malformed
// fields; a count must be 1..64 and a rate 1..500 KB/s (the 4 Mbit/s ring's line rate).
bool ParseMixSpec(const std::string& spec, std::vector<WorkloadEntry>* out, std::string* error);

// Expands a workload block into one MediaClass per stream, in entry order, with any rate
// override folded into packet_bytes. This flat list is what experiments iterate to build
// their stations.
std::vector<MediaClass> ResolveWorkload(const std::vector<WorkloadEntry>& workload);

// Aggregate counters every source exposes, regardless of how it generates traffic.
struct MediaSourceStats {
  uint64_t packets = 0;      // packets handed to the transport
  int64_t bytes = 0;         // payload bytes those packets carried
  uint64_t mbuf_drops = 0;   // build-time allocation failures
  uint64_t queue_drops = 0;  // driver output-queue overflows
  uint64_t starvations = 0;  // ticks with nothing to send (disk-backed sources)
};

// The contract every traffic generator implements: start emitting toward a ring address,
// stop, and describe what class of traffic this is. Experiments hold mixes of sources
// through this interface; the quality controller reads media_class() for the utility model.
class MediaSource {
 public:
  virtual ~MediaSource() = default;

  virtual void Start(RingAddress dst) = 0;
  virtual void Stop() = 0;
  virtual const MediaClass& media_class() const = 0;
  virtual MediaSourceStats SourceStats() const = 0;
};

}  // namespace ctms

#endif  // SRC_DEV_MEDIA_SOURCE_H_
