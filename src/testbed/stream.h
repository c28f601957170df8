// StreamEndpoints: wires one media stream between two stations — the CTMSP transmitter and
// receiver connection state, the source (a VCA capture device or the media server's
// disk-backed source), the playout sink, and the receive-side demux — and exposes one
// per-stream accounting struct that every experiment report draws from, plus the one
// per-class sum of it (AggregateClasses) behind every class.<name>.* report row.

#ifndef SRC_TESTBED_STREAM_H_
#define SRC_TESTBED_STREAM_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dev/disk.h"
#include "src/dev/media_server.h"
#include "src/dev/media_source.h"
#include "src/dev/vca.h"
#include "src/proto/ctmsp.h"
#include "src/proto/ctmsp2.h"
#include "src/proto/recovery.h"
#include "src/testbed/station.h"

namespace ctms {

// Shared per-stream accounting, filled from whichever components the stream has.
struct StreamStats {
  uint64_t interrupts = 0;       // source device interrupts
  uint64_t built = 0;            // packets produced by the source (sent, for media streams)
  uint64_t delivered = 0;        // reached the presentation buffer
  uint64_t lost = 0;
  uint64_t duplicates = 0;
  uint64_t out_of_order = 0;
  uint64_t late_recovered = 0;   // purge losses repaired by a late retransmission
  uint64_t retransmissions = 0;
  // --- recovery families (zero on every kNone stream) ---------------------------------------
  uint64_t repaired = 0;               // losses rebuilt by FEC before the deadline
  uint64_t nacks_sent = 0;             // reverse-signalling messages the receiver emitted
  uint64_t resends = 0;                // NACK-triggered retransmissions at the source
  int64_t parity_overhead_bytes = 0;   // extra wire bytes spent on FEC parity
  uint64_t mbuf_drops = 0;       // source: failed mbuf allocations
  uint64_t queue_drops = 0;      // source: CTMSP priority-queue overflow
  uint64_t starvations = 0;      // media streams: ticks the disk had not staged a packet
  uint64_t underruns = 0;
  int64_t peak_buffered_bytes = 0;
  SimDuration mean_latency = 0;  // source interrupt to presentation
  SimDuration max_latency = 0;
  // --- per-class QoE; only filled for classed streams (media_class set in the config) ------
  std::string media_class;          // empty = legacy unclassed stream
  uint64_t deadline_misses = 0;     // delivered past the class deadline
  SimDuration starvation_time = 0;  // playout time the consumer sat starved
  double distortion = 0.0;          // class-weighted loss/late/underrun proxy
};

// One media class's QoE summed over its streams: the class.<name>.* report rows.
struct ClassQoE {
  std::string name;
  int streams = 0;
  uint64_t built = 0;
  uint64_t delivered = 0;
  uint64_t lost = 0;
  uint64_t queue_drops = 0;  // source mbuf + CTMSP-queue drops
  uint64_t deadline_misses = 0;
  uint64_t underruns = 0;
  SimDuration starvation_time = 0;  // sink playout starvation
  double deadline_miss_rate = 0.0;  // misses / delivered
  double distortion = 0.0;          // class-weighted loss/late/underrun proxy
  SimDuration mean_latency = 0;     // mean of the class's stream means
  SimDuration max_latency = 0;
  int ring_priority = -1;  // mediamix controller's final assignment; -1 when none assigns one
};

// The one writer of class rows: classed streams summed per class, in first-appearance order.
// Unclassed streams are skipped, so an unclassed run has no classes.
std::vector<ClassQoE> AggregateClasses(const std::vector<StreamStats>& streams);

class StreamEndpoints {
 public:
  struct Config {
    // Transmitter-side connection; peer of 0 is filled with the rx station's address.
    CtmspConnectionConfig connection;
    // Receiver-side connection; unset mirrors `connection`. A set value with peer 0 is
    // filled with the tx station's address (the point-to-point setup the paper uses).
    std::optional<CtmspConnectionConfig> receiver_connection;
    VcaSourceDriver::Config source;
    VcaSinkDriver::Config sink;
    // When set, the class rate model overrides the source/sink cadence fields above and the
    // utility model arms the sink's deadline/QoE accounting. Unset (all legacy callers)
    // leaves every config byte exactly as given.
    std::optional<MediaClass> media_class;
    // false drops the CTMSP layer entirely (the stock-UNIX baseline): the source delivers
    // to a process and the sink is fed by hand, so no transmitter/receiver exist and the
    // receive demux is left alone.
    bool use_ctmsp = true;
    // false leaves the rx driver's CTMSP input untouched (routers splice their own).
    bool wire_rx_input = true;
    size_t tx_port = 0;
    size_t rx_port = 0;
    // Loss-recovery family for this stream (PROTOCOL.md 2.4.3). kNone (every legacy
    // caller) constructs no engines, binds no control socket and schedules no events —
    // the stream is byte-identical to the pre-recovery build. Anything else needs
    // use_ctmsp and wire_rx_input (the engines splice into the receive demux).
    RecoveryConfig recovery;
    // UDP port of the CTMSP-2 control channel (NACK reverse signalling). Streams sharing
    // a station pair need distinct ports.
    uint16_t control_port = 7802;
  };

  // A disk-backed server stream (MediaServerSource on tx feeding a sink on rx).
  struct MediaConfig {
    CtmspConnectionConfig connection;
    MediaDisk* disk = nullptr;
    MediaServerSource::Config source;
    VcaSinkDriver::Config sink;
    // Same contract as Config::media_class, for disk-backed streams.
    std::optional<MediaClass> media_class;
    size_t tx_port = 0;
    size_t rx_port = 0;
  };

  StreamEndpoints(Station* tx, Station* rx, ProbeBus* probes, Config config);
  StreamEndpoints(Station* tx, Station* rx, ProbeBus* probes, MediaConfig config);

  StreamEndpoints(const StreamEndpoints&) = delete;
  StreamEndpoints& operator=(const StreamEndpoints&) = delete;

  // Starts the source toward `destination` (0 = the rx station's port address). Only for
  // CTMSP-direct streams; the baseline drives vca_source().Start(...) itself.
  void Start(RingAddress destination = 0);

  StreamStats Stats() const;

  Station& tx() { return *tx_; }
  Station& rx() { return *rx_; }
  CtmspTransmitter& transmitter() { return *transmitter_; }
  CtmspReceiver& receiver() { return *receiver_; }
  VcaSourceDriver& vca_source() { return *vca_source_; }
  MediaServerSource& media_source() { return *media_source_; }
  VcaSinkDriver& sink() { return *sink_; }
  const std::optional<MediaClass>& media_class() const { return media_class_; }
  // Recovery engines and the control-channel session; null on kNone streams.
  RecoveryTx* recovery_tx() { return recovery_tx_.get(); }
  RecoveryRx* recovery_rx() { return recovery_rx_.get(); }
  Ctmsp2Session* session() { return session_.get(); }
  Ctmsp2Responder* responder() { return responder_.get(); }

 private:
  void WireRecovery(const Config& config);

  Station* tx_;
  Station* rx_;
  size_t tx_port_;
  size_t rx_port_;
  std::optional<MediaClass> media_class_;
  std::unique_ptr<CtmspTransmitter> transmitter_;
  std::unique_ptr<CtmspReceiver> receiver_;
  std::unique_ptr<VcaSourceDriver> vca_source_;
  std::unique_ptr<MediaServerSource> media_source_;
  std::unique_ptr<VcaSinkDriver> sink_;
  // Declared after the receiver/sink they call into: engine destructors cancel their
  // pending timers first, so nothing fires into a half-destroyed stream.
  std::unique_ptr<RecoveryTx> recovery_tx_;
  std::unique_ptr<RecoveryRx> recovery_rx_;
  std::unique_ptr<Ctmsp2Session> session_;
  std::unique_ptr<Ctmsp2Responder> responder_;
};

// A store-and-forward hop: splices a station's in-port CTMSP receive split point straight
// into its out-port driver (the footnote-5 router, generalized to any chain position). The
// forwarding cost model follows the port drivers' configs: an in-port that copies rx DMA to
// mbufs plus a normal out-port is the robust two-copy mode; an in-port that passes the DMA
// buffer through plus a zero-copy-tx out-port is the pointer-passing mode.
class CtmspRelay {
 public:
  CtmspRelay(Station* station, size_t in_port, size_t out_port, RingAddress next_hop);

  uint64_t forwarded() const { return forwarded_; }
  // Forwarded counts keyed by MediaClassId, unclassed (0) traffic excluded; feeds the
  // class.<name>.* rows of the router/fabric reports. Empty on legacy runs.
  const std::map<uint8_t, uint64_t>& forwarded_by_class() const { return forwarded_by_class_; }

 private:
  uint64_t forwarded_ = 0;
  std::map<uint8_t, uint64_t> forwarded_by_class_;
};

// CtmspTap: terminates a station's in-port CTMSP receive split point in a caller-supplied
// callback instead of a sink or relay — the fabric bridge's capture point, where a packet
// leaves its ring shard for an inter-ring link. The tap copies the descriptor and drops the
// mbuf chain before invoking the callback (cross-shard packets are plain structs; the chain
// belongs to this shard's kernel pool and must not cross the boundary), so the callback may
// keep the packet indefinitely.
class CtmspTap {
 public:
  using Callback = std::function<void(const Packet& packet)>;

  CtmspTap(Station* station, size_t in_port, Callback callback);

  uint64_t captured() const { return captured_; }

 private:
  uint64_t captured_ = 0;
};

}  // namespace ctms

#endif  // SRC_TESTBED_STREAM_H_
