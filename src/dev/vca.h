// The Voice Communications Adapter (VCA) — the paper's source of CTMS data (section 5.1) —
// and its presentation-side counterpart.
//
// Source side: the adapter's DSP interrupts the host every 12 ms with no measurable drift
// (the paper verified +/-500 ns with an oscilloscope). The modified interrupt handler builds
// a CTMSP packet — allocates an mbuf chain, copies in the precomputed Token Ring header, a
// destination device number and a packet number, optionally copies real device data across
// the byte-wide card interface — and hands it directly to the modified Token Ring driver
// (the direct driver-to-driver transfer of section 2). A stock mode instead delivers the
// data to a user-level relay process, reproducing the unmodified UNIX path.
//
// Sink side: receives CTMSP packets from the Token Ring driver (in mbufs or still in the
// fixed DMA buffer), deduplicates via the CTMSP connection state, optionally copies the data
// into the VCA device buffer, and models continuous playout: a consumer drains bytes at the
// stream rate and counts underruns ("discernible glitches").

#ifndef SRC_DEV_VCA_H_
#define SRC_DEV_VCA_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "src/dev/media_source.h"
#include "src/dev/tr_driver.h"
#include "src/kern/packet.h"
#include "src/kern/unix_kernel.h"
#include "src/measure/histogram.h"
#include "src/measure/probe.h"
#include "src/proto/ctmsp.h"
#include "src/proto/recovery.h"
#include "src/sim/rng.h"

namespace ctms {

class VcaSourceDriver {
 public:
  enum class OutputMode {
    kCtmspDirect,       // modified path: build CTMSP packet in the interrupt handler
    kDeliverToProcess,  // stock path: hand the data to a user-level relay
  };

  // Where (if anywhere) the media is compressed before transport. The paper's footnote 3
  // observes that the byte-wide audio adapter only makes sense if "the audio data would be
  // compressed in software on the adapter" — i.e. on the card's DSP. The alternative is a
  // software codec on the host CPU, which a 1991 machine can barely afford.
  enum class CompressionSite {
    kNone,  // ship raw media
    kHost,  // software codec in the handler: CPU cost per raw byte
    kDsp,   // the card's TI DSP compresses before the host ever touches the data
  };

  struct Config {
    SimDuration period = Milliseconds(12);
    // Hardware jitter of the interrupt source; the paper bounds it at ~500 ns.
    SimDuration irq_jitter_sigma = Nanoseconds(120);
    int64_t packet_bytes = 2000;
    // Handler work before any copying: mbuf allocation, header + packet number stores.
    SimDuration build_cost = Microseconds(250);
    // Copy real device data across the byte-wide (16-bit) card interface into the mbufs
    // ("transmitter copies data from the VCA device buffer to mbufs", section 5.3).
    bool copy_device_data = false;
    int64_t device_bytes = 144;  // 12 ms of real 8 kHz 12-bit audio
    SimDuration pio_per_byte = Microseconds(2);

    // --- compression (footnote 3) ---------------------------------------------------------
    CompressionSite compression = CompressionSite::kNone;
    int compression_ratio = 4;  // transported bytes = packet_bytes / ratio
    // Software codec cost on the host, per raw byte (an ADPCM-class coder on an RT/PC).
    SimDuration host_compress_per_byte = Nanoseconds(1500);

    // --- variable bit rate ----------------------------------------------------------------
    // Compressed video is not constant-rate: key frames are large, delta frames small.
    // Every `vbr_key_interval`-th packet carries `vbr_key_scale` x the mean, the rest are
    // scaled down so the average rate stays at packet_bytes per period.
    bool vbr = false;
    int vbr_key_interval = 10;
    double vbr_key_scale = 3.0;
    // Per-packet lognormal burst factor on top of the key/delta cadence (sigma of the
    // underlying normal, mean-one so the long-run rate holds); 0 = fully deterministic
    // sizes, which is what every legacy configuration uses.
    double vbr_burst_sigma = 0.0;
  };

  // Bytes the `n`-th packet puts on the wire under this config (after VBR and compression).
  static int64_t WirePacketBytes(const Config& config, uint32_t n);

  VcaSourceDriver(UnixKernel* kernel, TokenRingDriver* tr_driver, ProbeBus* probes,
                  CtmspTransmitter* connection, Config config);

  // Starts the 12 ms interrupt stream. In kDeliverToProcess mode `deliver` receives the
  // packet at the end of the stock handler instead of the Token Ring driver.
  void Start(OutputMode mode, RingAddress dst,
             std::function<void(const Packet&)> deliver = nullptr);
  void Stop();

  // Adopts a class descriptor: packets are stamped with its id and the rate-model fields
  // (period, sizes, VBR shape) are applied to the config. Never called on legacy paths, so
  // the default (unclassed, config untouched) is bit-identical to seed.
  void AdoptMediaClass(const MediaClass& media_class);

  // --- recovery hook ----------------------------------------------------------------------
  // Attaches the transmit-side recovery engine (PROTOCOL.md 2.4.3). Null (every legacy
  // path) leaves the handler byte-identical to the pre-recovery build. With FEC enabled,
  // the interrupt that produces a group's closing packet grows one extra step: XOR the
  // group on the host CPU (parity_build_cost) and hand the parity packet to the driver.
  void SetRecoveryTx(RecoveryTx* recovery) { recovery_tx_ = recovery; }

  // --- fault-injection hook ---------------------------------------------------------------
  // Wedges the card's DSP for `duration`: the 12 ms grid keeps running but no interrupt
  // reaches the host, so no packet is built (a silence gap at the source, distinct from any
  // transport loss). Extends an already-active stall. Only the fault injector calls this.
  void InjectStall(SimDuration duration);
  bool stalled() const { return kernel_->sim()->Now() < stalled_until_; }

  uint64_t interrupts() const { return interrupts_; }
  uint64_t packets_built() const { return packets_built_; }
  int64_t bytes_built() const { return bytes_built_; }
  uint64_t mbuf_drops() const { return mbuf_drops_; }
  uint64_t queue_drops() const { return queue_drops_; }
  uint64_t stall_missed_irqs() const { return stall_missed_irqs_; }

 private:
  void OnIrq();

  UnixKernel* kernel_;
  TokenRingDriver* tr_driver_;
  ProbeBus* probes_;
  CtmspTransmitter* connection_;
  Config config_;
  Rng rng_;  // IRQ jitter and VBR burst sizes, forked at construction

  OutputMode mode_ = OutputMode::kCtmspDirect;
  RecoveryTx* recovery_tx_ = nullptr;
  MediaClass media_class_;  // default: unclassed (id kNone)
  RingAddress dst_ = 0;
  std::function<void(const Packet&)> deliver_;
  std::function<void()> cancel_;

  SimTime stalled_until_ = 0;

  uint64_t interrupts_ = 0;
  uint64_t packets_built_ = 0;
  int64_t bytes_built_ = 0;
  uint64_t mbuf_drops_ = 0;
  uint64_t queue_drops_ = 0;
  uint64_t stall_missed_irqs_ = 0;

  // Cached telemetry slots (driver.vca.<machine>.*).
  Counter* interrupts_counter_;
  Counter* packets_built_counter_;
  Counter* mbuf_drops_counter_;
  Counter* queue_drops_counter_;
};

class VcaSinkDriver {
 public:
  struct Config {
    // Examine the packet header / sequence bookkeeping.
    SimDuration examine_cost = Microseconds(90);
    // Copy payload into the VCA device buffer ("receiver copies data out of mbufs into the
    // VCA device buffer"); false models the measurement configuration that drops the data.
    bool copy_to_device = true;
    SimDuration device_copy_per_byte = Microseconds(1);  // 16-bit card interface
    // Playout model: bytes consumed per period once primed.
    SimDuration playout_period = Milliseconds(12);
    int64_t playout_bytes = 2000;
    int prime_packets = 3;  // jitter buffer: packets buffered before playout starts
    // Adaptive jitter buffer (a CTMSP-protocol design experiment, see DESIGN.md): start at
    // prime_packets; on an underrun, stop playout, grow the target by the observed deficit,
    // and re-prime. Converges to the section-6 buffer budget without provisioning for the
    // worst case up front. Each growth event is a "rebuffer" (one audible interruption).
    bool adaptive = false;
    int max_prime_packets = 16;
    // Playout re-sync: when a stall ends and the backlog floods in, data beyond
    // target+slack packets is late audio nobody wants — skip it to return to the target
    // latency (counted; each skip is also audible, but bounded, unlike carrying the delay
    // forever).
    int skip_slack_packets = 2;
    // --- per-class QoE (MediaClass utility model) -------------------------------------------
    // Source-to-sink latency budget; a delivered packet older than this counts as a deadline
    // miss. 0 (all legacy configurations) disables the check entirely.
    SimDuration deadline = 0;
    // Class name for the qoe.<class>.<machine>.* telemetry; empty (legacy) registers none.
    std::string media_class;
  };

  // `connection` may be null (stock-path use): sequence bookkeeping is skipped and every
  // packet is accepted.
  VcaSinkDriver(UnixKernel* kernel, CtmspReceiver* connection, Config config);

  // Wire this to TokenRingDriver::SetCtmspInput.
  void OnCtmspDeliver(const Packet& packet, bool in_dma_buffer, std::function<void()> release);

  // A recovery engine rebuilt a packet that never arrived (FEC repair). Present it like
  // an accepted delivery — examine + device-copy cost, latency from the reconstructed
  // birth stamp, playout enqueue — minus what a reconstruction cannot have: there is no
  // buffer to release and no journey (the lost packet's journey already ended in a drop).
  // The caller has done the sequence accounting (CtmspReceiver::OnRepaired) first.
  void DeliverRepaired(int64_t bytes, SimTime created_at);

  // Playout statistics (the "no discernible glitches" criterion).
  uint64_t packets_accepted() const { return packets_accepted_; }
  uint64_t underruns() const { return underruns_; }
  // Per-class QoE: delivered packets that blew the class deadline, and total playout time
  // the consumer spent starved (the deficit fraction of each underrun period).
  uint64_t deadline_misses() const { return deadline_misses_; }
  SimDuration starvation_time() const { return starvation_time_; }
  // Adaptive mode: growth events and the converged target depth.
  uint64_t rebuffers() const { return rebuffers_; }
  int target_packets() const { return target_packets_; }
  uint64_t skipped_packets() const { return skipped_packets_; }
  // Time-averaged buffer occupancy (the latency the jitter buffer itself adds).
  double MeanBufferedBytes() const;
  int64_t buffered_bytes() const { return buffered_bytes_; }
  int64_t peak_buffered_bytes() const { return peak_buffered_bytes_; }
  bool playout_started() const { return playout_started_; }
  // Source-device-to-sink latency of every accepted packet.
  const Histogram& latency() const { return latency_; }
  void StopPlayout();

 private:
  void EnqueuePlayout(int64_t bytes);
  void PlayoutTick();
  void UpdateOccupancyIntegral();

  UnixKernel* kernel_;
  CtmspReceiver* connection_;
  Config config_;

  std::deque<int64_t> buffer_;
  int64_t buffered_bytes_ = 0;
  int64_t peak_buffered_bytes_ = 0;
  bool playout_started_ = false;
  std::function<void()> playout_cancel_;
  int target_packets_ = 0;  // set from config at first use
  bool rebuffering_ = false;
  SimTime last_enqueue_at_ = 0;

  uint64_t packets_accepted_ = 0;
  uint64_t underruns_ = 0;
  uint64_t rebuffers_ = 0;
  uint64_t skipped_packets_ = 0;
  uint64_t deadline_misses_ = 0;
  SimDuration starvation_time_ = 0;

  // Cached telemetry slots (driver.vca.<machine>.*).
  Counter* packets_accepted_counter_;
  Counter* underruns_counter_;
  Counter* rebuffers_counter_;
  Counter* skipped_counter_;
  // Registered only for classed sinks (qoe.<class>.<machine>.*); null on legacy paths.
  Counter* deadline_misses_counter_ = nullptr;
  Counter* starvation_ns_counter_ = nullptr;
  // Occupancy integral for MeanBufferedBytes: sum of buffered_bytes * dt.
  double occupancy_integral_ = 0.0;
  SimTime occupancy_last_update_ = 0;
  Histogram latency_{"sink end-to-end latency"};
};

}  // namespace ctms

#endif  // SRC_DEV_VCA_H_
