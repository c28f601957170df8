// The Token Ring device driver — stock 4.3BSD behaviour plus every modification the paper
// made to it (sections 3 and 4):
//
//   - a CTMSP transmit queue with priority over the ARP/IP if_snd queue,
//   - ring access priority for CTMSP frames,
//   - the split-out Token Ring header computation, precomputed once per CTMSP connection
//     (the stock path recomputes it per packet — IpLayer charges that),
//   - the receive split point extended to peel off CTMSP packets ahead of ARP and IP,
//   - driver-to-driver delivery: a CTMSP packet can be handed to the destination device
//     while still sitting in the fixed receive DMA buffer (zero CPU copies in the driver),
//   - fixed DMA buffers placed in IO Channel Memory or system memory (adapter config),
//   - strict transmit serialization: one packet is sent completely before the next starts,
//     which is what preserves CTMSP packet order without sequence-number reshuffling,
//   - optional MAC-receive mode to detect Ring Purges (costly, off by default — section 4).

#ifndef SRC_DEV_TR_DRIVER_H_
#define SRC_DEV_TR_DRIVER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/kern/ifqueue.h"
#include "src/kern/packet.h"
#include "src/kern/unix_kernel.h"
#include "src/measure/probe.h"
#include "src/proto/netif.h"
#include "src/ring/adapter.h"

namespace ctms {

class TokenRingDriver : public NetIf {
 public:
  struct Config {
    // CTMS modifications enabled (priority queue, split point, precomputed headers).
    bool ctms_mode = false;
    // Serve the CTMSP queue ahead of if_snd (section 5.3's "priority within the driver").
    bool driver_priority = true;
    // Ring access priority for CTMSP frames; 0 means "same level as all other packets".
    int ctmsp_ring_priority = 6;

    // --- cost model (calibrated against the paper's figures; see DESIGN.md) -------------
    // if_start bookkeeping before the copy. The driver's send entry is modelled as its own
    // interrupt job, so the CPU's dispatch cost (40 us) is paid on entry; together they make
    // the ~60 us of driver code ahead of the copy.
    SimDuration tx_start_overhead = Microseconds(20);
    SimDuration tx_command_cost = Microseconds(25);     // giving the adapter 'transmit'
    SimDuration tx_complete_cost = Microseconds(40);    // transmit-complete interrupt work
    SimDuration rx_entry_cost = Microseconds(155);      // handler entry to the split point
    SimDuration classify_cost = Microseconds(57);       // the "shortest possible test"
    SimDuration header_compute_cost = Microseconds(180);  // TR header computation (split out)
    SimDuration mbuf_alloc_cost = Microseconds(80);     // chain allocation in rx path
    SimDuration mac_parse_cost = Microseconds(80);      // per MAC frame in purge-detect mode

    int snd_queue_limit = kIfqMaxlenDefault;
    int ctmsp_queue_limit = kIfqMaxlenDefault;
    int ipintr_queue_limit = kIfqMaxlenDefault;

    // Receiver copies CTMSP header+data out of the fixed DMA buffer into mbufs before
    // delivery (Test A/B do); false = examine the packet in the DMA buffer (the paper's
    // proposed further step).
    bool rx_copy_ctmsp_to_mbufs = true;

    // The paper's section-2 extension, implemented: "transferring pointers to DMA buffers
    // between the two devices". The transmit path hands the adapter a pointer to the mbuf
    // cluster instead of copying into the fixed DMA buffer; only a descriptor flip is paid.
    bool zero_copy_tx = false;
    SimDuration zero_copy_flip_cost = Microseconds(35);
  };

  TokenRingDriver(UnixKernel* kernel, TokenRingAdapter* adapter, ProbeBus* probes,
                  Config config);

  // --- NetIf (the stock ARP/IP output path) ----------------------------------------------
  RingAddress address() const override { return adapter_->address(); }
  bool Output(const Packet& packet) override;

  // --- CTMS output path -------------------------------------------------------------------
  // Called from the source device's interrupt handler (driver-to-driver). The packet's
  // Token Ring header must have been precomputed (HeaderComputeCost charged at setup).
  // Returns false on a CTMSP queue drop.
  bool OutputCtmsp(const Packet& packet);

  // ioctl: computes the Token Ring header once for a static connection; the returned cost
  // is charged by the caller at setup time, not per packet.
  SimDuration HeaderComputeCost() const { return config_.header_compute_cost; }

  // Purge recovery: retransmits the packet still sitting in the fixed DMA buffer. Goes to
  // the HEAD of the CTMSP queue so sequence order is preserved on the wire.
  void RetransmitCtmsp(uint32_t seq, int64_t bytes);

  // --- receive demux (the split point) ------------------------------------------------------
  void SetIpInput(std::function<void(const Packet&)> handler) { ip_input_ = std::move(handler); }
  void SetArpInput(std::function<void(const Packet&)> handler) {
    arp_input_ = std::move(handler);
  }
  // CTMSP delivery. `in_dma_buffer` is true when the packet is handed over while still in
  // the fixed DMA buffer; the consumer must then call `release` when done with the buffer.
  using CtmspInput = std::function<void(const Packet& packet, bool in_dma_buffer,
                                        std::function<void()> release)>;
  void SetCtmspInput(CtmspInput handler) { ctmsp_input_ = std::move(handler); }

  // Invoked (in interrupt context) when a CTMSP packet is handed to the adapter — the
  // moment it becomes "the last packet that is still in the fixed DMA buffer", which the
  // purge-recovery option retransmits.
  void SetCtmspTransmitNotify(std::function<void(uint32_t seq, int64_t bytes)> notify) {
    ctmsp_tx_notify_ = std::move(notify);
  }

  // --- purge detection (MAC-receive mode) -------------------------------------------------
  // Puts the adapter into MAC-frame reception and calls `on_purge` (in interrupt context)
  // for every Ring Purge seen. Every MAC frame now costs an interrupt plus parsing — the
  // overhead the paper judged unacceptable; the T-mac bench quantifies it.
  void EnablePurgeDetect(std::function<void()> on_purge);

  // --- CTMSP degradation hook ---------------------------------------------------------------
  // Invoked (inside the transmit-complete interrupt, before the next packet is started) when
  // a CTMSP packet failed on the wire: the frame-status bits the transmitter reads at
  // interrupt level showed the destination did not copy it. The handler may call
  // RetransmitCtmsp — a requeue to the head lands before StartNextTx picks the next packet,
  // so an immediate retry preserves sequence order. Not installed = the stock behaviour:
  // the loss is accepted silently (the paper's default).
  using CtmspFailureHandler = std::function<void(TxStatus status, uint32_t seq, int64_t bytes)>;
  void SetCtmspFailureHandler(CtmspFailureHandler handler) {
    ctmsp_failure_ = std::move(handler);
  }

  // --- fault-injection hook -----------------------------------------------------------------
  // Freezes the transmit scheduler (StartNextTx) for `duration`: queues keep filling but no
  // packet is handed to the adapter until the freeze lifts (a wedged driver, distinct from a
  // wedged card). Only the fault injector calls this.
  void InjectTxFreeze(SimDuration duration);
  bool tx_frozen() const;

  // --- statistics --------------------------------------------------------------------------
  uint64_t ctmsp_tx() const { return ctmsp_tx_; }
  uint64_t mac_interrupts() const { return mac_interrupts_; }
  uint64_t retransmit_requests() const { return retransmit_requests_; }
  const IfQueue& ctmsp_queue() const { return ctmsp_q_; }
  const IfQueue& snd_queue() const { return snd_q_; }
  const IfQueue& ipintr_queue() const { return ipintr_q_; }
  TokenRingAdapter* adapter() { return adapter_; }
  const Config& config() const { return config_; }
  // Runtime knob for the quality controller: changes the ring access priority stamped on
  // CTMSP frames from the next dequeued packet onward (queued packets read it at transmit
  // time, so a demotion takes effect within one service round).
  void set_ctmsp_ring_priority(int priority) { config_.ctmsp_ring_priority = priority; }

 private:
  void StartNextTx();
  void TransmitPacket(Packet packet, bool is_ctmsp);
  void OnTxComplete(TxStatus status);
  void OnRxDmaComplete(const Frame& frame);
  void DrainIpintr();

  UnixKernel* kernel_;
  TokenRingAdapter* adapter_;
  ProbeBus* probes_;
  Config config_;

  IfQueue ctmsp_q_;
  IfQueue snd_q_;
  IfQueue ipintr_q_;
  bool ipintr_scheduled_ = false;
  bool tx_in_progress_ = false;
  SimTime tx_frozen_until_ = 0;
  bool freeze_resume_scheduled_ = false;
  // The packet currently at the adapter, remembered for the degradation hook.
  bool inflight_is_ctmsp_ = false;
  uint32_t inflight_seq_ = 0;
  int64_t inflight_bytes_ = 0;

  CtmspFailureHandler ctmsp_failure_;
  std::function<void(uint32_t, int64_t)> ctmsp_tx_notify_;
  std::function<void(const Packet&)> ip_input_;
  std::function<void(const Packet&)> arp_input_;
  CtmspInput ctmsp_input_;
  std::function<void()> on_purge_;

  RingAddress last_ctmsp_dst_ = 0;
  uint64_t retransmit_requests_ = 0;
  uint64_t ctmsp_tx_ = 0;
  uint64_t mac_interrupts_ = 0;

  // Cached telemetry slots (driver.tr.<machine>.*) and the driver's tracer track.
  Counter* ctmsp_tx_counter_;
  Counter* stock_tx_counter_;
  Counter* rx_ctmsp_counter_;
  Counter* rx_ip_counter_;
  Counter* rx_arp_counter_;
  Counter* mac_interrupts_counter_;
  Counter* retransmits_counter_;
  TrackId track_ = kInvalidTrackId;
};

}  // namespace ctms

#endif  // SRC_DEV_TR_DRIVER_H_
