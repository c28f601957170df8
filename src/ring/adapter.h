// Token Ring adapter hardware model.
//
// The adapter is pure hardware timing: it DMAs between its card buffers and the host's fixed
// DMA buffers (whose memory kind — system vs IO Channel — is the paper's section-4 knob),
// transmits via the ring medium, and signals completion events. Device-driver CPU work (the
// interrupt handlers, copies into mbufs, the CTMSP split point) lives in src/dev; the
// adapter invokes driver callbacks at hardware-event times and the driver schedules its own
// CPU jobs from there.
//
// Faithful quirks carried over from the paper's adapter:
//   - it does NOT interrupt the host when a Ring Purge occurs (section 4);
//   - receiving MAC frames at the host is an opt-in mode with real interrupt cost, used only
//     to evaluate how expensive purge detection would be;
//   - the transmitter learns at interrupt level whether the destination copied the frame
//     (same-ring acknowledgment bits), which CTMSP exploits instead of TCP-style acks.

#ifndef SRC_RING_ADAPTER_H_
#define SRC_RING_ADAPTER_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "src/hw/dma.h"
#include "src/hw/machine.h"
#include "src/hw/memory.h"
#include "src/ring/frame.h"
#include "src/ring/token_ring.h"
#include "src/sim/rng.h"

namespace ctms {

class TokenRingAdapter {
 public:
  struct Config {
    // Where the host-side fixed DMA buffers live (section 4's modification).
    MemoryKind dma_buffer_kind = MemoryKind::kSystemMemory;
    // Frames the card can hold while waiting for host DMA; arrivals beyond this are lost
    // (receiver overrun — the stock path's failure mode under CPU saturation). The IBM
    // 16/4 adapter carried tens of KB of onboard RAM; eight 2 KB-class frames is modest.
    int onboard_rx_slots = 8;
    // Fixed receive DMA buffers in host memory; the driver must release one after copying
    // the packet out (or consuming it in place).
    int host_rx_buffers = 2;
    // Card firmware variability between end-of-wire and DMA start, uniform in [0, this].
    SimDuration rx_processing_jitter = Microseconds(250);
    // Pass MAC frames to the host (costly; the paper's adapter could not even do this).
    bool receive_mac_frames = false;
  };

  TokenRingAdapter(Machine* machine, TokenRing* ring, Config config);

  RingAddress address() const { return address_; }
  Machine* machine() { return machine_; }
  TokenRing* ring() { return ring_; }
  const Config& config() const { return config_; }

  // --- transmit path ----------------------------------------------------------------------
  // The driver has already copied the packet into the fixed tx DMA buffer (charging its own
  // CPU time). This starts card DMA out of that buffer and then the wire transmission.
  // Returns false if a transmission is already in progress (the driver must serialize —
  // the paper's sequence-preservation constraint). The completion status is what the card's
  // frame-status bits report at the transmit-complete interrupt (TxStatus::kDelivered on
  // success); a stalled adapter completes with kAdapterStalled without touching the wire.
  bool IssueTransmit(Frame frame, std::function<void(TxStatus)> on_complete);
  bool tx_busy() const { return tx_busy_; }

  // Minimum ring access priority stamped on outgoing LLC frames, raising (never lowering)
  // whatever the driver set. This is the programmable half of the 802.5 priority machinery:
  // callers like the quality controller adjust it at run time to move a station's traffic
  // class up or down the token-grant order. MAC frames are unaffected.
  void set_access_priority_floor(int priority) { access_priority_floor_ = priority; }
  int access_priority_floor() const { return access_priority_floor_; }

  // --- fault-injection hooks --------------------------------------------------------------
  // Card-firmware stalls (the AdapterStall / ReceiverOverrun fault kinds). A tx stall makes
  // IssueTransmit complete with kAdapterStalled for its duration; an rx stall suspends the
  // card-to-host DMA so the onboard slots fill and further arrivals overrun. Both extend an
  // already-active stall rather than shortening it. Only the fault injector calls these.
  void InjectTxStall(SimDuration duration);
  void InjectRxStall(SimDuration duration);
  bool tx_stalled() const { return machine_->sim()->Now() < tx_stalled_until_; }
  bool rx_stalled() const { return machine_->sim()->Now() < rx_stalled_until_; }
  uint64_t tx_stall_rejects() const { return tx_stall_rejects_; }

  // --- receive path -----------------------------------------------------------------------
  // Invoked when a received frame has been DMA'd into a host fixed DMA buffer. Runs at
  // hardware-event time; the handler must submit CPU work itself.
  using RxHandler = std::function<void(const Frame&)>;
  void SetReceiveHandler(RxHandler handler) { rx_handler_ = std::move(handler); }

  // Invoked for every MAC frame seen, only in receive_mac_frames mode.
  using MacHandler = std::function<void(const Frame&)>;
  void SetMacFrameHandler(MacHandler handler) { mac_handler_ = std::move(handler); }
  // Switches MAC-frame reception on or off at run time (the paper's hypothetical mode).
  void set_receive_mac_frames(bool enabled) { config_.receive_mac_frames = enabled; }

  // Returns a host rx buffer to the card after the driver consumed the packet.
  void ReleaseRxBuffer();
  int free_host_rx_buffers() const { return free_host_rx_buffers_; }

  // --- wire-side entry point (called by TokenRing) ----------------------------------------
  void OnFrameOnWire(const Frame& frame);

  // --- statistics -------------------------------------------------------------------------
  uint64_t frames_transmitted() const { return frames_transmitted_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t rx_overruns() const { return rx_overruns_; }
  uint64_t mac_frames_seen() const { return mac_frames_seen_; }

  DmaEngine& tx_dma() { return tx_dma_; }
  DmaEngine& rx_dma() { return rx_dma_; }

 private:
  void OnTxDmaComplete();
  void CompleteTransmit(TxStatus status);
  void TryStartRxDma();

  Machine* machine_;
  TokenRing* ring_;
  Config config_;
  Rng rng_;  // receive processing jitter, forked at construction
  RingAddress address_;
  DmaEngine tx_dma_;
  DmaEngine rx_dma_;

  bool tx_busy_ = false;
  // The one transmit in progress while tx_busy_ (the driver serializes them): the frame
  // until its DMA completes and the driver's completion callback until the wire reports
  // back. Kept here so the DMA and ring completions capture only `this`.
  Frame tx_frame_;
  std::function<void(TxStatus)> tx_on_complete_;
  int access_priority_floor_ = 0;
  RxHandler rx_handler_;
  MacHandler mac_handler_;
  std::deque<Frame> onboard_rx_;  // includes the frame currently being DMA'd (front)
  int free_host_rx_buffers_;
  bool rx_dma_active_ = false;
  SimTime tx_stalled_until_ = 0;
  SimTime rx_stalled_until_ = 0;
  bool rx_resume_scheduled_ = false;

  uint64_t frames_transmitted_ = 0;
  uint64_t frames_received_ = 0;
  uint64_t rx_overruns_ = 0;
  uint64_t mac_frames_seen_ = 0;
  uint64_t tx_stall_rejects_ = 0;

  // Cached telemetry slots (adapter.<machine>.*).
  Counter* frames_transmitted_counter_;
  Counter* frames_received_counter_;
  Counter* rx_overruns_counter_;
  Counter* mac_frames_seen_counter_;
  Gauge* onboard_rx_depth_gauge_;  // live card-buffer occupancy; `.peak` is the high-water mark
};

}  // namespace ctms

#endif  // SRC_RING_ADAPTER_H_
