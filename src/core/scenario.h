// Scenario configuration: the full measurement matrix of section 5.3.
//
// The paper enumerates eleven axes that alter the results (memory placement, each optional
// copy, driver and ring priority, measurement method, private vs public network, load,
// stand-alone vs multiprocessing). CtmsConfig exposes them all; TestCaseA() and
// TestCaseB() are the two presets the paper publishes figures for.

#ifndef SRC_CORE_SCENARIO_H_
#define SRC_CORE_SCENARIO_H_

#include <cstdint>
#include <string>

#include "src/fault/fault_plan.h"
#include "src/hw/memory.h"
#include "src/proto/degradation.h"
#include "src/proto/recovery.h"
#include "src/sim/time.h"

namespace ctms {

enum class MeasurementMethod {
  kGroundTruth,       // perfect observation, zero intrusion (simulator-only luxury)
  kRtPcPseudoDevice,  // in-kernel pseudo-device (section 5.2.1)
  kPcAt,              // external PC/AT parallel-port rig (section 5.2.3) — the paper's pick
  kLogicAnalyzer,     // exact but channel/depth-limited (section 5.2.2)
};

const char* MeasurementMethodName(MeasurementMethod method);

struct CtmsConfig {
  std::string name = "custom";

  // --- memory placement (section 4) -----------------------------------------------------
  MemoryKind dma_buffer_kind = MemoryKind::kIoChannelMemory;

  // --- copy toggles (section 5.3's list) --------------------------------------------------
  bool tx_copy_vca_to_mbufs = false;     // copy real device data across the card interface
  bool rx_copy_dma_to_mbufs = true;      // copy header+data out of the fixed DMA buffer
  bool rx_copy_mbufs_to_device = false;  // copy the payload into the VCA device buffer
  // Pointer-passing transmit (the section-2 extension the paper proposes but did not build).
  bool tx_zero_copy = false;

  // --- priorities (section 3) --------------------------------------------------------------
  bool driver_priority = true;  // CTMSP queue ahead of ARP/IP inside the driver
  int ring_priority = 6;        // Token Ring access priority; 0 = same as other traffic

  // --- network environment ------------------------------------------------------------------
  bool public_network = false;   // the 70-station campus ring with background traffic
  double load_scale = 1.0;       // multiplies background traffic intensity
  bool multiprocessing = false;  // competing processes + control/AFS chatter on the hosts
  double mac_fraction = 0.002;   // MAC frames as a fraction of ring bandwidth (0.2%..1%)
  SimDuration insertion_mean = 0;  // mean time between station insertions; 0 = none

  // --- stream ---------------------------------------------------------------------------------
  int64_t packet_bytes = 2000;
  SimDuration packet_period = Milliseconds(12);
  // Packets buffered at the sink before playout starts (the receive-side jitter buffer the
  // section-6 budget sizes).
  int jitter_buffer_packets = 3;
  // Adaptive jitter buffer: start at jitter_buffer_packets and grow from measured stalls
  // (our CTMSP-definition experiment; bench/ext_adaptive_buffer).
  bool adaptive_jitter_buffer = false;
  // Media compression before transport (footnote 3): 0 = none, otherwise the ratio, with
  // the codec either on the host CPU or on the card's DSP.
  int compression_ratio = 0;
  bool compress_on_host = false;  // false = DSP when compression_ratio > 0
  // Variable-bit-rate stream (compressed video): key frames 3x the mean every 10 packets.
  bool vbr = false;
  // Ring speed; the ITC ran 4 Mbit, the 16/4 adapters also support 16 Mbit.
  int64_t ring_bits_per_second = 4'000'000;

  // --- measurement & recovery ------------------------------------------------------------------
  MeasurementMethod method = MeasurementMethod::kPcAt;
  bool retransmit_on_purge = false;  // MAC-receive purge recovery (off: accept the loss)

  // --- degradation & fault injection ------------------------------------------------------------
  // What the transmitter does when the frame-status bits report a failed CTMSP packet.
  // kDropOldest is the paper's silent-loss CTMSP and changes nothing; the other modes install
  // the driver's failure handler. Don't combine them with retransmit_on_purge (that is the
  // separate MAC-receive mechanism; both reacting to one purge would retransmit twice).
  DegradationMode degradation = DegradationMode::kDropOldest;
  int retry_budget = 3;                        // kPurgeRetransmit: retries per packet
  SimDuration retry_backoff = Milliseconds(2); // kPurgeRetransmit: delay before each retry
  // Receiver-side loss recovery (PROTOCOL.md 2.4.3), orthogonal to the transmitter-side
  // degradation policy above: FEC parity groups, NACK-driven resend, or both. kNone is the
  // paper's stack, byte-identical to every pre-recovery run.
  RecoveryMode recovery = RecoveryMode::kNone;
  int fec_group = 8;                            // kFec/kHybrid: data packets per parity
  SimDuration nack_delay = Microseconds(500);   // kResend/kHybrid: gap detect -> first NACK
  // Deterministic fault schedule; empty = no injector, bit-identical to a plan-free run.
  FaultPlan faults;

  // --- run control -------------------------------------------------------------------------------
  SimDuration duration = Seconds(60);
  uint64_t seed = 1;

  // Offered rate in KBytes/s implied by the stream parameters.
  double OfferedKBytesPerSecond() const {
    return static_cast<double>(packet_bytes) / (ToSecondsF(packet_period) * 1000.0);
  }
};

// Test Case A: private unloaded ring, stand-alone hosts, minimal copies (no device-data
// copy on the transmitter, data dropped on the receiver), IO Channel Memory, priorities on,
// remote (PC/AT) measurement.
CtmsConfig TestCaseA();

// Test Case B: public ring under normal load, multiprocessing hosts, full copying on both
// sides, IO Channel Memory, priorities on, remote measurement. The paper's 117-minute run
// also saw two station insertions; enable those via insertion_mean or explicit triggers.
CtmsConfig TestCaseB();

}  // namespace ctms

#endif  // SRC_CORE_SCENARIO_H_
