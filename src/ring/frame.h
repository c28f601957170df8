// Token Ring frames.
//
// Only the fields that matter to timing and demultiplexing are modelled: addresses, priority,
// on-wire size, the MAC/LLC distinction, and a SAP-like protocol selector used at the receive
// "split point" (the place the paper modified to peel CTMSP packets off ahead of ARP and IP).
// Payload content is carried as an opaque annotation for upper layers.

#ifndef SRC_RING_FRAME_H_
#define SRC_RING_FRAME_H_

#include <cstdint>
#include <string>

#include "src/sim/frame_arena.h"
#include "src/sim/time.h"

namespace ctms {

// Station address on the ring. 0xFFFF is broadcast.
using RingAddress = uint16_t;
inline constexpr RingAddress kBroadcastAddress = 0xFFFF;

enum class FrameKind {
  kMac,  // Medium Access Control frame (Ring Purge, monitor-present, ...)
  kLlc,  // data frame
};

enum class MacFrameType {
  kNone,
  kRingPurge,
  kActiveMonitorPresent,
  kStandbyMonitorPresent,
  kClaimToken,
};

// Protocol selector carried in the frame header; the receive interrupt handler switches on
// this at the split point. Values are arbitrary but stable.
enum class ProtocolId : uint16_t {
  kNone = 0,
  kArp = 0x0806,
  kIp = 0x0800,
  kCtmsp = 0xC7C7,
};

const char* ProtocolName(ProtocolId id);

struct Frame {
  uint64_t id = 0;  // unique per simulation, assigned by the ring on transmit request
  FrameKind kind = FrameKind::kLlc;
  MacFrameType mac_type = MacFrameType::kNone;
  RingAddress src = 0;
  RingAddress dst = 0;
  int priority = 0;  // 0..7, Token Ring access priority
  // 802.5 reservation bits: the highest access priority a waiting station stamped into this
  // frame while it was on the wire. The ring records it when a transmit request queues
  // behind a busy wire; the next token is issued at that priority.
  int reservation = 0;
  // MediaClassId of the upper-layer stream (0 = unclassed); lets relays and fabric bridges
  // account forwarded traffic per media class without parsing the payload.
  uint8_t media_class = 0;
  ProtocolId protocol = ProtocolId::kNone;
  int64_t payload_bytes = 0;  // bytes the host sees (the paper's "2000 bytes in length")
  uint32_t seq = 0;           // upper-layer packet number (CTMSP's 7-bit number widened)
  // Upper-layer demux hints carried opaquely inside the payload (headers-in-data).
  uint8_t ip_proto = 0;
  uint16_t port = 0;
  bool is_ack = false;
  uint32_t ack_seq = 0;
  // CTMSP recovery framing (PROTOCOL.md 2.4.3): packet kind (data/parity, or the
  // Ctmsp2ControlKind of a control datagram) and the FEC group a parity frame covers.
  uint8_t ctmsp_kind = 0;
  uint32_t fec_base = 0;
  uint32_t fec_mask = 0;
  uint64_t journey = 0;  // packet-lifecycle tracker id carried across the wire; 0 = untracked
  SimTime created_at = 0;
  // The payload, passed by arena handle (src/sim/frame_arena.h): the frame carries a
  // reference, not bytes, and the ring never looks inside. The mbuf accounting charge is
  // always credited back before a frame adopts the payload, so frames in flight never
  // touch a pool.
  PayloadRef payload;

  std::string Describe() const;
};

// Token Ring framing overhead added on the wire around the host-visible bytes: starting
// delimiter, access control, frame control, addresses, FCS, ending delimiter, frame status.
inline constexpr int64_t kFrameOverheadBytes = 21;

// Size of a MAC control frame on the wire ("on the order of 20 bytes of data", section 4).
inline constexpr int64_t kMacFrameBytes = 20;

// The largest frame, in on-wire bytes (WireBytes), that the 4 Mbit/s ring may carry: the
// 4,550-octet maximum frame size of IEEE 802.5 (ISO/IEC 8802-5) at 4 Mbit/s, which keeps a
// station's transmission within the token-holding time (about 9.1 ms at 4 Mbit/s).
inline constexpr int64_t kMaxWireBytes = 4550;

// Returns the full on-wire size of a frame.
int64_t WireBytes(const Frame& frame);

}  // namespace ctms

#endif  // SRC_RING_FRAME_H_
