// Background traffic on the ring from stations we do not simulate as full hosts.
//
// The paper's Test Case B runs on the public 70-machine ITC ring. Its traffic mix (section
// 5.3): ~20-byte MAC frames (0.2-1.0% of bandwidth), 60-300-byte ARP and AFS keep-alive
// packets, and 1522-byte file-transfer packets in bursts while someone compiles. Ghost
// stations inject these frames directly at the ring so the wire contention is real without
// simulating 70 kernels.

#ifndef SRC_WORKLOAD_RING_TRAFFIC_H_
#define SRC_WORKLOAD_RING_TRAFFIC_H_

#include <cstdint>
#include <functional>

#include "src/ring/token_ring.h"
#include "src/sim/rng.h"

namespace ctms {

// Poisson MAC-frame chatter (neighbor notification and the like) at a target fraction of
// ring bandwidth.
class MacFrameTraffic {
 public:
  struct Config {
    double bandwidth_fraction = 0.002;  // the paper observed 0.2% idle .. 1.0%
  };

  MacFrameTraffic(TokenRing* ring, Rng rng, Config config);
  ~MacFrameTraffic();

  void Start();
  void Stop();
  uint64_t frames_sent() const { return frames_sent_; }
  // Frames per second implied by the config (the section-4 "50 to 250 interrupts" figure).
  double FramesPerSecond() const;

 private:
  void ScheduleNext();

  TokenRing* ring_;
  Rng rng_;
  Config config_;
  RingAddress src_;
  EventId next_event_ = kInvalidEventId;
  bool running_ = false;
  uint64_t frames_sent_ = 0;
};

// Generic ghost-station LLC traffic: Poisson singles or bursts of frames between ghost
// addresses (or aimed at a real host, to load its receive path).
class GhostTraffic {
 public:
  struct Config {
    SimDuration interarrival_mean = Milliseconds(200);
    int64_t min_bytes = 60;
    int64_t max_bytes = 300;
    int priority = 0;
    int burst_min = 1;  // frames per arrival event
    int burst_max = 1;
    SimDuration burst_spacing = Milliseconds(2);
    // 0 = send ghost-to-ghost; otherwise deliver to this station (a simulated host).
    RingAddress target = 0;
    ProtocolId protocol = ProtocolId::kIp;
    uint8_t ip_proto = 0;
    uint16_t port = 0;
  };

  GhostTraffic(TokenRing* ring, Rng rng, Config config);
  ~GhostTraffic();

  void Start();
  void Stop();
  uint64_t frames_sent() const { return frames_sent_; }

 private:
  void ScheduleNext();
  void SendBurst(int remaining);

  TokenRing* ring_;
  Rng rng_;
  Config config_;
  RingAddress src_;
  RingAddress ghost_dst_;
  EventId next_event_ = kInvalidEventId;
  bool running_ = false;
  uint64_t frames_sent_ = 0;
  uint32_t next_seq_ = 1;
};

// Station insertions (and the Ring Purge storms they cause), Poisson with the paper's
// roughly one-per-hour rate.
class InsertionSchedule {
 public:
  struct Config {
    SimDuration mean_interval = Hours(1);
  };

  InsertionSchedule(TokenRing* ring, Rng rng, Config config);
  ~InsertionSchedule();

  void Start();
  void Stop();
  uint64_t insertions() const { return insertions_; }

 private:
  void ScheduleNext();

  TokenRing* ring_;
  Rng rng_;
  Config config_;
  EventId next_event_ = kInvalidEventId;
  bool running_ = false;
  uint64_t insertions_ = 0;
};

}  // namespace ctms

#endif  // SRC_WORKLOAD_RING_TRAFFIC_H_
