// MediaServerSource: streams a disk-resident media file over CTMSP — the server half of the
// distributed-multimedia system the paper's prototype was building toward ("deliver data to
// a presentation machine from a remote machine").
//
// A periodic send timer packetizes staged data at the stream cadence; a read-ahead pump
// keeps the staging buffer filled from the disk in larger chunks. Read-ahead is what makes
// mechanical disks compatible with continuous media: a cold per-packet read costs a seek
// plus half a rotation (~12 ms — the whole period), while chunked sequential reads amortize
// the mechanics across many packets. With several streams sharing one disk the head
// thrashes between extents, and only read-ahead keeps everyone fed (see bench/ext_file_server).

#ifndef SRC_DEV_MEDIA_SERVER_H_
#define SRC_DEV_MEDIA_SERVER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/dev/disk.h"
#include "src/dev/media_source.h"
#include "src/dev/tr_driver.h"
#include "src/kern/unix_kernel.h"
#include "src/measure/probe.h"
#include "src/proto/ctmsp.h"

namespace ctms {

class MediaServerSource {
 public:
  struct Config {
    std::string file;
    int64_t packet_bytes = 2000;
    SimDuration period = Milliseconds(12);
    // Bytes fetched per disk read; packet_bytes disables read-ahead (one read per packet).
    int64_t read_chunk_bytes = 16 * 1024;
    // Kernel staging memory per stream (staged + in-flight reads never exceed this).
    int64_t staging_capacity_bytes = 64 * 1024;
    // Send-timer handler work before the copy into mbufs.
    SimDuration tick_cost = Microseconds(220);
    // Delay before the first tick, letting read-ahead prime (several chunked reads can be
    // queued at a shared disk when streams start together).
    SimDuration priming = Milliseconds(80);
    bool loop = true;  // wrap at end of file
  };

  MediaServerSource(UnixKernel* kernel, MediaDisk* disk, TokenRingDriver* driver,
                    ProbeBus* probes, CtmspTransmitter* connection, Config config);

  void Start(RingAddress dst);
  void Stop();

  // Adopts a class descriptor: packets are stamped with its id and the class cadence
  // replaces the config's packet_bytes/period. Disk-backed sources are elastic by nature,
  // so this is typically the bulk class.
  void AdoptMediaClass(const MediaClass& media_class);

  uint64_t packets_sent() const { return packets_sent_; }
  // Send-timer ticks that found no staged data — a glitch the client will hear.
  uint64_t starvations() const { return starvations_; }
  int64_t staged_bytes() const { return staged_bytes_; }
  uint64_t mbuf_drops() const { return mbuf_drops_; }
  uint64_t queue_drops() const { return queue_drops_; }

 private:
  void Pump();    // keep read-ahead going
  void OnTick();  // packetize and send

  UnixKernel* kernel_;
  MediaDisk* disk_;
  TokenRingDriver* driver_;
  ProbeBus* probes_;
  CtmspTransmitter* connection_;
  Config config_;

  MediaClass media_class_;  // default: unclassed (id kNone)
  RingAddress dst_ = 0;
  std::function<void()> timer_cancel_;
  int64_t file_offset_ = 0;   // next byte to request from disk
  int64_t inflight_bytes_ = 0;
  int64_t staged_bytes_ = 0;

  uint64_t packets_sent_ = 0;
  uint64_t starvations_ = 0;
  uint64_t mbuf_drops_ = 0;
  uint64_t queue_drops_ = 0;

  // Cached telemetry slots (driver.media.<machine>.*).
  Counter* packets_sent_counter_;
  Counter* starvations_counter_;
  Counter* disk_reads_counter_;
  Counter* mbuf_drops_counter_;
  Counter* queue_drops_counter_;
};

}  // namespace ctms

#endif  // SRC_DEV_MEDIA_SERVER_H_
