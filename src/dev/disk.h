// A 1991-class SCSI disk with an extent-based media filesystem.
//
// The paper's CTMS uses the VCA as a synthetic data source, but the system it prototypes is
// a media *server*: "deliver data to a presentation machine from a remote machine" — and the
// ITC ran AFS file servers on the same ring. Serving continuous media from disk adds the
// classic mechanical constraints this model captures:
//
//   - seek time proportional to head travel,
//   - rotational latency (a 3600 RPM platter: up to ~16.7 ms),
//   - sequential reads stream off the platter with neither cost,
//   - a single head: concurrent streams interleave and thrash it.
//
// Files are contiguous extents (the right layout for media, and what a 1991 media filesystem
// would use). Reads DMA into kernel memory and complete with an interrupt-time callback.

#ifndef SRC_DEV_DISK_H_
#define SRC_DEV_DISK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "src/hw/machine.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace ctms {

class MediaDisk {
 public:
  struct Config {
    int64_t capacity_bytes = 300 * 1024 * 1024;      // a big 1991 disk
    int64_t transfer_rate_bytes_per_sec = 1'500'000;  // media rate off the platter
    SimDuration rotation = Microseconds(16667);       // 3600 RPM
    SimDuration seek_min = Milliseconds(3);           // track-to-track
    SimDuration seek_max = Milliseconds(27);          // full stroke
    SimDuration controller_overhead = Microseconds(500);
    // Completion interrupt handler cost on the host CPU, at splbio.
    SimDuration intr_cost = Microseconds(120);
  };

  struct ReadStats {
    uint64_t reads = 0;
    int64_t bytes_read = 0;
    uint64_t sequential_reads = 0;  // no seek, no rotational latency
    SimDuration busy_time = 0;
    SimDuration worst_service = 0;
  };

  MediaDisk(Machine* machine, Config config);
  explicit MediaDisk(Machine* machine) : MediaDisk(machine, Config{}) {}

  // Lays out a contiguous file; returns false if the name exists or space is exhausted.
  bool CreateFile(const std::string& name, int64_t bytes);
  int64_t FileSize(const std::string& name) const;

  // Asynchronously reads [offset, offset+bytes) of `name` into a kernel buffer. Requests
  // queue FIFO at the disk (one head). `on_complete(true)` fires from the completion
  // interrupt; `on_complete(false)` means a bad name/range was rejected immediately.
  void Read(const std::string& name, int64_t offset, int64_t bytes,
            std::function<void(bool)> on_complete);

  const ReadStats& stats() const { return stats_; }
  // Fraction of simulated time the disk arm/platter was busy.
  double Utilization() const;
  size_t queue_depth() const { return queue_.size(); }

  // Service time the next read would need from the current head position (for tests and
  // capacity planning): seek + rotation + transfer.
  SimDuration EstimateService(int64_t start_byte, int64_t bytes) const;

 private:
  struct Request {
    int64_t start_byte;
    int64_t bytes;
    std::function<void(bool)> on_complete;
  };

  void StartNext();
  SimDuration SeekTime(int64_t from_byte, int64_t to_byte) const;

  Machine* machine_;
  Config config_;
  Rng rng_;  // rotational latency, forked at construction
  std::map<std::string, std::pair<int64_t, int64_t>> files_;  // name -> (start, bytes)
  int64_t next_free_byte_ = 0;

  std::deque<Request> queue_;
  bool busy_ = false;
  int64_t head_position_ = 0;

  ReadStats stats_;
};

}  // namespace ctms

#endif  // SRC_DEV_DISK_H_
