// Adapter DMA engine.
//
// Each adapter owns one engine; a transfer occupies the engine for bytes x rate and, when the
// host-side buffer lives in system memory, interferes with the CPU for its duration (the
// IOCC arbitration effect of section 4). Transfers queue FIFO per engine.

#ifndef SRC_HW_DMA_H_
#define SRC_HW_DMA_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/hw/memory.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace ctms {

class Cpu;
class CopyEngine;

class DmaEngine {
 public:
  // `cpu` may be null for adapters modelled without host interference (e.g. the PC/AT rig).
  DmaEngine(Simulation* sim, std::string name, Cpu* cpu, CopyEngine* accounting);

  // Nanoseconds per byte moved. Default 1600 ns/byte is calibrated so a 2000-byte packet's
  // adapter DMA takes 3.2 ms, placing the end-to-end floor at the paper's 10 740 us.
  void set_rate_per_byte(SimDuration ns) { rate_per_byte_ = ns; }
  SimDuration rate_per_byte() const { return rate_per_byte_; }

  // Starts (or queues) a transfer of `bytes` with the host-side buffer in `buffer_kind`.
  // `on_done` runs when the transfer completes.
  void Transfer(int64_t bytes, MemoryKind buffer_kind, std::function<void()> on_done);

  bool busy() const { return busy_; }
  uint64_t transfers_completed() const { return transfers_completed_; }
  int64_t bytes_transferred() const { return bytes_transferred_; }
  SimDuration TransferTime(int64_t bytes) const { return bytes * rate_per_byte_; }

 private:
  struct Request {
    int64_t bytes = 0;
    MemoryKind buffer_kind = MemoryKind::kSystemMemory;
    std::function<void()> on_done;
  };

  void Start(Request request);
  void Complete();

  Simulation* sim_;
  std::string name_;
  Cpu* cpu_;
  CopyEngine* accounting_;
  SimDuration rate_per_byte_ = 1600;
  bool busy_ = false;
  // The one transfer occupying the engine while busy_, kept here so the completion event
  // captures only `this`.
  Request in_flight_;
  bool in_flight_steals_cpu_ = false;
  std::deque<Request> queue_;
  uint64_t transfers_completed_ = 0;
  int64_t bytes_transferred_ = 0;

  // Cached telemetry slots (dma.<engine>.*) and the engine's tracer track (transfer spans).
  Counter* transfers_counter_;
  Counter* bytes_counter_;
  TrackId track_ = kInvalidTrackId;
};

}  // namespace ctms

#endif  // SRC_HW_DMA_H_
