// Memory kinds and the CPU copy-cost model.
//
// The RT/PC has two address/data paths: CPU <-> system memory, and the IO Channel Bus that
// interconnects adapters, arbitrated by the IO Channel Controller (IOCC). An "IO Channel
// Memory" card is plain memory that lives on the IO Channel Bus; the paper's third
// modification moves the Token Ring driver's fixed DMA buffers there so adapter DMA stops
// stealing CPU memory cycles (section 4).
//
// CPU copies are charged per byte, with the rate depending on which sides of the IOCC the
// source and destination live on. The paper measures system memory -> IO Channel Memory at
// "on the order of 1 microsecond per byte" (section 5.3); the other rates are set relative
// to that (same-bus copies are cheaper, IO-channel-to-IO-channel dearer).

#ifndef SRC_HW_MEMORY_H_
#define SRC_HW_MEMORY_H_

#include <cstdint>

#include "src/sim/time.h"

namespace ctms {

enum class MemoryKind {
  kSystemMemory,     // on the CPU bus; adapter DMA here interferes with the CPU
  kIoChannelMemory,  // on the IO Channel Bus; adapter DMA here leaves the CPU alone
};

// Copy-cost model plus copy accounting. One instance per machine; every CPU copy in the
// kernel substrate is charged through here so the section-2 copy-count analysis can be
// measured rather than merely asserted.
class CopyEngine {
 public:
  struct Rates {
    // Nanoseconds per byte for each (source, destination) pairing.
    SimDuration sys_to_sys = 900;        // 0.9 us/byte (RT/PC block copy)
    SimDuration sys_to_iocm = 1000;      // 1 us/byte (paper, section 5.3)
    SimDuration iocm_to_sys = 1000;      // symmetric with the measured direction
    SimDuration iocm_to_iocm = 1500;     // both ends across the IOCC
  };

  CopyEngine() = default;
  explicit CopyEngine(Rates rates) : rates_(rates) {}

  // Time the CPU spends copying `bytes` from `src` to `dst`.
  SimDuration CopyCost(int64_t bytes, MemoryKind src, MemoryKind dst) const;

  // Records that a CPU copy of `bytes` happened (callers charge the CPU separately).
  void RecordCpuCopy(int64_t bytes);
  // Records that a DMA transfer of `bytes` happened.
  void RecordDmaCopy(int64_t bytes);

  uint64_t cpu_copies() const { return cpu_copies_; }
  int64_t cpu_bytes_copied() const { return cpu_bytes_; }
  uint64_t dma_copies() const { return dma_copies_; }
  int64_t dma_bytes_copied() const { return dma_bytes_; }
  void ResetCounters();

  const Rates& rates() const { return rates_; }

 private:
  Rates rates_;
  uint64_t cpu_copies_ = 0;
  int64_t cpu_bytes_ = 0;
  uint64_t dma_copies_ = 0;
  int64_t dma_bytes_ = 0;
};

}  // namespace ctms

#endif  // SRC_HW_MEMORY_H_
