// Mixed-media capacity: a heterogeneous workload of typed media classes sharing one ring,
// reported as per-class QoE instead of one clone army's latency.
//
// Every workload entry expands into tx/rx station pairs running the full modified stack with
// that class's rate model (CBR voice, bursty VBR video, bulk file transfer, the paper's VCA
// stream), and the report aggregates per class: deadline-miss rate, playout starvation time,
// and the class-weighted distortion proxy. With the quality-centric controller enabled the
// classes are re-mapped onto the 802.5 access priorities each epoch by distortion pressure —
// the Media-TCP experiment the ROADMAP calls for; disabled (the default), everything shares
// one priority level and the ring serves the overload FIFO.

#ifndef SRC_CORE_MEDIA_MIX_H_
#define SRC_CORE_MEDIA_MIX_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/quality_controller.h"
#include "src/core/scenario.h"
#include "src/dev/media_source.h"
#include "src/fault/fault_plan.h"
#include "src/ring/token_ring.h"
#include "src/sim/simulation.h"
#include "src/testbed/station.h"
#include "src/testbed/stream.h"
#include "src/testbed/topology.h"

namespace ctms {

struct MediaMixConfig {
  // Declarative workload block; empty falls back to a moderate default mix
  // (voice:4,vbr:2,bulk:1 — under ring capacity).
  std::vector<WorkloadEntry> workload;
  // Quality-centric controller; off = every class at ring_priority (FIFO between classes).
  bool quality_controller = false;
  SimDuration controller_epoch = Milliseconds(100);
  int ring_priority = 6;
  MemoryKind dma_buffer_kind = MemoryKind::kIoChannelMemory;
  SimDuration duration = Seconds(30);
  uint64_t seed = 1;
  FaultPlan faults;
};

// The name simbench/simbench.cc spells; ClassQoE is the one class-row type.
using MediaMixClassQoE = ClassQoE;

struct MediaMixReport {
  MediaMixConfig config;
  std::vector<StreamStats> streams;
  std::vector<ClassQoE> classes;  // workload-entry order
  double ring_utilization = 0.0;
  double aggregate_distortion = 0.0;  // sum over classes
  uint64_t ring_priority_preemptions = 0;
  uint64_t ring_reservations = 0;
  uint64_t controller_epochs = 0;
  uint64_t controller_updates = 0;

  // Every stream produced and delivered traffic; overload (drops, misses) is expected and
  // does not make a run unhealthy — that is the phenomenon under study.
  bool Healthy() const;
  std::string Summary() const;
};

class MediaMixExperiment {
 public:
  explicit MediaMixExperiment(MediaMixConfig config);

  MediaMixExperiment(const MediaMixExperiment&) = delete;
  MediaMixExperiment& operator=(const MediaMixExperiment&) = delete;

  MediaMixReport Run();

  Simulation& sim() { return topo_.sim(); }
  TokenRing& ring() { return topo_.ring(); }
  RingTopology& topology() { return topo_; }
  size_t stream_count() const { return streams_.size(); }
  StreamEndpoints& endpoints(size_t index) { return *streams_[index].endpoints; }

 private:
  struct Stream {
    Station* tx = nullptr;
    Station* rx = nullptr;
    std::unique_ptr<StreamEndpoints> endpoints;
  };

  MediaMixConfig config_;
  RingTopology topo_;
  std::vector<Stream> streams_;
  std::unique_ptr<QualityController> controller_;
};

}  // namespace ctms

#endif  // SRC_CORE_MEDIA_MIX_H_
