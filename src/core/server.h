// ServerExperiment: one media server (a machine with a disk and a Token Ring adapter)
// streaming files to N client machines over CTMSP — the distributed-multimedia deployment
// the paper's prototype pointed at, with the disk's mechanics in the loop.

#ifndef SRC_CORE_SERVER_H_
#define SRC_CORE_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dev/disk.h"
#include "src/dev/media_source.h"
#include "src/fault/fault_plan.h"
#include "src/ring/token_ring.h"
#include "src/sim/simulation.h"
#include "src/testbed/station.h"
#include "src/testbed/stream.h"
#include "src/testbed/topology.h"

namespace ctms {

struct ServerConfig {
  int clients = 1;
  int64_t packet_bytes = 2000;
  SimDuration packet_period = Milliseconds(12);
  // Declarative workload block (--mix). Non-empty overrides clients/packet_bytes/
  // packet_period: one client per resolved class entry, streamed off the disk at that
  // class's rate. Empty keeps the legacy identical-client construction bit-for-bit.
  std::vector<WorkloadEntry> workload;
  int64_t file_bytes = 40 * 1024 * 1024;  // one ~40 MB media file per client
  int64_t read_chunk_bytes = 16 * 1024;   // the read-ahead knob
  MemoryKind dma_buffer_kind = MemoryKind::kIoChannelMemory;
  SimDuration duration = Seconds(30);
  uint64_t seed = 1;
  FaultPlan faults;  // empty = no injector; runs stay bit-identical to plan-free ones
};

struct ServerReport {
  ServerConfig config;
  std::vector<StreamStats> clients;
  std::vector<ClassQoE> classes;  // empty unless the clients are classed (--mix)
  double server_cpu_utilization = 0.0;
  double disk_utilization = 0.0;
  double disk_sequential_fraction = 0.0;
  SimDuration disk_worst_service = 0;
  double ring_utilization = 0.0;
  bool AllSustained() const;
  std::string Summary() const;
};

class ServerExperiment {
 public:
  explicit ServerExperiment(ServerConfig config);

  ServerExperiment(const ServerExperiment&) = delete;
  ServerExperiment& operator=(const ServerExperiment&) = delete;

  ServerReport Run();

  Simulation& sim() { return topo_.sim(); }
  MediaDisk& disk() { return *disk_; }
  RingTopology& topology() { return topo_; }

 private:
  ServerConfig config_;
  RingTopology topo_;

  Station* server_ = nullptr;
  std::unique_ptr<MediaDisk> disk_;

  struct Client {
    Station* station = nullptr;
    std::unique_ptr<StreamEndpoints> endpoints;  // media source on the server, sink here
  };
  std::vector<Client> clients_;
};

}  // namespace ctms

#endif  // SRC_CORE_SERVER_H_
