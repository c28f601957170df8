// RingTopology: the composition root for a simulated testbed — one Simulation, one shared
// ProbeBus, N stations placed on M rings, and one BackgroundEnvironment that owns all the
// traffic the experiment does not measure (MAC chatter, ghost stations, competing processes,
// AFS daemons, station insertions).
//
// Determinism contract: the simulation is bit-reproducible per seed, so the builder keeps
// every order-sensitive step at the call site. Stations attach to rings (and thus receive
// addresses) in the order AttachRing is called; every BackgroundEnvironment::Add* method
// forks the root RNG at call time, so source order in the experiment constructor IS the
// fork order. Reorder either and a same-seed run produces different numbers. Bring-up has
// one order, RingTopology::StartAll's, for every testbed.

#ifndef SRC_TESTBED_TOPOLOGY_H_
#define SRC_TESTBED_TOPOLOGY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/kern/process.h"
#include "src/testbed/station.h"
#include "src/workload/host_service.h"
#include "src/workload/ring_traffic.h"

namespace ctms {

// Factory and owner for everything on the wire (or in the hosts) that exists only to load
// the system. One instance per topology replaces the four private copies the experiment
// classes used to keep.
class BackgroundEnvironment {
 public:
  explicit BackgroundEnvironment(Simulation* sim) : sim_(sim) {}

  // --- ring-level traffic -----------------------------------------------------------------
  MacFrameTraffic& AddMacTraffic(TokenRing* ring, MacFrameTraffic::Config config = {});
  GhostTraffic& AddGhostTraffic(TokenRing* ring, GhostTraffic::Config config);
  InsertionSchedule& AddInsertions(TokenRing* ring, InsertionSchedule::Config config);

  // Presets for the campus-ring mix the paper describes (section 5.3).
  // ARP + AFS keep-alive chatter between the other machines on the ring.
  GhostTraffic& AddKeepaliveChatter(TokenRing* ring, SimDuration interarrival_mean);
  // Compile/file-transfer bursts of maximum-size LLC frames.
  GhostTraffic& AddTransferBursts(TokenRing* ring, SimDuration interarrival_mean);
  // The central control machine polling a test host over its socket connection.
  GhostTraffic& AddControlPolls(TokenRing* ring, RingAddress target);
  // AFS cache-refill bursts arriving AT a host, loading its receive path.
  GhostTraffic& AddAfsFetchBursts(TokenRing* ring, RingAddress target);

  // --- host-attached services -------------------------------------------------------------
  CompetingProcess& AddCompetingProcess(UnixKernel* kernel, const std::string& name,
                                        CompetingProcess::Config config = {});
  ControlServiceProcess& AddControlService(UnixKernel* kernel, UdpLayer* udp);
  AfsClientDaemon& AddAfsClient(UnixKernel* kernel, UdpLayer* udp,
                                AfsClientDaemon::Config config);

 private:
  friend class RingTopology;
  // Starts every group in declaration order, each in Add* call order.
  void StartAll();

  Simulation* sim_;
  std::vector<std::unique_ptr<MacFrameTraffic>> macs_;
  std::vector<std::unique_ptr<GhostTraffic>> ghosts_;
  std::vector<std::unique_ptr<CompetingProcess>> competing_;
  std::vector<std::unique_ptr<ControlServiceProcess>> control_services_;
  std::vector<std::unique_ptr<AfsClientDaemon>> afs_clients_;
  std::vector<std::unique_ptr<InsertionSchedule>> insertions_;
};

class RingTopology {
 public:
  explicit RingTopology(uint64_t seed);

  RingTopology(const RingTopology&) = delete;
  RingTopology& operator=(const RingTopology&) = delete;

  // Drains every station's CPU before destroying any of them: a queued job on one station
  // can hold mbuf chains from a peer's kernel (TCP acks, relayed packets), so per-station
  // teardown in destruction order would free a pool another station's queue still uses.
  ~RingTopology();

  TokenRing& AddRing(TokenRing::Config config = {});
  // Station names must be unique: telemetry instances (cpu.<name>.…) and the hardclock
  // phase both derive from them.
  Station& AddStation(const std::string& name);

  Simulation& sim() { return sim_; }
  ProbeBus& probes() { return probes_; }
  BackgroundEnvironment& environment() { return environment_; }

  size_t ring_count() const { return rings_.size(); }
  TokenRing& ring(size_t index = 0) { return *rings_[index]; }
  size_t station_count() const { return stations_.size(); }
  Station& station(size_t index) { return *stations_[index]; }
  // Lookup by name; returns nullptr if absent.
  Station* FindStation(const std::string& name);

  // The one bring-up: every station (hardclock, then background activity) in creation
  // order, then the environment's groups in declaration order.
  void StartAll();

  // Instantiates a FaultInjector for `plan` and binds it to ring 0 plus every station's
  // adapters and drivers (VCA sources are per-experiment; experiments bind those after this
  // returns). Call it after all stations exist. An empty plan is a strict no-op — no RNG
  // fork, no injector, no telemetry registration — so plan-free runs stay bit-identical.
  // Returns the injector (owned by the topology), or nullptr for an empty plan.
  FaultInjector* ApplyFaultPlan(const FaultPlan& plan);
  FaultInjector* fault_injector() { return fault_injector_.get(); }

 private:
  Simulation sim_;
  ProbeBus probes_;
  std::vector<std::unique_ptr<TokenRing>> rings_;
  std::vector<std::unique_ptr<Station>> stations_;
  BackgroundEnvironment environment_;
  std::unique_ptr<FaultInjector> fault_injector_;
};

}  // namespace ctms

#endif  // SRC_TESTBED_TOPOLOGY_H_
