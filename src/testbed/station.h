// Station: one simulated host, fully assembled — a machine, its UNIX kernel, and one or
// more Token Ring attachment points (adapter + modified driver pairs), plus the optional
// per-host extras every experiment used to wire by hand (background kernel activity, an
// ARP/IP/UDP stack).
//
// The teardown invariant from ARCHITECTURE.md is baked in here: queued CPU jobs may hold
// packets whose mbuf chains live in the kernel's pool, and the Machine (whose Cpu owns the
// job queue) is declared before the kernel, so member-order destruction alone would free
// the pool first. ~Station() therefore drains the CPU (Cpu::CancelAll) before any member
// dies. When several stations exchange traffic, jobs on one station can hold chains from a
// *peer's* kernel (TCP acks, relayed packets); RingTopology extends the same invariant
// across the whole fleet by draining every CPU before destroying any station.

#ifndef SRC_TESTBED_STATION_H_
#define SRC_TESTBED_STATION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dev/tr_driver.h"
#include "src/hw/machine.h"
#include "src/kern/unix_kernel.h"
#include "src/measure/probe.h"
#include "src/proto/arp.h"
#include "src/proto/ip.h"
#include "src/proto/udp.h"
#include "src/ring/adapter.h"
#include "src/ring/token_ring.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "src/workload/kernel_activity.h"

namespace ctms {

class Station {
 public:
  // One ring attachment: the hardware adapter and the kernel driver that serves it. The
  // per-station telemetry names (cpu.<station>.…, driver.tr.<station>.…, adapter.<station>.…)
  // all derive from the station name, so instances stay distinguishable in Perfetto.
  struct PortConfig {
    TokenRingAdapter::Config adapter;
    TokenRingDriver::Config driver;
  };

  struct Port {
    Port(Station* station, TokenRing* ring, ProbeBus* probes, const PortConfig& config)
        : adapter(&station->machine(), ring, config.adapter),
          driver(&station->kernel(), &adapter, probes, config.driver) {}

    RingAddress address() const { return adapter.address(); }

    TokenRingAdapter adapter;
    TokenRingDriver driver;
  };

  // The classic ARP/IP/UDP stack bound to one port's driver, with the receive demux wired.
  struct IpStack {
    IpStack(UnixKernel* kernel, TokenRingDriver* driver)
        : arp(kernel, driver), ip(kernel, driver, &arp), udp(kernel, &ip) {
      driver->SetIpInput([this](const Packet& packet) { ip.Input(packet); });
      driver->SetArpInput([this](const Packet& packet) { arp.Input(packet); });
    }

    ArpLayer arp;
    IpLayer ip;
    UdpLayer udp;
  };

  Station(Simulation* sim, std::string name)
      : sim_(sim), machine_(sim, std::move(name)), kernel_(&machine_) {}

  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  // Drains the CPU first: queued jobs hold packets whose mbuf chains live in kernel_, which
  // member order would otherwise destroy before machine_ (the ASan suite catches this).
  ~Station() { CancelJobs(); }

  // Attaches this station to `ring`. Attach order across a topology assigns ring addresses,
  // so build stations (and their ports) in a deterministic order.
  Port& AttachRing(TokenRing* ring, ProbeBus* probes, const PortConfig& config = {}) {
    ports_.push_back(std::make_unique<Port>(this, ring, probes, config));
    return *ports_.back();
  }

  // Installs ARP/IP/UDP over the given port. At most one stack per station.
  IpStack& InstallIpStack(size_t port_index = 0) {
    ip_stack_ = std::make_unique<IpStack>(&kernel_, &ports_[port_index]->driver);
    return *ip_stack_;
  }

  // The host's background kernel noise (softclock, protected sections, rare stalls). The
  // caller passes the Rng fork so the fork order — which experiments pin for same-seed
  // reproducibility — stays explicit at the call site.
  KernelBackgroundActivity& AttachBackgroundActivity(
      Rng rng, KernelBackgroundActivity::Config config = {}) {
    activity_ = std::make_unique<KernelBackgroundActivity>(&machine_, std::move(rng), config);
    return *activity_;
  }

  // Starts the hardclock, then the background activity if one is attached. In a topology,
  // RingTopology::StartAll calls this for every station.
  void Start() {
    machine_.StartHardclock();
    if (activity_ != nullptr) {
      activity_->Start();
    }
  }

  void CancelJobs() { machine_.cpu().CancelAll(); }

  Simulation* sim() { return sim_; }
  Machine& machine() { return machine_; }
  UnixKernel& kernel() { return kernel_; }
  const std::string& name() const { return machine_.name(); }

  size_t port_count() const { return ports_.size(); }
  Port& port(size_t index = 0) { return *ports_[index]; }
  TokenRingAdapter& adapter(size_t index = 0) { return ports_[index]->adapter; }
  TokenRingDriver& driver(size_t index = 0) { return ports_[index]->driver; }
  RingAddress address(size_t index = 0) const { return ports_[index]->address(); }

  IpStack* ip_stack() { return ip_stack_.get(); }
  KernelBackgroundActivity* activity() { return activity_.get(); }

 private:
  Simulation* sim_;
  Machine machine_;
  UnixKernel kernel_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::unique_ptr<IpStack> ip_stack_;
  std::unique_ptr<KernelBackgroundActivity> activity_;
};

}  // namespace ctms

#endif  // SRC_TESTBED_STATION_H_
