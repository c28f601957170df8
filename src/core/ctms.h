// Umbrella header for the CTMS reproduction library.
//
// Quick start:
//
//   #include "src/core/ctms.h"
//
//   ctms::CtmsConfig config = ctms::TestCaseA();
//   config.duration = ctms::Seconds(30);
//   ctms::CtmsExperiment experiment(config);
//   ctms::ExperimentReport report = experiment.Run();
//   std::cout << report.Summary();
//   std::cout << report.measured.pre_tx_to_rx.RenderAscii(ctms::Microseconds(100));
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for paper-vs-measured results.

#ifndef SRC_CORE_CTMS_H_
#define SRC_CORE_CTMS_H_

#include "src/core/baseline.h"
#include "src/core/buffer_budget.h"
#include "src/core/copy_analysis.h"
#include "src/core/experiment.h"
#include "src/core/faultsweep.h"
#include "src/core/media_mix.h"
#include "src/core/quality_controller.h"
#include "src/core/router.h"
#include "src/core/server.h"
#include "src/core/scenario.h"
#include "src/core/scenario_cli.h"
#include "src/dev/disk.h"
#include "src/dev/media_server.h"
#include "src/dev/media_source.h"
#include "src/dev/tr_driver.h"
#include "src/dev/vca.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/hw/cpu.h"
#include "src/hw/dma.h"
#include "src/hw/machine.h"
#include "src/hw/memory.h"
#include "src/kern/ifqueue.h"
#include "src/kern/mbuf.h"
#include "src/kern/packet.h"
#include "src/kern/process.h"
#include "src/kern/unix_kernel.h"
#include "src/measure/histogram.h"
#include "src/measure/export.h"
#include "src/measure/interval_analyzer.h"
#include "src/measure/live_analyzer.h"
#include "src/measure/probe.h"
#include "src/measure/recorders.h"
#include "src/measure/stats.h"
#include "src/measure/tap.h"
#include "src/proto/arp.h"
#include "src/proto/ctmsp.h"
#include "src/proto/ctmsp2.h"
#include "src/proto/ip.h"
#include "src/proto/tcp_lite.h"
#include "src/proto/udp.h"
#include "src/ring/adapter.h"
#include "src/ring/frame.h"
#include "src/ring/token_ring.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/testbed/station.h"
#include "src/testbed/stream.h"
#include "src/testbed/topology.h"
#include "src/workload/host_service.h"
#include "src/workload/kernel_activity.h"
#include "src/workload/ring_traffic.h"
#include "src/workload/trace_replay.h"

#endif  // SRC_CORE_CTMS_H_
