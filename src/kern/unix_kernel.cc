#include "src/kern/unix_kernel.h"

#include <utility>

#include "src/sim/simulation.h"

namespace ctms {

UnixKernel::UnixKernel(Machine* machine, Config config)
    : machine_(machine), config_(config), mbufs_(config.mbuf_capacity, config.cluster_capacity) {
  MetricsRegistry& metrics = machine_->sim()->telemetry().metrics;
  const std::string prefix = "kern." + machine_->name() + ".mbuf.";
  mbufs_.BindTelemetry(metrics.GetCounter(prefix + "allocs"),
                       metrics.GetCounter(prefix + "failures"),
                       metrics.GetCounter(prefix + "waits"));
}

PayloadRef UnixKernel::AllocatePayload(int64_t bytes) {
  std::optional<MbufChain> chain = mbufs_.Allocate(bytes);
  if (!chain.has_value()) {
    return PayloadRef();
  }
  const int segments = chain->segments();
  return sim()->frames().Allocate(bytes, segments, chain->Detach());
}

void UnixKernel::AllocatePayloadOrWait(int64_t bytes, std::function<void(PayloadRef)> on_ready) {
  mbufs_.AllocateOrWait(bytes, [this, on_ready = std::move(on_ready)](MbufChain chain) {
    const int64_t got = chain.bytes();
    const int segments = chain.segments();
    on_ready(sim()->frames().Allocate(got, segments, chain.Detach()));
  });
}

void UnixKernel::CopySteps(Cpu::Job* job, int64_t bytes, MemoryKind src, MemoryKind dst,
                           Spl spl, Cpu::Action on_done) {
  const SimDuration total_cost = machine_->ChargeCpuCopy(bytes, src, dst);
  const int64_t chunk = config_.copy_chunk_bytes;
  if (bytes <= 0) {
    job->AddStep(0, std::move(on_done), spl);
    return;
  }
  const int64_t chunks = (bytes + chunk - 1) / chunk;
  const SimDuration per_chunk = total_cost / chunks;
  for (int64_t i = 0; i < chunks - 1; ++i) {
    job->AddStep(per_chunk, nullptr, spl);
  }
  // The final chunk absorbs integer-division remainder so the total is exact.
  job->AddStep(total_cost - per_chunk * (chunks - 1), std::move(on_done), spl);
}

}  // namespace ctms
