#include "src/workload/host_service.h"

#include <utility>

namespace ctms {

ControlServiceProcess::ControlServiceProcess(UnixKernel* kernel, UdpLayer* udp, Rng rng,
                                             Config config)
    : kernel_(kernel), udp_(udp), rng_(std::move(rng)), config_(config) {
  udp_->Bind(config_.port, [this](const Packet& request) { OnRequest(request); });
}

void ControlServiceProcess::OnRequest(const Packet& request) {
  ++requests_;
  Cpu& cpu = kernel_->machine()->cpu();
  Cpu::Job job = cpu.NewJob("control-service", Spl::kNone);
  job.AddStep(config_.context_switch, nullptr, Spl::kNone);
  job.AddStep(config_.process_cost, nullptr, Spl::kNone);
  job.set_on_done([this, peer = request.src]() {
    ++replies_;
    Packet reply;
    reply.bytes = rng_.UniformInt(config_.reply_min_bytes, config_.reply_max_bytes);
    reply.dst = peer;
    reply.port = config_.port;
    reply.created_at = kernel_->sim()->Now();
    udp_->Output(reply);
  });
  cpu.SubmitProcess(std::move(job));
}

AfsClientDaemon::AfsClientDaemon(UnixKernel* kernel, UdpLayer* udp, Rng rng, Config config)
    : kernel_(kernel), udp_(udp), rng_(std::move(rng)), config_(config) {}

AfsClientDaemon::~AfsClientDaemon() { Stop(); }

void AfsClientDaemon::Start() {
  Stop();
  running_ = true;
  ScheduleNext();
}

void AfsClientDaemon::Stop() {
  running_ = false;
  if (next_event_ != kInvalidEventId) {
    kernel_->sim()->Cancel(next_event_);
    next_event_ = kInvalidEventId;
  }
}

void AfsClientDaemon::ScheduleNext() {
  if (!running_) {
    return;
  }
  const SimDuration wait = rng_.ExponentialDuration(config_.mean_interval);
  next_event_ = kernel_->sim()->After(wait, [this]() {
    next_event_ = kInvalidEventId;
    Cpu& cpu = kernel_->machine()->cpu();
    Cpu::Job job = cpu.NewJob("afs-keepalive", Spl::kNone);
    job.AddStep(config_.process_cost, nullptr, Spl::kNone);
    job.set_on_done([this]() {
      ++keepalives_sent_;
      Packet keepalive;
      keepalive.bytes = rng_.UniformInt(config_.min_bytes, config_.max_bytes);
      keepalive.dst = config_.server;
      keepalive.port = config_.port;
      keepalive.created_at = kernel_->sim()->Now();
      udp_->Output(keepalive);
    });
    cpu.SubmitProcess(std::move(job));
    ScheduleNext();
  });
}

}  // namespace ctms
