#include "simbench/ledger.h"

#include <algorithm>
#include <cctype>
#include <string_view>
#include <utility>

#include "simbench/alloc_count.h"
#include "src/telemetry/json_export.h"

namespace simbench {

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

HostTrace::HostTrace() : origin_(Clock::now()) {
  tracer_.set_enabled(true);
  tracer_.set_capacity(size_t{1} << 22);
}

void HostTrace::Add(ctms::TrackId track, std::string name, Clock::time_point start,
                    Clock::time_point end) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  tracer_.AddComplete(track, std::move(name), ns(start), ns(end) - ns(start));
}

bool HostTrace::Write(const std::string& path) const {
  return ctms::WriteChromeTraceJson(tracer_, path);
}

void PhaseTimer::Start() {
  start_ = mark_ = Clock::now();
  alloc_mark_ = AllocationCount();
}

void PhaseTimer::End(Phase phase, const char* span) {
  const Clock::time_point now = Clock::now();
  const uint64_t allocs = AllocationCount();
  seconds_[phase] += SecondsBetween(mark_, now);
  allocs_[phase] += allocs - alloc_mark_;
  if (trace_ != nullptr) {
    trace_->Add(track_, span, mark_, now);
  }
  mark_ = now;
  alloc_mark_ = allocs;
}

uint64_t PhaseTimer::total_allocs() const {
  uint64_t total = 0;
  for (uint64_t n : allocs_) {
    total += n;
  }
  return total;
}

namespace {

// "shard3.cpu.src.steps_executed" -> "cpu.src.steps_executed"; "run0.shard1.x" -> "x".
std::string_view StripNamespaces(std::string_view name) {
  while (true) {
    std::string_view rest;
    for (std::string_view ns : {std::string_view("run"), std::string_view("shard")}) {
      if (name.substr(0, ns.size()) != ns) {
        continue;
      }
      size_t i = ns.size();
      while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) {
        ++i;
      }
      if (i > ns.size() && i < name.size() && name[i] == '.') {
        rest = name.substr(i + 1);
      }
    }
    if (rest.empty()) {
      return name;
    }
    name = rest;
  }
}

bool InModule(std::string_view name, std::string_view module) {
  return name.size() > module.size() && name.substr(0, module.size()) == module &&
         name[module.size()] == '.';
}

bool EndsWith(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() && name.substr(name.size() - suffix.size()) == suffix;
}

}  // namespace

LayerCounts FoldRegistry(const ctms::MetricsRegistry& registry) {
  LayerCounts c;
  for (const auto& [full_name, counter] : registry.counters()) {
    const std::string_view name = StripNamespaces(full_name);
    const uint64_t v = counter.value();
    if (InModule(name, "sim")) {
      c.events += name == "sim.events_executed" ? v : 0;
      c.wheel_pops += name == "sim.event_wheel.pops" ? v : 0;
      c.heap_pops += name == "sim.event_heap.pops" ? v : 0;
    } else if (InModule(name, "cpu")) {
      c.cpu_steps += EndsWith(name, ".steps_executed") ? v : 0;
      c.cpu_jobs += EndsWith(name, ".jobs_completed") ? v : 0;
      c.preemptions += EndsWith(name, ".preemptions") ? v : 0;
      c.interrupts += EndsWith(name, ".interrupts") ? v : 0;
    } else if (InModule(name, "dma")) {
      c.dma_transfers += EndsWith(name, ".transfers") ? v : 0;
    } else if (InModule(name, "kern")) {
      c.mbuf_allocs += EndsWith(name, ".mbuf.allocs") ? v : 0;
      c.mbuf_failures += EndsWith(name, ".mbuf.failures") ? v : 0;
      const bool ifq = name.find(".ifq.") != std::string_view::npos;
      c.ifq_enqueues += ifq && EndsWith(name, ".enqueues") ? v : 0;
      c.ifq_drops += ifq && EndsWith(name, ".drops") ? v : 0;
    } else if (InModule(name, "driver")) {
      c.packets_built += EndsWith(name, ".packets_built") ? v : 0;
      c.source_drops +=
          EndsWith(name, ".mbuf_drops") || EndsWith(name, ".queue_drops") ? v : 0;
      c.sink_underruns += EndsWith(name, ".underruns") ? v : 0;
    } else if (InModule(name, "ring")) {
      c.frames_carried += name == "ring.frames_carried" ? v : 0;
      c.mac_frames += name == "ring.mac_frames" ? v : 0;
    } else if (InModule(name, "adapter")) {
      c.rx_overruns += EndsWith(name, ".rx_overruns") ? v : 0;
    }
  }
  for (const auto& [full_name, gauge] : registry.gauges()) {
    const std::string_view name = StripNamespaces(full_name);
    if (name == "sim.event_pool.live") {
      c.event_pool_live_peak = std::max(c.event_pool_live_peak, gauge.peak());
    } else if (InModule(name, "kern") && EndsWith(name, ".depth")) {
      c.ifq_depth_peak = std::max(c.ifq_depth_peak, gauge.peak());
    } else if (InModule(name, "adapter") && EndsWith(name, ".onboard_rx.depth")) {
      c.onboard_rx_depth_peak = std::max(c.onboard_rx_depth_peak, gauge.peak());
    }
  }
  c.registry_entries =
      registry.counters().size() + registry.gauges().size() + registry.summaries().size();
  return c;
}

uint64_t Digest(const std::string& summary, const ctms::MetricsRegistry& registry) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::string_view bytes) {
    for (const char ch : bytes) {
      h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    }
  };
  mix(summary);
  for (const auto& [name, counter] : registry.counters()) {
    mix(name);
    mix("=");
    mix(std::to_string(counter.value()));
    mix("\n");
  }
  return h;
}

}  // namespace simbench
