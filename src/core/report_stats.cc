#include "src/core/report_stats.h"

namespace ctms {

namespace {

// The class.<name>.* rows, one block per class in AggregateClasses' order, so the key
// scheme cannot drift between reports.
void AppendClassStats(const std::vector<ClassQoE>& classes, StatList* stats) {
  for (const ClassQoE& qoe : classes) {
    const std::string prefix = "class." + qoe.name + ".";
    stats->emplace_back(prefix + "streams", static_cast<double>(qoe.streams));
    stats->emplace_back(prefix + "built", static_cast<double>(qoe.built));
    stats->emplace_back(prefix + "delivered", static_cast<double>(qoe.delivered));
    stats->emplace_back(prefix + "lost", static_cast<double>(qoe.lost));
    stats->emplace_back(prefix + "queue_drops", static_cast<double>(qoe.queue_drops));
    stats->emplace_back(prefix + "deadline_misses", static_cast<double>(qoe.deadline_misses));
    stats->emplace_back(prefix + "deadline_miss_rate", qoe.deadline_miss_rate);
    stats->emplace_back(prefix + "underruns", static_cast<double>(qoe.underruns));
    stats->emplace_back(prefix + "starvation_ms", ToSecondsF(qoe.starvation_time) * 1000.0);
    stats->emplace_back(prefix + "distortion", qoe.distortion);
  }
}

// Per-hop per-class forward counts, keyed back to class names from the wire ids; empty for
// unclassed traffic. Router and fabric hops both carry `forwarded_by_class`.
template <typename Hop>
void AppendHopClassStats(const std::vector<Hop>& hops, StatList* stats) {
  for (size_t k = 0; k < hops.size(); ++k) {
    for (const auto& [id, count] : hops[k].forwarded_by_class) {
      const MediaClass& mc = MediaClassById(static_cast<MediaClassId>(id));
      stats->emplace_back("hop" + std::to_string(k) + "_class." + mc.name + ".forwarded",
                          static_cast<double>(count));
    }
  }
}

}  // namespace

StatList SummaryStats(const ExperimentReport& report) {
  return {
      {"packets_built", static_cast<double>(report.packets_built)},
      {"packets_delivered", static_cast<double>(report.packets_delivered)},
      {"packets_lost", static_cast<double>(report.packets_lost)},
      {"duplicates", static_cast<double>(report.duplicates)},
      {"out_of_order", static_cast<double>(report.out_of_order)},
      {"retransmissions", static_cast<double>(report.retransmissions)},
      {"sink_underruns", static_cast<double>(report.sink_underruns)},
      {"sink_peak_buffer_bytes", static_cast<double>(report.sink_peak_buffer)},
      {"tx_cpu_utilization", report.tx_cpu_utilization},
      {"rx_cpu_utilization", report.rx_cpu_utilization},
      {"ring_utilization", report.ring_utilization},
      {"ring_purges", static_cast<double>(report.ring_purges)},
      {"ring_insertions", static_cast<double>(report.ring_insertions)},
  };
}

StatList SummaryStats(const BaselineReport& report) {
  return {
      {"packets_captured", static_cast<double>(report.packets_captured)},
      {"packets_delivered", static_cast<double>(report.packets_delivered)},
      {"source_mbuf_drops", static_cast<double>(report.source_mbuf_drops)},
      {"tx_relay_rcvbuf_drops", static_cast<double>(report.tx_relay_rcvbuf_drops)},
      {"tx_ifsnd_drops", static_cast<double>(report.tx_ifsnd_drops)},
      {"rx_ipintr_drops", static_cast<double>(report.rx_ipintr_drops)},
      {"rx_relay_rcvbuf_drops", static_cast<double>(report.rx_relay_rcvbuf_drops)},
      {"rx_adapter_overruns", static_cast<double>(report.rx_adapter_overruns)},
      {"tcp_retransmits", static_cast<double>(report.tcp_retransmits)},
      {"sink_underruns", static_cast<double>(report.sink_underruns)},
      {"tx_cpu_utilization", report.tx_cpu_utilization},
      {"rx_cpu_utilization", report.rx_cpu_utilization},
      {"ring_utilization", report.ring_utilization},
  };
}

StatList SummaryStats(const ServerReport& report) {
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t starvations = 0;
  uint64_t underruns = 0;
  for (const StreamStats& client : report.clients) {
    sent += client.built;
    delivered += client.delivered;
    starvations += client.starvations;
    underruns += client.underruns;
  }
  StatList stats = {
      {"clients", static_cast<double>(report.clients.size())},
      {"packets_sent", static_cast<double>(sent)},
      {"packets_delivered", static_cast<double>(delivered)},
      {"server_starvations", static_cast<double>(starvations)},
      {"sink_underruns", static_cast<double>(underruns)},
      {"server_cpu_utilization", report.server_cpu_utilization},
      {"disk_utilization", report.disk_utilization},
      {"ring_utilization", report.ring_utilization},
  };
  AppendClassStats(report.classes, &stats);
  return stats;
}

StatList SummaryStats(const RouterReport& report) {
  StatList stats = {
      {"packets_built", static_cast<double>(report.packets_built)},
      {"packets_forwarded", static_cast<double>(report.packets_forwarded)},
      {"packets_delivered", static_cast<double>(report.packets_delivered)},
      {"packets_lost", static_cast<double>(report.packets_lost)},
      {"router_queue_drops", static_cast<double>(report.router_queue_drops())},
      {"sink_underruns", static_cast<double>(report.sink_underruns)},
      {"router_cpu_utilization", report.router_cpu_utilization()},
      {"ring_a_utilization", report.ring_a_utilization()},
      {"ring_b_utilization", report.ring_b_utilization()},
  };
  // The flat keys above are the historical two-ring report; goldens pin them, so they stay
  // byte-identical for chain_hops == 1. Deeper chains append one row per bridge and ring so
  // no hop's behaviour hides inside an aggregate.
  if (report.hops.size() > 1) {
    for (size_t k = 0; k < report.hops.size(); ++k) {
      const std::string prefix = "hop" + std::to_string(k) + "_";
      stats.emplace_back(prefix + "forwarded", static_cast<double>(report.hops[k].forwarded));
      stats.emplace_back(prefix + "queue_drops",
                         static_cast<double>(report.hops[k].queue_drops));
      stats.emplace_back(prefix + "cpu_utilization", report.hops[k].cpu_utilization);
    }
    for (size_t r = 0; r < report.ring_utilization.size(); ++r) {
      stats.emplace_back("ring" + std::to_string(r) + "_utilization",
                         report.ring_utilization[r]);
    }
  }
  AppendClassStats(report.classes, &stats);
  AppendHopClassStats(report.hops, &stats);
  return stats;
}

StatList SummaryStats(const FabricReport& report) {
  StatList stats = {
      {"rings", static_cast<double>(report.config.rings)},
      {"packets_built", static_cast<double>(report.packets_built)},
      {"packets_delivered", static_cast<double>(report.packets_delivered)},
      {"packets_lost", static_cast<double>(report.packets_lost)},
      {"sink_underruns", static_cast<double>(report.sink_underruns)},
      {"sync_rounds", static_cast<double>(report.sync_rounds)},
      {"events_executed", static_cast<double>(report.events_executed)},
  };
  // One row per directed inter-ring hop, in link-index order — the per-hop accounting the
  // fabric promises (no loss hides inside an aggregate), plus one row per shard ring.
  for (size_t k = 0; k < report.hops.size(); ++k) {
    const std::string prefix = "hop" + std::to_string(k) + "_";
    stats.emplace_back(prefix + "forwarded", static_cast<double>(report.hops[k].forwarded));
    stats.emplace_back(prefix + "drops", static_cast<double>(report.hops[k].queue_drops));
  }
  for (size_t r = 0; r < report.ring_utilization.size(); ++r) {
    stats.emplace_back("ring" + std::to_string(r) + "_utilization",
                       report.ring_utilization[r]);
  }
  AppendClassStats(report.classes, &stats);
  AppendHopClassStats(report.hops, &stats);
  return stats;
}

StatList SummaryStats(const MediaMixReport& report) {
  StatList stats = {
      {"streams", static_cast<double>(report.streams.size())},
      {"media_classes", static_cast<double>(report.classes.size())},
      {"quality_controller", report.config.quality_controller ? 1.0 : 0.0},
      {"aggregate_distortion", report.aggregate_distortion},
      {"ring_utilization", report.ring_utilization},
      {"ring_priority_preemptions", static_cast<double>(report.ring_priority_preemptions)},
      {"ring_reservations", static_cast<double>(report.ring_reservations)},
      {"controller_epochs", static_cast<double>(report.controller_epochs)},
      {"controller_updates", static_cast<double>(report.controller_updates)},
  };
  AppendClassStats(report.classes, &stats);
  // Only mediamix reports class latency and the controller's final priority; they follow
  // the shared rows.
  for (const ClassQoE& qoe : report.classes) {
    const std::string prefix = "class." + qoe.name + ".";
    stats.emplace_back(prefix + "mean_latency_us", ToSecondsF(qoe.mean_latency) * 1e6);
    stats.emplace_back(prefix + "max_latency_us", ToSecondsF(qoe.max_latency) * 1e6);
    stats.emplace_back(prefix + "ring_priority", static_cast<double>(qoe.ring_priority));
  }
  return stats;
}

StatList SummaryStats(const FaultSweepReport& report) {
  StatList stats;
  for (const FaultSweepRow& row : report.rows) {
    // kNone rows keep the legacy prefix and key set byte-exact (campaign goldens and
    // pre-recovery diffing depend on it); recovery rows name their family and add the
    // frontier coordinates.
    std::string prefix =
        "L" + std::to_string(row.level) + "_" + DegradationModeName(row.policy) + "_";
    if (row.recovery != RecoveryMode::kNone) {
      prefix += std::string(RecoveryModeName(row.recovery)) + "_";
    }
    stats.emplace_back(prefix + "delivered_ratio", row.delivered_ratio);
    stats.emplace_back(prefix + "purges", static_cast<double>(row.purges_injected));
    stats.emplace_back(prefix + "retransmissions", static_cast<double>(row.retransmissions));
    if (row.recovery != RecoveryMode::kNone) {
      stats.emplace_back(prefix + "repaired", static_cast<double>(row.repaired));
      stats.emplace_back(prefix + "nacks_sent", static_cast<double>(row.nacks_sent));
      stats.emplace_back(prefix + "resends", static_cast<double>(row.resends));
      stats.emplace_back(prefix + "parity_overhead_bytes",
                         static_cast<double>(row.parity_overhead_bytes));
      stats.emplace_back(prefix + "loss_ratio", row.loss_ratio);
      stats.emplace_back(prefix + "mean_latency_us", row.mean_latency_us);
      stats.emplace_back(prefix + "p98_latency_us", row.p98_latency_us);
    }
  }
  return stats;
}

}  // namespace ctms
