#include "soc/core/mapping_validator.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "dse_internal.hpp"

namespace soc::core {

MappingValidator::MappingValidator(const TaskGraph& graph,
                                   const PlatformDesc& platform,
                                   Mapping mapping, ValidatorConfig cfg,
                                   std::unique_ptr<noc::Topology> prebuilt)
    : MappingValidator(graph, platform, std::move(mapping), cfg) {
  if (prebuilt && prebuilt->terminal_count() != platform.pe_count()) {
    throw std::invalid_argument(
        "MappingValidator: prebuilt topology has " +
        std::to_string(prebuilt->terminal_count()) + " terminals for " +
        std::to_string(platform.pe_count()) + " PEs");
  }
  prebuilt_ = std::move(prebuilt);
}

MappingValidator::MappingValidator(const TaskGraph& graph,
                                   const PlatformDesc& platform,
                                   Mapping mapping, ValidatorConfig cfg)
    : graph_(&graph),
      platform_(&platform),
      mapping_(std::move(mapping)),
      cfg_(cfg) {
  if (static_cast<int>(mapping_.size()) != graph.node_count()) {
    throw std::invalid_argument("MappingValidator: mapping size mismatch");
  }
  internal::validate_validator_config(cfg_);
}

ValidationReport MappingValidator::run() {
  ValidationReport r;
  r.analytic = evaluate_mapping(*graph_, *platform_, mapping_);
  r.analytic_items_per_kcycle = r.analytic.bottleneck_cycles > 0.0
                                    ? 1000.0 / r.analytic.bottleneck_cycles
                                    : 0.0;

  // Lower every task-graph edge to its steady-state NoC flow. Edges whose
  // endpoints share a PE stay local (no packet), but are still reported.
  const int ne = graph_->edge_count();
  std::vector<noc::Flow> flows;
  std::vector<int> flow_of_edge(static_cast<std::size_t>(ne), -1);
  r.edges.resize(static_cast<std::size_t>(ne));
  for (int e = 0; e < ne; ++e) {
    const TaskEdge& edge = graph_->edge(e);
    EdgeFlowReport& er = r.edges[static_cast<std::size_t>(e)];
    er.edge = e;
    er.src_pe = mapping_[static_cast<std::size_t>(edge.src)];
    er.dst_pe = mapping_[static_cast<std::size_t>(edge.dst)];
    er.hops = platform_->hops(er.src_pe, er.dst_pe);
    er.flits = static_cast<std::uint32_t>(std::max(
        1.0, std::ceil(edge.words_per_item / cfg_.words_per_flit)));
    er.local = er.src_pe == er.dst_pe;
    if (!er.local) {
      flow_of_edge[static_cast<std::size_t>(e)] =
          static_cast<int>(flows.size());
      flows.push_back(noc::Flow{static_cast<noc::TerminalId>(er.src_pe),
                                static_cast<noc::TerminalId>(er.dst_pe),
                                er.flits});
    }
  }

  const bool open_loop = cfg_.mode == noc::ReplayConfig::Mode::kOpenLoop;
  const auto period = std::max<sim::Cycle>(
      1, static_cast<sim::Cycle>(
             std::llround(r.analytic.bottleneck_cycles / cfg_.load_factor)));
  if (open_loop) {
    r.offered_items_per_kcycle = 1000.0 / static_cast<double>(period);
  }

  if (flows.empty()) {
    // Every transfer is PE-local: the NoC imposes no constraint, so the
    // platform sustains whatever the pacing offers (open loop) or whatever
    // compute allows (closed loop).
    r.network_active = false;
    r.simulated_items_per_kcycle =
        open_loop ? r.offered_items_per_kcycle : r.analytic_items_per_kcycle;
    r.sim_to_analytic_ratio =
        r.analytic_items_per_kcycle > 0.0
            ? r.simulated_items_per_kcycle / r.analytic_items_per_kcycle
            : 0.0;
    return r;
  }
  r.network_active = true;

  // Replay on the caller-built topology when one was handed in (the DSE
  // session's single-build contract); otherwise the platform rebuilds its
  // own, so physically annotated sweeps replay on the same per-link wire
  // latencies the analytic matrices saw either way.
  queue_.reset();
  noc::Network net(prebuilt_ ? std::move(prebuilt_)
                             : platform_->build_topology(),
                   cfg_.net, queue_);
  noc::ReplayConfig rc;
  rc.mode = cfg_.mode;
  rc.period = period;
  rc.max_outstanding_rounds = cfg_.max_outstanding_rounds;
  noc::FlowReplayer replayer(net, std::move(flows), rc, queue_);

  replayer.start();
  queue_.run_until(cfg_.warmup_cycles);
  net.reset_stats();
  replayer.reset_stats();
  const std::uint64_t rounds_before = replayer.rounds_completed();
  queue_.run_until(cfg_.warmup_cycles + cfg_.measure_cycles);
  replayer.stop();

  r.rounds_completed = replayer.rounds_completed() - rounds_before;
  r.simulated_items_per_kcycle =
      1000.0 * static_cast<double>(r.rounds_completed) /
      static_cast<double>(cfg_.measure_cycles);
  r.sim_to_analytic_ratio =
      r.analytic_items_per_kcycle > 0.0
          ? r.simulated_items_per_kcycle / r.analytic_items_per_kcycle
          : 0.0;
  r.network_saturated =
      open_loop &&
      r.simulated_items_per_kcycle < 0.95 * r.offered_items_per_kcycle;

  // Per-edge measurements and the fabric-wide latency mean, computed from
  // the replayer's own window accumulators so they stay valid even when
  // cfg.net.record_latency is off for long runs.
  double latency_sum = 0.0;
  std::uint64_t latency_n = 0;
  for (int e = 0; e < ne; ++e) {
    const int fi = flow_of_edge[static_cast<std::size_t>(e)];
    if (fi < 0) continue;
    const noc::FlowStats& fs = replayer.stats(static_cast<std::size_t>(fi));
    EdgeFlowReport& er = r.edges[static_cast<std::size_t>(e)];
    er.packets_delivered = fs.window_delivered;
    er.avg_latency_cycles = fs.avg_latency();
    er.max_latency_cycles = fs.latency_max;
    latency_sum += fs.latency_sum;
    latency_n += fs.window_delivered;
  }
  r.avg_packet_latency =
      latency_n ? latency_sum / static_cast<double>(latency_n) : 0.0;
  r.peak_link_utilization = net.peak_link_utilization(cfg_.measure_cycles);

  // Contention hot-spots: all links ranked by busy fraction, ties broken by
  // index for determinism; zero-utilization links are uninteresting.
  std::vector<LinkHotspot> spots;
  const auto num_topo_links = net.topology().links().size();
  for (std::size_t li = 0; li < net.link_count(); ++li) {
    const double u = net.link_utilization(li, cfg_.measure_cycles);
    if (u <= 0.0) continue;
    LinkHotspot h;
    h.link = static_cast<int>(li);
    h.ni = li >= num_topo_links;
    if (h.ni) {
      h.to_router = net.topology().attach_router(
          static_cast<noc::TerminalId>(li - num_topo_links));
    } else {
      h.from_router = net.topology().links()[li].from_router;
      h.to_router = net.topology().links()[li].to_router;
    }
    h.utilization = u;
    spots.push_back(h);
  }
  std::sort(spots.begin(), spots.end(),
            [](const LinkHotspot& a, const LinkHotspot& b) {
              if (a.utilization != b.utilization) {
                return a.utilization > b.utilization;
              }
              return a.link < b.link;
            });
  if (spots.size() > static_cast<std::size_t>(cfg_.top_hotspots)) {
    spots.resize(static_cast<std::size_t>(cfg_.top_hotspots));
  }
  r.hotspots = std::move(spots);
  return r;
}

}  // namespace soc::core
