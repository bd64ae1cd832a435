#include "soc/core/dse.hpp"

#include <sstream>
#include <string>

#include "dse_internal.hpp"

namespace soc::core {

namespace {

/// Silicon estimate of a candidate under the sweep's physical config; also
/// the source of the auto-sized die the floorplan uses.
platform::PlatformCost candidate_cost(const DseCandidate& cand,
                                      const DseConfig& config) {
  platform::FppaConfig fc;
  fc.num_pes = cand.num_pes;
  fc.threads_per_pe = cand.threads_per_pe;
  fc.topology = cand.topology;
  return platform::estimate_cost(
      fc, cand.node,
      platform::PhysicalCostConfig{config.die_mm2, config.link_timing});
}

}  // namespace

std::vector<DseCandidate> enumerate_candidates(
    const DseSpace& space, const tech::ProcessNode& fallback_node) {
  internal::validate_space(space);
  const std::vector<tech::ProcessNode> nodes =
      space.nodes.empty() ? std::vector<tech::ProcessNode>{fallback_node}
                          : space.nodes;
  std::vector<DseCandidate> candidates;
  candidates.reserve(nodes.size() * space.pe_counts.size() *
                     space.thread_counts.size() * space.topologies.size() *
                     space.fabrics.size());
  for (const auto& node : nodes) {
    for (const int pes : space.pe_counts) {
      for (const int threads : space.thread_counts) {
        for (const auto topo : space.topologies) {
          for (const auto fabric : space.fabrics) {
            candidates.push_back(DseCandidate{pes, threads, topo, fabric, node});
          }
        }
      }
    }
  }
  return candidates;
}

PlatformDesc make_candidate_platform(const DseCandidate& cand,
                                     const DseConfig& config) {
  const platform::PlatformCost silicon = candidate_cost(cand, config);
  return PlatformDesc(
      internal::candidate_pes(cand, config), cand.topology, cand.node,
      internal::candidate_physical_spec(cand, config, silicon.die_mm2));
}

std::string to_string(const DsePoint& p) {
  std::ostringstream os;
  if (!p.scenario_name.empty()) os << "[" << p.scenario_name << "] ";
  os << p.candidate.node.name << " " << p.candidate.num_pes << " PEs x"
     << p.candidate.threads_per_pe << "T "
     << noc::to_string(p.candidate.topology) << " "
     << tech::fabric_profile(p.candidate.pe_fabric).name
     << " | tp=" << p.throughput_per_kcycle << " items/kcyc"
     << " area=" << p.silicon.total_area_mm2 << "mm2"
     << " power=" << p.silicon.peak_dynamic_mw + p.silicon.leakage_mw << "mW"
     << (p.pareto_optimal ? " *pareto*" : "");
  if (p.validated) {
    os << " | sim=" << p.sim_throughput_per_kcycle << " items/kcyc"
       << " (ratio " << p.sim_to_analytic_ratio << ", peak link "
       << p.sim_peak_link_utilization << (p.sim_network_saturated
                                              ? ", SATURATED)"
                                              : ")");
  }
  return os.str();
}

}  // namespace soc::core
