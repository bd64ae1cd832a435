// Physically-aware DSE across the process roadmap: the same design space is
// swept at 130/90/65 nm on one fixed die geometry, with every candidate's
// NoC floorplanned and its wire delays/energy folded into both DSE stages.
// Reproduces the paper's Section 6.1 claim that deep-submicron wire delay —
// not logic — starts deciding the platform architecture: as the node
// shrinks, shared-medium topologies accumulate multi-cycle wires and the
// Pareto front shifts toward short-wire fabrics. Emits
// BENCH_physical_dse.json with the per-node front composition (under both
// the classic 3-axis objective triple and the 4-axis set with
// energy-per-item added — the energy frontier per node) and the wire-delay
// share of edge latency.
#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "soc/apps/graphs.hpp"
#include "soc/core/dse.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/objective_space.hpp"

using namespace soc;

namespace {

constexpr double kDieMm2 = 225.0;  // 15 mm x 15 mm, the paper's big die

std::set<std::string> front_set(const std::vector<core::DsePoint>& pts) {
  std::set<std::string> s;
  for (const auto& pt : pts) {
    if (!pt.pareto_optimal) continue;
    s.insert(std::to_string(pt.candidate.num_pes) + "x" +
             std::to_string(pt.candidate.threads_per_pe) + " " +
             noc::to_string(pt.candidate.topology));
  }
  return s;
}

std::string topology_census(const std::vector<core::DsePoint>& pts) {
  std::map<std::string, int> census;
  for (const auto& pt : pts) {
    if (pt.pareto_optimal) ++census[noc::to_string(pt.candidate.topology)];
  }
  std::string out;
  for (const auto& [name, n] : census) {
    if (!out.empty()) out += ",";
    out += name + "=" + std::to_string(n);
  }
  return out;
}

bool same_sim_figures(const std::vector<core::DsePoint>& a,
                      const std::vector<core::DsePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].validated != b[i].validated ||
        a[i].sim_throughput_per_kcycle != b[i].sim_throughput_per_kcycle ||
        a[i].sim_avg_packet_latency != b[i].sim_avg_packet_latency) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::JsonReport json("physical_dse");

  core::DseSpace space;
  space.pe_counts = {4, 8, 16};
  space.thread_counts = {2, 4};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D,
                      noc::TopologyKind::kCrossbar};
  space.fabrics = {tech::Fabric::kAsip};
  core::AnnealConfig ac;
  ac.iterations = 2'000;
  core::DseConfig dc;
  dc.die_mm2 = kDieMm2;
  dc.validate_pareto = true;
  const auto graph = apps::mjpeg_task_graph();
  const std::vector<std::string> node_names{"130nm", "90nm", "65nm"};

  bench::title("P1", "Nanometer wall: per-node fronts on one fixed die");
  bench::note("same DseSpace, same 225 mm2 floorplan, shrinking transistors;");
  bench::note("wire delay folded into link latency, energy, area and power");
  bench::rule();

  std::vector<std::set<std::string>> fronts;
  std::vector<std::vector<core::DsePoint>> per_node_points;
  bool energy_front_differs = false;
  double total_ms = 0.0;
  int prev_extra = 0;
  bool extra_monotonic = true;
  int extra_130 = 0, extra_65 = 0;
  for (const auto& name : node_names) {
    core::DseSpace s = space;
    s.nodes = {*tech::find_node(name)};
    const auto t0 = std::chrono::steady_clock::now();
    auto points = core::DseSession(core::DseProblem{graph}, s, ac, dc).run();
    total_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

    // Wire-delay share of edge latency, averaged over validated front
    // points: extra wire cycles / total unloaded path latency at the
    // platform's average PE distance.
    double share_sum = 0.0;
    int share_n = 0;
    for (const auto& pt : points) {
      if (!pt.validated) continue;
      const auto platform = core::make_candidate_platform(pt.candidate, dc);
      const double avg_lat = platform.avg_path_latency_cycles();
      const double hop_lat = core::kNocCyclesPerHop * platform.avg_hops();
      if (avg_lat > 0.0) {
        share_sum += (avg_lat - hop_lat) / avg_lat;
        ++share_n;
      }
    }
    const double share = share_n ? share_sum / share_n : 0.0;

    // Wire-physics probe on one FIXED candidate (the 16-PE crossbar — the
    // longest wires in the space), independent of which candidates made the
    // front at this node, so the monotonicity verdict measures the wires
    // and not the front composition.
    const core::DseCandidate probe{16, 4, noc::TopologyKind::kCrossbar,
                                   tech::Fabric::kAsip, *tech::find_node(name)};
    const auto probe_platform = core::make_candidate_platform(probe, dc);
    int max_extra = 0;
    for (int a = 0; a < probe.num_pes; ++a) {
      for (int b = 0; b < probe.num_pes; ++b) {
        max_extra = std::max(max_extra, probe_platform.path_extra_cycles(a, b));
      }
    }
    const auto front = front_set(points);

    // The energy frontier at this node: the same analytic sweep ranked by a
    // 4-axis DseSession (tput, area, power, energy-per-item). Dominance
    // over more axes is strictly harder, so this front is a superset; the
    // extra members are the energy-efficient designs the classic triple
    // hides. Deliberately a full (stage-1) DseSession rather than a cheap
    // mark_front over a copy of `points`: this bench is the acceptance
    // artifact that the 4-axis *session* changes the front on a real node
    // sweep, end to end through the API. The redundant anneal pass runs
    // outside the timed region above.
    core::DseProblem p4{graph,
                        core::ObjectiveSpace::from_names(
                            "tput,area,power,energy"),
                        {}, tech::node_90nm()};
    core::DseConfig dc4 = dc;       // same physical sweep (225 mm2 die) ...
    dc4.validate_pareto = false;    // ... but the census only needs stage 1
    core::DseSession session4(std::move(p4), s, ac, dc4);
    session4.front();
    const auto front4 = front_set(session4.points());
    std::printf("  %-6s front=%zu {%s} | +energy axis front=%zu | wire-delay "
                "share %.1f%% | crossbar path extra %d cyc\n",
                name.c_str(), front.size(), topology_census(points).c_str(),
                front4.size(), 100.0 * share, max_extra);

    if (name == "130nm") extra_130 = max_extra;
    if (name == "65nm") extra_65 = max_extra;
    extra_monotonic = extra_monotonic && max_extra >= prev_extra;
    prev_extra = max_extra;

    json.add(name + ".front_points", static_cast<long long>(front.size()));
    json.add(name + ".front_topologies", topology_census(points));
    json.add(name + ".front_points_energy4",
             static_cast<long long>(front4.size()));
    json.add(name + ".front_topologies_energy4",
             topology_census(session4.points()));
    json.add(name + ".wire_delay_share_of_latency", share);
    json.add(name + ".crossbar_path_extra_cycles",
             static_cast<long long>(max_extra));
    energy_front_differs = energy_front_differs || front4 != front;
    fronts.push_back(front);
    per_node_points.push_back(std::move(points));
  }
  bench::rule();
  std::printf("  %zu nodes x %zu candidates in %.0f ms\n", node_names.size(),
              per_node_points.front().size(), total_ms);
  bench::verdict(extra_monotonic && extra_65 > extra_130,
                 "wire extra-latency grows monotonically as the node "
                 "shrinks at fixed die");
  const bool shifted = fronts.front() != fronts.back();
  bench::verdict(shifted,
                 "the Pareto front shifts between 130 nm and 65 nm (wire "
                 "delay decides architecture)");
  bench::verdict(energy_front_differs,
                 "adding the energy-per-item axis changes the front on at "
                 "least one node (the triple hides energy-optimal designs)");
  json.add("front_shift_130_vs_65", shifted);
  json.add("energy_axis_changes_front", energy_front_differs);
  json.add("extra_latency_monotonic", extra_monotonic);
  json.add("candidates_per_node",
           static_cast<long long>(per_node_points.front().size()));
  json.add("die_mm2", kDieMm2);
  json.add("sweep_ms", total_ms);

  bench::title("P2", "Determinism: physical sweep at 1 thread vs all cores");
  bench::rule();
  core::DseSpace s65 = space;
  s65.nodes = {*tech::find_node("65nm")};
  core::DseConfig serial = dc;
  serial.num_threads = 1;
  const auto pts_serial =
      core::DseSession(core::DseProblem{graph}, s65, ac, serial).run();
  const bool deterministic =
      same_sim_figures(per_node_points.back(), pts_serial);
  bench::verdict(deterministic,
                 "validated physical sweep bit-identical across thread "
                 "counts");
  json.add("deterministic_across_threads", deterministic);

  bench::title("P3", "Analytic-vs-simulated agreement survives wire delay");
  bench::note("open-loop replay on the annotated NoC must still carry the");
  bench::note("analytically predicted load at every node");
  bench::rule();
  double min_ratio = 1e300;
  int saturated = 0, validated = 0;
  for (const auto& points : per_node_points) {
    for (const auto& pt : points) {
      if (!pt.validated) continue;
      ++validated;
      min_ratio = std::min(min_ratio, pt.sim_to_analytic_ratio);
      saturated += pt.sim_network_saturated ? 1 : 0;
    }
  }
  std::printf("  %d validated front points | min sim/analytic ratio %.2f | "
              "%d saturated\n",
              validated, validated ? min_ratio : 0.0, saturated);
  bench::verdict(validated > 0 && min_ratio >= 0.5,
                 "node-dependent latencies did not break the two-stage "
                 "agreement");
  json.add("validated_points", static_cast<long long>(validated));
  json.add("min_sim_to_analytic_ratio", validated ? min_ratio : 0.0);
  json.add("saturated_points", static_cast<long long>(saturated));

  json.write();
  return bench::exit_code();
}
