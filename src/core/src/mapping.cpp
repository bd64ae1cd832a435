#include "soc/core/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "mapping_internal.hpp"
#include "soc/core/exact_sum.hpp"
#include "soc/core/incremental_objective.hpp"

namespace soc::core {

using internal::cycles_on;
using internal::edge_comm_contribution;
using internal::energy_on;

PlatformDesc::PlatformDesc(std::vector<PeDesc> pes, noc::TopologyKind topology,
                           const tech::ProcessNode& node,
                           std::optional<noc::PhysicalSpec> phys)
    : pes_(std::move(pes)),
      topology_(topology),
      node_(node),
      phys_(std::move(phys)) {
  if (pes_.empty()) throw std::invalid_argument("PlatformDesc: no PEs");
  build_matrices(*build_topology());
}

PlatformDesc::PlatformDesc(std::vector<PeDesc> pes, noc::TopologyKind topology,
                           const tech::ProcessNode& node,
                           std::optional<noc::PhysicalSpec> phys,
                           const noc::Topology& prebuilt)
    : pes_(std::move(pes)),
      topology_(topology),
      node_(node),
      phys_(std::move(phys)) {
  if (pes_.empty()) throw std::invalid_argument("PlatformDesc: no PEs");
  if (prebuilt.terminal_count() != pe_count()) {
    throw std::invalid_argument(
        "PlatformDesc: prebuilt topology has " +
        std::to_string(prebuilt.terminal_count()) + " terminals for " +
        std::to_string(pe_count()) + " PEs");
  }
  build_matrices(prebuilt);
}

void PlatformDesc::build_matrices(const noc::Topology& topo) {
  const int n = pe_count();
  const std::size_t cells =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  hop_matrix_.assign(cells, 0);
  extra_matrix_.assign(cells, 0);
  latency_matrix_.assign(cells, 0.0);
  wire_pj_matrix_.assign(cells, 0.0);
  // Legacy energy scale for unplaced platforms: one mm of global wire per
  // hop, 32 bits per word.
  const double legacy_pj_per_word_hop =
      tech::EnergyModel(node_).wire_bit_pj_per_mm() * 32.0;
  double sum = 0.0;
  double lat_sum = 0.0;
  int pairs = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      const std::size_t cell =
          static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
          static_cast<std::size_t>(b);
      // Walk the routed path once, accumulating hops, wire pipeline stages
      // and wire energy from the links actually traversed.
      int h = 0;
      int extra = 0;
      double pj = 0.0;
      int router = topo.attach_router(static_cast<noc::TerminalId>(a));
      for (int li = topo.route(router, static_cast<noc::TerminalId>(b));
           li >= 0; li = topo.route(router, static_cast<noc::TerminalId>(b))) {
        const noc::LinkSpec& l = topo.links()[static_cast<std::size_t>(li)];
        ++h;
        extra += static_cast<int>(l.extra_latency);
        pj += 32.0 * l.energy_pj_per_mm * l.length_mm;
        router = l.to_router;
      }
      hop_matrix_[cell] = h;
      extra_matrix_[cell] = extra;
      latency_matrix_[cell] = kNocCyclesPerHop * h + extra;
      wire_pj_matrix_[cell] = phys_ ? pj : h * legacy_pj_per_word_hop;
      if (a != b) {
        sum += h;
        lat_sum += latency_matrix_[cell];
        ++pairs;
      }
    }
  }
  avg_hops_ = pairs ? sum / pairs : 0.0;
  avg_latency_ = pairs ? lat_sum / pairs : 0.0;
}

std::unique_ptr<noc::Topology> PlatformDesc::build_topology() const {
  return noc::make_topology(topology_, pe_count(),
                            phys_ ? &*phys_ : nullptr);
}

int PlatformDesc::hops(int pe_a, int pe_b) const {
  const int n = pe_count();
  if (pe_a < 0 || pe_a >= n || pe_b < 0 || pe_b >= n) {
    throw std::out_of_range("PlatformDesc::hops");
  }
  return hop_matrix_[static_cast<std::size_t>(pe_a) * static_cast<std::size_t>(n) +
                     static_cast<std::size_t>(pe_b)];
}

int PlatformDesc::path_extra_cycles(int pe_a, int pe_b) const {
  const int n = pe_count();
  if (pe_a < 0 || pe_a >= n || pe_b < 0 || pe_b >= n) {
    throw std::out_of_range("PlatformDesc::path_extra_cycles");
  }
  return extra_matrix_[static_cast<std::size_t>(pe_a) *
                           static_cast<std::size_t>(n) +
                       static_cast<std::size_t>(pe_b)];
}

double PlatformDesc::wire_pj_per_word(int pe_a, int pe_b) const {
  const int n = pe_count();
  if (pe_a < 0 || pe_a >= n || pe_b < 0 || pe_b >= n) {
    throw std::out_of_range("PlatformDesc::wire_pj_per_word");
  }
  return wire_pj_matrix_[static_cast<std::size_t>(pe_a) *
                             static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(pe_b)];
}

double PlatformDesc::path_latency_cycles(int pe_a, int pe_b) const {
  const int n = pe_count();
  if (pe_a < 0 || pe_a >= n || pe_b < 0 || pe_b >= n) {
    throw std::out_of_range("PlatformDesc::path_latency_cycles");
  }
  return latency_matrix_[static_cast<std::size_t>(pe_a) *
                             static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(pe_b)];
}

const double* PlatformDesc::latency_row(int pe_src) const {
  if (pe_src < 0 || pe_src >= pe_count()) {
    throw std::out_of_range("PlatformDesc::latency_row");
  }
  return latency_matrix_.data() +
         static_cast<std::size_t>(pe_src) * static_cast<std::size_t>(pe_count());
}

const int* PlatformDesc::hop_row(int pe_src) const {
  if (pe_src < 0 || pe_src >= pe_count()) {
    throw std::out_of_range("PlatformDesc::hop_row");
  }
  return hop_matrix_.data() +
         static_cast<std::size_t>(pe_src) * static_cast<std::size_t>(pe_count());
}

const double* PlatformDesc::wire_pj_row(int pe_src) const {
  if (pe_src < 0 || pe_src >= pe_count()) {
    throw std::out_of_range("PlatformDesc::wire_pj_row");
  }
  return wire_pj_matrix_.data() +
         static_cast<std::size_t>(pe_src) * static_cast<std::size_t>(pe_count());
}

MappingCost evaluate_mapping(const TaskGraph& graph,
                             const PlatformDesc& platform,
                             const Mapping& mapping,
                             const ObjectiveWeights& weights,
                             const MappingConstraints& constraints) {
  if (static_cast<int>(mapping.size()) != graph.node_count()) {
    throw std::invalid_argument("evaluate_mapping: mapping size mismatch");
  }
  MappingCost cost;
  const int n = graph.node_count();
  const int npe = platform.pe_count();
  const tech::EnergyModel em(platform.node());  // hoisted out of the task loop

  std::vector<double> pe_cycles(static_cast<std::size_t>(npe), 0.0);
  std::vector<double> node_cycles(static_cast<std::size_t>(n), 0.0);
  std::vector<double> node_energy(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const int pe = mapping[static_cast<std::size_t>(i)];
    if (pe < 0 || pe >= npe) {
      throw std::out_of_range("evaluate_mapping: PE index out of range");
    }
    const TaskNode& node = graph.node(i);
    const tech::Fabric fabric = platform.pe(pe).fabric;
    if (!node.allows(fabric)) cost.feasible = false;
    node_cycles[static_cast<std::size_t>(i)] = cycles_on(node, fabric);
    pe_cycles[static_cast<std::size_t>(pe)] +=
        node_cycles[static_cast<std::size_t>(i)];
    node_energy[static_cast<std::size_t>(i)] = energy_on(node, fabric, em);
  }
  // Every index is in range here, so the audit reports only kind and
  // capacity findings.
  cost.violations = constraints.violations(graph, platform, mapping);
  if (!cost.violations.empty()) cost.feasible = false;
  cost.bottleneck_cycles =
      n ? *std::max_element(pe_cycles.begin(), pe_cycles.end()) : 0.0;

  // Per-edge contributions, reduced with the fixed-shape pairwise sum so the
  // incremental evaluator can reproduce the totals exactly after point
  // updates (see exact_sum.hpp). Wire energy prices the routed path's real
  // floorplanned length on physical platforms (1 mm/hop otherwise).
  // Every mapping entry was range-checked in the node loop above, so the
  // edge and latency passes stream the platform's SoA lanes unchecked.
  const int ne = graph.edge_count();
  std::vector<double> comm(static_cast<std::size_t>(ne), 0.0);
  std::vector<double> wire(static_cast<std::size_t>(ne), 0.0);
  for (int e = 0; e < ne; ++e) {
    const TaskEdge& edge = graph.edge(e);
    const int src_pe = mapping[static_cast<std::size_t>(edge.src)];
    const int dst_pe = mapping[static_cast<std::size_t>(edge.dst)];
    comm[static_cast<std::size_t>(e)] =
        edge_comm_contribution(edge, platform.hop_row(src_pe)[dst_pe]);
    wire[static_cast<std::size_t>(e)] = internal::edge_wire_contribution(
        edge, platform.wire_pj_row(src_pe)[dst_pe]);
  }
  cost.comm_word_hops = PairwiseSum::reduce(comm);
  cost.energy_pj_per_item =
      PairwiseSum::reduce(node_energy) + PairwiseSum::reduce(wire);

  // Pipeline latency: longest path through the DAG, each node costing its
  // mapped-cycles plus per-edge NoC path latency (hop pipeline plus the
  // tech-derived wire stages on physical platforms). O(V+E) over the
  // adjacency lists (this pass used to scan the full edge vector per node).
  const auto order = graph.topological_order();
  std::vector<double> finish(static_cast<std::size_t>(n), 0.0);
  for (const int u : order) {
    double start = 0.0;
    for (const int ei : graph.in_edges(u)) {
      const TaskEdge& e = graph.edge(ei);
      const double lat =
          platform.latency_row(mapping[static_cast<std::size_t>(e.src)])
              [mapping[static_cast<std::size_t>(e.dst)]];
      start = std::max(start, finish[static_cast<std::size_t>(e.src)] + lat);
    }
    finish[static_cast<std::size_t>(u)] =
        start + node_cycles[static_cast<std::size_t>(u)];
  }
  cost.pipeline_latency =
      finish.empty() ? 0.0 : *std::max_element(finish.begin(), finish.end());

  cost.objective = internal::scalarized_objective(
      weights, cost.bottleneck_cycles, cost.comm_word_hops,
      cost.energy_pj_per_item, cost.feasible);
  return cost;
}

Mapping random_mapping(const TaskGraph& graph, const PlatformDesc& platform,
                       sim::Rng& rng, const MappingConstraints& constraints) {
  Mapping m(static_cast<std::size_t>(graph.node_count()), 0);
  std::vector<double> used(static_cast<std::size_t>(platform.pe_count()), 0.0);
  std::vector<int> feasible;
  for (int i = 0; i < graph.node_count(); ++i) {
    const TaskNode& node = graph.node(i);
    // Draw from the strictest non-empty rung of the placement ladder (the
    // fabric-only rung is the unconstrained fixed point, so the RNG stream
    // is untouched on untagged graphs); uniform over all PEs when even the
    // fabric rung is empty.
    feasible.clear();
    for (int strictness = 2; strictness >= 0 && feasible.empty();
         --strictness) {
      for (int p = 0; p < platform.pe_count(); ++p) {
        if (internal::eligible(node, platform.pe(p), constraints, strictness,
                               used[static_cast<std::size_t>(p)])) {
          feasible.push_back(p);
        }
      }
    }
    int pick;
    if (feasible.empty()) {
      pick = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(platform.pe_count())));
    } else {
      pick = feasible[rng.next_below(feasible.size())];
    }
    m[static_cast<std::size_t>(i)] = pick;
    used[static_cast<std::size_t>(pick)] += node.demand;
  }
  return m;
}

Mapping greedy_mapping(const TaskGraph& graph, const PlatformDesc& platform,
                       const ObjectiveWeights& weights,
                       const MappingConstraints& constraints) {
  const int n = graph.node_count();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return graph.node(a).work_ops > graph.node(b).work_ops;
  });

  const tech::EnergyModel em(platform.node());

  // Incremental state: per-PE accumulated cycles and demand; partial mapping.
  Mapping m(static_cast<std::size_t>(n), -1);
  std::vector<double> pe_cycles(static_cast<std::size_t>(platform.pe_count()), 0.0);
  std::vector<double> pe_used(static_cast<std::size_t>(platform.pe_count()), 0.0);

  for (const int node_idx : order) {
    const TaskNode& node = graph.node(node_idx);
    double best = std::numeric_limits<double>::infinity();
    int best_pe = 0;
    // Relaxing the placement ladder only on an empty stricter rung keeps
    // unconstrained runs on the exact pre-constraint placement path.
    for (int strictness = 2; strictness >= 0; --strictness) {
      for (int p = 0; p < platform.pe_count(); ++p) {
        const PeDesc& pe = platform.pe(p);
        if (!internal::eligible(node, pe, constraints, strictness,
                                pe_used[static_cast<std::size_t>(p)])) {
          continue;
        }
        const tech::Fabric fabric = pe.fabric;
        const double new_load =
            pe_cycles[static_cast<std::size_t>(p)] + cycles_on(node, fabric);
        // Communication with already-placed neighbors: only the node's own
        // incident edges, not the whole edge vector, streamed off the
        // candidate PE's contiguous hop lane.
        const int* hop_lane = platform.hop_row(p);
        double comm = 0.0;
        const auto add_comm = [&](const TaskEdge& e, int other) {
          if (m[static_cast<std::size_t>(other)] < 0) return;
          comm += e.words_per_item *
                  hop_lane[m[static_cast<std::size_t>(other)]];
        };
        for (const int ei : graph.in_edges(node_idx)) {
          add_comm(graph.edge(ei), graph.edge(ei).src);
        }
        for (const int ei : graph.out_edges(node_idx)) {
          add_comm(graph.edge(ei), graph.edge(ei).dst);
        }
        const double score = weights.load * new_load + weights.comm * comm +
                             weights.energy * energy_on(node, fabric, em);
        if (score < best) {
          best = score;
          best_pe = p;
        }
      }
      if (best < std::numeric_limits<double>::infinity()) break;
    }
    m[static_cast<std::size_t>(node_idx)] = best_pe;
    pe_cycles[static_cast<std::size_t>(best_pe)] +=
        cycles_on(node, platform.pe(best_pe).fabric);
    pe_used[static_cast<std::size_t>(best_pe)] += node.demand;
  }
  return m;
}

Mapping anneal_mapping(const TaskGraph& graph, const PlatformDesc& platform,
                       const ObjectiveWeights& weights, const AnnealConfig& cfg,
                       sim::Rng& rng, const MappingConstraints& constraints) {
  Mapping best = greedy_mapping(graph, platform, weights, constraints);
  if (graph.node_count() == 0 || platform.pe_count() < 2) return best;

  // All scoring goes through the O(degree) incremental evaluator; the full
  // evaluator runs zero times inside the loop (latency, which the objective
  // excludes, is whatever the caller recomputes once on the result). Each
  // proposal is scored read-only with peek, and only an accepted one is
  // applied, so a rejected move writes nothing.
  IncrementalObjective obj(graph, platform, weights, best, constraints);
  double cur_obj = obj.objective();
  double best_obj = cur_obj;

  const std::uint64_t n = static_cast<std::uint64_t>(graph.node_count());
  const std::uint64_t npe = static_cast<std::uint64_t>(platform.pe_count());
  const double decay =
      std::pow(cfg.t_end / cfg.t_start, 1.0 / std::max(1, cfg.iterations - 1));
  double temp = cfg.t_start;

  for (int it = 0; it < cfg.iterations; ++it, temp *= decay) {
    const int task = static_cast<int>(rng.next_below(n));
    const int old_pe = obj.mapping()[static_cast<std::size_t>(task)];
    // Sample from the pe_count-1 PEs that differ from old_pe, so every
    // iteration proposes a real move (no budget burned on collisions).
    int new_pe = static_cast<int>(rng.next_below(npe - 1));
    if (new_pe >= old_pe) ++new_pe;

    // Constraint-violating moves are rejected before scoring — no penalty
    // walk, no acceptance draw — so a feasible trajectory stays feasible
    // and the unconstrained trajectory is untouched (every move passes).
    if (!obj.move_feasible(task, new_pe)) continue;

    const double new_obj = obj.peek(task, new_pe);
    const double delta = new_obj - cur_obj;
    if (delta <= 0.0 || rng.next_double() < std::exp(-delta / temp)) {
      cur_obj = obj.try_move(task, new_pe);
      if (cur_obj < best_obj) {
        best_obj = cur_obj;
        best = obj.mapping();
      }
    }
  }
  return best;
}

Mapping anneal_mapping(const TaskGraph& graph, const PlatformDesc& platform,
                       const ObjectiveWeights& weights,
                       const AnnealConfig& cfg) {
  sim::Rng rng(cfg.seed);
  return anneal_mapping(graph, platform, weights, cfg, rng);
}

}  // namespace soc::core
