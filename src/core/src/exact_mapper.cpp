#include "soc/core/exact_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "mapping_internal.hpp"
#include "soc/tech/energy_model.hpp"

namespace soc::core {

ExactBudgetExceeded::ExactBudgetExceeded(const std::string& graph_name,
                                         int node_count, int budget)
    : std::invalid_argument("ExactMapper: graph '" + graph_name + "' has " +
                            std::to_string(node_count) +
                            " tasks, exceeding the node budget cap of " +
                            std::to_string(budget)),
      node_count_(node_count),
      budget_(budget) {}

ExactMapper::ExactMapper(int node_budget) : budget_(node_budget) {
  if (node_budget <= 0) {
    throw std::invalid_argument("ExactMapper: node_budget must be > 0, got " +
                                std::to_string(node_budget));
  }
}

namespace {

/// Everything one branch-and-bound pass needs, precomputed once.
struct Search {
  const TaskGraph* graph;
  const PlatformDesc* platform;
  const ObjectiveWeights* weights;
  const MappingConstraints* constraints;
  int n = 0;
  int npe = 0;
  bool feasible_leaves = true;  // pass 1: leaves are feasible (no penalty)

  std::vector<int> order;                    // task visit order
  std::vector<std::vector<int>> cand;        // per task: candidate PEs
  std::vector<std::vector<double>> cycles;   // [task][pe]
  std::vector<std::vector<double>> energy;   // [task][pe]
  std::vector<double> suffix_min_cycles;     // over order, from depth d
  std::vector<double> suffix_min_energy;
  std::vector<int> class_rep;  // symmetry class representative per PE

  // DFS state.
  Mapping assign;
  std::vector<double> pe_cycles;
  std::vector<double> pe_used;  // summed demand
  std::vector<int> pe_tasks;    // tasks currently on the PE
  double sum_cycles = 0.0;
  double comm = 0.0;         // word-hops of fully assigned edges
  double wire = 0.0;         // wire pJ of fully assigned edges
  double node_energy = 0.0;  // compute pJ of assigned tasks

  // Incumbent.
  double best_obj = std::numeric_limits<double>::infinity();
  Mapping best;
  MappingCost best_cost;
  bool found = false;

  void run(int depth);
  double lower_bound(int depth) const;
};

/// True when swapping PEs `a` and `b` leaves the platform invariant: equal
/// descriptors and identical hop/latency/wire rows under the transposition.
bool pes_interchangeable(const PlatformDesc& p, int a, int b) {
  const PeDesc& da = p.pe(a);
  const PeDesc& db = p.pe(b);
  if (da.fabric != db.fabric || da.threads != db.threads ||
      da.capacity != db.capacity ||
      da.compatible_kinds != db.compatible_kinds) {
    return false;
  }
  if (p.hops(a, a) != p.hops(b, b) || p.hops(a, b) != p.hops(b, a) ||
      p.wire_pj_per_word(a, a) != p.wire_pj_per_word(b, b) ||
      p.wire_pj_per_word(a, b) != p.wire_pj_per_word(b, a) ||
      p.path_latency_cycles(a, a) != p.path_latency_cycles(b, b) ||
      p.path_latency_cycles(a, b) != p.path_latency_cycles(b, a)) {
    return false;
  }
  for (int c = 0; c < p.pe_count(); ++c) {
    if (c == a || c == b) continue;
    if (p.hops(a, c) != p.hops(b, c) || p.hops(c, a) != p.hops(c, b) ||
        p.wire_pj_per_word(a, c) != p.wire_pj_per_word(b, c) ||
        p.wire_pj_per_word(c, a) != p.wire_pj_per_word(c, b) ||
        p.path_latency_cycles(a, c) != p.path_latency_cycles(b, c) ||
        p.path_latency_cycles(c, a) != p.path_latency_cycles(c, b)) {
      return false;
    }
  }
  return true;
}

double Search::lower_bound(int depth) const {
  // Load: the partial per-PE maximum can only grow, and the mean over every
  // PE of (assigned cycles + cheapest possible remaining cycles) never
  // exceeds the final maximum.
  double max_load = 0.0;
  for (const double l : pe_cycles) max_load = std::max(max_load, l);
  const double mean =
      (sum_cycles + suffix_min_cycles[static_cast<std::size_t>(depth)]) /
      static_cast<double>(npe);
  const double lb_load = std::max(max_load, mean);

  // Comm: fully assigned edges exactly, half-assigned edges at their
  // hop-lane minimum over the open endpoint's candidates (unassigned pairs
  // bound at zero — both endpoints may still co-locate).
  double lb_comm = comm;
  for (const TaskEdge& e : graph->edges()) {
    const int ps = assign[static_cast<std::size_t>(e.src)];
    const int pd = assign[static_cast<std::size_t>(e.dst)];
    if ((ps >= 0) == (pd >= 0)) continue;  // both or neither assigned
    int min_hops = std::numeric_limits<int>::max();
    if (ps >= 0) {
      const int* row = platform->hop_row(ps);
      for (const int q : cand[static_cast<std::size_t>(e.dst)]) {
        min_hops = std::min(min_hops, row[q]);
      }
    } else {
      for (const int q : cand[static_cast<std::size_t>(e.src)]) {
        min_hops = std::min(min_hops, platform->hop_row(q)[pd]);
      }
    }
    lb_comm += internal::edge_comm_contribution(e, min_hops);
  }

  const double lb_energy =
      node_energy + wire +
      suffix_min_energy[static_cast<std::size_t>(depth)];
  return internal::scalarized_objective(*weights, lb_load, lb_comm, lb_energy,
                                        feasible_leaves);
}

void Search::run(int depth) {
  if (depth == n) {
    const MappingCost mc = evaluate_mapping(*graph, *platform, assign,
                                            *weights, *constraints);
    if (mc.objective < best_obj) {
      best_obj = mc.objective;
      best = assign;
      best_cost = mc;
      found = true;
    }
    return;
  }
  const int t = order[static_cast<std::size_t>(depth)];
  const TaskNode& task = graph->node(t);
  // Lowest-index untouched member per symmetry class: interchangeable empty
  // PEs yield identical subtrees, so only one representative descends.
  std::vector<char> class_seen(static_cast<std::size_t>(npe), 0);
  for (const int p : cand[static_cast<std::size_t>(t)]) {
    const std::size_t pi = static_cast<std::size_t>(p);
    if (pe_tasks[pi] == 0) {
      const std::size_t rep = static_cast<std::size_t>(class_rep[pi]);
      if (class_seen[rep]) continue;
      class_seen[rep] = 1;
    }
    if (feasible_leaves &&
        !constraints->fits(pe_used[pi] + task.demand, platform->pe(p))) {
      continue;
    }

    // Apply.
    const double c = cycles[static_cast<std::size_t>(t)][pi];
    const double en = energy[static_cast<std::size_t>(t)][pi];
    assign[static_cast<std::size_t>(t)] = p;
    pe_cycles[pi] += c;
    pe_used[pi] += task.demand;
    pe_tasks[pi] += 1;
    sum_cycles += c;
    node_energy += en;
    double d_comm = 0.0;
    double d_wire = 0.0;
    for (const TaskEdge& e : graph->edges()) {
      if (e.src != t && e.dst != t) continue;
      const int other = e.src == t ? e.dst : e.src;
      if (assign[static_cast<std::size_t>(other)] < 0) continue;
      const int ps = assign[static_cast<std::size_t>(e.src)];
      const int pd = assign[static_cast<std::size_t>(e.dst)];
      d_comm += internal::edge_comm_contribution(e, platform->hop_row(ps)[pd]);
      d_wire +=
          internal::edge_wire_contribution(e, platform->wire_pj_row(ps)[pd]);
    }
    comm += d_comm;
    wire += d_wire;

    // Admissible bound with a tiny relative slack guarding float-association
    // noise between the bound's accumulation order and evaluate_mapping's
    // pairwise trees — never prunes a branch that could beat the incumbent.
    const double lb = lower_bound(depth + 1);
    if (lb <= best_obj + 1e-9 * (1.0 + std::abs(best_obj))) {
      run(depth + 1);
    }

    // Undo.
    assign[static_cast<std::size_t>(t)] = -1;
    pe_cycles[pi] -= c;
    pe_used[pi] -= task.demand;
    pe_tasks[pi] -= 1;
    sum_cycles -= c;
    node_energy -= en;
    comm -= d_comm;
    wire -= d_wire;
  }
}

}  // namespace

MappingFrontPoint ExactMapper::solve(const TaskGraph& graph,
                                     const PlatformDesc& platform,
                                     const ObjectiveWeights& weights,
                                     const MappingConstraints& constraints)
    const {
  const int n = graph.node_count();
  if (n == 0) {
    throw std::invalid_argument("ExactMapper: task graph has no nodes");
  }
  if (n > budget_) throw ExactBudgetExceeded(graph.name(), n, budget_);
  const int npe = platform.pe_count();
  const tech::EnergyModel em(platform.node());

  Search s;
  s.graph = &graph;
  s.platform = &platform;
  s.weights = &weights;
  s.constraints = &constraints;
  s.n = n;
  s.npe = npe;

  // Per-task placement tables with the evaluator's exact expressions.
  s.cycles.resize(static_cast<std::size_t>(n));
  s.energy.resize(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    const TaskNode& task = graph.node(t);
    auto& cyc = s.cycles[static_cast<std::size_t>(t)];
    auto& en = s.energy[static_cast<std::size_t>(t)];
    cyc.resize(static_cast<std::size_t>(npe));
    en.resize(static_cast<std::size_t>(npe));
    for (int p = 0; p < npe; ++p) {
      cyc[static_cast<std::size_t>(p)] =
          internal::cycles_on(task, platform.pe(p).fabric);
      en[static_cast<std::size_t>(p)] =
          internal::energy_on(task, platform.pe(p).fabric, em);
    }
  }

  // Symmetry classes: representative = lowest interchangeable PE index.
  s.class_rep.resize(static_cast<std::size_t>(npe));
  for (int p = 0; p < npe; ++p) {
    s.class_rep[static_cast<std::size_t>(p)] = p;
    for (int q = 0; q < p; ++q) {
      if (s.class_rep[static_cast<std::size_t>(q)] == q &&
          pes_interchangeable(platform, q, p)) {
        s.class_rep[static_cast<std::size_t>(p)] = q;
        break;
      }
    }
  }

  // Heaviest-first visit order concentrates load decisions near the root,
  // where the mean/max bound prunes hardest.
  s.order.resize(static_cast<std::size_t>(n));
  std::iota(s.order.begin(), s.order.end(), 0);
  std::stable_sort(s.order.begin(), s.order.end(), [&](int a, int b) {
    return graph.node(a).work_ops > graph.node(b).work_ops;
  });

  // Pass 1 candidates: fabric-allowed and kind-compatible placements only
  // (capacity is pruned during the descent). Any task with no such PE makes
  // the instance infeasible outright — skip straight to the full-space pass.
  bool strict_possible = true;
  s.cand.assign(static_cast<std::size_t>(n), {});
  for (int t = 0; t < n && strict_possible; ++t) {
    const TaskNode& task = graph.node(t);
    for (int p = 0; p < npe; ++p) {
      if (internal::eligible(task, platform.pe(p), constraints, 1, 0.0)) {
        s.cand[static_cast<std::size_t>(t)].push_back(p);
      }
    }
    if (s.cand[static_cast<std::size_t>(t)].empty()) strict_possible = false;
  }

  const auto prepare_suffixes = [&s, n, npe] {
    s.suffix_min_cycles.assign(static_cast<std::size_t>(n) + 1, 0.0);
    s.suffix_min_energy.assign(static_cast<std::size_t>(n) + 1, 0.0);
    for (int d = n - 1; d >= 0; --d) {
      const int t = s.order[static_cast<std::size_t>(d)];
      double mc = std::numeric_limits<double>::infinity();
      double me = std::numeric_limits<double>::infinity();
      for (const int p : s.cand[static_cast<std::size_t>(t)]) {
        mc = std::min(mc, s.cycles[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(p)]);
        me = std::min(me, s.energy[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(p)]);
      }
      s.suffix_min_cycles[static_cast<std::size_t>(d)] =
          s.suffix_min_cycles[static_cast<std::size_t>(d) + 1] + mc;
      s.suffix_min_energy[static_cast<std::size_t>(d)] =
          s.suffix_min_energy[static_cast<std::size_t>(d) + 1] + me;
    }
    s.assign.assign(static_cast<std::size_t>(n), -1);
    s.pe_cycles.assign(static_cast<std::size_t>(npe), 0.0);
    s.pe_used.assign(static_cast<std::size_t>(npe), 0.0);
    s.pe_tasks.assign(static_cast<std::size_t>(npe), 0);
    s.sum_cycles = s.comm = s.wire = s.node_energy = 0.0;
  };

  // Incumbent: the (repaired) greedy mapping. Its objective is always an
  // upper bound on the feasible optimum — a feasible solution beats any
  // penalty-laden incumbent — so pruning against it never discards the
  // optimum.
  s.best = greedy_mapping(graph, platform, weights, constraints);
  if (constraints.any()) repair_mapping(graph, platform, s.best, constraints);
  s.best_cost = evaluate_mapping(graph, platform, s.best, weights, constraints);
  s.best_obj = s.best_cost.objective;
  s.found = s.best_cost.feasible;

  if (strict_possible) {
    prepare_suffixes();
    s.run(0);
  }
  if (!s.found) {
    // No feasible assignment exists: every complete mapping carries the same
    // flat infeasibility penalty, so the optimum over the unrestricted space
    // is still well defined — search it all (the penalty-laden incumbent is
    // inside this space, so it stays the pruning bound).
    s.feasible_leaves = false;
    s.cand.assign(static_cast<std::size_t>(n), {});
    for (int t = 0; t < n; ++t) {
      for (int p = 0; p < npe; ++p) {
        s.cand[static_cast<std::size_t>(t)].push_back(p);
      }
    }
    prepare_suffixes();
    s.run(0);
  }
  return MappingFrontPoint{std::move(s.best), std::move(s.best_cost)};
}

Mapping ExactMapper::map(const TaskGraph& graph, const PlatformDesc& platform,
                         const ObjectiveWeights& weights, sim::Rng&,
                         const MappingConstraints& constraints) const {
  return solve(graph, platform, weights, constraints).mapping;
}

std::vector<MappingFrontPoint> ExactMapper::map_front(
    const TaskGraph& graph, const PlatformDesc& platform,
    const ObjectiveWeights& weights, sim::Rng&,
    const MappingConstraints& constraints) const {
  std::vector<MappingFrontPoint> front;
  front.push_back(solve(graph, platform, weights, constraints));
  return front;
}

}  // namespace soc::core
