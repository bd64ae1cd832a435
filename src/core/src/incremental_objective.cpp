#include "soc/core/incremental_objective.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "mapping_internal.hpp"

namespace soc::core {

using internal::cycles_on;
using internal::edge_comm_contribution;
using internal::edge_wire_contribution;
using internal::energy_on;
using internal::scalarized_objective;

IncrementalObjective::IncrementalObjective(const TaskGraph& graph,
                                           const PlatformDesc& platform,
                                           const ObjectiveWeights& weights,
                                           Mapping initial,
                                           MappingConstraints constraints)
    : graph_(&graph),
      platform_(&platform),
      weights_(weights),
      mapping_(std::move(initial)) {
  const int n = graph.node_count();
  const int npe = platform.pe_count();
  if (static_cast<int>(mapping_.size()) != n) {
    throw std::invalid_argument("IncrementalObjective: mapping size mismatch");
  }

  pes_.resize(static_cast<std::size_t>(npe));
  unsigned fabrics = 0;  // bit f: some PE has fabric f
  for (int p = 0; p < npe; ++p) {
    const PeDesc& desc = platform.pe(p);
    PeRow& pe = pes_[static_cast<std::size_t>(p)];
    pe.fabric = static_cast<int>(desc.fabric);
    pe.capacity = constraints.enforce_capacity ? desc.capacity : 0.0;
    pe.hops = platform.hop_row(p);
    pe.wire_pj = platform.wire_pj_row(p);
    pe.any_kind = !constraints.enforce_kinds || desc.compatible_kinds.empty();
    fabrics |= 1u << pe.fabric;
  }

  const tech::EnergyModel em(platform.node());
  tasks_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int pe = mapping_[static_cast<std::size_t>(i)];
    if (pe < 0 || pe >= npe) {
      throw std::out_of_range("IncrementalObjective: PE index out of range");
    }
    const TaskNode& node = graph.node(i);
    TaskRow& t = tasks_[static_cast<std::size_t>(i)];
    for (int f = 0; f < kFabrics; ++f) {
      if (!(fabrics >> f & 1u)) continue;
      const auto fabric = static_cast<tech::Fabric>(f);
      t.cycles[f] = cycles_on(node, fabric);
      t.energy[f] = energy_on(node, fabric, em);
      if (node.allows(fabric)) t.allowed |= 1u << f;
    }
    t.demand = node.demand;
    t.kind = node.kind;
    // Ascending task order: the full evaluator's accumulation order.
    PeRow& row = pes_[static_cast<std::size_t>(pe)];
    ++row.count;
    row.load += t.cycles[row.fabric];
    row.used += t.demand;
    misplaced_ += misplacements(i, pe);
  }
  // Member segments: counted above, filled in ascending task order.
  int first = 0;
  for (PeRow& row : pes_) {
    row.first = first;
    first += row.count;
    row.count = 0;
  }
  members_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    PeRow& row =
        pes_[static_cast<std::size_t>(mapping_[static_cast<std::size_t>(i)])];
    members_[static_cast<std::size_t>(row.first + row.count++)] = i;
  }
  for (int p = 0; p < npe; ++p) refresh_capacity_flag(p);
  rank_loads();
  node_energy_.assign(tasks_.size(), [this](std::size_t i) {
    return tasks_[i].energy[pes_[static_cast<std::size_t>(mapping_[i])].fabric];
  });

  // Incident-edge lists: counted, then filled in ascending edge order, so
  // each task's in- and out-edges come out merged and ascending.
  const std::vector<TaskEdge>& edges = graph.edges();
  for (const TaskEdge& e : edges) {
    ++tasks_[static_cast<std::size_t>(e.src)].edge_count;
    ++tasks_[static_cast<std::size_t>(e.dst)].edge_count;
  }
  first = 0;
  for (TaskRow& t : tasks_) {
    t.first_edge = first;
    first += t.edge_count;
    t.edge_count = 0;
  }
  incident_.resize(static_cast<std::size_t>(first));
  for (int ei = 0; ei < static_cast<int>(edges.size()); ++ei) {
    const TaskEdge& e = edges[static_cast<std::size_t>(ei)];
    for (const int task : {e.src, e.dst}) {
      TaskRow& t = tasks_[static_cast<std::size_t>(task)];
      incident_[static_cast<std::size_t>(t.first_edge + t.edge_count++)] = ei;
    }
  }
  comm_.assign(edges.size(), [&](std::size_t ei) {
    const TaskEdge& e = edges[ei];
    return edge_comm_contribution(
        e, src_row(e).hops[mapping_[static_cast<std::size_t>(e.dst)]]);
  });
  wire_energy_.assign(edges.size(), [&](std::size_t ei) {
    const TaskEdge& e = edges[ei];
    return edge_wire_contribution(
        e, src_row(e).wire_pj[mapping_[static_cast<std::size_t>(e.dst)]]);
  });

  objective_ = scalarized_objective(weights_, bottleneck_, comm_.total(),
                                    energy_pj_per_item(), feasible());
}

bool IncrementalObjective::kind_ok(int task, int pe) const {
  return pes_[static_cast<std::size_t>(pe)].any_kind ||
         platform_->pe(pe).accepts_kind(
             tasks_[static_cast<std::size_t>(task)].kind);
}

int IncrementalObjective::misplacements(int task, int pe) const {
  const int fabric = pes_[static_cast<std::size_t>(pe)].fabric;
  const bool allowed =
      tasks_[static_cast<std::size_t>(task)].allowed >> fabric & 1u;
  return (allowed ? 0 : 1) + (kind_ok(task, pe) ? 0 : 1);
}

void IncrementalObjective::check_move(int task, int new_pe,
                                      const char* who) const {
  if (task < 0 || task >= static_cast<int>(tasks_.size())) {
    throw std::out_of_range(std::string(who) + ": bad task");
  }
  if (new_pe < 0 || new_pe >= static_cast<int>(pes_.size())) {
    throw std::out_of_range(std::string(who) + ": bad PE");
  }
}

void IncrementalObjective::resum(int pe) {
  // Re-summing the members in ascending node order reproduces, bit for bit,
  // the accumulation order of the full evaluator's single pass over nodes —
  // for the cycle load and the capacity demand alike.
  PeRow& row = pes_[static_cast<std::size_t>(pe)];
  double load = 0.0;
  double used = 0.0;
  for (const int i : members(row)) {
    const TaskRow& t = tasks_[static_cast<std::size_t>(i)];
    load += t.cycles[row.fabric];
    used += t.demand;
  }
  row.load = load;
  row.used = used;
}

void IncrementalObjective::refresh_capacity_flag(int pe) {
  PeRow& row = pes_[static_cast<std::size_t>(pe)];
  const bool over = !fits(row, row.used);
  over_capacity_pes_ += (over ? 1 : 0) - (row.over ? 1 : 0);
  row.over = over;
}

void IncrementalObjective::rank_loads() {
  // TaskGraph admits only finite work, so the first largest load is the
  // value std::max_element yields.
  max_pe_ = 0;
  for (int p = 1; p < static_cast<int>(pes_.size()); ++p) {
    if (pes_[static_cast<std::size_t>(p)].load >
        pes_[static_cast<std::size_t>(max_pe_)].load) {
      max_pe_ = p;
    }
  }
  bottleneck_ = pes_[static_cast<std::size_t>(max_pe_)].load;
}

bool IncrementalObjective::move_feasible(int task, int new_pe) const {
  check_move(task, new_pe, "IncrementalObjective::move_feasible");
  if (!kind_ok(task, new_pe)) return false;
  if (mapping_[static_cast<std::size_t>(task)] == new_pe) return true;
  const PeRow& row = pes_[static_cast<std::size_t>(new_pe)];
  return fits(row, row.used + tasks_[static_cast<std::size_t>(task)].demand);
}

double IncrementalObjective::peek(int task, int new_pe) const {
  check_move(task, new_pe, "IncrementalObjective::peek");
  const int old_pe = mapping_[static_cast<std::size_t>(task)];
  // The cached state is a function of the mapping alone.
  if (new_pe == old_pe) return objective_;
  const TaskRow& moved = tasks_[static_cast<std::size_t>(task)];
  const PeRow& from = pes_[static_cast<std::size_t>(old_pe)];
  const PeRow& to = pes_[static_cast<std::size_t>(new_pe)];

  // The two touched PEs, re-summed as try_move's resum() would: ascending
  // members, the task skipped on the old PE and inserted on the new one.
  double from_load = 0.0;
  double from_used = 0.0;
  for (const int i : members(from)) {
    if (i == task) continue;
    const TaskRow& t = tasks_[static_cast<std::size_t>(i)];
    from_load += t.cycles[from.fabric];
    from_used += t.demand;
  }
  double to_load = 0.0;
  double to_used = 0.0;
  const auto add_to = [&](const TaskRow& t) {
    to_load += t.cycles[to.fabric];
    to_used += t.demand;
  };
  const std::span<const int> to_members = members(to);
  auto it = to_members.begin();
  for (; it != to_members.end() && *it < task; ++it) {
    add_to(tasks_[static_cast<std::size_t>(*it)]);
  }
  add_to(moved);
  for (; it != to_members.end(); ++it) {
    add_to(tasks_[static_cast<std::size_t>(*it)]);
  }

  // The largest load after the move. Unless the move touches max_pe_, its
  // load is the largest of the untouched PEs, and the O(P) pass is skipped.
  double bottleneck = std::max(from_load, to_load);
  if (max_pe_ == old_pe || max_pe_ == new_pe) {
    for (int p = 0; p < static_cast<int>(pes_.size()); ++p) {
      if (p != old_pe && p != new_pe) {
        bottleneck =
            std::max(bottleneck, pes_[static_cast<std::size_t>(p)].load);
      }
    }
  } else {
    bottleneck =
        std::max(bottleneck, pes_[static_cast<std::size_t>(max_pe_)].load);
  }

  const int over = over_capacity_pes_ - (from.over ? 1 : 0) -
                   (to.over ? 1 : 0) + (fits(from, from_used) ? 0 : 1) +
                   (fits(to, to_used) ? 0 : 1);
  const int misplaced = misplaced_ - misplacements(task, old_pe) +
                        misplacements(task, new_pe);

  const std::vector<TaskEdge>& edges = graph_->edges();
  const auto pe_of = [&](int t) {
    return t == task ? new_pe : mapping_[static_cast<std::size_t>(t)];
  };
  const double comm = comm_.total_with(incident(task), [&](int ei) {
    const TaskEdge& e = edges[static_cast<std::size_t>(ei)];
    return edge_comm_contribution(
        e, pes_[static_cast<std::size_t>(pe_of(e.src))].hops[pe_of(e.dst)]);
  });
  const double wire = wire_energy_.total_with(incident(task), [&](int ei) {
    const TaskEdge& e = edges[static_cast<std::size_t>(ei)];
    return edge_wire_contribution(
        e, pes_[static_cast<std::size_t>(pe_of(e.src))].wire_pj[pe_of(e.dst)]);
  });
  const double node_energy = node_energy_.total_with(
      std::span<const int>(&task, 1),
      [&](int) { return moved.energy[to.fabric]; });

  return scalarized_objective(weights_, bottleneck, comm, node_energy + wire,
                              misplaced == 0 && over == 0);
}

double IncrementalObjective::try_move(int task, int new_pe) {
  check_move(task, new_pe, "IncrementalObjective::try_move");
  const int old_pe = mapping_[static_cast<std::size_t>(task)];
  // The cached state is a function of the mapping alone.
  if (new_pe == old_pe) return objective_;
  misplaced_ += misplacements(task, new_pe) - misplacements(task, old_pe);
  mapping_[static_cast<std::size_t>(task)] = new_pe;
  node_energy_.set(static_cast<std::size_t>(task),
                   tasks_[static_cast<std::size_t>(task)]
                       .energy[pes_[static_cast<std::size_t>(new_pe)].fabric]);

  // Move the task from its rank in the old PE's segment of members_ to its
  // rank in the new one's: the tasks between shift by one slot, and so do
  // the segments that start between.
  PeRow& from = pes_[static_cast<std::size_t>(old_pe)];
  PeRow& to = pes_[static_cast<std::size_t>(new_pe)];
  const auto rank = [this, task](const PeRow& pe) {
    const auto begin = members_.begin() + pe.first;
    return std::lower_bound(begin, begin + pe.count, task);
  };
  const auto src = rank(from);
  const auto dst = rank(to);
  if (old_pe < new_pe) {
    *std::move(src + 1, dst, src) = task;
    for (int p = old_pe + 1; p <= new_pe; ++p) {
      --pes_[static_cast<std::size_t>(p)].first;
    }
  } else {
    std::move_backward(dst, src, src + 1);
    *dst = task;
    for (int p = new_pe + 1; p <= old_pe; ++p) {
      ++pes_[static_cast<std::size_t>(p)].first;
    }
  }
  --from.count;
  ++to.count;

  resum(old_pe);
  resum(new_pe);
  refresh_capacity_flag(old_pe);
  refresh_capacity_flag(new_pe);
  rank_loads();

  const std::vector<TaskEdge>& edges = graph_->edges();
  for (const int ei : incident(task)) {
    const TaskEdge& e = edges[static_cast<std::size_t>(ei)];
    const PeRow& src = src_row(e);
    const int dst = mapping_[static_cast<std::size_t>(e.dst)];
    comm_.set(static_cast<std::size_t>(ei),
              edge_comm_contribution(e, src.hops[dst]));
    wire_energy_.set(static_cast<std::size_t>(ei),
                     edge_wire_contribution(e, src.wire_pj[dst]));
  }

  objective_ = scalarized_objective(weights_, bottleneck_, comm_.total(),
                                    energy_pj_per_item(), feasible());
  return objective_;
}

}  // namespace soc::core
