#pragma once

/// \file
/// O(degree) incremental evaluator of the mapping objective.

#include <span>
#include <vector>

#include "soc/core/exact_sum.hpp"
#include "soc/core/mapping.hpp"
#include "soc/tech/energy_model.hpp"

namespace soc::core {

/// Incremental evaluator of the scalarized mapping objective.
///
/// Caches per-PE cycle loads, per-edge comm word-hops, and per-node / per-edge
/// energy contributions, so scoring a single-task move touches only the moved
/// task's incident edges instead of re-walking the whole graph the way
/// `evaluate_mapping` does. peek() scores a move in
/// O(degree·log E + tasks-on-the-two-affected-PEs) without applying it (plus
/// O(P) when the move touches the most loaded PE), and try_move() applies
/// one in that plus O(V + P), versus O(V·E) for a full evaluation — the
/// difference that makes `anneal_mapping`'s hot loop, which peeks at every
/// proposal and applies only the accepted ones, cheap enough for the DSE
/// sweep.
///
/// Exactness contract: objective(), bottleneck_cycles(), comm_word_hops(),
/// energy_pj_per_item(), and feasible() are *bit-identical* to what
/// `evaluate_mapping` returns for mapping() — under the same
/// MappingConstraints policy — after any sequence of try_move calls, and
/// peek(task, pe) returns, without writing anything, the objective() that
/// try_move(task, pe) would leave (both regression-tested by randomized
/// property tests). This holds because the scalarized objective excludes
/// pipeline latency (a path maximum that has no cheap exact delta); edge/node
/// sums are reduced through the same fixed-shape PairwiseSum trees the full
/// evaluator uses (peek re-adds the touched paths through
/// PairwiseSum::total_with), and per-PE loads and capacity demands are
/// re-summed over the affected PEs' members in ascending node order — the
/// full evaluator's exact association order.
///
/// Tables: the constructor reads each task's cycles_on / energy_on /
/// TaskNode::allows once per fabric present on the platform, plus its demand
/// and kind, and each PE's fabric, kind policy, enforced capacity and
/// hop / wire-energy lanes, so a move performs no graph, PE or constraint
/// lookups (PeDesc::accepts_kind runs only for a PE with a kind list).
/// Building them costs O(V·F + E + P) for F distinct fabrics, in four
/// vectors (tasks, PEs, PE members, incident edges) beside the three sum
/// trees.
class IncrementalObjective {
 public:
  /// Snapshots graph/platform/weights/constraints (graph and platform must
  /// outlive this object) and runs one full evaluation of `initial`. Throws
  /// like evaluate_mapping on size mismatch or out-of-range PE indices.
  IncrementalObjective(const TaskGraph& graph, const PlatformDesc& platform,
                       const ObjectiveWeights& weights, Mapping initial,
                       MappingConstraints constraints = {});

  /// The current (possibly moved) mapping.
  const Mapping& mapping() const noexcept { return mapping_; }

  /// Scalarized objective of mapping() — bit-exact vs evaluate_mapping.
  double objective() const noexcept { return objective_; }
  /// Max per-PE cycles per item of mapping().
  double bottleneck_cycles() const noexcept { return bottleneck_; }
  /// Total words x hops of mapping().
  double comm_word_hops() const noexcept { return comm_.total(); }
  /// Compute + wire energy per item of mapping().
  double energy_pj_per_item() const noexcept {
    return node_energy_.total() + wire_energy_.total();
  }
  /// True when every task sits on an allowed fabric, every placement is
  /// kind-compatible, and no PE exceeds its capacity (the latter two under
  /// the constraint policy given at construction).
  bool feasible() const noexcept {
    return misplaced_ == 0 && over_capacity_pes_ == 0;
  }

  /// True when moving `task` to `new_pe` would respect the constraint
  /// policy: the target PE accepts the task's kind and has capacity room.
  /// The annealer consults this *before* peek so violating proposals are
  /// rejected without scoring (and without burning acceptance RNG).
  /// Always true under a vacuous policy. Throws std::out_of_range on bad
  /// indices.
  bool move_feasible(int task, int new_pe) const;

  /// The objective() that try_move(task, new_pe) would leave, bit for bit,
  /// computed without writing any state: the annealer scores every proposal
  /// with peek and applies only the accepted ones. Throws std::out_of_range
  /// on bad indices.
  double peek(int task, int new_pe) const;

  /// Applies "move `task` to `new_pe`" to the cached state and returns the
  /// new objective. try_move(task, old_pe) undoes it: the cached state is a
  /// function of mapping() alone, so it is restored bit for bit. Throws
  /// std::out_of_range on bad indices.
  double try_move(int task, int new_pe);

 private:
  // tech::Fabric's enumerators; kHardwired is the last.
  static constexpr int kFabrics =
      static_cast<int>(tech::Fabric::kHardwired) + 1;

  // One task: its figures per fabric (filled for the platform's fabrics
  // only) and where its incident edges sit in incident_.
  struct TaskRow {
    double cycles[kFabrics] = {};
    double energy[kFabrics] = {};
    double demand = 0.0;
    int kind = 0;
    unsigned allowed = 0;  // bit f: TaskNode::allows(Fabric f)
    int first_edge = 0;    // incident_[first_edge, +edge_count), ascending
    int edge_count = 0;
  };

  // One PE: where its members sit in members_, their cached load and
  // demand, and its policy.
  struct PeRow {
    int first = 0;  // members_[first, first + count): ascending tasks
    int count = 0;
    int fabric = 0;
    double load = 0.0;      // summed member cycles
    double used = 0.0;      // summed member demand
    double capacity = 0.0;  // enforced capacity; <= 0 is unlimited
    const int* hops = nullptr;        // PlatformDesc::hop_row
    const double* wire_pj = nullptr;  // PlatformDesc::wire_pj_row
    bool any_kind = true;  // accepts every kind under the policy
    bool over = false;     // over capacity
  };

  std::span<const int> members(const PeRow& pe) const {
    return {members_.data() + pe.first, static_cast<std::size_t>(pe.count)};
  }
  std::span<const int> incident(int task) const {
    const TaskRow& t = tasks_[static_cast<std::size_t>(task)];
    return {incident_.data() + t.first_edge,
            static_cast<std::size_t>(t.edge_count)};
  }
  const PeRow& src_row(const TaskEdge& e) const {
    return pes_[static_cast<std::size_t>(
        mapping_[static_cast<std::size_t>(e.src)])];
  }
  bool kind_ok(int task, int pe) const;
  int misplacements(int task, int pe) const;
  static bool fits(const PeRow& pe, double used) {
    return pe.capacity <= 0.0 || used <= pe.capacity;
  }
  void check_move(int task, int new_pe, const char* who) const;
  void resum(int pe);
  void refresh_capacity_flag(int pe);
  void rank_loads();

  const TaskGraph* graph_;
  const PlatformDesc* platform_;
  ObjectiveWeights weights_;

  Mapping mapping_;
  std::vector<TaskRow> tasks_;
  std::vector<PeRow> pes_;
  std::vector<int> members_;   // per PE in PE order, its tasks ascending
  std::vector<int> incident_;  // per task, its in- and out-edges merged
  PairwiseSum node_energy_;  // leaf per node: compute energy on its PE
  PairwiseSum comm_;         // leaf per edge: words x hops
  PairwiseSum wire_energy_;  // leaf per edge: words x routed-path pJ/word
  int misplaced_ = 0;  // disallowed-fabric plus kind-incompatible placements
  int over_capacity_pes_ = 0;
  double bottleneck_ = 0.0;
  int max_pe_ = 0;  // first PE with the largest load
  double objective_ = 0.0;
};

}  // namespace soc::core
