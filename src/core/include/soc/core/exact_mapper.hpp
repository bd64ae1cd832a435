#pragma once

/// \file
/// Provably optimal small-graph mapper: depth-first branch-and-bound over
/// the full assignment space, pruned by an admissible lower bound computed
/// from the platform's SoA hop/wire lanes and by kind/capacity constraint
/// checks — the ground truth bench_mapper_quality scores every heuristic
/// strategy against.

#include <stdexcept>
#include <string>

#include "soc/core/mapper.hpp"

namespace soc::core {

/// Thrown by ExactMapper when the (possibly replicated) task graph exceeds
/// the configured node budget: exhaustive search over pe_count^node_count
/// assignments is only tractable for small graphs, so oversized inputs fail
/// loudly (naming the cap) instead of hanging the sweep.
class ExactBudgetExceeded : public std::invalid_argument {
 public:
  /// Builds the message "ExactMapper: graph '<name>' has <n> tasks,
  /// exceeding the node budget cap of <budget>".
  ExactBudgetExceeded(const std::string& graph_name, int node_count,
                      int budget);

  /// Node count of the offending graph.
  int node_count() const noexcept { return node_count_; }
  /// The cap that was exceeded.
  int budget() const noexcept { return budget_; }

 private:
  int node_count_;
  int budget_;
};

/// Branch-and-bound mapper returning the provably optimal mapping for the
/// active ObjectiveWeights vector (registry name "exact").
///
/// Search: tasks are assigned in descending work order; at each node of the
/// search tree an admissible lower bound — current per-PE load maximum
/// joined with the mean-load bound over the cheapest remaining placements,
/// plus the hop-lane minimum of every half-assigned edge and the cheapest
/// remaining compute energy — prunes subtrees that provably cannot beat the
/// incumbent. The incumbent starts at the greedy mapping, so the first
/// descent already prunes aggressively.
///
/// Constraints: placements violating the kind/capacity policy are pruned
/// MappingConstraints::move_feasible-style (compatible() + fits() before
/// descending). When no feasible assignment exists at all, a second
/// unrestricted pass finds the optimum over the full space — every complete
/// assignment then carries the same flat infeasibility penalty, so the
/// result is still the global objective minimum.
///
/// Interchangeable PEs (identical descriptor and identical hop/latency/wire
/// rows under a pairwise swap) are collapsed by a standard value-symmetry
/// rule: an untouched equivalence class contributes only its lowest-index
/// member as a candidate.
///
/// Deterministic and RNG-free (deterministic() is true, so the EvalCache
/// shares results across seeds); a pure function of (graph, platform,
/// weights, constraints). Complete leaves are scored with evaluate_mapping,
/// making the optimal cost directly comparable — bit for bit — with every
/// heuristic's evaluated cost.
class ExactMapper final : public Mapper {
 public:
  /// Default node budget: 12 tasks (comfortably exhaustive on the small
  /// scenario-generator corpora; beyond it the assignment space outgrows
  /// what the bound can prune in reasonable time).
  static constexpr int kDefaultNodeBudget = 12;

  /// A mapper capped at `node_budget` tasks. Throws std::invalid_argument
  /// when `node_budget` is not positive.
  explicit ExactMapper(int node_budget = kDefaultNodeBudget);

  std::string_view name() const noexcept override { return "exact"; }
  /// RNG-free: same mapping for every seed.
  bool deterministic() const noexcept override { return true; }
  /// The configured node-budget cap.
  int node_budget() const noexcept { return budget_; }

  /// The optimal mapping (rng ignored). Throws ExactBudgetExceeded when the
  /// graph is larger than node_budget().
  Mapping map(const TaskGraph& graph, const PlatformDesc& platform,
              const ObjectiveWeights& weights, sim::Rng& rng,
              const MappingConstraints& constraints) const override;

  /// One-point front carrying the optimal mapping and its cost (avoids the
  /// base class's re-evaluation of map()'s result).
  std::vector<MappingFrontPoint> map_front(
      const TaskGraph& graph, const PlatformDesc& platform,
      const ObjectiveWeights& weights, sim::Rng& rng,
      const MappingConstraints& constraints) const override;

  /// The full result: optimal mapping plus its evaluate_mapping() cost —
  /// what bench_mapper_quality calls directly. Throws ExactBudgetExceeded
  /// past the node budget and std::invalid_argument on an empty graph.
  MappingFrontPoint solve(const TaskGraph& graph, const PlatformDesc& platform,
                          const ObjectiveWeights& weights,
                          const MappingConstraints& constraints = {}) const;

 private:
  int budget_;
};

}  // namespace soc::core
