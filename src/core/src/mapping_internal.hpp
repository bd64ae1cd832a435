#pragma once

// Internal helpers shared by the full mapping evaluator, the incremental
// objective, and every mapper strategy. Not installed: the bit-exactness
// contract between evaluate_mapping and IncrementalObjective rests on both
// sides computing each per-node / per-edge contribution with *these exact
// expressions* (and reducing them in the same order), and the mappers must
// agree on which PEs a task may take, so each rule lives in one place.

#include "soc/core/mapping.hpp"
#include "soc/core/task_graph.hpp"
#include "soc/tech/energy_model.hpp"

namespace soc::core::internal {

constexpr double kInfeasiblePenalty = 1e9;

/// Cycles one item of `node` costs on `fabric`.
inline double cycles_on(const TaskNode& node, tech::Fabric fabric) {
  return node.work_ops / tech::fabric_profile(fabric).ops_per_cycle;
}

/// Compute energy of one item of `node` on `fabric` (pJ). Callers construct
/// the EnergyModel once per evaluation, not once per task.
inline double energy_on(const TaskNode& node, tech::Fabric fabric,
                        const tech::EnergyModel& em) {
  return node.work_ops * em.op_energy_pj(fabric);
}

/// Word-hop contribution of one edge under the current placement.
inline double edge_comm_contribution(const TaskEdge& e, int hops) {
  return e.words_per_item * hops;
}

/// Wire energy of one edge under the current placement (pJ): payload words
/// times the routed path's energy per word, read from
/// PlatformDesc::wire_pj_row — floorplanned lengths on physical platforms,
/// the legacy 1 mm/hop scale otherwise.
inline double edge_wire_contribution(const TaskEdge& e, double wire_pj_per_word) {
  return e.words_per_item * wire_pj_per_word;
}

/// The placement ladder every constructive mapper relaxes down, one rung at
/// a time, when a stricter rung admits no PE: `node` may sit on `pe` at
/// strictness 0 when the PE's fabric is allowed, at 1 when the kind policy
/// also accepts it, and at 2 when the PE, already holding `used` demand,
/// also has room for the task's.
inline bool eligible(const TaskNode& node, const PeDesc& pe,
                     const MappingConstraints& constraints, int strictness,
                     double used) {
  return node.allows(pe.fabric) &&
         (strictness < 1 || constraints.compatible(node, pe)) &&
         (strictness < 2 || constraints.fits(used + node.demand, pe));
}

/// The scalarized objective both evaluators report (pipeline latency is a
/// reported metric, not part of the objective — which is what makes exact
/// delta evaluation possible).
inline double scalarized_objective(const ObjectiveWeights& w,
                                   double bottleneck_cycles,
                                   double comm_word_hops,
                                   double energy_pj_per_item, bool feasible) {
  return w.load * bottleneck_cycles + w.comm * comm_word_hops +
         w.energy * energy_pj_per_item + (feasible ? 0.0 : kInfeasiblePenalty);
}

}  // namespace soc::core::internal
