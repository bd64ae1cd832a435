#pragma once

/// \file
/// Platform abstraction, mapping objective, and the built-in mappers.

#include <memory>
#include <optional>
#include <vector>

#include "soc/core/constraints.hpp"
#include "soc/core/task_graph.hpp"
#include "soc/noc/floorplan.hpp"
#include "soc/noc/topologies.hpp"
#include "soc/sim/rng.hpp"
#include "soc/tech/process_node.hpp"

namespace soc::core {

/// NoC latency per hop on an unloaded network (router pipeline + base link
/// traversal + amortized NI overhead), cycles. Used by the pipeline-latency
/// model; physically annotated platforms add the tech-derived per-link
/// extra cycles on top.
inline constexpr double kNocCyclesPerHop = 5.0;

/// One execution resource the mapper may place tasks on.
struct PeDesc {
  tech::Fabric fabric = tech::Fabric::kGeneralPurposeCpu;  ///< PE fabric class
  int threads = 4;  ///< hardware threads the PE interleaves
  /// Task kinds (TaskNode::kind) this PE accepts; empty = every kind.
  std::vector<int> compatible_kinds;
  /// Max summed TaskNode::demand this PE hosts; <= 0 = unlimited.
  double capacity = 0.0;

  /// True when the PE accepts task kind `kind` (empty set accepts all).
  bool accepts_kind(int kind) const noexcept;
};

/// Abstract platform view used by the mapper: resources plus the hop
/// distance, wire latency, and wire energy the NoC imposes between them.
/// Built from a concrete noc::Topology so mapping decisions see the same
/// distances the simulator enforces. With a physical spec the topology is
/// floorplanned first (see noc::Floorplan / noc::LinkTimingModel) and every
/// per-pair figure reflects the routed path's real wire lengths; without
/// one the platform falls back to the abstract 1 mm/hop pre-physical model.
class PlatformDesc {
 public:
  /// Builds the per-pair matrices by instantiating (and routing) the
  /// topology, physically annotated when `phys` is present. Throws
  /// std::invalid_argument when `pes` is empty.
  PlatformDesc(std::vector<PeDesc> pes, noc::TopologyKind topology,
               const tech::ProcessNode& node,
               std::optional<noc::PhysicalSpec> phys = std::nullopt);

  /// Same platform view computed from a caller-built topology instead of
  /// instantiating a fresh one: `prebuilt` must be the `topology` family
  /// over exactly pes.size() terminals, already physically annotated when
  /// `phys` is present — i.e. what build_topology() would produce. The DSE
  /// EvalContext builds that instance once and shares it between these
  /// matrices and the stage-2 NoC replay. Throws std::invalid_argument when
  /// `pes` is empty or the terminal count does not match.
  PlatformDesc(std::vector<PeDesc> pes, noc::TopologyKind topology,
               const tech::ProcessNode& node,
               std::optional<noc::PhysicalSpec> phys,
               const noc::Topology& prebuilt);

  /// Number of PEs (== NoC terminals).
  int pe_count() const noexcept { return static_cast<int>(pes_.size()); }
  /// Descriptor of PE `i` (bounds-checked).
  const PeDesc& pe(int i) const { return pes_.at(static_cast<std::size_t>(i)); }
  /// Routed hop count between two PEs; throws std::out_of_range.
  int hops(int pe_a, int pe_b) const;
  /// Tech-derived extra propagation cycles summed over the routed path
  /// between two PEs (0 on unplaced platforms); throws std::out_of_range.
  int path_extra_cycles(int pe_a, int pe_b) const;
  /// Unloaded-network latency of the routed path between two PEs:
  /// kNocCyclesPerHop per hop plus the path's wire extra cycles. Served from
  /// a fused matrix precomputed once at construction, so every probe is one
  /// contiguous load instead of recombining the hop and wire-stage matrices.
  double path_latency_cycles(int pe_a, int pe_b) const;
  /// Wire energy of moving one 32-bit word between two PEs, pJ: summed over
  /// the routed path's links from their floorplanned length and tech-derived
  /// pJ/mm (falls back to 1 mm/hop at the node's wire energy when unplaced).
  double wire_pj_per_word(int pe_a, int pe_b) const;
  /// NoC topology family connecting the PEs.
  noc::TopologyKind topology() const noexcept { return topology_; }
  /// Process node costs are evaluated at.
  const tech::ProcessNode& node() const noexcept { return node_; }
  /// Mean hop count over all ordered PE pairs.
  double avg_hops() const noexcept { return avg_hops_; }
  /// Mean path_latency_cycles over all ordered distinct PE pairs (the
  /// expected latency of one edge under a placement-blind mapping).
  double avg_path_latency_cycles() const noexcept { return avg_latency_; }
  /// Physical spec the topology was annotated with, if any.
  const std::optional<noc::PhysicalSpec>& physical() const noexcept {
    return phys_;
  }

  // --- structure-of-arrays lanes for batched kernels -----------------------
  // Each row accessor bounds-checks the source PE (throwing
  // std::out_of_range) and returns that PE's contiguous pe_count()-wide lane
  // of the corresponding per-pair matrix; indexing the returned pointer with
  // a destination PE is the caller's contract (hot loops validate their
  // mapping once, then stream the lane unchecked). The evaluators' edge
  // loops, greedy's placement scores, the exact mapper's descent and the
  // annealer's incremental probes all read these lanes instead of the
  // checked scalar accessors.

  /// Fused unloaded-latency lane of `pe_src`: latency_row(a)[b] ==
  /// path_latency_cycles(a, b), bit for bit.
  const double* latency_row(int pe_src) const;
  /// Routed hop-count lane of `pe_src`: hop_row(a)[b] == hops(a, b).
  const int* hop_row(int pe_src) const;
  /// Wire-energy lane of `pe_src`: wire_pj_row(a)[b] ==
  /// wire_pj_per_word(a, b).
  const double* wire_pj_row(int pe_src) const;
  /// Rebuilds the exact topology (same physical annotation) the matrices
  /// were derived from — for simulators that need to own a live instance
  /// (noc::Network takes ownership). Deterministic: every rebuild is
  /// identical.
  std::unique_ptr<noc::Topology> build_topology() const;

 private:
  /// Walks every routed path of `topo` once, filling the hop/extra/wire
  /// matrices and the pair averages (shared by both constructors).
  void build_matrices(const noc::Topology& topo);

  std::vector<PeDesc> pes_;
  noc::TopologyKind topology_;
  tech::ProcessNode node_;
  std::optional<noc::PhysicalSpec> phys_;
  std::vector<int> hop_matrix_;      // pe_count x pe_count
  std::vector<int> extra_matrix_;    // per-pair wire extra cycles
  std::vector<double> latency_matrix_;  // fused: kNocCyclesPerHop*hops + extra
  std::vector<double> wire_pj_matrix_;  // per-pair pJ per 32-bit word
  double avg_hops_ = 0.0;
  double avg_latency_ = 0.0;
};

/// Assignment of every task-graph node to a PE index.
using Mapping = std::vector<int>;

/// Relative weights of the scalarized mapping objective.
struct ObjectiveWeights {
  double load = 1.0;     ///< bottleneck PE load (throughput limiter)
  double comm = 0.05;    ///< NoC traffic (words x hops per item)
  double energy = 0.01;  ///< pJ per item
};

/// Cost breakdown of one mapping at a unit throughput of one item per
/// `bottleneck_cycles` cycles.
struct MappingCost {
  double bottleneck_cycles = 0.0;  ///< max per-PE cycles per item (1/throughput)
  double comm_word_hops = 0.0;     ///< sum over edges of words x hops
  double energy_pj_per_item = 0.0; ///< compute + wire energy
  double pipeline_latency = 0.0;   ///< critical-path cycles through the DAG
  bool feasible = true;            ///< fabric + kind/capacity constraints met
  double objective = 0.0;          ///< scalarized (lower is better)
  /// Typed kind/capacity findings under the evaluation's constraint policy
  /// (empty when feasible; fabric misfits keep their historical penalty but
  /// are not in this taxonomy).
  std::vector<ConstraintViolation> violations;
};

/// Evaluates a mapping. Infeasible placements (task on a disallowed fabric,
/// or a kind/capacity violation under `constraints`) get a large objective
/// penalty rather than a throw, so search algorithms can traverse them;
/// constraint findings are reported typed in MappingCost::violations.
MappingCost evaluate_mapping(const TaskGraph& graph, const PlatformDesc& platform,
                             const Mapping& mapping,
                             const ObjectiveWeights& weights = {},
                             const MappingConstraints& constraints = {});

/// Uniform-random feasible-biased mapping: prefers PEs satisfying fabric,
/// kind, and remaining-capacity constraints, relaxing capacity, then kind,
/// then fabric when nothing qualifies (baseline for A2).
Mapping random_mapping(const TaskGraph& graph, const PlatformDesc& platform,
                       sim::Rng& rng,
                       const MappingConstraints& constraints = {});

/// Greedy list mapping: nodes in decreasing work order, each placed on the
/// constraint-compatible PE that minimizes the incremental objective
/// (capacity then kind filters relax when nothing qualifies).
Mapping greedy_mapping(const TaskGraph& graph, const PlatformDesc& platform,
                       const ObjectiveWeights& weights = {},
                       const MappingConstraints& constraints = {});

/// Simulated-annealing refinement starting from the greedy solution.
struct AnnealConfig {
  int iterations = 20'000;   ///< proposed moves
  double t_start = 2.0;      ///< initial temperature
  double t_end = 0.01;       ///< final temperature (geometric decay)
  std::uint64_t seed = 42;   ///< RNG seed (single-RNG overload only)
};
Mapping anneal_mapping(const TaskGraph& graph, const PlatformDesc& platform,
                       const ObjectiveWeights& weights = {},
                       const AnnealConfig& cfg = {});

/// Same annealer driven by an external RNG (cfg.seed ignored) — the form the
/// Mapper registry and the DSE sweep use so per-candidate streams can be
/// derived statelessly from (seed, index). Under `constraints` the proposal
/// loop rejects kind/capacity-violating moves *before* scoring them (no
/// penalty scoring, no acceptance draw), so the search never walks out of
/// the feasible region it starts in — and the unconstrained trajectory is
/// bit-identical to the pre-constraint annealer.
Mapping anneal_mapping(const TaskGraph& graph, const PlatformDesc& platform,
                       const ObjectiveWeights& weights, const AnnealConfig& cfg,
                       sim::Rng& rng,
                       const MappingConstraints& constraints = {});

}  // namespace soc::core
