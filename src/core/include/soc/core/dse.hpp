#pragma once

/// \file
/// Design-space exploration value types (candidates, axes, points, config).
/// The exploration engine itself lives in dse_session.hpp (DseProblem +
/// DseSession: staged execution, pluggable dominance objectives,
/// per-candidate topology reuse).

#include <string>
#include <vector>

#include "soc/core/mapping.hpp"
#include "soc/core/mapping_validator.hpp"
#include "soc/platform/cost.hpp"
#include "soc/sim/parallel.hpp"

namespace soc::core {

/// One platform configuration candidate for design-space exploration.
struct DseCandidate {
  int num_pes = 16;        ///< processing elements in the pool
  int threads_per_pe = 4;  ///< hardware threads per PE
  noc::TopologyKind topology = noc::TopologyKind::kMesh2D;   ///< interconnect
  tech::Fabric pe_fabric = tech::Fabric::kGeneralPurposeCpu; ///< PE fabric
  /// Process node the candidate is evaluated at — a first-class sweep axis
  /// (DseSpace::nodes); defaults to the paper's "current" 90 nm node.
  tech::ProcessNode node = tech::node_90nm();
};

/// Axes the DSE sweeps (cartesian product).
struct DseSpace {
  /// Process nodes to try (outermost axis). Empty means "the single node
  /// DseProblem::node names" — the pre-node-axis behavior.
  std::vector<tech::ProcessNode> nodes{};
  /// PE-pool sizes to try (each entry must be positive).
  std::vector<int> pe_counts{4, 8, 16, 32};
  /// Hardware-thread counts per PE (each entry must be positive).
  std::vector<int> thread_counts{1, 2, 4, 8};
  /// Interconnect families to try.
  std::vector<noc::TopologyKind> topologies{
      noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D,
      noc::TopologyKind::kFatTree, noc::TopologyKind::kCrossbar};
  /// PE fabrics to try.
  std::vector<tech::Fabric> fabrics{tech::Fabric::kGeneralPurposeCpu,
                                    tech::Fabric::kAsip};
};

/// Result of evaluating one candidate with the best mapping found.
struct DsePoint {
  DseCandidate candidate;          ///< the platform configuration scored
  MappingCost mapping_cost;        ///< analytic cost of the best mapping
  platform::PlatformCost silicon;  ///< silicon area/power estimate
  /// Index of the scenario (work graph) this point scored — 0 in
  /// single-scenario sessions, the slice index under a scenario set (see
  /// DseSession's scenario constructor).
  int scenario = 0;
  /// Name of the scenario's task graph ("" on points built outside a
  /// session, e.g. hand-assembled test fixtures).
  std::string scenario_name;
  /// The placement behind mapping_cost: one PE index per node of the
  /// candidate's work graph (the input graph replicated num_pes/|graph|
  /// times, at least once — see EvalContext). The validation stage replays
  /// exactly this mapping instead of re-running the mapper.
  Mapping mapping;
  /// Registered mapper strategy that produced mapping_cost.
  std::string mapper = "anneal";
  /// Items per kilocycle the platform sustains at the bottleneck.
  double throughput_per_kcycle = 0.0;
  /// mW burned per unit throughput (efficiency axis).
  double mw_per_throughput = 0.0;
  /// Set by the dominance pass (DseSession::front / ObjectiveSpace::
  /// mark_front): not dominated over the session's objective axes — the
  /// default space is the (tput, area, power) triple.
  bool pareto_optimal = false;

  // --- second-stage (simulation-validated) figures; populated only when
  // --- DseConfig.validate_pareto re-scored this point through the
  // --- event-driven NoC simulator.
  /// True when the MappingValidator ran for this point.
  bool validated = false;
  /// Items per kilocycle the simulated NoC sustained (stream items — same
  /// replica scaling as throughput_per_kcycle, so the two compare directly).
  double sim_throughput_per_kcycle = 0.0;
  /// Simulated / analytic throughput. ~the validator's load_factor when the
  /// network keeps up; lower when contention throttles the platform.
  double sim_to_analytic_ratio = 0.0;
  /// Busy fraction of the most contended NoC link during measurement.
  double sim_peak_link_utilization = 0.0;
  /// Mean end-to-end packet latency over the measurement window.
  double sim_avg_packet_latency = 0.0;
  /// The network could not accept the offered open-loop load.
  bool sim_network_saturated = false;
};

/// Execution knobs for the sweep itself. Candidates are independent, so the
/// sweep shards them across a thread pool; each candidate's mapper RNG is
/// seeded by a stateless hash of (anneal.seed, candidate index), which makes
/// the returned points bit-identical for every thread count — with every
/// registered mapper.
struct DseConfig {
  /// 0 = one shard per hardware core, 1 = serial, N = exactly N shards.
  int num_threads = 0;
  /// Registered mapping strategy used for every candidate (see mapper.hpp);
  /// the session throws std::invalid_argument on an unknown name.
  std::string mapper = "anneal";
  /// Opt-in second stage: after the analytic sweep marks the Pareto front,
  /// re-score only the front points through the event-driven NoC simulator
  /// (MappingValidator) and record the measured figures in DsePoint. Each
  /// point's mapping is re-derived from the same stateless (seed, index)
  /// stream the sweep used, and the validator itself is RNG-free, so the
  /// validated points stay bit-identical at any num_threads.
  bool validate_pareto = false;
  /// Validator knobs used by the second stage.
  ValidatorConfig validation{};
  /// Physically-aware link timing: floorplan every candidate's NoC on its
  /// die (see noc::Floorplan) and fold the tech-derived wire delays/energy
  /// into the analytic matrices AND the stage-2 NoC replay. Disabling
  /// reverts the *link timing* (zero extra cycles, 1 mm/hop wire energy)
  /// while silicon estimation stays physically floorplanned.
  bool physical_links = true;
  /// Fixed die area in mm^2 for the floorplan; 0 auto-sizes each
  /// candidate's die from its estimated logic area. Fixing the die makes
  /// cross-node comparisons geometry-controlled ("same floorplan, smaller
  /// transistors") — the paper's nanometer-wall experiment.
  double die_mm2 = 0.0;
  /// Wire-to-cycles conversion knobs (NoC clock FO4 budget, variation
  /// guardband) shared by the cost model and the link annotation.
  noc::LinkTimingModel::Config link_timing{};
  /// Kind/capacity policy every candidate is mapped, scored, and
  /// feasibility-checked under. The default enforces both families but is
  /// vacuous on untagged graphs and unlimited PEs, so pre-constraint sweeps
  /// are bit-identical; MappingConstraints::none() disables enforcement
  /// outright.
  MappingConstraints constraints{};
  /// When > 0, stripe every candidate's PE pool across this many kind
  /// groups: PE i accepts only task kind (i % pe_kind_groups) — the
  /// heterogeneous-pool axis the constraint sweep explores. 0 leaves every
  /// PE kind-unrestricted (the historical pool).
  int pe_kind_groups = 0;
  /// Capacity (max summed TaskNode::demand) stamped on every candidate PE;
  /// 0 = unlimited (the historical pool). Negative values are rejected.
  double pe_capacity = 0.0;
  /// Opt-in mapping-level front merging: stage 1 asks the strategy for its
  /// whole mapping Pareto set per (scenario, candidate) via
  /// Mapper::map_front. The scenario-major grid keeps one canonical point
  /// per pair (the set's first member — bit-identical to the mapping the
  /// flag-off sweep produces), and the remaining members are appended after
  /// the grid as extra points of the same candidate, so the dominance pass
  /// can surface mapping trade-offs on the candidate front. Single-solution
  /// strategies produce one-point sets, making the flag a no-op for them
  /// beyond the appended-region bookkeeping. The EvalCache mapping memo is
  /// bypassed in this mode (its entries hold one mapping per key); platform
  /// memoization still applies.
  bool mapping_fronts = false;
  /// Serve stage-1 evaluation through the process-wide EvalCache
  /// (eval_cache.hpp): candidates whose canonical key was already built —
  /// in this sweep or an earlier one — reuse the memoized silicon estimate,
  /// floorplanned platform, and mapping result instead of recomputing them.
  /// Cached and cold sweeps are bit-identical by contract (property-tested),
  /// so disabling this only trades speed for nothing; it exists for A/B
  /// measurement (`platform_dse --no-eval-cache`, bench_session_reuse).
  bool use_eval_cache = true;
};

/// Enumerates the cartesian candidate space in sweep order (nodes
/// outermost, then pe_counts, fabrics innermost) — the order a session's
/// grid lists candidates in. An empty DseSpace::nodes axis enumerates at
/// `fallback_node` only.
std::vector<DseCandidate> enumerate_candidates(
    const DseSpace& space,
    const tech::ProcessNode& fallback_node = tech::node_90nm());

/// Rebuilds the exact PlatformDesc a sweep under `config` evaluates
/// `cand` on — candidate PEs at the candidate's node, with the same
/// physically annotated topology (die sized through estimate_cost unless
/// config.die_mm2 fixes it). Use this to re-derive or re-validate a
/// DsePoint's mapping outside the sweep.
PlatformDesc make_candidate_platform(const DseCandidate& cand,
                                     const DseConfig& config = {});

/// One-line table row for reports.
std::string to_string(const DsePoint& p);

}  // namespace soc::core
