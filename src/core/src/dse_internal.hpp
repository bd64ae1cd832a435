#pragma once

// Module-private helpers shared by the DSE translation units (dse.cpp,
// objective_space.cpp, dse_session.cpp): input validation, which throws
// std::invalid_argument naming the offending field, and the candidate,
// dominance and replay steps every sweep path shares. Implemented in
// dse_session.cpp, except the dominance pass (objective_space.cpp).

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "soc/core/dse.hpp"

namespace soc::noc {
class Topology;
}

namespace soc::core {
class EvalContext;
class ObjectiveSpace;
}

namespace soc::core::internal {

/// Every axis non-empty (nodes may be empty = single-node sweep), PE/thread
/// counts strictly positive.
void validate_space(const DseSpace& space);

/// num_threads >= 0, die_mm2 >= 0 — the knobs every DSE entry point
/// (including the pure dominance pass) actually uses.
void validate_exec_config(const DseConfig& config);

/// The stage-2 replay knobs that would otherwise flow silently into the
/// simulation (load_factor, words_per_flit, warmup/measure windows,
/// max_outstanding_rounds, top_hotspots), field-named as
/// "DseConfig: validation.<field>". Checked wherever a replay is armed:
/// the session constructor when config.validate_pareto is set, and
/// DseSession::validate() always.
void validate_validator_config(const ValidatorConfig& v);

/// Full up-front check: exec knobs always, replay knobs when
/// config.validate_pareto arms stage 2.
void validate_config(const DseConfig& config);

/// The candidate's PE pool: num_pes descriptors of its fabric/threads,
/// kind-striped across config.pe_kind_groups groups and capped at
/// config.pe_capacity when those knobs are set.
std::vector<PeDesc> candidate_pes(const DseCandidate& cand,
                                  const DseConfig& config);

/// The physical annotation a candidate's interconnect gets on `die_mm2`
/// (nullopt when config.physical_links is off). Shared by EvalContext and
/// make_candidate_platform so the sweep and the re-derivation helper can
/// never disagree on what "the candidate's platform" means.
std::optional<noc::PhysicalSpec> candidate_physical_spec(
    const DseCandidate& cand, const DseConfig& config, double die_mm2);

/// Each point's figure on every axis of `space`: one row of space.size()
/// values per point, maximize axes negated so smaller is better throughout.
std::vector<double> objective_rows(const ObjectiveSpace& space,
                                   const std::vector<DsePoint>& points);

/// Marks the Pareto front among the points at indices `among` (dominance
/// never looks outside them) over `rows` (objective_rows of the same
/// points), writing each one's pareto_optimal flag, and returns the front
/// members in `among` order. Infeasible points are never on the front and
/// never dominate. The all-pairs pass is sharded per point under
/// `num_threads` from 256 points up (small fronts run inline); the result
/// does not depend on thread count.
std::vector<std::size_t> mark_front_among(std::vector<DsePoint>& points,
                                          const std::vector<double>& rows,
                                          const std::vector<std::size_t>& among,
                                          int num_threads);

/// Stage-2 tail shared by DseSession::validate and ShardEvaluator::validate:
/// replays `pt.mapping` on `ctx`'s platform (consuming `topo` when the
/// caller still holds stage 1's instance, else the deterministic rebuild)
/// and stamps the point's validated/sim_* fields.
void apply_validation(const EvalContext& ctx, DsePoint& pt,
                      const ValidatorConfig& vc,
                      std::unique_ptr<noc::Topology> topo);

}  // namespace soc::core::internal
