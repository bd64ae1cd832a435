#pragma once

/// \file
/// Pluggable mapping-strategy interface and its string registry.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "soc/core/mapping.hpp"

namespace soc::core {

/// One member of a mapping-level Pareto set: a placement together with its
/// full evaluate_mapping() cost breakdown. Mapper::map_front returns these
/// so the DSE can surface per-candidate mapping trade-offs (DseConfig::
/// mapping_fronts) instead of one scalarized point per candidate.
struct MappingFrontPoint {
  Mapping mapping;   ///< one PE index per task-graph node
  MappingCost cost;  ///< evaluate_mapping() of `mapping` under the call's
                     ///< weights and constraint policy
};

/// Polymorphic mapping strategy: one algorithm that places a task graph onto
/// a platform. Implementations must be stateless across map() calls and
/// deterministic given (graph, platform, weights, rng state) — the DSE sweep
/// invokes a single instance concurrently from many threads and relies on
/// per-candidate RNG streams for bit-identical results at any thread count.
class Mapper {
 public:
  virtual ~Mapper() = default;  ///< virtual: strategies held by unique_ptr

  /// Registry key, e.g. "anneal".
  virtual std::string_view name() const noexcept = 0;

  /// True when map() ignores `rng` entirely — same mapping for every seed
  /// (the built-in "greedy" and "exact"). The DSE eval memo (EvalCache) keys
  /// deterministic strategies without their RNG stream, so their results
  /// are shared across candidate indices, sweeps, and anneal budgets.
  /// Strategies that consume the rng must return false (the default).
  virtual bool deterministic() const noexcept { return false; }

  /// Places every task under `constraints`. Implementations must not return
  /// a kind/capacity-violating mapping when a feasible one exists: the
  /// built-in strategies run their constraint-aware heuristic and then
  /// repair_mapping() as a final step, and custom strategies are expected to
  /// do the same (fabric misfits remain scored with the usual penalty, as
  /// before). Strategies that are deterministic (greedy, exact) simply
  /// ignore `rng`.
  virtual Mapping map(const TaskGraph& graph, const PlatformDesc& platform,
                      const ObjectiveWeights& weights, sim::Rng& rng,
                      const MappingConstraints& constraints) const = 0;

  /// Unconstrained convenience overload: map() with a default (vacuous on
  /// untagged inputs) constraint policy.
  Mapping map(const TaskGraph& graph, const PlatformDesc& platform,
              const ObjectiveWeights& weights, sim::Rng& rng) const {
    return map(graph, platform, weights, rng, MappingConstraints{});
  }

  /// Mapping-level Pareto set for one (graph, platform) pair. The base
  /// implementation wraps map() as a one-point front — every single-solution
  /// strategy keeps its historical behavior — while multi-objective
  /// strategies (the built-in "nsga2") override it with a genuinely
  /// non-dominated set over (bottleneck_cycles, comm_word_hops,
  /// energy_pj_per_item). Contract for overrides: the returned set is
  /// non-empty, mutually non-dominated, deterministically ordered, and its
  /// *first* member is exactly what map() would return for the same inputs
  /// (the scalarized-objective argmin, ties broken by ascending mapping) —
  /// DseSession's front merging takes front()[0] as the candidate's
  /// canonical point, so this is what keeps mapping_fronts on/off
  /// bit-identical on the grid.
  virtual std::vector<MappingFrontPoint> map_front(
      const TaskGraph& graph, const PlatformDesc& platform,
      const ObjectiveWeights& weights, sim::Rng& rng,
      const MappingConstraints& constraints) const;
};

/// Factory signature: builds a strategy instance. The AnnealConfig carries
/// the only strategy-specific knobs the DSE exposes (iteration budget,
/// temperature schedule); strategies that don't anneal ignore it.
using MapperFactory =
    std::function<std::unique_ptr<Mapper>(const AnnealConfig&)>;

/// Registers (or replaces) a strategy under `name`. The built-in strategies
/// — "random", "greedy", "anneal", "nsga2", "exact" — are pre-registered.
void register_mapper(std::string name, MapperFactory factory);

/// Sorted names of every registered strategy.
std::vector<std::string> registered_mappers();

/// Builds the named strategy; throws std::invalid_argument (listing the
/// registered names) when unknown.
std::unique_ptr<Mapper> make_mapper(std::string_view name,
                                    const AnnealConfig& anneal = {});

}  // namespace soc::core
