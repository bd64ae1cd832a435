#pragma once

/// \file
/// Pareto-dominance objectives for design-space exploration.
///
/// Generalizes the historical hard-coded (throughput, area, power) triple to
/// any ordered subset of four fixed named axes — `tput`, `area`, `power` and
/// `energy` — each an extractor over DsePoint plus an optimization
/// direction. The axis table is compiled in, so a space is fully described
/// by its names: a served sweep's objectives (carried on the wire as
/// `names()`) mean the same in the daemon as in a local session. Drivers
/// select dominance sets by name — `platform_dse --objectives
/// tput,area,power,energy`.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "soc/core/dse.hpp"

namespace soc::core {

/// Whether smaller or larger values of an axis are better.
enum class ObjectiveDirection {
  kMinimize,  ///< lower is better (area, power, energy)
  kMaximize,  ///< higher is better (throughput)
};

/// One dominance axis: a name, a direction, and the figure it reads off an
/// evaluated DsePoint. Every axis is a row of the fixed table behind
/// objective_names(); an ObjectiveSpace holds copies of those rows only.
struct ObjectiveAxis {
  /// Axis name, e.g. "tput".
  std::string_view name;
  /// Optimization direction of the extracted figure.
  ObjectiveDirection direction = ObjectiveDirection::kMinimize;
  /// Reads the axis figure from an evaluated point.
  double (*extract)(const DsePoint&) = nullptr;
};

/// Names of the four axes, in table order: `tput` (maximize items/kcycle),
/// `area` (minimize total mm^2), `power` (minimize dynamic + leakage mW)
/// and `energy` (minimize MappingCost.energy_pj_per_item — the
/// energy-frontier axis).
std::vector<std::string_view> objective_names();

/// An ordered set of dominance axes — the objective half of a DseProblem.
/// Point j dominates point i when j is at least as good on every axis and
/// strictly better on at least one, with "good" following each axis's
/// direction; mark_front() applies that relation over a sweep's points
/// exactly like the historical 3-axis front marker did (infeasible
/// mappings neither dominate nor survive).
class ObjectiveSpace {
 public:
  /// An empty space; add axes with add() (mark_front on an empty space
  /// throws). Most callers start from default_space() or from_names().
  ObjectiveSpace() = default;

  /// The historical dominance triple: tput, area, power.
  static ObjectiveSpace default_space();

  /// Parses a comma-separated list of axis names, in order (e.g.
  /// "tput,area,power,energy"). Throws std::invalid_argument on an empty
  /// list, an empty entry, a duplicate, or an unknown name.
  static ObjectiveSpace from_names(std::string_view csv);

  /// Appends the named axis; throws std::invalid_argument (listing the
  /// four names) on an unknown name or a duplicate of an axis already in
  /// this space. Returns *this.
  ObjectiveSpace& add(std::string_view name);

  /// Number of axes.
  std::size_t size() const noexcept { return axes_.size(); }
  /// Axis `i` (bounds-checked).
  const ObjectiveAxis& axis(std::size_t i) const { return axes_.at(i); }
  /// All axes, dominance order.
  const std::vector<ObjectiveAxis>& axes() const noexcept { return axes_; }
  /// Comma-joined axis names, e.g. "tput,area,power".
  std::string names() const;

  /// Marks (and returns ascending indices of) the Pareto front of `points`
  /// over this space, writing each DsePoint::pareto_optimal. Infeasible
  /// points are never on the front and never dominate. The all-pairs pass
  /// is sharded per point under config.num_threads (small fronts run
  /// inline); the result does not depend on thread count. Throws
  /// std::invalid_argument on a bad config and std::logic_error on an
  /// empty space.
  std::vector<std::size_t> mark_front(std::vector<DsePoint>& points,
                                      const DseConfig& config = {}) const;

 private:
  std::vector<ObjectiveAxis> axes_;
};

}  // namespace soc::core
