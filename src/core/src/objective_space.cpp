#include "soc/core/objective_space.hpp"

#include <numeric>
#include <stdexcept>

#include "dse_internal.hpp"
#include "soc/sim/parallel.hpp"

namespace soc::core {

namespace {

/// Every axis an ObjectiveSpace can hold. A new axis is one row here, which
/// the client and the daemon of a served sweep both compile in.
constexpr ObjectiveAxis kAxes[] = {
    {"tput", ObjectiveDirection::kMaximize,
     [](const DsePoint& p) { return p.throughput_per_kcycle; }},
    {"area", ObjectiveDirection::kMinimize,
     [](const DsePoint& p) { return p.silicon.total_area_mm2; }},
    {"power", ObjectiveDirection::kMinimize,
     [](const DsePoint& p) {
       return p.silicon.peak_dynamic_mw + p.silicon.leakage_mw;
     }},
    {"energy", ObjectiveDirection::kMinimize,
     [](const DsePoint& p) { return p.mapping_cost.energy_pj_per_item; }},
};

/// The four axis names, appended to every objective-name error so callers
/// see what they could have asked for.
std::string known_csv() {
  std::string out;
  for (const ObjectiveAxis& a : kAxes) {
    if (!out.empty()) out += ", ";
    out += a.name;
  }
  return out;
}

}  // namespace

std::vector<std::string_view> objective_names() {
  std::vector<std::string_view> names;
  for (const ObjectiveAxis& a : kAxes) names.push_back(a.name);
  return names;
}

ObjectiveSpace ObjectiveSpace::default_space() {
  return from_names("tput,area,power");
}

ObjectiveSpace ObjectiveSpace::from_names(std::string_view csv) {
  ObjectiveSpace space;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string_view item =
        csv.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                          : comma - start);
    if (item.empty()) {
      throw std::invalid_argument(
          "ObjectiveSpace: empty axis name in objective list '" +
          std::string(csv) + "'; known: " + known_csv());
    }
    space.add(item);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return space;
}

ObjectiveSpace& ObjectiveSpace::add(std::string_view name) {
  for (const ObjectiveAxis& a : axes_) {
    if (a.name == name) {
      throw std::invalid_argument("ObjectiveSpace: duplicate axis '" +
                                  std::string(name) +
                                  "'; known: " + known_csv());
    }
  }
  for (const ObjectiveAxis& a : kAxes) {
    if (a.name == name) {
      axes_.push_back(a);
      return *this;
    }
  }
  throw std::invalid_argument("unknown objective '" + std::string(name) +
                              "'; known: " + known_csv());
}

std::string ObjectiveSpace::names() const {
  std::string out;
  for (const auto& a : axes_) {
    if (!out.empty()) out += ",";
    out += a.name;
  }
  return out;
}

std::vector<std::size_t> ObjectiveSpace::mark_front(
    std::vector<DsePoint>& points, const DseConfig& config) const {
  if (axes_.empty()) {
    throw std::logic_error("ObjectiveSpace::mark_front: no axes");
  }
  // Only the knobs the dominance pass uses: the stage-2 replay fields are
  // inert here, so they are not policed.
  internal::validate_exec_config(config);
  std::vector<std::size_t> all(points.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return internal::mark_front_among(
      points, internal::objective_rows(*this, points), all,
      config.num_threads);
}

namespace internal {

std::vector<double> objective_rows(const ObjectiveSpace& space,
                                   const std::vector<DsePoint>& points) {
  // Hoist the extractor calls out of the all-pairs pass: each
  // point's axis figures are read once (n*k extractor calls), and the
  // O(n^2) dominance loop compares raw doubles. Sign-normalizing maximize
  // axes keeps that loop branch-free per axis without changing any
  // comparison outcome.
  const std::size_t k = space.size();
  std::vector<double> rows(points.size() * k);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t a = 0; a < k; ++a) {
      const ObjectiveAxis& axis = space.axes()[a];
      const double v = axis.extract(points[i]);
      rows[i * k + a] = axis.direction == ObjectiveDirection::kMinimize ? v : -v;
    }
  }
  return rows;
}

std::vector<std::size_t> mark_front_among(std::vector<DsePoint>& points,
                                          const std::vector<double>& rows,
                                          const std::vector<std::size_t>& among,
                                          int num_threads) {
  const std::size_t m = among.size();
  const std::size_t k = points.empty() ? 0 : rows.size() / points.size();
  // Each point's dominance check reads every other member's figures but
  // writes only its own pareto_optimal flag, so the all-pairs pass shards
  // cleanly per point. It only outweighs pool dispatch on big slices.
  const int threads = m < 256 ? 1 : num_threads;
  sim::parallel_for(m, sim::ParallelConfig{threads}, [&](std::size_t p) {
    DsePoint& pt = points[among[p]];
    if (!pt.mapping_cost.feasible) {
      pt.pareto_optimal = false;
      return;
    }
    const double* vi = &rows[among[p] * k];
    bool dominated = false;
    for (std::size_t q = 0; q < m && !dominated; ++q) {
      const std::size_t j = among[q];
      if (q == p || !points[j].mapping_cost.feasible) continue;
      const double* vj = &rows[j * k];
      bool all_leq = true;
      bool strictly = false;
      for (std::size_t a = 0; a < k && all_leq; ++a) {
        all_leq = vj[a] <= vi[a];
        strictly = strictly || vj[a] < vi[a];
      }
      dominated = all_leq && strictly;
    }
    pt.pareto_optimal = !dominated;
  });
  std::vector<std::size_t> front;
  for (const std::size_t i : among) {
    if (points[i].pareto_optimal) front.push_back(i);
  }
  return front;
}

}  // namespace internal

}  // namespace soc::core
