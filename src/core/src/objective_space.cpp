#include "soc/core/objective_space.hpp"

#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "dse_internal.hpp"
#include "soc/sim/parallel.hpp"

namespace soc::core {

namespace {

struct RegistryEntry {
  ObjectiveDirection direction;
  std::function<double(const DsePoint&)> extract;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, RegistryEntry, std::less<>> entries;
};

Registry& registry() {
  // Leaked singleton (same idiom as the mapper registry): pre-seed the
  // built-in axes, never destruct, so static-destruction order can't bite
  // sweeps running at exit.
  static Registry& r = *[] {
    auto* reg = new Registry();
    reg->entries["tput"] = RegistryEntry{
        ObjectiveDirection::kMaximize,
        [](const DsePoint& p) { return p.throughput_per_kcycle; }};
    reg->entries["area"] = RegistryEntry{
        ObjectiveDirection::kMinimize,
        [](const DsePoint& p) { return p.silicon.total_area_mm2; }};
    reg->entries["power"] = RegistryEntry{
        ObjectiveDirection::kMinimize, [](const DsePoint& p) {
          return p.silicon.peak_dynamic_mw + p.silicon.leakage_mw;
        }};
    reg->entries["energy"] = RegistryEntry{
        ObjectiveDirection::kMinimize,
        [](const DsePoint& p) { return p.mapping_cost.energy_pj_per_item; }};
    return reg;
  }();
  return r;
}

/// Comma-separated registry contents, appended to every objective-name
/// error so callers see what they could have asked for.
std::string registered_csv() {
  std::string out;
  for (const auto& n : registered_objectives()) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

[[noreturn]] void throw_unknown(std::string_view name) {
  throw std::invalid_argument("unknown objective '" + std::string(name) +
                              "'; registered: " + registered_csv());
}

}  // namespace

void register_objective(std::string name, ObjectiveDirection direction,
                        std::function<double(const DsePoint&)> extract) {
  if (name.empty()) {
    throw std::invalid_argument("register_objective: empty name");
  }
  if (!extract) {
    throw std::invalid_argument("register_objective: null extractor for '" +
                                name + "'");
  }
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.entries[std::move(name)] = RegistryEntry{direction, std::move(extract)};
}

std::vector<std::string> registered_objectives() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.entries.size());
  for (const auto& [name, entry] : r.entries) names.push_back(name);
  return names;  // std::map iterates sorted
}

bool is_registered_objective(std::string_view name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.entries.find(name) != r.entries.end();
}

ObjectiveAxis make_objective(std::string_view name) {
  Registry& r = registry();
  {
    const std::lock_guard<std::mutex> lock(r.mu);
    const auto it = r.entries.find(name);
    if (it != r.entries.end()) {
      return ObjectiveAxis{it->first, it->second.direction,
                           it->second.extract};
    }
  }
  throw_unknown(name);
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
          std::string(csv) + "'; registered: " + registered_csv());
    }
    space.add(item);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return space;
}

ObjectiveSpace& ObjectiveSpace::add(std::string_view name) {
  return add(make_objective(name));
}

ObjectiveSpace& ObjectiveSpace::add(ObjectiveAxis axis) {
  if (axis.name.empty()) {
    throw std::invalid_argument("ObjectiveSpace: axis with empty name");
  }
  if (!axis.extract) {
    throw std::invalid_argument("ObjectiveSpace: axis '" + axis.name +
                                "' has a null extractor");
  }
  for (const auto& a : axes_) {
    if (a.name == axis.name) {
      throw std::invalid_argument("ObjectiveSpace: duplicate axis '" +
                                  axis.name +
                                  "'; registered: " + registered_csv());
    }
  }
  axes_.push_back(std::move(axis));
  return *this;
}

std::string ObjectiveSpace::names() const {
  std::string out;
  for (const auto& a : axes_) {
    if (!out.empty()) out += ",";
    out += a.name;
  }
  return out;
}

bool ObjectiveSpace::dominates(const DsePoint& a, const DsePoint& b) const {
  if (axes_.empty()) {
    throw std::logic_error("ObjectiveSpace::dominates: no axes");
  }
  bool strictly = false;
  for (const auto& axis : axes_) {
    const double va = axis.extract(a);
    const double vb = axis.extract(b);
    if (axis.direction == ObjectiveDirection::kMaximize) {
      if (va < vb) return false;
      strictly = strictly || va > vb;
    } else {
      if (va > vb) return false;
      strictly = strictly || va < vb;
    }
  }
  return strictly;
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
  // Hoist the type-erased extractors out of the all-pairs pass: each
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
