#include "soc/core/mapper.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "soc/core/exact_mapper.hpp"
#include "soc/core/nsgaii_mapper.hpp"

namespace soc::core {

std::vector<MappingFrontPoint> Mapper::map_front(
    const TaskGraph& graph, const PlatformDesc& platform,
    const ObjectiveWeights& weights, sim::Rng& rng,
    const MappingConstraints& constraints) const {
  // Single-solution default: the strategy's one mapping, fully costed.
  Mapping m = map(graph, platform, weights, rng, constraints);
  MappingCost cost = evaluate_mapping(graph, platform, m, weights, constraints);
  std::vector<MappingFrontPoint> front;
  front.push_back(MappingFrontPoint{std::move(m), std::move(cost)});
  return front;
}

namespace {

/// Final feasibility pass shared by every built-in strategy: the
/// heuristics are constraint-aware but may strand a task when their
/// greedy/stochastic order paints them into a corner; repair_mapping
/// rehomes violators deterministically. A no-op (and skipped outright)
/// under a vacuous policy, so unconstrained results are untouched.
Mapping repaired(const TaskGraph& graph, const PlatformDesc& platform,
                 Mapping m, const MappingConstraints& constraints) {
  if (constraints.any()) repair_mapping(graph, platform, m, constraints);
  return m;
}

class RandomMapper final : public Mapper {
 public:
  std::string_view name() const noexcept override { return "random"; }
  Mapping map(const TaskGraph& graph, const PlatformDesc& platform,
              const ObjectiveWeights&, sim::Rng& rng,
              const MappingConstraints& constraints) const override {
    return repaired(graph, platform,
                    random_mapping(graph, platform, rng, constraints),
                    constraints);
  }
};

class GreedyMapper final : public Mapper {
 public:
  std::string_view name() const noexcept override { return "greedy"; }
  bool deterministic() const noexcept override { return true; }
  Mapping map(const TaskGraph& graph, const PlatformDesc& platform,
              const ObjectiveWeights& weights, sim::Rng&,
              const MappingConstraints& constraints) const override {
    return repaired(graph, platform,
                    greedy_mapping(graph, platform, weights, constraints),
                    constraints);
  }
};

class AnnealMapper final : public Mapper {
 public:
  explicit AnnealMapper(const AnnealConfig& cfg) : cfg_(cfg) {}
  std::string_view name() const noexcept override { return "anneal"; }
  Mapping map(const TaskGraph& graph, const PlatformDesc& platform,
              const ObjectiveWeights& weights, sim::Rng& rng,
              const MappingConstraints& constraints) const override {
    return repaired(
        graph, platform,
        anneal_mapping(graph, platform, weights, cfg_, rng, constraints),
        constraints);
  }

 private:
  AnnealConfig cfg_;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, MapperFactory> factories;
};

Registry& registry() {
  static Registry& r = *[] {
    auto* reg = new Registry();
    reg->factories["random"] = [](const AnnealConfig&) {
      return std::unique_ptr<Mapper>(new RandomMapper());
    };
    reg->factories["greedy"] = [](const AnnealConfig&) {
      return std::unique_ptr<Mapper>(new GreedyMapper());
    };
    reg->factories["anneal"] = [](const AnnealConfig& cfg) {
      return std::unique_ptr<Mapper>(new AnnealMapper(cfg));
    };
    reg->factories["nsga2"] = [](const AnnealConfig& cfg) {
      return std::unique_ptr<Mapper>(new NsgaiiMapper(cfg));
    };
    reg->factories["exact"] = [](const AnnealConfig&) {
      return std::unique_ptr<Mapper>(new ExactMapper());
    };
    return reg;
  }();
  return r;
}

}  // namespace

void register_mapper(std::string name, MapperFactory factory) {
  if (name.empty() || !factory) {
    throw std::invalid_argument("register_mapper: empty name or factory");
  }
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.factories[std::move(name)] = std::move(factory);
}

std::vector<std::string> registered_mappers() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::string> names;
  names.reserve(reg.factories.size());
  for (const auto& [name, factory] : reg.factories) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::unique_ptr<Mapper> make_mapper(std::string_view name,
                                    const AnnealConfig& anneal) {
  MapperFactory factory;
  {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    const auto it = reg.factories.find(std::string(name));
    if (it != reg.factories.end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const auto& n : registered_mappers()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("make_mapper: unknown strategy '" +
                                std::string(name) + "' (registered: " + known +
                                ")");
  }
  return factory(anneal);
}

}  // namespace soc::core
