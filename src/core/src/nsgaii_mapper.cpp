#include "soc/core/nsgaii_mapper.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "soc/core/incremental_objective.hpp"

namespace soc::core {

namespace {

constexpr double kCrossoverRate = 0.9;

/// The three minimized axes of one individual, plus the scalarized objective
/// and feasibility used for constrained domination and the final pick.
struct Score {
  double bottleneck = 0.0;
  double comm = 0.0;
  double energy = 0.0;
  double objective = 0.0;
  bool feasible = true;
};

/// Constrained Pareto domination (Deb): a feasible individual dominates any
/// infeasible one; otherwise standard weak-dominance-plus-strict-somewhere
/// over the minimized triple.
bool dominates(const Score& a, const Score& b) {
  if (a.feasible != b.feasible) return a.feasible;
  const bool no_worse = a.bottleneck <= b.bottleneck && a.comm <= b.comm &&
                        a.energy <= b.energy;
  const bool better = a.bottleneck < b.bottleneck || a.comm < b.comm ||
                      a.energy < b.energy;
  return no_worse && better;
}

/// Scores mappings through one shared IncrementalObjective by walking it
/// task-by-task from its current mapping to the target — every figure is
/// bit-identical to evaluate_mapping of the target (the incremental
/// evaluator's exactness contract), at O(diff · degree) per score.
class Evaluator {
 public:
  Evaluator(const TaskGraph& graph, const PlatformDesc& platform,
            const ObjectiveWeights& weights, Mapping initial,
            const MappingConstraints& constraints)
      : inc_(graph, platform, weights, std::move(initial), constraints) {}

  Score eval(const Mapping& m) {
    for (std::size_t t = 0; t < m.size(); ++t) {
      if (inc_.mapping()[t] != m[t]) inc_.try_move(static_cast<int>(t), m[t]);
    }
    return Score{inc_.bottleneck_cycles(), inc_.comm_word_hops(),
                 inc_.energy_pj_per_item(), inc_.objective(), inc_.feasible()};
  }

 private:
  IncrementalObjective inc_;
};

/// Fast non-dominated sort: returns the front index (0 = non-dominated) of
/// every individual.
std::vector<int> non_dominated_ranks(const std::vector<Score>& scores) {
  const std::size_t n = scores.size();
  std::vector<int> rank(n, 0);
  std::vector<int> dom_count(n, 0);
  std::vector<std::vector<std::size_t>> dominated(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (dominates(scores[i], scores[j])) {
        dominated[i].push_back(j);
        ++dom_count[j];
      } else if (dominates(scores[j], scores[i])) {
        dominated[j].push_back(i);
        ++dom_count[i];
      }
    }
  }
  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    if (dom_count[i] == 0) current.push_back(i);
  }
  int level = 0;
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (const std::size_t i : current) {
      rank[i] = level;
      for (const std::size_t j : dominated[i]) {
        if (--dom_count[j] == 0) next.push_back(j);
      }
    }
    current = std::move(next);
    ++level;
  }
  return rank;
}

/// Crowding distance per individual within its own front (boundary members
/// get +inf). Deterministic: per-axis sorts are stable with index ties.
std::vector<double> crowding_distances(const std::vector<Score>& scores,
                                       const std::vector<int>& rank) {
  const std::size_t n = scores.size();
  std::vector<double> dist(n, 0.0);
  const int max_rank =
      n == 0 ? -1 : *std::max_element(rank.begin(), rank.end());
  const auto axis = [](const Score& s, int a) {
    return a == 0 ? s.bottleneck : a == 1 ? s.comm : s.energy;
  };
  for (int r = 0; r <= max_rank; ++r) {
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < n; ++i) {
      if (rank[i] == r) front.push_back(i);
    }
    for (int a = 0; a < 3; ++a) {
      std::stable_sort(front.begin(), front.end(),
                       [&](std::size_t x, std::size_t y) {
                         return axis(scores[x], a) < axis(scores[y], a);
                       });
      const double lo = axis(scores[front.front()], a);
      const double hi = axis(scores[front.back()], a);
      dist[front.front()] = std::numeric_limits<double>::infinity();
      dist[front.back()] = std::numeric_limits<double>::infinity();
      if (hi > lo) {
        for (std::size_t k = 1; k + 1 < front.size(); ++k) {
          dist[front[k]] += (axis(scores[front[k + 1]], a) -
                             axis(scores[front[k - 1]], a)) /
                            (hi - lo);
        }
      }
    }
  }
  return dist;
}

/// Binary tournament: lower rank wins, then higher crowding, then lower
/// index (the deterministic tie-break).
std::size_t tournament(sim::Rng& rng, const std::vector<int>& rank,
                       const std::vector<double>& crowd) {
  const std::size_t n = rank.size();
  const std::size_t a = rng.next_below(n);
  const std::size_t b = rng.next_below(n);
  if (rank[a] != rank[b]) return rank[a] < rank[b] ? a : b;
  if (crowd[a] != crowd[b]) return crowd[a] > crowd[b] ? a : b;
  return std::min(a, b);
}

}  // namespace

NsgaiiMapper::NsgaiiMapper(const AnnealConfig& cfg)
    : generations_(std::clamp(cfg.iterations / kPopulation, 2, 400)) {}

std::vector<MappingFrontPoint> NsgaiiMapper::map_front(
    const TaskGraph& graph, const PlatformDesc& platform,
    const ObjectiveWeights& weights, sim::Rng& rng,
    const MappingConstraints& constraints) const {
  const int n = graph.node_count();
  const int npe = platform.pe_count();
  const bool repair = constraints.any();

  // Seeded population: the greedy mapping anchors the search near a
  // known-good placement, the rest explores.
  std::vector<Mapping> pop;
  pop.reserve(kPopulation);
  pop.push_back(greedy_mapping(graph, platform, weights, constraints));
  while (static_cast<int>(pop.size()) < kPopulation) {
    pop.push_back(random_mapping(graph, platform, rng, constraints));
  }
  if (repair) {
    for (Mapping& m : pop) repair_mapping(graph, platform, m, constraints);
  }

  Evaluator ev(graph, platform, weights, pop.front(), constraints);
  std::vector<Score> scores;
  scores.reserve(pop.size());
  for (const Mapping& m : pop) scores.push_back(ev.eval(m));

  const auto mutate = [&](Mapping& m) {
    for (int t = 0; t < n; ++t) {
      if (rng.next_bool(1.0 / static_cast<double>(n))) {
        m[static_cast<std::size_t>(t)] =
            static_cast<int>(rng.next_below(static_cast<std::uint64_t>(npe)));
      }
    }
  };

  for (int gen = 0; gen < generations_; ++gen) {
    const std::vector<int> rank = non_dominated_ranks(scores);
    const std::vector<double> crowd = crowding_distances(scores, rank);

    // Variation: tournament parents, one-point crossover, per-task mutation,
    // repair — fixed RNG consumption order keeps the run a pure function of
    // the stream.
    std::vector<Mapping> kids;
    kids.reserve(kPopulation);
    while (static_cast<int>(kids.size()) < kPopulation) {
      Mapping c1 = pop[tournament(rng, rank, crowd)];
      Mapping c2 = pop[tournament(rng, rank, crowd)];
      if (n > 1 && rng.next_bool(kCrossoverRate)) {
        const int cut = 1 + static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(n - 1)));
        for (int t = cut; t < n; ++t) {
          std::swap(c1[static_cast<std::size_t>(t)],
                    c2[static_cast<std::size_t>(t)]);
        }
      }
      mutate(c1);
      mutate(c2);
      if (repair) {
        repair_mapping(graph, platform, c1, constraints);
        repair_mapping(graph, platform, c2, constraints);
      }
      kids.push_back(std::move(c1));
      if (static_cast<int>(kids.size()) < kPopulation) {
        kids.push_back(std::move(c2));
      }
    }

    // Environmental selection over parents + offspring: whole fronts first,
    // the cut front by descending crowding (ties to the lower index).
    std::vector<Mapping> combined = std::move(pop);
    combined.insert(combined.end(), std::make_move_iterator(kids.begin()),
                    std::make_move_iterator(kids.end()));
    std::vector<Score> cscores = std::move(scores);
    for (std::size_t i = cscores.size(); i < combined.size(); ++i) {
      cscores.push_back(ev.eval(combined[i]));
    }
    const std::vector<int> crank = non_dominated_ranks(cscores);
    const std::vector<double> ccrowd = crowding_distances(cscores, crank);
    std::vector<std::size_t> idx(combined.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (crank[a] != crank[b]) return crank[a] < crank[b];
                       if (ccrowd[a] != ccrowd[b]) return ccrowd[a] > ccrowd[b];
                       return a < b;
                     });
    pop.clear();
    scores.clear();
    for (int k = 0; k < kPopulation; ++k) {
      pop.push_back(std::move(combined[idx[static_cast<std::size_t>(k)]]));
      scores.push_back(cscores[idx[static_cast<std::size_t>(k)]]);
    }
  }

  // Final front: rank-0 survivors, deduplicated, with full costs, sorted by
  // ascending (objective, mapping) so front[0] is the scalarized best.
  const std::vector<int> rank = non_dominated_ranks(scores);
  std::vector<Mapping> members;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    if (rank[i] == 0) members.push_back(pop[i]);
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());

  std::vector<MappingFrontPoint> front;
  front.reserve(members.size());
  for (Mapping& m : members) {
    MappingCost mc = evaluate_mapping(graph, platform, m, weights, constraints);
    front.push_back(MappingFrontPoint{std::move(m), std::move(mc)});
  }
  std::stable_sort(front.begin(), front.end(),
                   [](const MappingFrontPoint& a, const MappingFrontPoint& b) {
                     if (a.cost.objective != b.cost.objective) {
                       return a.cost.objective < b.cost.objective;
                     }
                     return a.mapping < b.mapping;
                   });
  return front;
}

Mapping NsgaiiMapper::map(const TaskGraph& graph, const PlatformDesc& platform,
                          const ObjectiveWeights& weights, sim::Rng& rng,
                          const MappingConstraints& constraints) const {
  return map_front(graph, platform, weights, rng, constraints)
      .front()
      .mapping;
}

}  // namespace soc::core
