// Ground-truth mapper quality: the ExactMapper branch-and-bound baseline
// (optimality, permutation invariance, node-budget cap), the NSGA-II
// mapping fronts (mutual non-domination, determinism across thread counts
// and EvalCache settings), and the Mapper::map_front extension surfaced
// through DseSession::mapping_fronts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "soc/core/dse_session.hpp"
#include "soc/core/exact_mapper.hpp"
#include "soc/core/mapper.hpp"
#include "soc/core/mapping.hpp"
#include "soc/core/nsgaii_mapper.hpp"
#include "soc/core/objective_space.hpp"
#include "soc/core/scenario.hpp"
#include "soc/sim/rng.hpp"
#include "test_fixtures.hpp"

namespace soc::core {
namespace {

/// Small seeded scenario instances the exact mapper stays tractable on:
/// depth 3 x width 3 layered/series-parallel/fan-in graphs (<= 9 tasks).
TaskGraph small_scenario(ScenarioShape shape, int kinds, int index) {
  const ScenarioGenerator gen(0x9a7ULL);
  ScenarioSpec spec;
  spec.shape = shape;
  spec.depth = 3;
  spec.width = 3;
  spec.kinds = kinds;
  spec.demand_min = 0.5;
  spec.demand_max = 2.0;
  spec.name = "mq";
  return gen.generate(spec, index);
}

constexpr ScenarioShape kShapes[] = {ScenarioShape::kLayered,
                                     ScenarioShape::kSeriesParallel,
                                     ScenarioShape::kFanInHeavy};

/// Strict non-domination over the evaluated triple, feasibility first —
/// mirrors the NSGA-II constrained-domination rule.
bool dominates(const MappingCost& a, const MappingCost& b) {
  if (a.feasible != b.feasible) return a.feasible;
  const bool no_worse = a.bottleneck_cycles <= b.bottleneck_cycles &&
                        a.comm_word_hops <= b.comm_word_hops &&
                        a.energy_pj_per_item <= b.energy_pj_per_item;
  const bool better = a.bottleneck_cycles < b.bottleneck_cycles ||
                      a.comm_word_hops < b.comm_word_hops ||
                      a.energy_pj_per_item < b.energy_pj_per_item;
  return no_worse && better;
}

// ------------------------------------------------------------ optimality ---

// The branch-and-bound result is a global optimum: no registered strategy
// may beat it on any instance of the seeded small-graph corpus, with and
// without an active kind/capacity policy.
TEST(ExactMapper, NeverWorseThanAnyRegistryStrategy) {
  const ExactMapper exact;
  AnnealConfig cfg;
  cfg.iterations = 240;
  const ObjectiveWeights weights;
  const std::vector<std::string> strategies = {"anneal", "greedy", "nsga2",
                                               "random"};
  int instances = 0;
  for (const bool constrained : {false, true}) {
    const MappingConstraints constraints =
        constrained ? MappingConstraints{} : MappingConstraints::none();
    const PlatformDesc platform =
        constrained ? striped_platform(5, 2, 8.0) : cpu_asip_platform(5);
    for (const ScenarioShape shape : kShapes) {
      for (int index = 0; index < 3; ++index) {
        const TaskGraph g = small_scenario(shape, constrained ? 2 : 1, index);
        ASSERT_LE(g.node_count(), exact.node_budget());
        const MappingFrontPoint opt =
            exact.solve(g, platform, weights, constraints);
        const double slack = 1e-9 * (1.0 + std::abs(opt.cost.objective));
        for (const std::string& name : strategies) {
          cfg.seed = 0xfeedULL + static_cast<std::uint64_t>(instances);
          sim::Rng rng(cfg.seed);
          const Mapping m = make_mapper(name, cfg)->map(g, platform, weights,
                                                        rng, constraints);
          const MappingCost heur =
              evaluate_mapping(g, platform, m, weights, constraints);
          EXPECT_LE(opt.cost.objective, heur.objective + slack)
              << name << " beat exact on shape " << static_cast<int>(shape)
              << " index " << index << " constrained=" << constrained;
        }
        ++instances;
      }
    }
  }
  EXPECT_EQ(instances, 18);
}

// Relabeling tasks permutes the assignment vector but cannot change the
// optimal objective value.
TEST(ExactMapper, InvariantUnderTaskPermutation) {
  const ExactMapper exact;
  const ObjectiveWeights weights;
  const PlatformDesc platform = cpu_asip_platform(4);
  sim::Rng rng(0x5151ULL);
  for (int trial = 0; trial < 4; ++trial) {
    const TaskGraph g = random_dag(rng, 7, 4);
    // Seeded permutation: perm[old] = new index.
    std::vector<int> perm(static_cast<std::size_t>(g.node_count()));
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    }
    std::vector<int> inv(perm.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
      inv[static_cast<std::size_t>(perm[i])] = static_cast<int>(i);
    }
    TaskGraph permuted("permuted");
    for (std::size_t j = 0; j < perm.size(); ++j) {
      permuted.add_node(g.node(inv[j]));
    }
    for (const TaskEdge& e : g.edges()) {
      permuted.add_edge({perm[static_cast<std::size_t>(e.src)],
                         perm[static_cast<std::size_t>(e.dst)],
                         e.words_per_item});
    }
    const MappingFrontPoint a = exact.solve(g, platform, weights);
    const MappingFrontPoint b = exact.solve(permuted, platform, weights);
    EXPECT_NEAR(a.cost.objective, b.cost.objective,
                1e-9 * (1.0 + std::abs(a.cost.objective)));
    // The permuted optimum, pulled back to the original task IDs, must
    // score identically under the original graph.
    Mapping pulled(a.mapping.size());
    for (std::size_t i = 0; i < pulled.size(); ++i) {
      pulled[i] = b.mapping[static_cast<std::size_t>(perm[i])];
    }
    const MappingCost re = evaluate_mapping(g, platform, pulled, weights);
    EXPECT_NEAR(re.objective, a.cost.objective,
                1e-9 * (1.0 + std::abs(a.cost.objective)));
  }
}

// The node-budget guard fails loudly, naming both the graph size and the
// cap, instead of hanging the sweep on an oversized graph.
TEST(ExactMapper, BudgetCapThrowsTypedErrorNamingTheCap) {
  const ExactMapper exact;
  EXPECT_EQ(exact.node_budget(), ExactMapper::kDefaultNodeBudget);
  sim::Rng rng(7);
  const TaskGraph big = random_dag(rng, 13, 0);
  const PlatformDesc platform = cpu_asip_platform(4);
  try {
    exact.solve(big, platform, ObjectiveWeights{});
    FAIL() << "expected ExactBudgetExceeded";
  } catch (const ExactBudgetExceeded& e) {
    EXPECT_EQ(e.node_count(), 13);
    EXPECT_EQ(e.budget(), 12);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("node budget cap of 12"), std::string::npos) << msg;
    EXPECT_NE(msg.find("13 tasks"), std::string::npos) << msg;
  }
  // A raised budget admits the same graph.
  sim::Rng rng2(9);
  EXPECT_NO_THROW(ExactMapper(13).map(big, platform, ObjectiveWeights{}, rng2,
                                      MappingConstraints::none()));
  EXPECT_THROW(ExactMapper(0), std::invalid_argument);
  EXPECT_THROW(exact.solve(TaskGraph("empty"), platform, ObjectiveWeights{}),
               std::invalid_argument);
}

// ------------------------------------------------------------- map_front ---

// Single-solution strategies inherit the default map_front: a one-point
// front wrapping exactly the mapping map() returns.
TEST(MapFront, DefaultIsSingletonOfMapResult) {
  const TaskGraph g = small_scenario(ScenarioShape::kLayered, 1, 0);
  const PlatformDesc platform = cpu_asip_platform(4);
  const ObjectiveWeights weights;
  const auto mapper = make_mapper("greedy");
  sim::Rng rng_a(3);
  sim::Rng rng_b(3);
  const auto front = mapper->map_front(g, platform, weights, rng_a,
                                       MappingConstraints::none());
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].mapping, mapper->map(g, platform, weights, rng_b,
                                          MappingConstraints::none()));
  const MappingCost re = evaluate_mapping(g, platform, front[0].mapping,
                                          weights);
  EXPECT_EQ(front[0].cost.objective, re.objective);
}

TEST(MapFront, RegistryCarriesExactAndNsga2) {
  const auto names = registered_mappers();
  EXPECT_NE(std::find(names.begin(), names.end(), "exact"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "nsga2"), names.end());
  EXPECT_TRUE(make_mapper("exact")->deterministic());
  EXPECT_FALSE(make_mapper("nsga2")->deterministic());
  EXPECT_EQ(make_mapper("nsga2")->name(), "nsga2");
}

// -------------------------------------------------------------- NSGA-II ---

// The returned front is mutually non-dominated, deterministically ordered
// by (objective, mapping), and led by the map() result.
TEST(NsgaiiMapper, FrontIsMutuallyNonDominatedAndLedByMapResult) {
  AnnealConfig cfg;
  cfg.iterations = 480;
  cfg.seed = 0xabcdULL;
  const NsgaiiMapper mapper(cfg);
  EXPECT_EQ(mapper.generations(), 20);
  const ObjectiveWeights weights;
  for (const ScenarioShape shape : kShapes) {
    const TaskGraph g = small_scenario(shape, 2, 1);
    const PlatformDesc platform = striped_platform(5, 2, 8.0);
    sim::Rng rng_a(cfg.seed);
    sim::Rng rng_b(cfg.seed);
    const auto front =
        mapper.map_front(g, platform, weights, rng_a, MappingConstraints{});
    ASSERT_FALSE(front.empty());
    EXPECT_EQ(front[0].mapping, mapper.map(g, platform, weights, rng_b,
                                           MappingConstraints{}));
    for (std::size_t i = 0; i < front.size(); ++i) {
      // Cost fields are genuine evaluate_mapping figures.
      const MappingCost re = evaluate_mapping(g, platform, front[i].mapping,
                                              weights, MappingConstraints{});
      EXPECT_EQ(front[i].cost.objective, re.objective);
      EXPECT_LE(front[0].cost.objective, front[i].cost.objective);
      for (std::size_t j = 0; j < front.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(dominates(front[i].cost, front[j].cost))
            << "front member " << i << " dominates member " << j;
      }
    }
  }
}

// ---------------------------------------------- DseSession mapping fronts ---

std::vector<DsePoint> run_front_session(const TaskGraph& g,
                                        const DseSpace& space, int threads,
                                        bool cache, std::size_t* grid_points,
                                        std::vector<std::size_t>* parents) {
  AnnealConfig anneal;
  anneal.iterations = 480;
  anneal.seed = 0x77aaULL;
  DseConfig config;
  config.mapper = "nsga2";
  config.mapping_fronts = true;
  config.num_threads = threads;
  config.use_eval_cache = cache;
  DseSession session(
      DseProblem{g, ObjectiveSpace::default_space(), {}, tech::node_90nm()},
      space, anneal, config);
  std::vector<DsePoint> pts = session.run();
  if (grid_points) *grid_points = session.grid_point_count();
  if (parents) {
    parents->clear();
    for (std::size_t i = session.grid_point_count(); i < pts.size(); ++i) {
      parents->push_back(session.extra_parent(i));
    }
  }
  return pts;
}

void expect_bit_identical(const std::vector<DsePoint>& a,
                          const std::vector<DsePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mapping, b[i].mapping) << "point " << i;
    EXPECT_EQ(a[i].mapping_cost.objective, b[i].mapping_cost.objective);
    EXPECT_EQ(a[i].mapping_cost.bottleneck_cycles,
              b[i].mapping_cost.bottleneck_cycles);
    EXPECT_EQ(a[i].mapping_cost.energy_pj_per_item,
              b[i].mapping_cost.energy_pj_per_item);
    EXPECT_EQ(a[i].pareto_optimal, b[i].pareto_optimal) << "point " << i;
  }
}

// NSGA-II fronts through the session are bit-identical across thread counts
// 1/3/0 with the EvalCache on and off — the ISSUE's acceptance property.
TEST(DseSessionMappingFronts, Nsga2BitIdenticalAcrossThreadsAndCache) {
  const TaskGraph g = small_scenario(ScenarioShape::kLayered, 1, 2);
  DseSpace space;
  space.nodes = {};
  space.pe_counts = {4, 8};
  space.thread_counts = {2};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D};
  space.fabrics = {tech::Fabric::kAsip};
  std::size_t grid = 0;
  std::vector<std::size_t> parents;
  const std::vector<DsePoint> base =
      run_front_session(g, space, 1, false, &grid, &parents);
  EXPECT_EQ(grid, 4u);
  EXPECT_GE(base.size(), grid);
  for (std::size_t k = 0; k < parents.size(); ++k) {
    EXPECT_LT(parents[k], grid);
    if (k > 0) {
      EXPECT_LE(parents[k - 1], parents[k]);  // flat-parent order
    }
    const DsePoint& extra = base[grid + k];
    const DsePoint& parent = base[parents[k]];
    EXPECT_EQ(extra.candidate.num_pes, parent.candidate.num_pes);
    EXPECT_EQ(extra.candidate.topology, parent.candidate.topology);
    EXPECT_EQ(extra.scenario, parent.scenario);
  }
  for (const int threads : {3, 0}) {
    for (const bool cache : {false, true}) {
      std::size_t grid2 = 0;
      std::vector<std::size_t> parents2;
      expect_bit_identical(
          base, run_front_session(g, space, threads, cache, &grid2,
                                  &parents2));
      EXPECT_EQ(grid, grid2);
      EXPECT_EQ(parents, parents2);
    }
  }
}

// With the flag on, the grid prefix stays bit-identical to a flag-off sweep
// (the canonical point is the set's first member == map()'s mapping).
TEST(DseSessionMappingFronts, GridPrefixMatchesFlagOffSweep) {
  const TaskGraph g = small_scenario(ScenarioShape::kSeriesParallel, 1, 0);
  DseSpace space;
  space.pe_counts = {4};
  space.thread_counts = {2};
  space.topologies = {noc::TopologyKind::kMesh2D};
  space.fabrics = {tech::Fabric::kAsip};
  AnnealConfig anneal;
  anneal.iterations = 480;
  anneal.seed = 0x77aaULL;
  DseConfig off;
  off.mapper = "nsga2";
  off.num_threads = 1;
  off.use_eval_cache = false;
  DseSession plain(
      DseProblem{g, ObjectiveSpace::default_space(), {}, tech::node_90nm()},
      space, anneal, off);
  const std::vector<DsePoint> flag_off = plain.run();
  std::size_t grid = 0;
  const std::vector<DsePoint> flag_on =
      run_front_session(g, space, 1, false, &grid, nullptr);
  ASSERT_EQ(flag_off.size(), grid);
  for (std::size_t i = 0; i < grid; ++i) {
    EXPECT_EQ(flag_off[i].mapping, flag_on[i].mapping) << "grid point " << i;
    EXPECT_EQ(flag_off[i].mapping_cost.objective,
              flag_on[i].mapping_cost.objective);
  }
  // extra_parent rejects grid indices.
  DseSession again(
      DseProblem{g, ObjectiveSpace::default_space(), {}, tech::node_90nm()},
      space, anneal, off);
  again.run();
  EXPECT_THROW(again.extra_parent(0), std::out_of_range);
}

}  // namespace
}  // namespace soc::core
