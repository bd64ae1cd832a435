// Mapper strategy registry, the annealer, and the bit-exactness contract
// between IncrementalObjective and the full evaluate_mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "dse_session_util.hpp"
#include "pinned_digest.hpp"
#include "soc/apps/graphs.hpp"
#include "test_fixtures.hpp"
#include "soc/core/dse.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/exact_mapper.hpp"
#include "soc/core/exact_sum.hpp"
#include "soc/core/incremental_objective.hpp"
#include "soc/core/mapper.hpp"
#include "soc/core/mapping.hpp"
#include "soc/core/objective_space.hpp"
#include "soc/core/scenario.hpp"
#include "soc/sim/parallel.hpp"

namespace soc::core {
namespace {

using tech::Fabric;

// cpu_asip_platform / random_dag moved to the shared test_fixtures.hpp.

// ------------------------------------------------------------ PairwiseSum ---

TEST(PairwiseSum, PointUpdatesMatchRebuild) {
  sim::Rng rng(17);
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                              std::size_t{100}}) {
    std::vector<double> leaves(n);
    for (auto& v : leaves) v = rng.next_double() * 1e3;
    PairwiseSum tree;
    tree.assign(leaves);
    EXPECT_EQ(tree.total(), PairwiseSum::reduce(leaves));
    // 50 random point updates: tree total must stay bit-identical to a
    // from-scratch reduction of the mutated leaves.
    for (int step = 0; step < 50; ++step) {
      const std::size_t i = rng.next_below(n);
      leaves[i] = rng.next_double() * 1e3;
      tree.set(i, leaves[i]);
      ASSERT_EQ(tree.total(), PairwiseSum::reduce(leaves));
      ASSERT_EQ(tree.get(i), leaves[i]);
    }
  }
  EXPECT_EQ(PairwiseSum().total(), 0.0);
}

TEST(PairwiseSum, TotalWithMatchesSetWithoutWriting) {
  // total_with over any ascending subset of leaves (adjacent leaves, whole
  // subtrees and the padded tail included) must equal, bit for bit, the
  // total after set() on each of them, and leave the tree as it was.
  sim::Rng rng(23);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                              std::size_t{64}, std::size_t{100}}) {
    std::vector<double> leaves(n);
    for (auto& v : leaves) v = rng.next_double() * 1e3;
    PairwiseSum tree;
    tree.assign(leaves);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<int> picked;
      const double density = rng.next_double();
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.next_bool(density)) picked.push_back(static_cast<int>(i));
      }
      std::vector<double> fresh(n);
      for (auto& v : fresh) v = rng.next_double() * 1e3;
      const double before = tree.total();
      const double peeked =
          tree.total_with(picked, [&fresh](int i) {
            return fresh[static_cast<std::size_t>(i)];
          });
      ASSERT_EQ(tree.total(), before);
      PairwiseSum applied = tree;
      for (const int i : picked) {
        applied.set(static_cast<std::size_t>(i),
                    fresh[static_cast<std::size_t>(i)]);
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(peeked),
                std::bit_cast<std::uint64_t>(applied.total()))
          << "n=" << n << " trial=" << trial << " k=" << picked.size();
    }
  }
}

// -------------------------------------------------- IncrementalObjective ---

TEST(IncrementalObjective, MatchesFullEvaluatorOnConstruction) {
  const auto g = soc::apps::mjpeg_task_graph();
  const auto p = cpu_asip_platform(6);
  const ObjectiveWeights w;
  sim::Rng rng(3);
  const Mapping m = random_mapping(g, p, rng);
  IncrementalObjective inc(g, p, w, m);
  const MappingCost full = evaluate_mapping(g, p, m, w);
  EXPECT_EQ(inc.objective(), full.objective);
  EXPECT_EQ(inc.bottleneck_cycles(), full.bottleneck_cycles);
  EXPECT_EQ(inc.comm_word_hops(), full.comm_word_hops);
  EXPECT_EQ(inc.energy_pj_per_item(), full.energy_pj_per_item);
  EXPECT_EQ(inc.feasible(), full.feasible);
}

TEST(IncrementalObjective, BitExactOverRandomizedMoveSequences) {
  // The tentpole contract: after ANY sequence of try_move calls, undoing
  // moves included, the incremental evaluator's state is bit-identical
  // (EXPECT_EQ on doubles, no tolerance) to a from-scratch evaluation of the
  // same mapping.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    sim::Rng rng(seed);
    const int nodes = 8 + static_cast<int>(rng.next_below(12));
    const auto g = random_dag(rng, nodes, nodes / 2);
    const auto p = cpu_asip_platform(3 + static_cast<int>(rng.next_below(6)));
    const ObjectiveWeights w;
    Mapping m = random_mapping(g, p, rng);
    IncrementalObjective inc(g, p, w, m);

    for (int step = 0; step < 300; ++step) {
      const int task = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(g.node_count())));
      const int new_pe = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(p.pe_count())));
      const double before = inc.objective();
      const int old_pe = inc.mapping()[static_cast<std::size_t>(task)];
      inc.try_move(task, new_pe);
      if (rng.next_bool(0.4)) {
        inc.try_move(task, old_pe);
        ASSERT_EQ(inc.objective(), before) << "seed=" << seed << " step=" << step;
      }
      const MappingCost full = evaluate_mapping(g, p, inc.mapping(), w);
      ASSERT_EQ(inc.objective(), full.objective)
          << "seed=" << seed << " step=" << step;
      ASSERT_EQ(inc.bottleneck_cycles(), full.bottleneck_cycles)
          << "seed=" << seed << " step=" << step;
      ASSERT_EQ(inc.comm_word_hops(), full.comm_word_hops)
          << "seed=" << seed << " step=" << step;
      ASSERT_EQ(inc.energy_pj_per_item(), full.energy_pj_per_item)
          << "seed=" << seed << " step=" << step;
      ASSERT_EQ(inc.feasible(), full.feasible)
          << "seed=" << seed << " step=" << step;
    }
  }
}

/// Drives `steps` seeded random moves (any task to any PE, constraint
/// breaking ones included) through `inc`. Before each move, peek must leave
/// objective() and mapping() untouched and return, bit for bit, what the
/// following try_move returns; half the moves are then undone with
/// try_move(task, old_pe). Counts how often a move flipped feasible().
void expect_peek_matches_try_move(IncrementalObjective& inc, int tasks,
                                  int pes, std::uint64_t seed, int steps,
                                  int* feasibility_flips = nullptr) {
  sim::Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const int task = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(tasks)));
    const int new_pe =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(pes)));
    const double before = inc.objective();
    const Mapping mapping_before = inc.mapping();
    const bool was_feasible = inc.feasible();
    const double peeked = inc.peek(task, new_pe);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(inc.objective()),
              std::bit_cast<std::uint64_t>(before))
        << "seed=" << seed << " step=" << step;
    ASSERT_EQ(inc.mapping(), mapping_before)
        << "seed=" << seed << " step=" << step;
    const double applied = inc.try_move(task, new_pe);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(peeked),
              std::bit_cast<std::uint64_t>(applied))
        << "seed=" << seed << " step=" << step << " peek=" << peeked
        << " try_move=" << applied;
    if (feasibility_flips && inc.feasible() != was_feasible) {
      ++*feasibility_flips;
    }
    if (rng.next_bool(0.5)) {
      inc.try_move(task, mapping_before[static_cast<std::size_t>(task)]);
    }
  }
}

TEST(IncrementalObjective, PeekIsTryMoveWithoutTheWrite) {
  const ObjectiveWeights w;
  {
    SCOPED_TRACE("random DAG on CPU + ASIP PEs");
    sim::Rng rng(11);
    const TaskGraph g = random_dag(rng, 14, 10);
    const PlatformDesc p = cpu_asip_platform(6);
    IncrementalObjective inc(g, p, w, random_mapping(g, p, rng));
    expect_peek_matches_try_move(inc, g.node_count(), p.pe_count(), 101, 2000);
  }
  for (const bool enforce : {true, false}) {
    SCOPED_TRACE(enforce ? "tagged graph, default constraints"
                         : "tagged graph, no constraints");
    const MappingConstraints c =
        enforce ? MappingConstraints{} : MappingConstraints::none();
    const TaskGraph g = tagged_graph(1, 3, ScenarioShape::kFanInHeavy);
    const PlatformDesc p = striped_platform(6, 3, 4.0);
    sim::Rng rng(12);
    Mapping m(static_cast<std::size_t>(g.node_count()));
    for (auto& pe : m) pe = static_cast<int>(rng.next_below(6));
    IncrementalObjective inc(g, p, w, m, c);
    expect_peek_matches_try_move(inc, g.node_count(), p.pe_count(), 102, 2000);
  }
  {
    SCOPED_TRACE("capacity-limited PEs, moves crossing the limit");
    const TaskGraph g = tagged_graph(2, 1, ScenarioShape::kSeriesParallel);
    const PlatformDesc p = striped_platform(5, 0, 4.0);
    sim::Rng rng(13);
    IncrementalObjective inc(g, p, w, random_mapping(g, p, rng));
    int flips = 0;
    expect_peek_matches_try_move(inc, g.node_count(), p.pe_count(), 103, 2000,
                                 &flips);
    EXPECT_GT(flips, 0) << "no move crossed a capacity limit";
  }
  {
    SCOPED_TRACE("parallel edges; tasks with in- and out-edges");
    TaskGraph g("parallel-edges");
    for (int i = 0; i < 8; ++i) {
      TaskNode t;
      t.name = "n" + std::to_string(i);
      t.work_ops = 20.0 + 15.0 * i;
      g.add_node(std::move(t));
    }
    for (int i = 0; i + 1 < 8; ++i) {
      g.add_edge({i, i + 1, 2.0 + i});
      g.add_edge({i, i + 1, 3.0});  // parallel to the one above
    }
    g.add_edge({0, 4, 5.0});
    g.add_edge({2, 6, 7.0});
    g.add_edge({2, 6, 1.0});
    g.add_edge({3, 7, 9.0});
    const PlatformDesc p = cpu_asip_platform(5);
    sim::Rng rng(14);
    IncrementalObjective inc(g, p, w, random_mapping(g, p, rng));
    expect_peek_matches_try_move(inc, g.node_count(), p.pe_count(), 104, 2000);
  }
  {
    const auto g = soc::apps::ipv4_task_graph();
    const auto p = cpu_asip_platform(4);
    const IncrementalObjective inc(
        g, p, w, Mapping(static_cast<std::size_t>(g.node_count()), 0));
    EXPECT_THROW(inc.peek(-1, 0), std::out_of_range);
    EXPECT_THROW(inc.peek(g.node_count(), 0), std::out_of_range);
    EXPECT_THROW(inc.peek(0, -1), std::out_of_range);
    EXPECT_THROW(inc.peek(0, 99), std::out_of_range);
  }
}

TEST(IncrementalObjective, ValidatesInputs) {
  const auto g = soc::apps::ipv4_task_graph();
  const auto p = cpu_asip_platform(4);
  EXPECT_THROW(IncrementalObjective(g, p, {}, Mapping{0}),
               std::invalid_argument);
  Mapping bad(static_cast<std::size_t>(g.node_count()), 0);
  bad[0] = 99;
  EXPECT_THROW(IncrementalObjective(g, p, {}, bad), std::out_of_range);

  Mapping ok(static_cast<std::size_t>(g.node_count()), 0);
  IncrementalObjective inc(g, p, {}, ok);
  EXPECT_THROW(inc.try_move(-1, 0), std::out_of_range);
  EXPECT_THROW(inc.try_move(0, 99), std::out_of_range);
}

// ----------------------------------------------------------------- registry ---

TEST(MapperRegistry, BuiltinsRegistered) {
  const std::vector<std::string> builtins = {"anneal", "exact", "greedy",
                                             "nsga2", "random"};
  const auto names = registered_mappers();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  // Exactly the built-ins, besides the strategy the next test registers.
  std::vector<std::string> registered = names;
  std::erase(registered, "pin-to-zero");
  EXPECT_EQ(registered, builtins);
  for (const auto& n : names) {
    EXPECT_EQ(make_mapper(n)->name(), n);
  }
  EXPECT_EQ(std::count(names.begin(), names.end(), "no-such-strategy"), 0);
  try {
    make_mapper("no-such-strategy");
    ADD_FAILURE() << "an unknown strategy was built";
  } catch (const std::invalid_argument& e) {
    for (const std::string& n : builtins) {
      EXPECT_NE(std::string(e.what()).find(n), std::string::npos)
          << n << " not listed in: " << e.what();
    }
  }
}

TEST(MapperRegistry, CustomStrategyRegisters) {
  class PinToZero final : public Mapper {
   public:
    std::string_view name() const noexcept override { return "pin-to-zero"; }
    Mapping map(const TaskGraph& graph, const PlatformDesc&,
                const ObjectiveWeights&, sim::Rng&,
                const MappingConstraints&) const override {
      return Mapping(static_cast<std::size_t>(graph.node_count()), 0);
    }
  };
  register_mapper("pin-to-zero", [](const AnnealConfig&) {
    return std::unique_ptr<Mapper>(new PinToZero());
  });
  const auto names = registered_mappers();
  ASSERT_EQ(std::count(names.begin(), names.end(), "pin-to-zero"), 1);
  const auto g = soc::apps::ipv4_task_graph();
  const auto p = cpu_asip_platform(4);
  sim::Rng rng(1);
  const auto m = make_mapper("pin-to-zero")->map(g, p, {}, rng);
  EXPECT_EQ(m, Mapping(static_cast<std::size_t>(g.node_count()), 0));
}

TEST(MapperRegistry, EveryStrategyFeasibleAndDeterministic) {
  // On a platform where every task has at least one legal PE, every
  // registered strategy must return an in-range, feasible mapping, and two
  // runs from identically-seeded RNGs must agree exactly. The exhaustive
  // `exact` mapper is skipped on graphs past its node budget.
  const auto p = cpu_asip_platform(6);
  for (const auto& graph : {soc::apps::ipv4_task_graph(),
                            soc::apps::mjpeg_task_graph()}) {
    for (const std::string& name : registered_mappers()) {
      SCOPED_TRACE(std::string(graph.name()) + " / " + name);
      AnnealConfig quick;
      quick.iterations = 1500;
      const auto mapper = make_mapper(name, quick);
      sim::Rng rng_a(99), rng_b(99);
      Mapping a;
      try {
        a = mapper->map(graph, p, {}, rng_a);
      } catch (const ExactBudgetExceeded&) {
        continue;
      }
      const Mapping b = mapper->map(graph, p, {}, rng_b);
      EXPECT_EQ(a, b);
      ASSERT_EQ(static_cast<int>(a.size()), graph.node_count());
      for (const int pe : a) {
        EXPECT_GE(pe, 0);
        EXPECT_LT(pe, p.pe_count());
      }
      EXPECT_TRUE(evaluate_mapping(graph, p, a).feasible);
    }
  }
}

// ------------------------------------------------------------------ annealer ---

TEST(Anneal, NeverWorseThanGreedyStart) {
  const auto g = soc::apps::wlan_task_graph();
  const auto p = cpu_asip_platform(8);
  const ObjectiveWeights w;
  const double greedy = evaluate_mapping(g, p, greedy_mapping(g, p, w), w).objective;
  AnnealConfig ac;
  ac.iterations = 2000;
  const double anneal = evaluate_mapping(g, p, anneal_mapping(g, p, w, ac), w).objective;
  EXPECT_LE(anneal, greedy + 1e-12);
}

TEST(Anneal, ExternalRngOverloadMatchesSeededForm) {
  const auto g = soc::apps::ipv4_task_graph();
  const auto p = cpu_asip_platform(6);
  AnnealConfig ac;
  ac.iterations = 1000;
  ac.seed = 7;
  sim::Rng rng(7);
  EXPECT_EQ(anneal_mapping(g, p, {}, ac), anneal_mapping(g, p, {}, ac, rng));
}

TEST(AnnealMapping, NewAppShapedMappingsMatchPinnedDigest) {
  // dsebench new_app's mapping shape: generated 4-scenario matrices on the
  // 18-candidate ladder at 90 nm, each graph replicated per candidate as
  // the sweep does, annealed for 1,000 iterations; then the kind-striped,
  // capacity-limited fixtures under the default constraints, where the
  // annealer rejects moves before scoring them. Any change to a single
  // proposal, score or acceptance draw moves some returned mapping and so
  // this digest.
  DseSpace ladder;
  ladder.pe_counts = {4, 8, 16};
  ladder.thread_counts = {2, 4};
  ladder.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D,
                       noc::TopologyKind::kCrossbar};
  ladder.fabrics = {Fabric::kAsip};
  std::vector<DseCandidate> candidates = enumerate_candidates(ladder);
  ASSERT_EQ(candidates.size(), 18u);
  std::vector<PlatformDesc> platforms;
  for (const DseCandidate& c : candidates) {
    platforms.push_back(make_candidate_platform(c));
  }
  AnnealConfig ac;
  ac.iterations = 1000;
  PinnedDigest d;
  const auto digest = [&d](const Mapping& m) {
    d.add(static_cast<std::uint64_t>(m.size()));
    for (const int pe : m) d.add(static_cast<std::uint64_t>(pe));
  };
  std::uint64_t stream = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    for (const TaskGraph& g : ScenarioGenerator(seed).matrix(4, 1)) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const int replicas =
            std::max(1, candidates[c].num_pes / g.node_count());
        const TaskGraph work = g.replicated(replicas);
        sim::Rng rng(sim::derive_seed(seed, stream++));
        digest(anneal_mapping(work, platforms[c], {}, ac, rng));
      }
    }
  }
  const PlatformDesc striped = striped_platform(6, 3, 5.0);
  for (int trial = 0; trial < 6; ++trial) {
    const TaskGraph g = tagged_graph(trial, 3, ScenarioShape(trial % 3));
    sim::Rng rng(
        sim::derive_seed(0xcafeULL, static_cast<std::uint64_t>(trial)));
    digest(anneal_mapping(g, striped, {}, ac, rng, MappingConstraints{}));
  }
  EXPECT_EQ(d, (PinnedDigest{1439, 0x4263b1400fff153cull,
                             0x25984f52e10bc1f8ull}));
}

// ------------------------------------------------------------ DSE threading ---

TEST(DseMappers, BitIdenticalAcrossThreadsForEveryRegisteredMapper) {
  DseSpace space;
  space.pe_counts = {4, 8};
  space.thread_counts = {2};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D};
  space.fabrics = {Fabric::kAsip};
  AnnealConfig quick;
  quick.iterations = 300;
  const auto graph = soc::apps::ipv4_task_graph();
  const auto& node = tech::node_90nm();

  for (const auto& name : registered_mappers()) {
    SCOPED_TRACE(name);
    DseConfig serial_cfg;
    serial_cfg.num_threads = 1;
    serial_cfg.mapper = name;
    const auto serial = run_session(graph, space, node, {}, quick, serial_cfg);
    ASSERT_EQ(serial.size(), 4u);
    for (const auto& pt : serial) EXPECT_EQ(pt.mapper, name);

    DseConfig parallel_cfg;
    parallel_cfg.num_threads = 3;
    parallel_cfg.mapper = name;
    const auto parallel = run_session(graph, space, node, {}, quick, parallel_cfg);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].mapping_cost.objective,
                serial[i].mapping_cost.objective);
      EXPECT_EQ(parallel[i].mapping_cost.bottleneck_cycles,
                serial[i].mapping_cost.bottleneck_cycles);
      EXPECT_EQ(parallel[i].mapping_cost.energy_pj_per_item,
                serial[i].mapping_cost.energy_pj_per_item);
      EXPECT_EQ(parallel[i].pareto_optimal, serial[i].pareto_optimal);
    }
  }
}

TEST(DseMappers, UnknownMapperThrows) {
  DseSpace space;
  space.pe_counts = {4};
  space.thread_counts = {2};
  space.topologies = {noc::TopologyKind::kBus};
  space.fabrics = {Fabric::kAsip};
  DseConfig cfg;
  cfg.mapper = "no-such-strategy";
  EXPECT_THROW(run_session(soc::apps::ipv4_task_graph(), space, tech::node_90nm(),
                       {}, {}, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace soc::core
