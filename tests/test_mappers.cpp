// Mapper strategy registry, the HEFT list scheduler, and the bit-exactness
// contract between IncrementalObjective and the full evaluate_mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dse_session_util.hpp"
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
  // The tentpole contract: after ANY sequence of try_move/revert calls the
  // incremental evaluator's state is bit-identical (EXPECT_EQ on doubles, no
  // tolerance) to a from-scratch evaluation of the same mapping.
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
      inc.try_move(task, new_pe);
      if (rng.next_bool(0.4)) {
        inc.revert();
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
  EXPECT_THROW(inc.revert(), std::logic_error);  // nothing applied yet
}

// ----------------------------------------------------------------- registry ---

TEST(MapperRegistry, BuiltinsRegistered) {
  const auto names = registered_mappers();
  for (const char* expected : {"anneal", "greedy", "heft", "random"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const auto& n : names) {
    EXPECT_TRUE(is_registered_mapper(n));
    EXPECT_EQ(make_mapper(n)->name(), n);
  }
  EXPECT_FALSE(is_registered_mapper("no-such-strategy"));
  EXPECT_THROW(make_mapper("no-such-strategy"), std::invalid_argument);
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
  ASSERT_TRUE(is_registered_mapper("pin-to-zero"));
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

// --------------------------------------------------------------------- HEFT ---

TEST(Heft, BalancesIndependentTasks) {
  // 8 equal independent tasks on 4 identical PEs: EFT placement must spread
  // them 2 per PE (any lumping would raise some task's finish time).
  TaskGraph g("parallel");
  for (int i = 0; i < 8; ++i) {
    TaskNode t;
    t.name = "t" + std::to_string(i);
    t.work_ops = 100;
    g.add_node(std::move(t));
  }
  PlatformDesc p(std::vector<PeDesc>(4, PeDesc{Fabric::kGeneralPurposeCpu, 4, {}, 0.0}),
                 noc::TopologyKind::kMesh2D, tech::node_90nm());
  const auto m = heft_mapping(g, p);
  EXPECT_DOUBLE_EQ(evaluate_mapping(g, p, m).bottleneck_cycles, 200.0);
}

TEST(Heft, RespectsFabricConstraintsWhenPossible) {
  const auto g = soc::apps::wlan_task_graph();  // needs DSP/ASIP/eFPGA mix
  std::vector<PeDesc> pes{{Fabric::kDsp, 4, {}, 0.0},   {Fabric::kAsip, 4, {}, 0.0},
                          {Fabric::kEfpga, 1, {}, 0.0}, {Fabric::kGeneralPurposeCpu, 4, {}, 0.0},
                          {Fabric::kAsip, 4, {}, 0.0},  {Fabric::kDsp, 4, {}, 0.0}};
  PlatformDesc p(pes, noc::TopologyKind::kFatTree, tech::node_90nm());
  const auto m = heft_mapping(g, p);
  EXPECT_TRUE(evaluate_mapping(g, p, m).feasible);
}

TEST(Heft, PrefersShorterMakespanThanWorstRandom) {
  const auto g = soc::apps::mjpeg_task_graph();
  const auto p = cpu_asip_platform(6);
  const auto heft = evaluate_mapping(g, p, heft_mapping(g, p));
  sim::Rng rng(5);
  double worst_random = 0.0;
  for (int i = 0; i < 5; ++i) {
    worst_random = std::max(
        worst_random,
        evaluate_mapping(g, p, random_mapping(g, p, rng)).pipeline_latency);
  }
  EXPECT_LE(heft.pipeline_latency, worst_random);
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
