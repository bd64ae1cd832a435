// The session-oriented DSE API: staged execution, the pluggable
// ObjectiveSpace dominance registry (energy axis included), the streaming
// point observer, and single-build topology reuse across both stages
// (counter-backed).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "soc/apps/graphs.hpp"
#include "soc/core/dse.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/mapping_validator.hpp"
#include "soc/core/objective_space.hpp"
#include "soc/core/scenario.hpp"
#include "soc/noc/topology.hpp"
#include "soc/platform/cost.hpp"

namespace soc::core {
namespace {

using tech::Fabric;

/// Small validated sweep shared by several tests: 2 pe_counts x 2
/// topologies on the mjpeg graph.
DseSpace small_space() {
  DseSpace space;
  space.pe_counts = {4, 8};
  space.thread_counts = {2};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D};
  space.fabrics = {Fabric::kAsip};
  return space;
}

AnnealConfig quick_anneal(int iterations = 400) {
  AnnealConfig ac;
  ac.iterations = iterations;
  return ac;
}

DseProblem mjpeg_problem() {
  return DseProblem{apps::mjpeg_task_graph(), ObjectiveSpace::default_space(),
                    ObjectiveWeights{}, tech::node_90nm()};
}

/// Field-by-field bit equality of two DsePoints (doubles compared with ==,
/// no tolerance — the contract is bit-exactness).
void expect_points_identical(const DsePoint& a, const DsePoint& b) {
  EXPECT_EQ(a.candidate.num_pes, b.candidate.num_pes);
  EXPECT_EQ(a.candidate.threads_per_pe, b.candidate.threads_per_pe);
  EXPECT_EQ(a.candidate.topology, b.candidate.topology);
  EXPECT_EQ(a.candidate.pe_fabric, b.candidate.pe_fabric);
  EXPECT_EQ(a.candidate.node.name, b.candidate.node.name);
  EXPECT_EQ(a.mapping_cost.bottleneck_cycles, b.mapping_cost.bottleneck_cycles);
  EXPECT_EQ(a.mapping_cost.comm_word_hops, b.mapping_cost.comm_word_hops);
  EXPECT_EQ(a.mapping_cost.energy_pj_per_item,
            b.mapping_cost.energy_pj_per_item);
  EXPECT_EQ(a.mapping_cost.pipeline_latency, b.mapping_cost.pipeline_latency);
  EXPECT_EQ(a.mapping_cost.feasible, b.mapping_cost.feasible);
  EXPECT_EQ(a.mapping_cost.objective, b.mapping_cost.objective);
  EXPECT_EQ(a.silicon.total_area_mm2, b.silicon.total_area_mm2);
  EXPECT_EQ(a.silicon.peak_dynamic_mw, b.silicon.peak_dynamic_mw);
  EXPECT_EQ(a.silicon.leakage_mw, b.silicon.leakage_mw);
  EXPECT_EQ(a.silicon.die_mm2, b.silicon.die_mm2);
  EXPECT_EQ(a.silicon.noc_wire_mm, b.silicon.noc_wire_mm);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.mapper, b.mapper);
  EXPECT_EQ(a.throughput_per_kcycle, b.throughput_per_kcycle);
  EXPECT_EQ(a.mw_per_throughput, b.mw_per_throughput);
  EXPECT_EQ(a.pareto_optimal, b.pareto_optimal);
  EXPECT_EQ(a.validated, b.validated);
  EXPECT_EQ(a.sim_throughput_per_kcycle, b.sim_throughput_per_kcycle);
  EXPECT_EQ(a.sim_to_analytic_ratio, b.sim_to_analytic_ratio);
  EXPECT_EQ(a.sim_peak_link_utilization, b.sim_peak_link_utilization);
  EXPECT_EQ(a.sim_avg_packet_latency, b.sim_avg_packet_latency);
  EXPECT_EQ(a.sim_network_saturated, b.sim_network_saturated);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.scenario_name, b.scenario_name);
}

// -------------------------------------------------------- staged execution ---

TEST(DseSession, StagesRunOnceAndAutoRunPrerequisites) {
  DseSession s(mjpeg_problem(), small_space(), quick_anneal());
  EXPECT_FALSE(s.enumerated());
  EXPECT_FALSE(s.evaluated());
  EXPECT_FALSE(s.front_marked());
  EXPECT_FALSE(s.validated());

  // front() pulls enumerate() and evaluate() in automatically.
  const auto& front = s.front();
  EXPECT_TRUE(s.enumerated());
  EXPECT_TRUE(s.evaluated());
  EXPECT_TRUE(s.front_marked());
  EXPECT_FALSE(s.validated());
  ASSERT_EQ(s.points().size(), 4u);
  EXPECT_GE(front.size(), 1u);
  // Front indices ascend and agree with the flags.
  EXPECT_TRUE(std::is_sorted(front.begin(), front.end()));
  for (std::size_t i = 0; i < s.points().size(); ++i) {
    const bool in_front =
        std::find(front.begin(), front.end(), i) != front.end();
    EXPECT_EQ(s.points()[i].pareto_optimal, in_front);
  }

  // Stages are cached: the same vectors come back.
  const auto* pts = s.points().data();
  s.evaluate();
  s.front();
  EXPECT_EQ(s.points().data(), pts);
}

TEST(DseSession, ExplicitValidateWorksWithoutValidateParetoFlag) {
  // The flag only steers run(); calling validate() directly is the staged
  // caller's explicit intent.
  DseSession s(mjpeg_problem(), small_space(), quick_anneal());
  EXPECT_FALSE(s.config().validate_pareto);
  s.validate();
  EXPECT_TRUE(s.validated());
  int validated = 0;
  for (const auto& pt : s.points()) {
    if (pt.pareto_optimal) {
      EXPECT_TRUE(pt.validated);
      ++validated;
    } else {
      EXPECT_FALSE(pt.validated);
    }
  }
  EXPECT_GE(validated, 1);
}

TEST(DseSession, RunReturnsCopyAndKeepsSessionInspectable) {
  DseConfig dc;
  dc.validate_pareto = true;
  DseSession s(mjpeg_problem(), small_space(), quick_anneal(), dc);
  const auto points = s.run();
  EXPECT_TRUE(s.validated());
  ASSERT_EQ(points.size(), s.points().size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_points_identical(points[i], s.points()[i]);
  }
  // Contexts stay inspectable after the run.
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(s.context(i).candidate().num_pes, points[i].candidate.num_pes);
    EXPECT_EQ(s.context(i).platform().pe_count(), points[i].candidate.num_pes);
  }
}

// ------------------------------------------------------- streaming observer ---

TEST(DseSession, ObserverStreamsEveryPointPerStage) {
  DseConfig dc;
  dc.validate_pareto = true;
  dc.num_threads = 1;  // serial: completion order == sweep order
  DseSession s(mjpeg_problem(), small_space(), quick_anneal(), dc);
  std::vector<int> evaluated_pes;
  int validated_count = 0;
  s.on_point([&](const DsePoint& pt, DseSession::Stage stage) {
    if (stage == DseSession::Stage::kEvaluated) {
      evaluated_pes.push_back(pt.candidate.num_pes);
      EXPECT_FALSE(pt.validated);
    } else {
      EXPECT_TRUE(pt.validated);
      EXPECT_TRUE(pt.pareto_optimal);
      ++validated_count;
    }
  });
  s.run();
  // One kEvaluated call per candidate, in sweep order when serial.
  ASSERT_EQ(evaluated_pes.size(), 4u);
  EXPECT_EQ(evaluated_pes, (std::vector<int>{4, 4, 8, 8}));
  EXPECT_EQ(validated_count,
            static_cast<int>(s.front_indices().size()));
}

TEST(DseSession, ObserverSeesEveryPointAtAnyThreadCount) {
  DseConfig dc;
  dc.num_threads = 4;
  DseSession s(mjpeg_problem(), small_space(), quick_anneal(), dc);
  std::vector<int> seen;
  s.on_point([&](const DsePoint& pt, DseSession::Stage) {
    seen.push_back(pt.candidate.num_pes);  // serialized by the session
  });
  s.evaluate();
  EXPECT_EQ(seen.size(), 4u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{4, 4, 8, 8}));
}

// ------------------------------------------------------ objective registry ---

TEST(ObjectiveSpace, BuiltInAxesAreRegistered) {
  for (const char* name : {"tput", "area", "power", "energy"}) {
    EXPECT_TRUE(is_registered_objective(name)) << name;
  }
  const auto names = registered_objectives();
  EXPECT_GE(names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ObjectiveSpace, UnknownAxisThrowsListingRegistry) {
  try {
    make_objective("no-such-axis");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-axis"), std::string::npos);
    EXPECT_NE(msg.find("tput"), std::string::npos);
    EXPECT_NE(msg.find("energy"), std::string::npos);
  }
}

TEST(ObjectiveSpace, FromNamesParsesOrderAndRejectsJunk) {
  const auto space = ObjectiveSpace::from_names("tput,area,power,energy");
  ASSERT_EQ(space.size(), 4u);
  EXPECT_EQ(space.axis(0).name, "tput");
  EXPECT_EQ(space.axis(0).direction, ObjectiveDirection::kMaximize);
  EXPECT_EQ(space.axis(3).name, "energy");
  EXPECT_EQ(space.axis(3).direction, ObjectiveDirection::kMinimize);
  EXPECT_EQ(space.names(), "tput,area,power,energy");

  EXPECT_THROW(ObjectiveSpace::from_names(""), std::invalid_argument);
  EXPECT_THROW(ObjectiveSpace::from_names("tput,"), std::invalid_argument);
  EXPECT_THROW(ObjectiveSpace::from_names("tput,tput"), std::invalid_argument);
  EXPECT_THROW(ObjectiveSpace::from_names("tput,bogus"),
               std::invalid_argument);
}

TEST(ObjectiveSpace, DefaultSpaceIsTheHistoricalTriple) {
  EXPECT_EQ(ObjectiveSpace::default_space().names(), "tput,area,power");
}

TEST(ObjectiveSpace, CustomAxisRegistersAndRanks) {
  register_objective("test-latency", ObjectiveDirection::kMinimize,
                     [](const DsePoint& p) {
                       return p.mapping_cost.pipeline_latency;
                     });
  EXPECT_TRUE(is_registered_objective("test-latency"));
  auto space = ObjectiveSpace::default_space();
  space.add("test-latency");
  EXPECT_EQ(space.size(), 4u);
  EXPECT_EQ(space.names(), "tput,area,power,test-latency");
}

TEST(ObjectiveSpace, DominatesRespectsDirections) {
  DsePoint a, b;
  a.throughput_per_kcycle = 10;
  a.silicon.total_area_mm2 = 5;
  a.silicon.peak_dynamic_mw = 100;
  b.throughput_per_kcycle = 5;
  b.silicon.total_area_mm2 = 6;
  b.silicon.peak_dynamic_mw = 120;
  const auto space = ObjectiveSpace::default_space();
  EXPECT_TRUE(space.dominates(a, b));
  EXPECT_FALSE(space.dominates(b, a));
  EXPECT_FALSE(space.dominates(a, a));  // equal on every axis: not strict
  EXPECT_THROW(ObjectiveSpace().dominates(a, b), std::logic_error);
}

// ------------------------------------------------------------- energy axis ---

TEST(ObjectiveSpace, EnergyAxisCanGrowTheFront) {
  // Point 1 is dominated on the classic triple but leads on energy: the
  // 4-axis space must keep it while the 3-axis space drops it.
  std::vector<DsePoint> pts(2);
  pts[0].throughput_per_kcycle = 10;
  pts[0].silicon.total_area_mm2 = 5;
  pts[0].silicon.peak_dynamic_mw = 100;
  pts[0].mapping_cost.energy_pj_per_item = 900;
  pts[1].throughput_per_kcycle = 5;
  pts[1].silicon.total_area_mm2 = 6;
  pts[1].silicon.peak_dynamic_mw = 120;
  pts[1].mapping_cost.energy_pj_per_item = 300;

  const auto front3 = ObjectiveSpace::default_space().mark_front(pts);
  EXPECT_EQ(front3, (std::vector<std::size_t>{0}));
  const auto front4 =
      ObjectiveSpace::from_names("tput,area,power,energy").mark_front(pts);
  EXPECT_EQ(front4, (std::vector<std::size_t>{0, 1}));
}

TEST(DseSession, FourAxisFrontIsASupersetOfTheTriple) {
  // Dominance over more axes is strictly harder, so every 3-axis survivor
  // survives the 4-axis space too.
  DseProblem p3 = mjpeg_problem();
  DseSession s3(std::move(p3), small_space(), quick_anneal());
  const auto front3 = s3.front();

  DseProblem p4 = mjpeg_problem();
  p4.objectives = ObjectiveSpace::from_names("tput,area,power,energy");
  DseSession s4(std::move(p4), small_space(), quick_anneal());
  const auto front4 = s4.front();

  EXPECT_GE(front4.size(), front3.size());
  EXPECT_TRUE(std::includes(front4.begin(), front4.end(), front3.begin(),
                            front3.end()));
  // The analytic figures themselves are objective-set-independent.
  ASSERT_EQ(s3.points().size(), s4.points().size());
  for (std::size_t i = 0; i < s3.points().size(); ++i) {
    EXPECT_EQ(s3.points()[i].mapping_cost.objective,
              s4.points()[i].mapping_cost.objective);
  }
}

// --------------------------------------------------------- input validation ---

TEST(DseSession, RejectsBadInputsNamingTheField) {
  const auto expect_throw_mentioning = [](auto make_session,
                                          const std::string& field) {
    try {
      make_session();
      FAIL() << "expected invalid_argument mentioning " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };

  expect_throw_mentioning(
      [] {
        DseConfig bad;
        bad.die_mm2 = -1.0;
        return DseSession(mjpeg_problem(), small_space(), {}, bad);
      },
      "die_mm2");
  expect_throw_mentioning(
      [] {
        DseConfig bad;
        bad.num_threads = -2;
        return DseSession(mjpeg_problem(), small_space(), {}, bad);
      },
      "num_threads");
  expect_throw_mentioning(
      [] {
        DseConfig bad;
        bad.validate_pareto = true;
        bad.validation.warmup_cycles = 0;
        return DseSession(mjpeg_problem(), small_space(), {}, bad);
      },
      "validation.warmup_cycles");
  expect_throw_mentioning(
      [] {
        DseConfig bad;
        bad.validate_pareto = true;
        bad.validation.measure_cycles = 0;
        return DseSession(mjpeg_problem(), small_space(), {}, bad);
      },
      "validation.measure_cycles");
  expect_throw_mentioning(
      [] {
        DseConfig bad;
        bad.validate_pareto = true;
        bad.validation.load_factor = 1.5;
        return DseSession(mjpeg_problem(), small_space(), {}, bad);
      },
      "validation.load_factor");
  expect_throw_mentioning(
      [] {
        DseConfig bad;
        bad.validate_pareto = true;
        bad.validation.max_outstanding_rounds = 0;
        return DseSession(mjpeg_problem(), small_space(), {}, bad);
      },
      "validation.max_outstanding_rounds");
  expect_throw_mentioning(
      [] {
        DseProblem p = mjpeg_problem();
        p.objectives = ObjectiveSpace();
        return DseSession(std::move(p), small_space());
      },
      "objectives");
  expect_throw_mentioning(
      [] {
        return DseSession(
            DseProblem{TaskGraph("empty"), ObjectiveSpace::default_space()},
            small_space());
      },
      "task graph");
}

TEST(DseSession, ValidatorKnobsRejectedOnlyWhenArmed) {
  // Without validate_pareto the stage-2 knobs are inert, so construction
  // and the analytic stages succeed — but an explicit validate() arms the
  // replay and re-polices them, field-named.
  DseConfig dc;
  dc.validate_pareto = false;
  dc.validation.warmup_cycles = 0;
  DseSession s(mjpeg_problem(), small_space(), quick_anneal(), dc);
  EXPECT_NO_THROW(s.front());
  try {
    s.validate();
    FAIL() << "expected invalid_argument for warmup_cycles";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("validation.warmup_cycles"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(s.validated());
}

TEST(ObjectiveSpace, MarkFrontIgnoresInertReplayKnobs) {
  // The dominance pass never simulates: it polices num_threads/die_mm2 but
  // not the stage-2 replay fields.
  std::vector<DsePoint> pts(1);
  pts[0].mapping_cost.feasible = true;
  DseConfig dc;
  dc.validate_pareto = true;
  dc.validation.warmup_cycles = 0;
  EXPECT_NO_THROW(ObjectiveSpace::default_space().mark_front(pts, dc));
  dc.num_threads = -1;
  EXPECT_THROW(ObjectiveSpace::default_space().mark_front(pts, dc),
               std::invalid_argument);
}

// ----------------------------------------------- single-build reuse contract ---

TEST(DseSession, ValidatedSweepBuildsEachCandidateTopologyExactlyOnce) {
  // The EvalContext contract, metered: a full validated sweep performs
  // exactly two topology builds and two floorplans per candidate — the cost
  // interconnect and the PE interconnect — with stage 2 adding zero. The
  // monolith rebuilt (and re-floorplanned) up to five per validated point.
  DseConfig dc;
  dc.validate_pareto = true;
  EvalCache::global().clear();  // cold sweep: the build count is the point
  DseSession s(mjpeg_problem(), small_space(), quick_anneal(), dc);
  const noc::TopologyBuildStatsScope scope;  // no global reset: delta-metered
  s.run();
  const auto stats = scope.delta();
  const auto n = s.points().size();
  EXPECT_GE(s.front_indices().size(), 1u);
  EXPECT_EQ(stats.builds, 2 * n);
  EXPECT_EQ(stats.floorplans, 2 * n);
}

TEST(DseSession, ValidateConsumesOnlyFrontTopologies) {
  DseConfig dc;
  dc.validate_pareto = true;
  EvalCache::global().clear();  // cache-hit contexts own no topology
  DseSession s(mjpeg_problem(), small_space(), quick_anneal(), dc);
  s.evaluate();
  for (std::size_t i = 0; i < s.points().size(); ++i) {
    EXPECT_TRUE(s.context(i).has_topology());
  }
  s.validate();
  for (std::size_t i = 0; i < s.points().size(); ++i) {
    EXPECT_EQ(s.context(i).has_topology(), !s.points()[i].pareto_optimal);
  }
}

TEST(EvalContext, SharesOneAnnotatedTopologyWithTheReplay) {
  DseConfig dc;
  dc.die_mm2 = 225.0;
  const DseCandidate cand{8, 2, noc::TopologyKind::kCrossbar, Fabric::kAsip,
                          *tech::find_node("65nm")};
  const auto graph = apps::mjpeg_task_graph();
  EvalContext ctx(graph, cand, dc);
  EXPECT_EQ(ctx.platform().pe_count(), 8);
  EXPECT_EQ(ctx.replicas(), 1);
  EXPECT_TRUE(ctx.has_topology());
  ASSERT_TRUE(ctx.platform().physical().has_value());

  // The platform matrices were derived from the instance the context still
  // holds: per-pair wire stages recomputed from that instance agree.
  auto topo = ctx.take_topology();
  EXPECT_FALSE(ctx.has_topology());
  ASSERT_NE(topo, nullptr);
  EXPECT_EQ(topo->terminal_count(), 8);
  int matrix_extra = 0;
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      matrix_extra += ctx.platform().path_extra_cycles(a, b);
    }
  }
  int topo_extra = 0;
  for (const auto& l : topo->links()) {
    topo_extra += static_cast<int>(l.extra_latency);
  }
  EXPECT_GT(matrix_extra, 0);  // 65 nm crossbar on a big die: real wires
  EXPECT_GT(topo_extra, 0);
  EXPECT_THROW(EvalContext(TaskGraph("empty"), cand, dc),
               std::invalid_argument);
}

TEST(PlatformDesc, PrebuiltTopologyConstructorMatchesSelfBuilt) {
  const auto node = *tech::find_node("65nm");
  std::optional<noc::PhysicalSpec> phys(
      noc::PhysicalSpec{noc::LinkTimingModel(node), 225.0});
  std::vector<PeDesc> pes(8, PeDesc{Fabric::kAsip, 2, {}, 0.0});
  const PlatformDesc self_built(pes, noc::TopologyKind::kMesh2D, node, phys);
  const auto prebuilt_topo =
      noc::make_topology(noc::TopologyKind::kMesh2D, 8, &*phys);
  const PlatformDesc from_prebuilt(pes, noc::TopologyKind::kMesh2D, node, phys,
                                   *prebuilt_topo);
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      EXPECT_EQ(self_built.hops(a, b), from_prebuilt.hops(a, b));
      EXPECT_EQ(self_built.path_extra_cycles(a, b),
                from_prebuilt.path_extra_cycles(a, b));
      EXPECT_EQ(self_built.wire_pj_per_word(a, b),
                from_prebuilt.wire_pj_per_word(a, b));
    }
  }
  EXPECT_EQ(self_built.avg_hops(), from_prebuilt.avg_hops());
  EXPECT_EQ(self_built.avg_path_latency_cycles(),
            from_prebuilt.avg_path_latency_cycles());

  // Terminal-count mismatch is rejected.
  const auto wrong = noc::make_topology(noc::TopologyKind::kMesh2D, 4);
  EXPECT_THROW(
      PlatformDesc(pes, noc::TopologyKind::kMesh2D, node, phys, *wrong),
      std::invalid_argument);
}

TEST(MappingValidator, PrebuiltTopologyMatchesRebuiltReplay) {
  TaskGraph g("chain4");
  for (int i = 0; i < 4; ++i) {
    TaskNode t;
    t.name = "s" + std::to_string(i);
    t.work_ops = 300;
    g.add_node(std::move(t));
  }
  for (int i = 0; i + 1 < 4; ++i) g.add_edge({i, i + 1, 12.0});
  const auto node = *tech::find_node("65nm");
  std::optional<noc::PhysicalSpec> phys(
      noc::PhysicalSpec{noc::LinkTimingModel(node), 225.0});
  PlatformDesc p(std::vector<PeDesc>(4, PeDesc{Fabric::kGeneralPurposeCpu, 4, {}, 0.0}),
                 noc::TopologyKind::kCrossbar, node, phys);
  const Mapping m{0, 1, 2, 3};

  MappingValidator rebuilt(g, p, m);
  MappingValidator shared(g, p, m, {}, p.build_topology());
  const auto ra = rebuilt.run();
  const auto rb = shared.run();
  EXPECT_EQ(ra.simulated_items_per_kcycle, rb.simulated_items_per_kcycle);
  EXPECT_EQ(ra.avg_packet_latency, rb.avg_packet_latency);
  EXPECT_EQ(ra.peak_link_utilization, rb.peak_link_utilization);

  // After the first run consumed the prebuilt instance, later runs rebuild
  // deterministically.
  const auto rb2 = shared.run();
  EXPECT_EQ(rb.avg_packet_latency, rb2.avg_packet_latency);

  // Terminal-count mismatch is rejected.
  EXPECT_THROW(MappingValidator(g, p, m, {},
                                noc::make_topology(noc::TopologyKind::kBus, 7)),
               std::invalid_argument);
}

TEST(PlatformCost, PrebuiltTopologyOverloadMatchesAndValidates) {
  platform::FppaConfig fc;
  fc.num_pes = 8;
  fc.threads_per_pe = 2;
  fc.topology = noc::TopologyKind::kMesh2D;
  const auto& node = tech::node_90nm();
  const auto baseline = platform::estimate_cost(fc, node);
  auto topo = noc::make_topology(fc.topology, fc.terminal_count());
  const auto shared = platform::estimate_cost(fc, node, {}, *topo);
  EXPECT_EQ(baseline.total_area_mm2, shared.total_area_mm2);
  EXPECT_EQ(baseline.peak_dynamic_mw, shared.peak_dynamic_mw);
  EXPECT_EQ(baseline.die_mm2, shared.die_mm2);
  EXPECT_EQ(baseline.noc_wire_mm, shared.noc_wire_mm);
  // The passed instance was annotated in place.
  double wire_mm = 0.0;
  for (const auto& l : topo->links()) wire_mm += l.length_mm;
  EXPECT_GT(wire_mm, 0.0);

  auto wrong = noc::make_topology(fc.topology, 4);
  EXPECT_THROW(platform::estimate_cost(fc, node, {}, *wrong),
               std::invalid_argument);
}

// ----------------------------------------------------- scenario-set sweeps ---

/// Three small tagged scenario graphs (kinds in [0,2), demand in [0.5,2]).
ScenarioSet three_scenarios() {
  const ScenarioGenerator gen(41);
  ScenarioSpec spec;
  spec.depth = 3;
  spec.width = 3;
  spec.kinds = 2;
  spec.demand_min = 0.5;
  spec.demand_max = 2.0;
  ScenarioSet set;
  for (int i = 0; i < 3; ++i) {
    spec.shape = static_cast<ScenarioShape>(i % 3);
    set.push_back(gen.generate(spec, i));
  }
  return set;
}

TEST(DseSession, ScenarioSweepLaysOutPointsScenarioMajor) {
  const ScenarioSet set = three_scenarios();
  DseSession s(mjpeg_problem(), set, small_space(), quick_anneal(200));
  EXPECT_EQ(s.scenario_count(), 3);
  s.evaluate();
  const std::size_t ncand = 4;  // small_space: 2 pe_counts x 2 topologies
  ASSERT_EQ(s.points().size(), 3 * ncand);
  for (std::size_t f = 0; f < s.points().size(); ++f) {
    const int sc = static_cast<int>(f / ncand);
    EXPECT_EQ(s.points()[f].scenario, sc);
    EXPECT_EQ(s.points()[f].scenario_name, set[static_cast<std::size_t>(sc)].name());
    EXPECT_EQ(s.scenario(sc).name(), set[static_cast<std::size_t>(sc)].name());
    // The context really evaluated this scenario's graph on this candidate.
    EXPECT_EQ(s.context(f).platform().pe_count(),
              s.points()[f].candidate.num_pes);
  }
  // The rendered point names its scenario.
  EXPECT_NE(to_string(s.points()[0]).find("[" + set[0].name() + "]"),
            std::string::npos);
}

TEST(DseSession, OneScenarioSetBitExactWithSingleGraphSession) {
  // A one-graph scenario set must reproduce the single-graph session bit
  // for bit — same flat indices, same RNG streams, same figures.
  DseConfig dc;
  dc.validate_pareto = true;
  DseSession single(mjpeg_problem(), small_space(), quick_anneal(), dc);
  DseSession via_set(mjpeg_problem(), ScenarioSet{apps::mjpeg_task_graph()},
                     small_space(), quick_anneal(), dc);
  const auto a = single.run();
  const auto b = via_set.run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    expect_points_identical(a[i], b[i]);
  }
  EXPECT_EQ(single.front_indices(), via_set.front_indices());
  ASSERT_EQ(via_set.scenario_fronts().size(), 1u);
  EXPECT_EQ(via_set.scenario_fronts()[0], via_set.front_indices());
}

TEST(DseSession, PerScenarioFrontsPartitionTheAggregate) {
  DseSession s(mjpeg_problem(), three_scenarios(), small_space(),
               quick_anneal(200));
  const auto& aggregate = s.front();
  const auto& fronts = s.scenario_fronts();
  ASSERT_EQ(fronts.size(), 3u);
  const std::size_t ncand = 4;
  std::vector<std::size_t> merged;
  for (std::size_t sc = 0; sc < fronts.size(); ++sc) {
    EXPECT_GE(fronts[sc].size(), 1u);  // every scenario keeps a survivor
    EXPECT_TRUE(std::is_sorted(fronts[sc].begin(), fronts[sc].end()));
    for (const std::size_t f : fronts[sc]) {
      // Front indices are flat and stay inside their scenario's slice:
      // dominance never crosses scenarios.
      EXPECT_GE(f, sc * ncand);
      EXPECT_LT(f, (sc + 1) * ncand);
      merged.push_back(f);
    }
  }
  // Aggregate = ascending union of the per-scenario fronts, and the
  // pareto_optimal flags agree with it.
  EXPECT_EQ(aggregate, merged);
  for (std::size_t f = 0; f < s.points().size(); ++f) {
    const bool in_front =
        std::find(aggregate.begin(), aggregate.end(), f) != aggregate.end();
    EXPECT_EQ(s.points()[f].pareto_optimal, in_front);
  }
}

TEST(DseSession, ScenarioSweepBitIdenticalAcrossThreadCounts) {
  const ScenarioSet set = three_scenarios();
  std::vector<DsePoint> reference;
  for (const int threads : {1, 3, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DseConfig dc;
    dc.num_threads = threads;
    DseSession s(mjpeg_problem(), set, small_space(), quick_anneal(200), dc);
    s.front();
    if (reference.empty()) {
      reference = s.points();
      continue;
    }
    ASSERT_EQ(s.points().size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      expect_points_identical(reference[i], s.points()[i]);
    }
  }
}

TEST(DseSession, ConstrainedSweepIsFeasibleOrTyped) {
  // Striped PE kinds + per-PE capacity on tagged scenarios: with repair in
  // the loop every point must come back feasible (these instances are
  // satisfiable), and any infeasible point must carry typed violations.
  DseConfig dc;
  dc.pe_kind_groups = 2;
  dc.pe_capacity = 64.0;  // generous: satisfiable, but the checker is armed
  DseSession s(mjpeg_problem(), three_scenarios(), small_space(),
               quick_anneal(200), dc);
  s.evaluate();
  for (const auto& pt : s.points()) {
    EXPECT_TRUE(pt.mapping_cost.feasible || !pt.mapping_cost.violations.empty())
        << "untyped infeasible point";
    EXPECT_TRUE(pt.mapping_cost.feasible);
    EXPECT_TRUE(pt.mapping_cost.violations.empty());
  }
}

TEST(DseSession, RejectsBadScenarioAndConstraintConfigByName) {
  const auto expect_throw_mentioning = [](auto make_session,
                                          const std::string& field) {
    try {
      make_session();
      FAIL() << "expected invalid_argument mentioning " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  expect_throw_mentioning(
      [] {
        DseConfig bad;
        bad.pe_kind_groups = -1;
        return DseSession(mjpeg_problem(), small_space(), {}, bad);
      },
      "pe_kind_groups");
  expect_throw_mentioning(
      [] {
        DseConfig bad;
        bad.pe_capacity = -0.5;
        return DseSession(mjpeg_problem(), small_space(), {}, bad);
      },
      "pe_capacity");
  expect_throw_mentioning(
      [] {
        return DseSession(mjpeg_problem(), ScenarioSet{}, small_space());
      },
      "scenario");
  expect_throw_mentioning(
      [] {
        return DseSession(mjpeg_problem(),
                          ScenarioSet{apps::mjpeg_task_graph(),
                                      TaskGraph("hollow")},
                          small_space());
      },
      "scenario 1");
}

}  // namespace
}  // namespace soc::core
