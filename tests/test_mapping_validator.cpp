// Simulation-in-the-loop mapping validation: NoC traffic replay of mapped
// task graphs, analytic-vs-simulated reporting, and the two-stage DSE flow
// (validate_pareto) determinism contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dse_session_util.hpp"
#include "soc/apps/graphs.hpp"
#include "soc/core/dse.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/mapping_validator.hpp"
#include "soc/core/objective_space.hpp"

namespace soc::core {
namespace {

TaskGraph chain(int stages, double work_ops, double words) {
  TaskGraph g("chain" + std::to_string(stages));
  std::vector<int> ids;
  for (int i = 0; i < stages; ++i) {
    TaskNode t;
    t.name = "s" + std::to_string(i);
    t.work_ops = work_ops;
    ids.push_back(g.add_node(std::move(t)));
  }
  for (int i = 0; i + 1 < stages; ++i) {
    g.add_edge({ids[static_cast<std::size_t>(i)],
                ids[static_cast<std::size_t>(i + 1)], words});
  }
  return g;
}

PlatformDesc gp_platform(int pes, noc::TopologyKind topo) {
  return PlatformDesc(
      std::vector<PeDesc>(static_cast<std::size_t>(pes),
                          PeDesc{tech::Fabric::kGeneralPurposeCpu, 4, {}, 0.0}),
      topo, tech::node_90nm());
}

TEST(MappingValidator, RejectsBadInputs) {
  const auto g = chain(3, 200, 8);
  const auto p = gp_platform(4, noc::TopologyKind::kMesh2D);
  EXPECT_THROW(MappingValidator(g, p, Mapping{0, 1}, {}),
               std::invalid_argument);
  ValidatorConfig bad;
  bad.load_factor = 0.0;
  EXPECT_THROW(MappingValidator(g, p, Mapping{0, 1, 2}, bad),
               std::invalid_argument);
  bad = {};
  bad.load_factor = 1.5;
  EXPECT_THROW(MappingValidator(g, p, Mapping{0, 1, 2}, bad),
               std::invalid_argument);
  bad = {};
  bad.words_per_flit = 0.0;
  EXPECT_THROW(MappingValidator(g, p, Mapping{0, 1, 2}, bad),
               std::invalid_argument);
  bad = {};
  bad.warmup_cycles = 0;
  EXPECT_THROW(MappingValidator(g, p, Mapping{0, 1, 2}, bad),
               std::invalid_argument);
  bad = {};
  bad.measure_cycles = 0;
  EXPECT_THROW(MappingValidator(g, p, Mapping{0, 1, 2}, bad),
               std::invalid_argument);
  bad = {};
  bad.max_outstanding_rounds = 0;
  EXPECT_THROW(MappingValidator(g, p, Mapping{0, 1, 2}, bad),
               std::invalid_argument);
  bad = {};
  bad.top_hotspots = 0;
  EXPECT_THROW(MappingValidator(g, p, Mapping{0, 1, 2}, bad),
               std::invalid_argument);
}

TEST(MappingValidator, LocalOnlyMappingSkipsTheNetwork) {
  const auto g = chain(3, 300, 16);
  const auto p = gp_platform(4, noc::TopologyKind::kMesh2D);
  const auto r = MappingValidator(g, p, Mapping{0, 0, 0}).run();
  EXPECT_FALSE(r.network_active);
  EXPECT_FALSE(r.network_saturated);
  EXPECT_EQ(r.rounds_completed, 0u);
  EXPECT_TRUE(r.hotspots.empty());
  // Every edge reported local; the platform sustains the offered load.
  for (const auto& e : r.edges) EXPECT_TRUE(e.local);
  EXPECT_DOUBLE_EQ(r.simulated_items_per_kcycle, r.offered_items_per_kcycle);
  EXPECT_GT(r.sim_to_analytic_ratio, 0.85);
}

TEST(MappingValidator, MeasuresEdgeTrafficOnTheNoc) {
  const auto g = chain(3, 400, 8);
  const auto p = gp_platform(4, noc::TopologyKind::kMesh2D);
  const Mapping m{0, 1, 2};
  const auto r = MappingValidator(g, p, m).run();

  EXPECT_TRUE(r.network_active);
  EXPECT_GT(r.rounds_completed, 0u);
  EXPECT_GT(r.analytic_items_per_kcycle, 0.0);
  EXPECT_GT(r.simulated_items_per_kcycle, 0.0);
  EXPECT_LE(r.simulated_items_per_kcycle, r.offered_items_per_kcycle * 1.05);
  EXPECT_FALSE(r.network_saturated);  // light traffic on a mesh keeps up

  ASSERT_EQ(r.edges.size(), 2u);
  for (const auto& e : r.edges) {
    EXPECT_FALSE(e.local);
    EXPECT_EQ(e.hops, p.hops(e.src_pe, e.dst_pe));
    EXPECT_EQ(e.flits, 2u);  // 8 words at 4 words/flit
    EXPECT_GT(e.packets_delivered, 0u);
    // At minimum: serialization + NI + one hop of pipeline latency.
    EXPECT_GT(e.avg_latency_cycles, static_cast<double>(e.flits));
    EXPECT_GE(e.max_latency_cycles, e.avg_latency_cycles);
  }

  ASSERT_FALSE(r.hotspots.empty());
  EXPECT_DOUBLE_EQ(r.hotspots[0].utilization, r.peak_link_utilization);
  for (std::size_t i = 1; i < r.hotspots.size(); ++i) {
    EXPECT_LE(r.hotspots[i].utilization, r.hotspots[i - 1].utilization);
  }
  EXPECT_GT(r.avg_packet_latency, 0.0);
}

TEST(MappingValidator, RepeatedRunsAreBitIdentical) {
  const auto g = apps::ipv4_task_graph();
  const auto p = gp_platform(8, noc::TopologyKind::kFatTree);
  Mapping m(static_cast<std::size_t>(g.node_count()));
  for (int i = 0; i < g.node_count(); ++i) {
    m[static_cast<std::size_t>(i)] = i % p.pe_count();
  }
  MappingValidator v(g, p, m);
  const auto a = v.run();
  const auto b = v.run();  // exercises the reused, reset event queue
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  EXPECT_EQ(a.simulated_items_per_kcycle, b.simulated_items_per_kcycle);
  EXPECT_EQ(a.sim_to_analytic_ratio, b.sim_to_analytic_ratio);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.peak_link_utilization, b.peak_link_utilization);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].packets_delivered, b.edges[i].packets_delivered);
    EXPECT_EQ(a.edges[i].avg_latency_cycles, b.edges[i].avg_latency_cycles);
  }
  ASSERT_EQ(a.hotspots.size(), b.hotspots.size());
  for (std::size_t i = 0; i < a.hotspots.size(); ++i) {
    EXPECT_EQ(a.hotspots[i].link, b.hotspots[i].link);
    EXPECT_EQ(a.hotspots[i].utilization, b.hotspots[i].utilization);
  }
}

TEST(MappingValidator, RecordLatencyOffMatchesDefaultFigures) {
  // The validator's latency figures come from its own per-flow accumulators,
  // so disabling the network's exact sample recorder (the long-run mode)
  // must not change any reported number.
  const auto g = chain(4, 250, 12);
  const auto p = gp_platform(4, noc::TopologyKind::kRing);
  const Mapping m{0, 1, 2, 3};
  ValidatorConfig lean;
  lean.net.record_latency = false;
  const auto a = MappingValidator(g, p, m).run();
  const auto b = MappingValidator(g, p, m, lean).run();
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  EXPECT_EQ(a.simulated_items_per_kcycle, b.simulated_items_per_kcycle);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_GT(b.avg_packet_latency, 0.0);
}

TEST(MappingValidator, FiniteBuffersStillCompleteRounds) {
  // Virtual-cut-through backpressure (finite queue_capacity_pkts) slows
  // traffic but must not lose it: rounds still complete end to end.
  const auto g = chain(4, 300, 16);
  const auto p = gp_platform(4, noc::TopologyKind::kMesh2D);
  ValidatorConfig tight;
  tight.net.queue_capacity_pkts = 2;
  const auto r = MappingValidator(g, p, Mapping{0, 1, 2, 3}, tight).run();
  EXPECT_TRUE(r.network_active);
  EXPECT_GT(r.rounds_completed, 0u);
  for (const auto& e : r.edges) EXPECT_GT(e.packets_delivered, 0u);
}

TEST(MappingValidator, DetectsSaturatedBus) {
  // Tiny compute, huge payloads, shared bus: the analytic bottleneck (pure
  // compute) offers a rate the serialized medium cannot carry. The hop
  // model cannot see this; the simulator must.
  const auto g = chain(4, 50, 2000);
  const auto p = gp_platform(4, noc::TopologyKind::kBus);
  ValidatorConfig cfg;
  cfg.load_factor = 1.0;
  const auto r = MappingValidator(g, p, Mapping{0, 1, 2, 3}, cfg).run();
  EXPECT_TRUE(r.network_active);
  EXPECT_TRUE(r.network_saturated);
  EXPECT_LT(r.simulated_items_per_kcycle, 0.5 * r.offered_items_per_kcycle);
  EXPECT_LT(r.sim_to_analytic_ratio, 0.5);
  EXPECT_GT(r.peak_link_utilization, 0.9);  // the bus runs flat out
}

TEST(MappingValidator, ClosedLoopMeasuresNetworkLimit) {
  const auto g = chain(3, 400, 8);
  const auto p = gp_platform(4, noc::TopologyKind::kMesh2D);
  ValidatorConfig cfg;
  cfg.mode = noc::ReplayConfig::Mode::kClosedLoop;
  const auto r = MappingValidator(g, p, Mapping{0, 1, 2}, cfg).run();
  EXPECT_TRUE(r.network_active);
  EXPECT_DOUBLE_EQ(r.offered_items_per_kcycle, 0.0);
  EXPECT_FALSE(r.network_saturated);
  EXPECT_GT(r.rounds_completed, 0u);
  // Unthrottled by compute, the network alone sustains at least the rate
  // the compute-paced open loop achieves.
  const auto open = MappingValidator(g, p, Mapping{0, 1, 2}).run();
  EXPECT_GE(r.simulated_items_per_kcycle, open.simulated_items_per_kcycle);
}

// ----------------------------------------------------- two-stage DSE flow ---

TEST(Dse, ValidateParetoPopulatesFrontOnly) {
  DseSpace space;
  space.pe_counts = {4, 8};
  space.thread_counts = {2};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D};
  space.fabrics = {tech::Fabric::kAsip};
  AnnealConfig quick;
  quick.iterations = 500;
  DseConfig dc;
  dc.validate_pareto = true;
  const auto points = run_session(apps::mjpeg_task_graph(), space,
                              tech::node_90nm(), {}, quick, dc);
  int validated = 0;
  for (const auto& pt : points) {
    if (pt.pareto_optimal) {
      EXPECT_TRUE(pt.validated);
      EXPECT_GT(pt.sim_throughput_per_kcycle, 0.0);
      EXPECT_GT(pt.sim_to_analytic_ratio, 0.0);
      ++validated;
    } else {
      EXPECT_FALSE(pt.validated);
      EXPECT_EQ(pt.sim_throughput_per_kcycle, 0.0);
    }
  }
  EXPECT_GE(validated, 1);
}

// ------------------------------------------------- physical link latency ---

PlatformDesc physical_platform(int pes, noc::TopologyKind topo,
                               const tech::ProcessNode& node, double die_mm2) {
  return PlatformDesc(
      std::vector<PeDesc>(static_cast<std::size_t>(pes),
                          PeDesc{tech::Fabric::kGeneralPurposeCpu, 4, {}, 0.0}),
      topo, node,
      noc::PhysicalSpec{noc::LinkTimingModel(node), die_mm2});
}

TEST(MappingValidator, ReplayPicksUpNonzeroExtraLatency) {
  // A crossbar at 65 nm on a big die carries multi-cycle wires; the replay
  // must measure the longer packets flights the annotated topology imposes.
  // (Before the physical chain existed, extra_latency was always 0 and this
  // path was untestable.)
  const auto g = chain(4, 400, 16);
  const auto node = *tech::find_node("65nm");
  const auto abstract = gp_platform(4, noc::TopologyKind::kCrossbar);
  const auto physical =
      physical_platform(4, noc::TopologyKind::kCrossbar, node, 225.0);
  // The physical platform's matrices really carry wire stages.
  int extra = 0;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) extra += physical.path_extra_cycles(a, b);
  }
  ASSERT_GT(extra, 0);
  const Mapping spread{0, 1, 2, 3};
  const auto fast = MappingValidator(g, abstract, spread).run();
  const auto slow = MappingValidator(g, physical, spread).run();
  EXPECT_TRUE(slow.network_active);
  EXPECT_GT(slow.avg_packet_latency, fast.avg_packet_latency);
  // Per-edge means shift by at least the per-path wire stages.
  for (std::size_t e = 0; e < slow.edges.size(); ++e) {
    if (slow.edges[e].local) continue;
    const int stages = physical.path_extra_cycles(slow.edges[e].src_pe,
                                                  slow.edges[e].dst_pe);
    EXPECT_GE(slow.edges[e].avg_latency_cycles,
              fast.edges[e].avg_latency_cycles + stages);
  }
}

TEST(MappingValidator, PhysicalReplayStaysDeterministic) {
  const auto g = chain(4, 300, 12);
  const auto node = *tech::find_node("50nm");
  const auto p = physical_platform(4, noc::TopologyKind::kMesh2D, node, 225.0);
  MappingValidator v(g, p, Mapping{0, 1, 2, 3});
  const auto r1 = v.run();
  const auto r2 = v.run();
  EXPECT_EQ(r1.simulated_items_per_kcycle, r2.simulated_items_per_kcycle);
  EXPECT_EQ(r1.avg_packet_latency, r2.avg_packet_latency);
  EXPECT_EQ(r1.peak_link_utilization, r2.peak_link_utilization);
}

TEST(Dse, ValidatedSweepBitIdenticalAcrossThreadCounts) {
  DseSpace space;
  space.pe_counts = {4, 8};
  space.thread_counts = {2};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D};
  space.fabrics = {tech::Fabric::kAsip};
  AnnealConfig quick;
  quick.iterations = 500;
  DseConfig serial;
  serial.validate_pareto = true;
  serial.num_threads = 1;
  DseConfig sharded = serial;
  sharded.num_threads = 4;
  const auto g = apps::mjpeg_task_graph();
  const auto a = run_session(g, space, tech::node_90nm(), {}, quick, serial);
  const auto b = run_session(g, space, tech::node_90nm(), {}, quick, sharded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mapping, b[i].mapping);
    EXPECT_EQ(a[i].validated, b[i].validated);
    EXPECT_EQ(a[i].sim_throughput_per_kcycle, b[i].sim_throughput_per_kcycle);
    EXPECT_EQ(a[i].sim_to_analytic_ratio, b[i].sim_to_analytic_ratio);
    EXPECT_EQ(a[i].sim_peak_link_utilization, b[i].sim_peak_link_utilization);
    EXPECT_EQ(a[i].sim_avg_packet_latency, b[i].sim_avg_packet_latency);
    EXPECT_EQ(a[i].sim_network_saturated, b[i].sim_network_saturated);
  }
}

}  // namespace
}  // namespace soc::core
