// Traffic generation and load-sweep measurement: pattern correctness,
// latency/throughput curves, saturation ordering across the topology
// range (claim C5 instrumentation).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>

#include "soc/noc/floorplan.hpp"
#include "soc/noc/traffic.hpp"
#include "soc/tech/process_node.hpp"
#include "pinned_digest.hpp"

namespace soc::noc {
namespace {

TEST(TrafficPatterns, DestinationsRespectPattern) {
  sim::EventQueue q;
  Network net(make_mesh(16), {}, q);
  sim::Rng rng(5);

  TrafficConfig uni;
  uni.pattern = TrafficPattern::kUniform;
  TrafficGenerator gu(net, uni, q);
  for (TerminalId s = 0; s < 16; ++s) {
    for (int i = 0; i < 50; ++i) {
      const TerminalId d = gu.pick_destination(s, rng);
      EXPECT_NE(d, s);
      EXPECT_LT(d, 16u);
    }
  }

  TrafficConfig nb;
  nb.pattern = TrafficPattern::kNeighbor;
  TrafficGenerator gn(net, nb, q);
  EXPECT_EQ(gn.pick_destination(3, rng), 4u);
  EXPECT_EQ(gn.pick_destination(15, rng), 0u);

  TrafficConfig bc;
  bc.pattern = TrafficPattern::kBitComplement;
  TrafficGenerator gb(net, bc, q);
  EXPECT_EQ(gb.pick_destination(0, rng), 15u);
  EXPECT_EQ(gb.pick_destination(5, rng), 10u);

  TrafficConfig tr;
  tr.pattern = TrafficPattern::kTranspose;
  TrafficGenerator gt(net, tr, q);
  // 4x4 grid: (r,c) -> (c,r): terminal 1 = (0,1) -> (1,0) = 4.
  EXPECT_EQ(gt.pick_destination(1, rng), 4u);
  EXPECT_EQ(gt.pick_destination(4, rng), 1u);
}

TEST(TrafficPatterns, HotspotConcentratesOnTerminalZero) {
  sim::EventQueue q;
  Network net(make_mesh(16), {}, q);
  TrafficConfig hs;
  hs.pattern = TrafficPattern::kHotspot;
  hs.hotspot_fraction = 0.5;
  TrafficGenerator g(net, hs, q);
  sim::Rng rng(6);
  int to_zero = 0;
  constexpr int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) to_zero += g.pick_destination(7, rng) == 0;
  // ~50% + 1/15 of the rest.
  EXPECT_NEAR(static_cast<double>(to_zero) / kDraws, 0.53, 0.05);
}

TEST(TrafficGenerator, OfferedLoadMatchesConfig) {
  const auto pt = measure_load_point(
      TopologyKind::kCrossbar, 16, {},
      TrafficConfig{TrafficPattern::kUniform, 0.2, 8, 0.2, 3},
      MeasureConfig{10'000, 50'000});
  // Accepted should track offered well below saturation.
  EXPECT_NEAR(pt.accepted_flits_per_node_cycle, 0.2, 0.03);
  EXPECT_FALSE(pt.saturated);
}

TEST(TrafficGenerator, RejectsZeroRate) {
  sim::EventQueue q;
  Network net(make_mesh(4), {}, q);
  TrafficConfig bad;
  bad.injection_rate = 0.0;
  EXPECT_THROW(TrafficGenerator(net, bad, q), std::invalid_argument);
}

TEST(LoadSweep, LatencyRisesWithLoad) {
  std::vector<LoadPoint> pts;
  TrafficConfig traffic;
  for (const double rate : {0.02, 0.1, 0.3}) {
    traffic.injection_rate = rate;
    pts.push_back(measure_load_point(TopologyKind::kMesh2D, 16, {}, traffic,
                                     MeasureConfig{5'000, 30'000}));
  }
  EXPECT_LT(pts[0].avg_latency, pts[2].avg_latency);
  EXPECT_LE(pts[0].p50_latency, pts[0].p99_latency);
}

TEST(LoadSweep, BusSaturatesBeforeMeshBeforeCrossbar) {
  // Claim C5's core ordering under uniform traffic.
  TrafficConfig t;
  t.packet_flits = 8;
  const MeasureConfig m{5'000, 25'000};
  const double bus = find_saturation_rate(TopologyKind::kBus, 16, {}, t, m);
  const double mesh = find_saturation_rate(TopologyKind::kMesh2D, 16, {}, t, m);
  const double xbar =
      find_saturation_rate(TopologyKind::kCrossbar, 16, {}, t, m);
  EXPECT_LT(bus, mesh);
  EXPECT_LT(mesh, xbar * 1.01);  // crossbar at least matches mesh
  // Bus upper bound: 1 flit/cycle shared by 16 nodes.
  EXPECT_LT(bus, 1.3 / 16.0);
}

TEST(LoadSweep, SaturatedFlagAtExtremeLoad) {
  TrafficConfig t;
  t.injection_rate = 0.9;
  const auto pt = measure_load_point(TopologyKind::kBus, 16, {}, t,
                                     MeasureConfig{2'000, 20'000});
  EXPECT_TRUE(pt.saturated);
  EXPECT_LT(pt.accepted_flits_per_node_cycle,
            0.5 * pt.offered_flits_per_node_cycle);
}

TEST(ZeroLoad, CrossbarBelowMeshBelowRing) {
  const double xbar = zero_load_latency(TopologyKind::kCrossbar, 16, {}, 8);
  const double mesh = zero_load_latency(TopologyKind::kMesh2D, 16, {}, 8);
  const double ring = zero_load_latency(TopologyKind::kRing, 16, {}, 8);
  EXPECT_LT(xbar, mesh);
  EXPECT_LT(mesh, ring);
}

TEST(Reproducibility, SameSeedSameResult) {
  TrafficConfig t;
  t.injection_rate = 0.15;
  t.seed = 77;
  const MeasureConfig m{3'000, 20'000};
  const auto a = measure_load_point(TopologyKind::kTorus2D, 16, {}, t, m);
  const auto b = measure_load_point(TopologyKind::kTorus2D, 16, {}, t, m);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
  EXPECT_DOUBLE_EQ(a.accepted_flits_per_node_cycle,
                   b.accepted_flits_per_node_cycle);
}

TEST(Reproducibility, DifferentSeedsDifferentMicrostate) {
  TrafficConfig a;
  a.injection_rate = 0.15;
  a.seed = 1;
  TrafficConfig b = a;
  b.seed = 2;
  const MeasureConfig m{3'000, 20'000};
  const auto pa = measure_load_point(TopologyKind::kMesh2D, 16, {}, a, m);
  const auto pb = measure_load_point(TopologyKind::kMesh2D, 16, {}, b, m);
  EXPECT_NE(pa.avg_latency, pb.avg_latency);   // different microstate...
  EXPECT_NEAR(pa.accepted_flits_per_node_cycle,
              pb.accepted_flits_per_node_cycle, 0.02);  // ...same macrostate
}

TEST(LoadSweep, BusSaturationScalesInverselyWithN) {
  // The shared medium serves ~1 flit/cycle total, so per-node saturation
  // halves when the node count doubles.
  TrafficConfig t;
  t.packet_flits = 8;
  const MeasureConfig m{4'000, 25'000};
  const double sat16 = find_saturation_rate(TopologyKind::kBus, 16, {}, t, m);
  const double sat32 = find_saturation_rate(TopologyKind::kBus, 32, {}, t, m);
  EXPECT_NEAR(sat32, sat16 / 2.0, sat16 * 0.2);
}

TEST(LoadSweep, FatTreeSustainsBisectionTrafficTreeDoesNot) {
  TrafficConfig bc;
  bc.pattern = TrafficPattern::kBitComplement;
  bc.packet_flits = 8;
  const MeasureConfig m{4'000, 25'000};
  const double thin =
      find_saturation_rate(TopologyKind::kBinaryTree, 16, {}, bc, m);
  const double fat =
      find_saturation_rate(TopologyKind::kFatTree, 16, {}, bc, m);
  EXPECT_GT(fat, thin * 3.0);  // root bandwidth is the whole story
}

// ----------------------------------------------------------- FlowReplayer ---

TEST(FlowReplayer, RejectsBadConfiguration) {
  sim::EventQueue q;
  Network net(make_mesh(4), {}, q);
  EXPECT_THROW(FlowReplayer(net, {}, {}, q), std::invalid_argument);
  EXPECT_THROW(FlowReplayer(net, {Flow{0, 9, 4}}, {}, q),
               std::invalid_argument);
  EXPECT_THROW(FlowReplayer(net, {Flow{0, 1, 0}}, {}, q),
               std::invalid_argument);
  ReplayConfig bad;
  bad.period = 0;
  EXPECT_THROW(FlowReplayer(net, {Flow{0, 1, 4}}, bad, q),
               std::invalid_argument);
  bad = {};
  bad.mode = ReplayConfig::Mode::kClosedLoop;
  bad.max_outstanding_rounds = 0;
  EXPECT_THROW(FlowReplayer(net, {Flow{0, 1, 4}}, bad, q),
               std::invalid_argument);
}

TEST(FlowReplayer, OpenLoopPacesRoundsOnThePeriod) {
  sim::EventQueue q;
  Network net(make_crossbar(4), {}, q);
  ReplayConfig rc;
  rc.period = 100;
  FlowReplayer rep(net, {Flow{0, 1, 4}, Flow{2, 3, 4}}, rc, q);
  rep.start();
  q.run_until(1001);  // injections at cycles 1, 101, ..., 1001
  EXPECT_EQ(rep.rounds_injected(), 11u);
  rep.stop();
  q.run_all();
  EXPECT_EQ(rep.rounds_completed(), rep.rounds_injected());
  for (std::size_t f = 0; f < rep.flow_count(); ++f) {
    EXPECT_EQ(rep.stats(f).delivered, rep.rounds_injected());
    EXPECT_GT(rep.stats(f).avg_latency(), 0.0);
    EXPECT_GE(rep.stats(f).latency_max, rep.stats(f).avg_latency());
  }
}

TEST(FlowReplayer, ClosedLoopBoundsOutstandingRounds) {
  sim::EventQueue q;
  Network net(make_mesh(4), {}, q);
  ReplayConfig rc;
  rc.mode = ReplayConfig::Mode::kClosedLoop;
  rc.max_outstanding_rounds = 2;
  FlowReplayer rep(net, {Flow{0, 3, 8}, Flow{3, 0, 8}}, rc, q);
  rep.start();
  for (int step = 0; step < 40; ++step) {
    q.run_until(q.now() + 25);
    EXPECT_LE(rep.rounds_injected() - rep.rounds_completed(), 2u);
  }
  EXPECT_GT(rep.rounds_completed(), 10u);  // self-clocked progress
  rep.stop();
  q.run_all();
  EXPECT_EQ(rep.rounds_completed(), rep.rounds_injected());
}

TEST(FlowReplayer, ResetStatsKeepsRoundAccounting) {
  sim::EventQueue q;
  Network net(make_ring(4), {}, q);
  ReplayConfig rc;
  rc.period = 50;
  FlowReplayer rep(net, {Flow{0, 2, 4}}, rc, q);
  rep.start();
  q.run_until(500);
  const auto rounds_before = rep.rounds_completed();
  ASSERT_GT(rounds_before, 0u);
  rep.reset_stats();
  EXPECT_EQ(rep.rounds_completed(), rounds_before);  // cumulative survives
  EXPECT_EQ(rep.stats(0).window_delivered, 0u);      // window rebased
  EXPECT_EQ(rep.stats(0).latency_sum, 0.0);
  q.run_until(1000);
  EXPECT_GT(rep.stats(0).window_delivered, 0u);
  EXPECT_GT(rep.rounds_completed(), rounds_before);
  rep.stop();
  q.run_all();
}

TEST(FlowReplayer, DeterministicAcrossIdenticalRuns) {
  const auto run = [] {
    sim::EventQueue q;
    Network net(make_mesh(8), {}, q);
    ReplayConfig rc;
    rc.period = 37;
    FlowReplayer rep(net, {Flow{0, 7, 6}, Flow{3, 4, 2}, Flow{5, 1, 9}}, rc,
                     q);
    rep.start();
    q.run_until(2'000);
    rep.stop();
    q.run_all();
    return std::tuple{rep.rounds_completed(), rep.stats(0).latency_sum,
                      rep.stats(1).latency_sum, rep.stats(2).latency_sum};
  };
  EXPECT_EQ(run(), run());
}

TEST(PatternDifficulty, NeighborEasierThanBitComplementOnRing) {
  TrafficConfig nb;
  nb.pattern = TrafficPattern::kNeighbor;
  TrafficConfig bc;
  bc.pattern = TrafficPattern::kBitComplement;
  const MeasureConfig m{4'000, 25'000};
  const double sat_nb = find_saturation_rate(TopologyKind::kRing, 16, {}, nb, m);
  const double sat_bc = find_saturation_rate(TopologyKind::kRing, 16, {}, bc, m);
  EXPECT_GT(sat_nb, sat_bc * 1.5);
}

// ------------------------------------------------------- pinned replays ---
// The simulator's figures are pinned, not only its invariants: a kernel
// change that reorders two same-cycle events, or loses a credit wake-up,
// still conserves packets and stays deterministic, but moves these digests.
// Each covers the values the mapping validator and the load sweeps read.

/// Replays eight contending flows on an 8-terminal topology the way the
/// mapping validator does (warm up, reset both windows, measure, stop) and
/// digests rounds, per-flow statistics, every link's busy cycles and the
/// peak queue depth.
PinnedDigest replay_digest(std::unique_ptr<Topology> topo,
                           ReplayConfig::Mode mode) {
  sim::EventQueue q;
  Network net(std::move(topo), {}, q);
  ReplayConfig rc;
  rc.mode = mode;
  rc.period = 24;
  rc.max_outstanding_rounds = 3;
  FlowReplayer rep(net,
                   {Flow{0, 5, 3}, Flow{1, 5, 8}, Flow{2, 7, 1}, Flow{6, 0, 5},
                    Flow{4, 3, 12}, Flow{7, 2, 2}, Flow{5, 1, 6},
                    Flow{3, 6, 4}},
                   rc, q);
  rep.start();
  q.run_until(500);
  net.reset_stats();
  rep.reset_stats();
  q.run_until(3'000);
  rep.stop();

  PinnedDigest d;
  d.add(rep.rounds_injected());
  d.add(rep.rounds_completed());
  for (std::size_t f = 0; f < rep.flow_count(); ++f) {
    d.add(rep.stats(f).delivered);
    d.add(rep.stats(f).latency_sum);
    d.add(rep.stats(f).latency_max);
  }
  for (std::size_t li = 0; li < net.link_count(); ++li) {
    d.add(net.link_busy_cycles(li));
  }
  d.add(static_cast<std::uint64_t>(net.max_queue_depth()));
  return d;
}

TEST(PinnedReplay, FlowReplayFiguresMatchPinnedDigests) {
  const PhysicalSpec phys{LinkTimingModel(*tech::find_node("65nm")), 225.0};
  const auto open = ReplayConfig::Mode::kOpenLoop;
  const auto closed = ReplayConfig::Mode::kClosedLoop;
  const struct {
    std::string name;
    PinnedDigest got;
    PinnedDigest pinned;
  } cases[] = {
      {"bus open", replay_digest(make_bus(8), open),
       {52, 0xdfe57756c354af3bull, 0x460821f2cb289a65ull}},
      {"bus closed", replay_digest(make_bus(8), closed),
       {52, 0x18eabf72c28e0b4cull, 0xe8b4d42d6d87f44eull}},
      {"mesh open", replay_digest(make_mesh(8), open),
       {59, 0x7d923a77ebec3f9cull, 0xab5991b4f519251bull}},
      {"mesh closed", replay_digest(make_mesh(8), closed),
       {59, 0xae1e9b9cbd785446ull, 0x59d9f9e5b5a51726ull}},
      {"fat-tree open", replay_digest(make_fat_tree(8), open),
       {63, 0x37528021565c1861ull, 0x87f82cee1bb2ee46ull}},
      {"fat-tree closed", replay_digest(make_fat_tree(8), closed),
       {63, 0x891ac727c3ddc815ull, 0x38bb82235df6745full}},
      {"crossbar open", replay_digest(make_crossbar(8), open),
       {51, 0xdb0e44b5b2e465caull, 0xbb7a07efda34de79ull}},
      {"crossbar closed 65nm", replay_digest(make_crossbar(8, &phys), closed),
       {51, 0x5930a2813ff45f49ull, 0x09fbfd6bac898717ull}},
  };
  for (const auto& c : cases) EXPECT_EQ(c.got, c.pinned) << c.name;
}

TEST(PinnedReplay, CreditLimitedLoadPointMatchesPinnedDigest) {
  // Two-packet link queues under a uniform load that saturates them: the
  // credit reservations and waiter wake-ups that unbounded replays (the
  // mapping validator's) never reach.
  NetworkConfig tight;
  tight.queue_capacity_pkts = 2;
  const LoadPoint pt = measure_load_point(
      TopologyKind::kMesh2D, 16, tight,
      TrafficConfig{TrafficPattern::kUniform, 0.35, 4, 0.2, 11},
      MeasureConfig{1'000, 6'000});
  PinnedDigest d;
  d.add(pt.delivered);
  d.add(static_cast<std::uint64_t>(pt.max_queue_depth));
  d.add(pt.accepted_flits_per_node_cycle);
  d.add(pt.avg_latency);
  d.add(pt.p99_latency);
  d.add(pt.avg_hops);
  EXPECT_EQ(d, (PinnedDigest{6, 0x9160eb4de3feaa0bull, 0x2d1f7f0699b62f73ull}));
}

}  // namespace
}  // namespace soc::noc
