// The cross-sweep EvalCache memo (soc/core/eval_cache.hpp) under whole
// sweeps: the bit-exactness property at its heart — a warm sweep (every
// stage-1 product served from the memo) must reproduce the cold sweep's
// DsePoint stream bit for bit, at every thread count, for deterministic and
// stochastic mappers, with constraints on and off — plus the hit-rate
// contract on an overlapping two-space sweep. Keying and the LRU mechanics
// are in test_eval_cache_keys.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "soc/apps/graphs.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/eval_cache.hpp"
#include "soc/core/objective_space.hpp"

namespace soc::core {
namespace {

using tech::Fabric;

DseSpace two_by_two_space() {
  DseSpace space;
  space.pe_counts = {4, 8};
  space.thread_counts = {2};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D};
  space.fabrics = {Fabric::kAsip};
  return space;
}

AnnealConfig quick_anneal() {
  AnnealConfig ac;
  ac.iterations = 300;
  return ac;
}

DseProblem mjpeg_problem() {
  return DseProblem{apps::mjpeg_task_graph(), ObjectiveSpace::default_space(),
                    ObjectiveWeights{}, tech::node_90nm()};
}

/// Field-by-field bit equality (doubles compared with ==, no tolerance):
/// the warm-vs-cold contract is bit-exactness, not closeness.
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

void expect_streams_identical(const std::vector<DsePoint>& a,
                              const std::vector<DsePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    expect_points_identical(a[i], b[i]);
  }
}

// ------------------------------------------- warm-vs-cold bit-exactness ---

/// Runs the same sweep cold (cache cleared) then warm (memo fully
/// populated) at several thread counts and expects every DsePoint stream
/// bit-identical to the cold serial one. `mutate` customizes the config.
void expect_warm_equals_cold(const std::string& mapper, bool constrained) {
  DseConfig dc;
  dc.mapper = mapper;
  dc.validate_pareto = true;
  dc.die_mm2 = 225.0;
  if (constrained) {
    dc.pe_kind_groups = 2;
    dc.pe_capacity = 6.0;
  }
  const DseProblem problem = mjpeg_problem();
  const DseSpace space = two_by_two_space();
  const AnnealConfig ac = quick_anneal();

  EvalCache::global().clear();
  dc.num_threads = 1;
  DseSession cold(problem, space, ac, dc);
  const std::vector<DsePoint> reference = cold.run();
  EXPECT_EQ(cold.cache_stats().mapping_hits, 0u);

  for (const int threads : {1, 3, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    dc.num_threads = threads;
    DseSession warm(problem, space, ac, dc);
    const std::vector<DsePoint> replay = warm.run();
    expect_streams_identical(reference, replay);
    EXPECT_EQ(warm.front_indices(), cold.front_indices());
    // Every stage-1 lookup must have been served from the memo.
    EXPECT_EQ(warm.cache_stats().platform_hits, reference.size());
    EXPECT_EQ(warm.cache_stats().platform_misses, 0u);
    EXPECT_EQ(warm.cache_stats().mapping_hits, reference.size());
    EXPECT_EQ(warm.cache_stats().mapping_misses, 0u);
  }
}

TEST(EvalCacheProperty, WarmAnnealSweepIsBitIdenticalToCold) {
  expect_warm_equals_cold("anneal", false);
}

TEST(EvalCacheProperty, WarmHeftSweepIsBitIdenticalToCold) {
  expect_warm_equals_cold("heft", false);
}

TEST(EvalCacheProperty, WarmGreedySweepIsBitIdenticalToCold) {
  expect_warm_equals_cold("greedy", false);
}

TEST(EvalCacheProperty, WarmConstrainedSweepsAreBitIdenticalToCold) {
  expect_warm_equals_cold("anneal", true);
  expect_warm_equals_cold("heft", true);
}

TEST(EvalCacheProperty, DisablingTheCacheIsBitIdenticalToo) {
  DseConfig dc;
  dc.die_mm2 = 225.0;
  EvalCache::global().clear();
  DseSession cached(mjpeg_problem(), two_by_two_space(), quick_anneal(), dc);
  dc.use_eval_cache = false;
  DseSession uncached(mjpeg_problem(), two_by_two_space(), quick_anneal(), dc);
  expect_streams_identical(cached.run(), uncached.run());
  EXPECT_EQ(uncached.cache_stats().platform_hits +
                uncached.cache_stats().platform_misses,
            0u);
}

// ------------------------------------------------- overlapping-sweep hits ---

TEST(EvalCacheProperty, OverlappingSweepHitsOnEverySharedCandidate) {
  DseConfig dc;
  dc.die_mm2 = 225.0;
  dc.num_threads = 1;
  const DseProblem problem = mjpeg_problem();
  const AnnealConfig ac = quick_anneal();

  EvalCache::global().clear();
  const DseSpace narrow = two_by_two_space();
  DseSession first(problem, narrow, ac, dc);
  first.evaluate();
  const std::size_t shared = first.points().size();

  // Superset space: pe_counts grows by one entry. pe_counts is an outer
  // enumeration axis, so the shared candidates keep their flat indices —
  // even the seeded annealer's mapping entries hit on all of them.
  DseSpace wide = narrow;
  wide.pe_counts.push_back(16);
  DseSession second(problem, wide, ac, dc);
  second.evaluate();
  ASSERT_GT(second.points().size(), shared);
  EXPECT_EQ(second.cache_stats().platform_hits, shared);
  EXPECT_EQ(second.cache_stats().mapping_hits, shared);
  EXPECT_EQ(second.cache_stats().platform_misses,
            second.points().size() - shared);
  // The shared candidates' points are bit-identical across the two sweeps.
  for (std::size_t i = 0; i < shared; ++i) {
    SCOPED_TRACE("shared point " + std::to_string(i));
    expect_points_identical(first.points()[i], second.points()[i]);
  }

  // A deterministic mapper additionally hits across *different* flat
  // indices: the wide sweep's extra candidates reuse nothing, but a heft
  // re-sweep of the narrow space hits even though its per-point seeds
  // differ from any earlier heft run at other indices.
  DseConfig heft_dc = dc;
  heft_dc.mapper = "heft";
  DseSession heft_a(problem, narrow, ac, heft_dc);
  heft_a.evaluate();
  AnnealConfig other_seed = ac;
  other_seed.seed = ac.seed + 17;  // different derived seeds everywhere
  DseSession heft_b(problem, narrow, other_seed, heft_dc);
  heft_b.evaluate();
  EXPECT_EQ(heft_b.cache_stats().mapping_hits, shared);
  EXPECT_EQ(heft_b.cache_stats().mapping_misses, 0u);
}

}  // namespace
}  // namespace soc::core
