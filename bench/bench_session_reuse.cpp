// Stage-1 reuse, metered end to end. R1/R2: EvalContext topology reuse —
// how many router graphs a validated DSE sweep builds and floorplans under
// the staged DseSession (exactly two per candidate, stage 2 adding zero)
// versus the uncached replay path the retired run_dse monolith took. R3:
// the cross-sweep EvalCache — a warm identical sweep must replay the cold
// sweep's DsePoint stream bit for bit at >= 5x stage-1 speedup, and an
// overlapping superset sweep must hit on every shared candidate. Emits
// BENCH_session_reuse.json (schema documented in README.md); the exit code
// gates every verdict, and CTest runs it as test bench.session_reuse.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "soc/apps/graphs.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/eval_cache.hpp"
#include "soc/core/mapping_validator.hpp"
#include "soc/core/objective_space.hpp"
#include "soc/noc/topology.hpp"

using namespace soc;

namespace {

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Field-exact DsePoint equality — every analytic, silicon, and stage-2
/// figure compared with ==, no tolerance. The warm-vs-cold contract is
/// bit-exactness, so a single flipped mantissa bit fails the bench.
bool points_identical(const core::DsePoint& a, const core::DsePoint& b) {
  return a.candidate.num_pes == b.candidate.num_pes &&
         a.candidate.threads_per_pe == b.candidate.threads_per_pe &&
         a.candidate.topology == b.candidate.topology &&
         a.candidate.pe_fabric == b.candidate.pe_fabric &&
         a.candidate.node.name == b.candidate.node.name &&
         a.mapping_cost.bottleneck_cycles == b.mapping_cost.bottleneck_cycles &&
         a.mapping_cost.comm_word_hops == b.mapping_cost.comm_word_hops &&
         a.mapping_cost.energy_pj_per_item ==
             b.mapping_cost.energy_pj_per_item &&
         a.mapping_cost.pipeline_latency == b.mapping_cost.pipeline_latency &&
         a.mapping_cost.feasible == b.mapping_cost.feasible &&
         a.mapping_cost.objective == b.mapping_cost.objective &&
         a.silicon.total_area_mm2 == b.silicon.total_area_mm2 &&
         a.silicon.peak_dynamic_mw == b.silicon.peak_dynamic_mw &&
         a.silicon.leakage_mw == b.silicon.leakage_mw &&
         a.silicon.die_mm2 == b.silicon.die_mm2 &&
         a.silicon.noc_wire_mm == b.silicon.noc_wire_mm &&
         a.scenario == b.scenario && a.scenario_name == b.scenario_name &&
         a.mapping == b.mapping && a.mapper == b.mapper &&
         a.throughput_per_kcycle == b.throughput_per_kcycle &&
         a.mw_per_throughput == b.mw_per_throughput &&
         a.pareto_optimal == b.pareto_optimal && a.validated == b.validated &&
         a.sim_throughput_per_kcycle == b.sim_throughput_per_kcycle &&
         a.sim_to_analytic_ratio == b.sim_to_analytic_ratio &&
         a.sim_peak_link_utilization == b.sim_peak_link_utilization &&
         a.sim_avg_packet_latency == b.sim_avg_packet_latency &&
         a.sim_network_saturated == b.sim_network_saturated;
}

bool streams_identical(const std::vector<core::DsePoint>& a,
                       const std::vector<core::DsePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!points_identical(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::JsonReport json("session_reuse");

  core::DseSpace space;
  space.pe_counts = {4, 8, 16};
  space.thread_counts = {2, 4};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D,
                      noc::TopologyKind::kCrossbar};
  space.fabrics = {tech::Fabric::kAsip};
  space.nodes = {*tech::find_node("65nm")};  // real multi-cycle wires
  core::AnnealConfig ac;
  ac.iterations = 2'000;
  core::DseConfig dc;
  dc.die_mm2 = 225.0;
  dc.validate_pareto = true;
  const auto graph = apps::mjpeg_task_graph();

  bench::title("R1", "Session sweep: topology builds metered end to end");
  bench::note("EvalContext contract: one cost interconnect + one PE");
  bench::note("interconnect per candidate, shared with the stage-2 replay");
  bench::rule();

  core::EvalCache::global().clear();  // R1 is the cold-sweep contract
  core::DseSession session(
      core::DseProblem{graph, core::ObjectiveSpace::default_space(), {},
                       tech::node_90nm()},
      space, ac, dc);
  noc::TopologyBuildStatsScope build_scope;  // delta-metered, no global reset
  auto t0 = std::chrono::steady_clock::now();
  session.evaluate();
  const double eval_ms = ms_since(t0);
  const auto stats_stage1 = build_scope.delta();
  session.front();
  t0 = std::chrono::steady_clock::now();
  session.validate();
  const double validate_cached_ms = ms_since(t0);
  const auto stats_total = build_scope.delta();

  const auto n = session.points().size();
  const auto f = session.front_indices().size();
  const auto builds = stats_total.builds;
  const auto floorplans = stats_total.floorplans;
  const auto stage2_builds = stats_total.builds - stats_stage1.builds;
  std::printf("  %zu candidates, %zu validated front points\n", n, f);
  std::printf("  stage 1: %llu builds, %llu floorplans (%.2f per candidate)\n",
              static_cast<unsigned long long>(stats_stage1.builds),
              static_cast<unsigned long long>(stats_stage1.floorplans),
              static_cast<double>(stats_stage1.builds) /
                  static_cast<double>(n));
  std::printf("  stage 2: %llu additional builds (topology reuse)\n",
              static_cast<unsigned long long>(stage2_builds));
  std::printf("  per-candidate evaluation %.2f ms | cached validation "
              "%.2f ms/point\n",
              eval_ms / static_cast<double>(n),
              f ? validate_cached_ms / static_cast<double>(f) : 0.0);
  bench::rule();
  const bool exactly_once = builds == 2 * n && floorplans == 2 * n &&
                            stage2_builds == 0;
  bench::verdict(exactly_once,
                 "each candidate's interconnect is built/floorplanned "
                 "exactly once across both stages");

  bench::title("R2", "Before/after: the uncached replay path, re-measured");
  bench::note("the retired monolith re-derived each Pareto point's workload");
  bench::note("and let the validator rebuild its network: 3 builds per point");
  bench::rule();

  build_scope.rebase();  // section boundary: meter only the replay below
  t0 = std::chrono::steady_clock::now();
  for (const std::size_t i : session.front_indices()) {
    // What run_dse's stage 2 did per point: rebuild the whole candidate
    // workload (cost + PE topologies), then hand the validator a platform
    // it rebuilds its own network topology from.
    const core::EvalContext fresh(graph, session.points()[i].candidate, dc);
    core::MappingValidator validator(fresh.work(), fresh.platform(),
                                     session.points()[i].mapping,
                                     dc.validation);
    (void)validator.run();
  }
  const double validate_uncached_ms = ms_since(t0);
  const auto stats_uncached = build_scope.delta();
  std::printf("  uncached stage 2: %llu builds for %zu points | %.2f "
              "ms/point (cached: %.2f)\n",
              static_cast<unsigned long long>(stats_uncached.builds), f,
              f ? validate_uncached_ms / static_cast<double>(f) : 0.0,
              f ? validate_cached_ms / static_cast<double>(f) : 0.0);
  bench::rule();
  const bool uncached_rebuilds = stats_uncached.builds == 3 * f;
  bench::verdict(uncached_rebuilds,
                 "the uncached path really pays 3 extra builds per "
                 "validated point (what EvalContext caching removes)");

  bench::title("R3", "Cross-sweep memo: warm replay of an overlapping sweep");
  bench::note("same platform ladder swept twice (the scenario-matrix and");
  bench::note("repeated-run pattern): the warm pass must be bit-identical");
  bench::rule();

  // Serial sessions: the speedup figure should measure the kernel, not the
  // thread pool. (Thread-count bit-identity is property-tested in
  // tests/test_eval_cache.cpp.)
  core::AnnealConfig ac3;
  ac3.iterations = 8'000;
  core::DseConfig dc3;
  dc3.die_mm2 = 225.0;
  dc3.num_threads = 1;
  core::DseSpace cold_space = space;
  const core::DseProblem problem3{graph, core::ObjectiveSpace::default_space(),
                                  {}, tech::node_90nm()};

  core::EvalCache::global().clear();
  core::DseSession cold(problem3, cold_space, ac3, dc3);
  build_scope.rebase();
  t0 = std::chrono::steady_clock::now();
  cold.evaluate();
  const double cold_eval_ms = ms_since(t0);
  cold.front();
  const auto cold_builds = build_scope.delta();

  core::DseSession warm(problem3, cold_space, ac3, dc3);
  build_scope.rebase();
  t0 = std::chrono::steady_clock::now();
  warm.evaluate();
  const double warm_eval_ms = ms_since(t0);
  warm.front();
  const auto warm_builds = build_scope.delta();

  const std::size_t n3 = cold.points().size();
  // One annealer iteration proposes (and scores) one move, so stage-1 wall
  // clock over points x iterations approximates one objective evaluation.
  const double objective_evals =
      static_cast<double>(n3) * static_cast<double>(ac3.iterations);
  const double cold_ns_per_eval = 1e6 * cold_eval_ms / objective_evals;
  const double warm_ns_per_eval = 1e6 * warm_eval_ms / objective_evals;
  const double speedup = warm_eval_ms > 0.0 ? cold_eval_ms / warm_eval_ms : 0.0;
  const bool identical = streams_identical(cold.points(), warm.points()) &&
                         cold.front_indices() == warm.front_indices();
  const double warm_hit_rate = warm.cache_stats().hit_rate();
  const double warm_mapping_hit_rate = warm.cache_stats().mapping_hit_rate();

  // Overlapping superset sweep: one more pe_counts entry. The shared
  // candidates sit at the same flat indices (pe_counts is an outer axis),
  // so even the seeded annealer hits on every one of them.
  core::DseSpace super_space = cold_space;
  super_space.pe_counts.push_back(32);
  core::DseSession overlap(problem3, super_space, ac3, dc3);
  overlap.evaluate();
  const double overlap_hit_rate = overlap.cache_stats().hit_rate();
  const std::size_t shared = n3;
  const std::size_t n_overlap = overlap.points().size();

  std::printf("  cold stage 1: %.2f ms (%llu builds) | warm: %.3f ms (%llu "
              "builds)\n",
              cold_eval_ms,
              static_cast<unsigned long long>(cold_builds.builds),
              warm_eval_ms,
              static_cast<unsigned long long>(warm_builds.builds));
  std::printf("  stage-1 speedup %.1fx | %.0f ns/objective-eval cold, %.1f "
              "warm\n",
              speedup, cold_ns_per_eval, warm_ns_per_eval);
  std::printf("  warm hit rate %.3f (mapping %.3f) | overlap %zu/%zu shared, "
              "hit rate %.3f\n",
              warm_hit_rate, warm_mapping_hit_rate, shared, n_overlap,
              overlap_hit_rate);
  bench::rule();
  const bool warm_speedup = speedup >= 5.0 && identical;
  bench::verdict(warm_speedup,
                 "warm sweep >= 5x faster with a bit-identical point stream "
                 "and Pareto front");
  const bool warm_hits = warm_mapping_hit_rate >= 0.999 &&
                         warm_builds.builds == 0;
  bench::verdict(warm_hits,
                 "every warm lookup hits; the warm sweep builds no topology");
  const bool builds_bounded =
      static_cast<double>(builds) / static_cast<double>(n) <= 2.0;
  bench::verdict(builds_bounded, "cold sweep stays at <= 2.00 builds per "
                                 "candidate");

  json.add("candidates", static_cast<long long>(n));
  json.add("front_points", static_cast<long long>(f));
  json.add("session_builds", static_cast<long long>(builds));
  json.add("session_floorplans", static_cast<long long>(floorplans));
  json.add("session_stage2_builds", static_cast<long long>(stage2_builds));
  json.add("builds_per_candidate",
           static_cast<double>(builds) / static_cast<double>(n));
  json.add("uncached_stage2_builds",
           static_cast<long long>(stats_uncached.builds));
  json.add("monolith_equivalent_builds",
           static_cast<long long>(2 * n + 3 * f));
  json.add("eval_ms_per_candidate", eval_ms / static_cast<double>(n));
  json.add("validate_cached_ms_per_point",
           f ? validate_cached_ms / static_cast<double>(f) : 0.0);
  json.add("validate_uncached_ms_per_point",
           f ? validate_uncached_ms / static_cast<double>(f) : 0.0);
  json.add("builds_exactly_once", exactly_once);
  json.add("warm_candidates", static_cast<long long>(n3));
  json.add("cold_eval_ms", cold_eval_ms);
  json.add("warm_eval_ms", warm_eval_ms);
  json.add("stage1_speedup", speedup);
  json.add("ns_per_objective_eval_cold", cold_ns_per_eval);
  json.add("ns_per_objective_eval_warm", warm_ns_per_eval);
  json.add("cache_hit_rate_warm", warm_hit_rate);
  json.add("cache_mapping_hit_rate_warm", warm_mapping_hit_rate);
  json.add("cache_hit_rate_overlap", overlap_hit_rate);
  json.add("overlap_candidates", static_cast<long long>(n_overlap));
  json.add("warm_bit_identical", identical);
  json.add("warm_builds", static_cast<long long>(warm_builds.builds));

  json.write();
  return bench::exit_code();
}
