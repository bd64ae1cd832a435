// Constrained scenario-matrix sweep: hundreds of generated task graphs
// (ScenarioGenerator::matrix — layered / series-parallel / fan-in-heavy)
// crossed with kind-striped, capacity-limited platforms under the random,
// greedy and anneal mapping strategies. Measures per-mapper feasibility rate and
// repair overhead (tasks moved, wall-clock share), checks the
// feasible-or-typed-violation contract on every instance, and replays a
// constrained scenario-set DseSession at 1/3/hardware threads to confirm
// bit-identical fronts. Emits BENCH_scenario_matrix.json; CTest runs it
// as test bench.scenario_matrix.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "soc/core/constraints.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/mapper.hpp"
#include "soc/core/mapping.hpp"
#include "soc/core/objective_space.hpp"
#include "soc/core/scenario.hpp"
#include "soc/sim/parallel.hpp"
#include "soc/sim/rng.hpp"

using namespace soc;

namespace {

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// PE pool striped across `groups` task kinds with a uniform capacity.
core::PlatformDesc striped_platform(int pes, int groups, double capacity) {
  std::vector<core::PeDesc> descs;
  for (int i = 0; i < pes; ++i) {
    descs.push_back(core::PeDesc{tech::Fabric::kAsip, 4, {i % groups},
                                 capacity});
  }
  return core::PlatformDesc(std::move(descs), noc::TopologyKind::kMesh2D,
                            tech::node_90nm());
}

/// Exact-equality comparison of the figures a DsePoint carries — the
/// bit-identity the thread-count replay asserts.
bool points_equal(const core::DsePoint& a, const core::DsePoint& b) {
  return a.scenario == b.scenario && a.scenario_name == b.scenario_name &&
         a.mapping == b.mapping && a.mapper == b.mapper &&
         a.mapping_cost.bottleneck_cycles == b.mapping_cost.bottleneck_cycles &&
         a.mapping_cost.comm_word_hops == b.mapping_cost.comm_word_hops &&
         a.mapping_cost.energy_pj_per_item ==
             b.mapping_cost.energy_pj_per_item &&
         a.mapping_cost.objective == b.mapping_cost.objective &&
         a.mapping_cost.feasible == b.mapping_cost.feasible &&
         a.mapping_cost.violations.size() == b.mapping_cost.violations.size() &&
         a.silicon.total_area_mm2 == b.silicon.total_area_mm2 &&
         a.throughput_per_kcycle == b.throughput_per_kcycle &&
         a.pareto_optimal == b.pareto_optimal;
}

}  // namespace

int main() {
  bench::JsonReport json("scenario_matrix");

  const int kScenarios = 120;
  const int kKinds = 3;
  const core::ScenarioGenerator gen(0xd5e5ceULL);
  const std::vector<core::TaskGraph> graphs = gen.matrix(kScenarios, kKinds);
  // Two platform sizes; capacity is deliberately tight so phase-2 repair
  // (capacity draining) gets real work and some instances stay infeasible —
  // exactly the cases the typed-violation contract must cover.
  const std::vector<core::PlatformDesc> platforms = {
      striped_platform(6, kKinds, 18.0), striped_platform(9, kKinds, 12.0)};
  const core::MappingConstraints constraints;
  core::AnnealConfig ac;
  ac.iterations = 1'000;

  bench::title("M1", "Constrained matrix: feasibility and repair per mapper");
  bench::note(std::to_string(kScenarios) + " scenarios x " +
              std::to_string(platforms.size()) +
              " kind-striped capacity-limited platforms x 3 mappers");
  bench::rule();

  const std::vector<std::string> mappers = {"random", "greedy", "anneal"};
  // Seed stride per graph, fixed so that a mapper's rows keep their seeds
  // when the mapper list changes.
  constexpr std::size_t kSeedStride = 8;
  bool all_feasible_or_typed = true;
  std::printf("  %-8s %10s %12s %12s %14s %12s\n", "mapper", "feasible",
              "moved/inst", "repair ms", "repair share", "blind moved");
  for (const auto& name : mappers) {
    int feasible = 0;
    long long moved = 0;
    long long blind_moved = 0;
    double heur_ms = 0.0;
    double repair_ms = 0.0;
    int total = 0;
    const auto run_heuristic = [&](const core::TaskGraph& g,
                                   const core::PlatformDesc& p, sim::Rng& rng,
                                   const core::MappingConstraints& c) {
      if (name == "random") return core::random_mapping(g, p, rng, c);
      if (name == "greedy") return core::greedy_mapping(g, p, {}, c);
      return core::anneal_mapping(g, p, {}, ac, rng, c);
    };
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      for (std::size_t pi = 0; pi < platforms.size(); ++pi, ++total) {
        const core::TaskGraph& g = graphs[gi];
        const core::PlatformDesc& p = platforms[pi];
        sim::Rng rng(sim::derive_seed(0xbe7c, gi * kSeedStride + pi));
        // The free heuristic runs unrepaired, so the repair pass that the
        // registry wrappers bolt on is metered separately.
        auto t0 = std::chrono::steady_clock::now();
        core::Mapping m = run_heuristic(g, p, rng, constraints);
        heur_ms += ms_since(t0);
        t0 = std::chrono::steady_clock::now();
        const core::RepairResult r =
            core::repair_mapping(g, p, m, constraints);
        repair_ms += ms_since(t0);
        moved += r.moved_tasks;
        if (constraints.satisfied(g, p, m)) {
          ++feasible;
        } else if (constraints.violations(g, p, m).empty()) {
          all_feasible_or_typed = false;  // infeasible yet untyped: broken
        }
        // Repair capability, isolated: rescue a constraint-blind run of the
        // same heuristic (what repair must do when the search can't see the
        // constraints at all).
        sim::Rng blind_rng(sim::derive_seed(0xb11d, gi * kSeedStride + pi));
        core::Mapping blind =
            run_heuristic(g, p, blind_rng, core::MappingConstraints::none());
        blind_moved += core::repair_mapping(g, p, blind, constraints)
                           .moved_tasks;
        if (!constraints.satisfied(g, p, blind) &&
            constraints.violations(g, p, blind).empty()) {
          all_feasible_or_typed = false;
        }
      }
    }
    const double rate = static_cast<double>(feasible) / total;
    const double share = repair_ms / (heur_ms + repair_ms);
    std::printf("  %-8s %9.1f%% %12.2f %12.3f %13.1f%% %12.2f\n", name.c_str(),
                100.0 * rate, static_cast<double>(moved) / total,
                repair_ms / total, 100.0 * share,
                static_cast<double>(blind_moved) / total);
    json.add("feasible_rate_" + name, rate);
    json.add("moved_tasks_per_instance_" + name,
             static_cast<double>(moved) / total);
    json.add("repair_ms_per_instance_" + name, repair_ms / total);
    json.add("repair_wallclock_share_" + name, share);
    json.add("blind_repair_moved_per_instance_" + name,
             static_cast<double>(blind_moved) / total);
  }
  bench::rule();
  bench::verdict(all_feasible_or_typed,
                 "every mapped instance is feasible or carries typed "
                 "constraint violations");

  bench::title("M2", "Scenario-set session: per-class fronts, thread replay");
  bench::note("constrained DseSession over a scenario subset, re-run at");
  bench::note("1 / 3 / hardware threads and compared point-for-point");
  bench::rule();

  const int kSessionScenarios = 30;
  core::ScenarioSet subset(graphs.begin(), graphs.begin() + kSessionScenarios);
  core::DseSpace space;
  space.pe_counts = {6};
  space.thread_counts = {2};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D};
  space.fabrics = {tech::Fabric::kAsip};
  core::DseConfig dc;
  dc.pe_kind_groups = kKinds;
  dc.pe_capacity = 24.0;

  std::vector<core::DsePoint> reference;
  std::vector<std::vector<std::size_t>> reference_fronts;
  bool threads_bit_identical = true;
  double session_ms = 0.0;
  for (const int threads : {1, 3, 0}) {
    core::DseConfig tdc = dc;
    tdc.num_threads = threads;
    core::DseSession session(
        core::DseProblem{core::TaskGraph("unused"),
                         core::ObjectiveSpace::default_space(),
                         {}, tech::node_90nm()},
        subset, space, ac, tdc);
    const auto t0 = std::chrono::steady_clock::now();
    session.front();
    if (threads == 1) {
      session_ms = ms_since(t0);
      reference = session.points();
      reference_fronts = session.scenario_fronts();
      continue;
    }
    if (session.points().size() != reference.size()) {
      threads_bit_identical = false;
      continue;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      threads_bit_identical =
          threads_bit_identical && points_equal(reference[i],
                                                session.points()[i]);
    }
  }

  // Average front size per scenario class (graph names begin with the
  // shape: "layered_0", "series-parallel_1", ...).
  std::map<std::string, std::pair<double, int>> per_class;
  for (std::size_t s = 0; s < reference_fronts.size(); ++s) {
    const std::string& name = subset[s].name();
    const std::string cls = name.substr(0, name.find('_'));
    per_class[cls].first += static_cast<double>(reference_fronts[s].size());
    per_class[cls].second += 1;
  }
  std::printf("  %zu scenarios x 2 candidates in %.1f ms (1 thread)\n",
              subset.size(), session_ms);
  for (const auto& [cls, acc] : per_class) {
    const double avg = acc.first / acc.second;
    std::printf("  avg front size %-16s %.2f\n", cls.c_str(), avg);
    json.add("front_avg_" + cls, avg);
  }
  bench::rule();
  bench::verdict(threads_bit_identical,
                 "constrained scenario sweep is bit-identical at 1, 3, and "
                 "hardware thread counts");

  json.add("scenarios", static_cast<long long>(kScenarios));
  json.add("platforms", static_cast<long long>(platforms.size()));
  json.add("session_scenarios", static_cast<long long>(kSessionScenarios));
  json.add("session_points", static_cast<long long>(reference.size()));
  json.add("feasible_or_typed", all_feasible_or_typed);
  json.add("threads_bit_identical", threads_bit_identical);
  json.write();
  return bench::exit_code();
}
