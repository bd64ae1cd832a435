// MultiFlex-style design-space exploration as a command-line tool: sweep
// platform candidates for one of the bundled application graphs, print the
// full table and the Pareto front, then validate the winner's mapping on
// the cycle-level platform simulator.
//
//   ./build/examples/platform_dse [ipv4|mjpeg|wlan] [anneal_iters] [threads]
//                                 [--mapper <name>] [--map-fronts]
//                                 [--validate]
//                                 [--nodes 130,90,65] [--die-mm2 <area>]
//                                 [--objectives tput,area,power,energy]
//                                 [--scenarios <count>]
//                                 [--constraints <groups>[:<capacity>]]
//                                 [--workers <count>]
//                                 [--no-eval-cache] [--help]
//
// `threads` shards the sweep: 0 (default) uses every hardware core, 1 runs
// serially. The points are bit-identical either way. `--mapper` picks any
// registered mapping strategy (random | greedy | anneal | nsga2 | exact).
// `nsga2` evolves a mapping-level Pareto set per candidate; `exact` is the
// branch-and-bound ground truth and fails loudly past its 12-task node
// budget, so it only suits small (unreplicated) graphs.
// `--map-fronts` asks the strategy for its whole mapping front per
// candidate (Mapper::map_front) and appends the extra trade-off points
// after the candidate grid, so mapping-level trade-offs can surface on
// the Pareto front.
// `--scenarios` swaps the bundled graph for <count> generated scenario
// graphs (core::ScenarioGenerator seeded from the anneal seed) and reports
// per-scenario Pareto fronts plus the aggregate.
// `--constraints` stripes every candidate's PE pool across <groups> task
// kinds (PE i accepts kind i % groups) and optionally caps per-PE demand at
// <capacity>; typed constraint violations, if any survive repair, are
// printed per point.
// `--validate` enables the second DSE stage: every Pareto-front point's
// mapping is replayed on the event-driven NoC simulator and the analytic
// vs simulated throughput is printed side by side (also bit-identical at
// any thread count).
// `--nodes` sweeps the process node as a cartesian axis (names like "90nm"
// or feature sizes like "90" — see tech::roadmap()); each candidate's NoC
// is floorplanned on its die and wire delay/energy priced at its node.
// `--die-mm2` fixes the floorplan die area (default: auto-sized per
// candidate from its logic area) — fix it to compare nodes on the same
// geometry, the paper's nanometer-wall experiment.
// `--objectives` picks the Pareto-dominance axes by name from tput, area,
// power and energy (default tput,area,power; add `energy` for the
// energy-per-item frontier). The sweep itself runs through the staged
// DseSession API.
// `--workers` runs the sweep through an in-process soc::svc::DseService
// with <count> pool threads (and one DseClient on a loopback bus) instead
// of a local session; the result is byte-identical to the session at any
// pool width. Service stats (pool width, streamed points, time to first
// point, wall time) are printed after the sweep.
// `--no-eval-cache` disables the cross-sweep EvalCache memo (identical
// results, only slower — for A/B timing); with the cache on, the stage-1
// hit/miss counters are printed after the sweep.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "soc/apps/graphs.hpp"
#include "soc/core/dse.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/mapper.hpp"
#include "soc/core/objective_space.hpp"
#include "soc/core/scenario.hpp"
#include "soc/core/validate.hpp"
#include "soc/svc/dse_client.hpp"
#include "soc/svc/dse_service.hpp"
#include "soc/tlm/loopback.hpp"

using namespace soc;

namespace {

/// Parses "130,90nm,65" into roadmap nodes; exits with a message on an
/// unknown entry.
std::vector<tech::ProcessNode> parse_nodes(const char* list) {
  std::vector<tech::ProcessNode> nodes;
  std::string item;
  for (const char* p = list;; ++p) {
    if (*p && *p != ',') {
      item.push_back(*p);
      continue;
    }
    if (!item.empty()) {
      auto found = tech::find_node(item);
      if (!found) found = tech::find_node(std::atof(item.c_str()));
      if (!found) {
        std::fprintf(stderr, "unknown process node '%s'; roadmap:",
                     item.c_str());
        for (const auto& n : tech::roadmap()) {
          std::fprintf(stderr, " %s", n.name.c_str());
        }
        std::fprintf(stderr, "\n");
        std::exit(2);
      }
      nodes.push_back(*found);
      item.clear();
    }
    if (!*p) break;
  }
  if (nodes.empty()) {
    std::fprintf(stderr, "--nodes needs a non-empty list\n");
    std::exit(2);
  }
  return nodes;
}

/// Full usage text, enumerating the objective axes and the registered
/// mapper names so `--objectives`/`--mapper` choices are discoverable from
/// the tool.
void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: platform_dse [ipv4|mjpeg|wlan] [anneal_iters] "
               "[threads]\n"
               "                    [--mapper <name>] [--map-fronts] "
               "[--validate]\n"
               "                    [--nodes 130,90,65] [--die-mm2 <area>]\n"
               "                    [--objectives <csv>]\n"
               "                    [--scenarios <count>]\n"
               "                    [--constraints <groups>[:<capacity>]]\n"
               "                    [--workers <count>]\n"
               "                    [--no-eval-cache] [--help]\n");
  std::fprintf(out, "objectives (for --objectives):");
  for (const std::string_view n : core::objective_names()) {
    std::fprintf(out, " %.*s", static_cast<int>(n.size()), n.data());
  }
  std::fprintf(out, "\nregistered mappers (for --mapper):");
  for (const auto& n : core::registered_mappers()) {
    std::fprintf(out, " %s", n.c_str());
  }
  std::fprintf(out,
               "\n--map-fronts appends each candidate's extra mapping-front "
               "points (Mapper::map_front)\nafter the candidate grid -- "
               "mapping-level trade-offs compete on the Pareto front;\n");
  std::fprintf(out,
               "--scenarios replaces the bundled graph with <count> "
               "generated scenario graphs;\n--constraints stripes PE kinds "
               "across <groups> groups and caps per-PE demand at "
               "<capacity>;\n--workers runs the sweep on <count> pool "
               "threads of an in-process DseService\n(threads is then "
               "unused) -- the result is byte-identical to the local "
               "session;\n"
               "--no-eval-cache disables the cross-sweep "
               "stage-1 memo (soc::core::EvalCache) --\nresults are "
               "bit-identical either way, only slower; with the cache on "
               "the sweep\nprints its hit/miss counters.\n");
}

/// Runs `req` on an in-process DseService with `pool_threads` pool threads,
/// submitted by one DseClient over a loopback bus.
svc::SweepResult serve_in_process(const core::SweepRequest& req,
                                  int pool_threads) {
  tlm::LoopbackTransport bus;
  svc::DseServiceConfig cfg;
  cfg.pool_threads = pool_threads;
  svc::DseService service(bus, svc::kServiceTerminal, cfg);
  svc::DseClient client(bus, svc::kServiceTerminal + 1);
  svc::SweepResult res = client.wait(client.submit(req));
  service.stop();
  bus.shutdown();
  return res;
}

/// Strict base-10 integer parse: nullopt on empty input or trailing junk
/// (std::atoi would silently read "8x" as 8 and "x" as 0).
std::optional<long> parse_long(const char* s) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') return std::nullopt;
  return v;
}

}  // namespace

/// The tool proper. Exit-code contract: 0 success, 1 evaluation failure
/// (no feasible candidate, sweep error), 2 usage error.
static int run_tool(int argc, char** argv) {
  std::string mapper_name = "anneal";
  std::string objective_names = "tput,area,power";
  bool validate = false;
  bool map_fronts = false;
  bool use_eval_cache = true;
  std::vector<tech::ProcessNode> nodes;
  double die_mm2 = 0.0;
  int scenario_count = 0;
  int kind_groups = 0;
  double pe_capacity = 0.0;
  int workers = 0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help")) {
      print_usage(stdout);
      return 0;
    } else if (!std::strcmp(argv[i], "--validate")) {
      validate = true;
    } else if (!std::strcmp(argv[i], "--map-fronts")) {
      map_fronts = true;
    } else if (!std::strcmp(argv[i], "--no-eval-cache")) {
      use_eval_cache = false;
    } else if (!std::strcmp(argv[i], "--scenarios")) {
      if (i + 1 >= argc || (scenario_count = std::atoi(argv[i + 1])) <= 0) {
        std::fprintf(stderr, "--scenarios needs a positive count\n");
        return 2;
      }
      ++i;
    } else if (!std::strcmp(argv[i], "--workers")) {
      if (i + 1 >= argc || (workers = std::atoi(argv[i + 1])) <= 0) {
        std::fprintf(stderr, "--workers needs a positive count\n");
        return 2;
      }
      ++i;
    } else if (!std::strcmp(argv[i], "--constraints")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "--constraints needs <groups>[:<capacity>] (e.g. 2 or "
                     "2:6)\n");
        return 2;
      }
      const char* spec = argv[++i];
      kind_groups = std::atoi(spec);
      if (const char* colon = std::strchr(spec, ':')) {
        pe_capacity = std::atof(colon + 1);
      }
      if (kind_groups <= 0 || pe_capacity < 0.0) {
        std::fprintf(stderr,
                     "--constraints needs positive <groups> and non-negative "
                     "<capacity>\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--mapper")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--mapper needs a strategy name; registered:");
        for (const auto& n : core::registered_mappers()) {
          std::fprintf(stderr, " %s", n.c_str());
        }
        std::fprintf(stderr, "\n");
        return 2;
      }
      mapper_name = argv[++i];
    } else if (!std::strcmp(argv[i], "--objectives")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--objectives needs a comma-separated list of:");
        for (const std::string_view n : core::objective_names()) {
          std::fprintf(stderr, " %.*s", static_cast<int>(n.size()), n.data());
        }
        std::fprintf(stderr, "\n");
        return 2;
      }
      objective_names = argv[++i];
    } else if (!std::strcmp(argv[i], "--nodes")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--nodes needs a comma-separated list (e.g. "
                             "130,90,65)\n");
        return 2;
      }
      nodes = parse_nodes(argv[++i]);
    } else if (!std::strcmp(argv[i], "--die-mm2")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--die-mm2 needs an area in mm^2\n");
        return 2;
      }
      die_mm2 = std::atof(argv[++i]);
      if (die_mm2 <= 0.0) {
        std::fprintf(stderr, "--die-mm2 must be positive\n");
        return 2;
      }
    } else if (!std::strncmp(argv[i], "--", 2)) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      print_usage(stderr);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 3) {
    std::fprintf(stderr, "too many positional arguments (at most "
                         "[graph] [anneal_iters] [threads])\n");
    print_usage(stderr);
    return 2;
  }
  // Same style as the --objectives error below: the registry's own typed
  // error already enumerates every registered strategy name.
  try {
    (void)core::make_mapper(mapper_name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad --mapper: %s\n", e.what());
    return 2;
  }
  core::ObjectiveSpace objectives;
  try {
    objectives = core::ObjectiveSpace::from_names(objective_names);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad --objectives: %s\n", e.what());
    return 2;
  }
  const char* which = positional.size() > 0 ? positional[0] : "mjpeg";
  if (std::strcmp(which, "ipv4") != 0 && std::strcmp(which, "mjpeg") != 0 &&
      std::strcmp(which, "wlan") != 0) {
    std::fprintf(stderr, "unknown graph '%s' (expected ipv4, mjpeg or "
                         "wlan)\n", which);
    return 2;
  }
  int iters = 5000;
  if (positional.size() > 1) {
    const auto v = parse_long(positional[1]);
    if (!v || *v <= 0) {
      std::fprintf(stderr, "anneal_iters must be a positive integer, got "
                           "'%s'\n", positional[1]);
      return 2;
    }
    iters = static_cast<int>(*v);
  }
  int threads = 0;
  if (positional.size() > 2) {
    const auto v = parse_long(positional[2]);
    if (!v || *v < 0) {
      std::fprintf(stderr, "threads must be a non-negative integer, got "
                           "'%s'\n", positional[2]);
      return 2;
    }
    threads = static_cast<int>(*v);
  }

  core::TaskGraph graph = [&] {
    if (!std::strcmp(which, "ipv4")) return apps::ipv4_task_graph();
    if (!std::strcmp(which, "wlan")) return apps::wlan_task_graph();
    return apps::mjpeg_task_graph();
  }();
  std::printf("graph '%s': %d tasks, %.0f ops/item, %.0f words/item\n",
              graph.name().c_str(), graph.node_count(), graph.total_work_ops(),
              graph.total_comm_words());

  core::DseSpace space;
  space.nodes = nodes;  // empty = single node below
  space.pe_counts = {4, 8, 16};
  space.thread_counts = {2, 4};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D,
                      noc::TopologyKind::kCrossbar};
  space.fabrics = {tech::Fabric::kAsip};
  core::AnnealConfig ac;
  ac.iterations = iters;

  core::DseConfig dc;
  dc.num_threads = threads;
  dc.mapper = mapper_name;
  dc.validate_pareto = validate;
  dc.mapping_fronts = map_fronts;
  dc.die_mm2 = die_mm2;
  dc.pe_kind_groups = kind_groups;
  dc.pe_capacity = pe_capacity;
  dc.use_eval_cache = use_eval_cache;

  const auto& node = tech::node_90nm();
  // With --scenarios both execution paths sweep the same generated set.
  std::optional<core::ScenarioSet> scenarios;
  if (scenario_count > 0) {
    const core::ScenarioGenerator gen(ac.seed);
    scenarios = gen.matrix(scenario_count, std::max(1, kind_groups));
  }
  // Staged session: enumerate -> evaluate -> front (-> validate). run()
  // drives the standard pipeline; the objective space picks the dominance
  // axes the front is marked over. With --scenarios the session evaluates
  // every candidate against each generated scenario graph instead of the
  // bundled application. With --workers the same sweep runs on an
  // in-process DseService instead; both lay their result out through
  // core::lay_out_sweep, so every artifact below is byte-identical.
  std::optional<core::DseSession> session;
  svc::SweepResult served;
  core::EvalCacheStats served_cache{};
  const bool serve = workers > 0;
  try {
    if (serve) {
      const core::EvalCacheStats before = core::EvalCache::global().stats();
      served = serve_in_process(
          core::SweepRequest{core::DseProblem{graph, objectives, {}, node},
                             scenarios ? *scenarios : core::ScenarioSet{graph},
                             space, ac, dc},
          workers);
      served_cache = core::EvalCache::global().stats().delta_since(before);
    } else if (scenarios) {
      session.emplace(core::DseProblem{graph, objectives, {}, node},
                      *scenarios, space, ac, dc);
      session->run();
    } else {
      session.emplace(core::DseProblem{graph, objectives, {}, node}, space,
                      ac, dc);
      session->run();
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad DSE inputs: %s\n", e.what());
    return 2;
  }
  const core::SweepLayout& result = serve ? served : session->layout();
  const std::vector<core::DsePoint>& points = result.points;
  // With --map-fronts the point vector is the candidate grid plus the
  // appended mapping-front extras; report the two regions separately.
  const std::size_t ngrid = result.grid_points;
  if (nodes.empty()) {
    std::printf("\n%zu candidates at %s (objectives: %s, mapper: %s",
                ngrid, node.name.c_str(), objectives.names().c_str(),
                mapper_name.c_str());
  } else {
    std::printf("\n%zu candidates over %zu nodes (objectives: %s, mapper: %s",
                ngrid, nodes.size(), objectives.names().c_str(),
                mapper_name.c_str());
  }
  if (map_fronts) {
    std::printf(", +%zu mapping-front extras", points.size() - ngrid);
  }
  if (kind_groups > 0) {
    std::printf(", %d kind groups", kind_groups);
    if (pe_capacity > 0.0) std::printf(", PE capacity %.1f", pe_capacity);
  }
  if (die_mm2 > 0.0) {
    std::printf(", die fixed at %.0f mm2):\n", die_mm2);
  } else {
    std::printf(", die auto-sized):\n");
  }
  if (scenario_count > 0) {
    // Per-scenario summary instead of the full (scenarios x candidates)
    // table: front size and feasibility per slice, then the aggregate.
    for (int s = 0; s < scenario_count; ++s) {
      const auto& front =
          result.scenario_fronts.at(static_cast<std::size_t>(s));
      std::size_t feasible = 0;
      const std::size_t ncand =
          ngrid / static_cast<std::size_t>(scenario_count);
      for (std::size_t c = 0; c < ncand; ++c) {
        if (points[static_cast<std::size_t>(s) * ncand + c]
                .mapping_cost.feasible) {
          ++feasible;
        }
      }
      const core::TaskGraph& sg = scenarios->at(static_cast<std::size_t>(s));
      std::printf("  scenario %2d %-20s %2d tasks: front %zu, feasible "
                  "%zu/%zu\n",
                  s, sg.name().c_str(), sg.node_count(), front.size(),
                  feasible, ncand);
    }
    std::printf("  aggregate front: %zu points\n", result.front.size());
  } else {
    for (const auto& pt : points) {
      std::printf("  %s\n", core::to_string(pt).c_str());
    }
  }
  if (use_eval_cache) {
    // Stage-1 memo traffic of this sweep (delta over the process-wide
    // EvalCache counters; see DseSession::cache_stats). The served figure
    // spans the whole sweep, stage-2 contexts included.
    const core::EvalCacheStats& cs =
        serve ? served_cache : session->cache_stats();
    std::printf("  eval cache: %llu/%llu platform hits, %llu/%llu mapping "
                "hits (hit rate %.2f)\n",
                static_cast<unsigned long long>(cs.platform_hits),
                static_cast<unsigned long long>(cs.platform_hits +
                                                cs.platform_misses),
                static_cast<unsigned long long>(cs.mapping_hits),
                static_cast<unsigned long long>(cs.mapping_hits +
                                                cs.mapping_misses),
                cs.hit_rate());
  }
  if (serve) {
    std::printf("  service: %d pool threads, %llu points streamed, first "
                "point %.2f ms, wall %.1f ms\n",
                workers,
                static_cast<unsigned long long>(served.points_streamed),
                served.time_to_first_point_ms, served.wall_ms);
  }
  // Typed constraint findings that survived mapper repair, if any.
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (const auto& v : points[i].mapping_cost.violations) {
      std::printf("  point %zu violation %s\n", i, core::to_string(v).c_str());
    }
  }

  if (validate) {
    std::printf("\nsimulation-validated Pareto front (analytic vs NoC "
                "replay):\n");
    std::printf("  %-40s %12s %12s %7s %10s\n", "candidate", "analytic",
                "simulated", "ratio", "peak link");
    for (const auto& pt : points) {
      if (!pt.validated) continue;
      std::printf("  %-6s %3d PEs x%dT %-12s %-8s %12.2f %12.2f %7.2f "
                  "%9.0f%%%s\n",
                  pt.candidate.node.name.c_str(), pt.candidate.num_pes,
                  pt.candidate.threads_per_pe,
                  noc::to_string(pt.candidate.topology),
                  tech::fabric_profile(pt.candidate.pe_fabric).name,
                  pt.throughput_per_kcycle, pt.sim_throughput_per_kcycle,
                  pt.sim_to_analytic_ratio,
                  100.0 * pt.sim_peak_link_utilization,
                  pt.sim_network_saturated ? "  SATURATED" : "");
    }
  }

  // Pick the Pareto point with the best throughput and validate it.
  const core::DsePoint* best = nullptr;
  for (const auto& pt : points) {
    if (!pt.pareto_optimal) continue;
    if (!best || pt.throughput_per_kcycle > best->throughput_per_kcycle) {
      best = &pt;
    }
  }
  if (!best) {
    std::printf("\nno feasible candidate for this graph/fabric choice\n");
    return 1;
  }
  std::printf("\nselected: %s\n", core::to_string(*best).c_str());
  if (scenario_count > 0) {
    // Generated scenarios were swept instead of the bundled graph; the
    // single-graph cycle-level replay below would validate the wrong
    // workload, so stop at the selection.
    return 0;
  }

  // The cycle-level chain validator replays the unreplicated application
  // graph, so it maps that graph afresh with the sweep's strategy on the
  // re-derived (physically annotated) platform; the sweep's stored mapping
  // covers the replicated workload and is validated by --validate above.
  core::PlatformDesc platform =
      core::make_candidate_platform(best->candidate, dc);
  sim::Rng map_rng(ac.seed);
  const auto mapping =
      core::make_mapper(mapper_name, ac)->map(graph, platform, {}, map_rng);
  try {
    core::ValidationConfig vc;
    vc.threads_per_pe = best->candidate.threads_per_pe;
    const auto v = core::validate_mapping(graph, platform, mapping, vc);
    std::printf("cycle-level validation at 90%% load: predicted %.0f "
                "cyc/item, measured %.1f (ratio %.2f, bottleneck PE %.0f%% "
                "busy, %llu items)\n",
                v.predicted_bottleneck_cycles, v.measured_cycles_per_item,
                v.ratio, 100.0 * v.bottleneck_pe_utilization,
                static_cast<unsigned long long>(v.items_completed));
  } catch (const std::invalid_argument& e) {
    std::printf("cycle-level validation skipped: %s\n", e.what());
  }
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_tool(argc, argv);
  } catch (const std::exception& e) {
    // Anything the sweep or simulator throws past run_tool's own handlers
    // is an evaluation failure, distinct from a usage error (2).
    std::fprintf(stderr, "platform_dse: %s\n", e.what());
    return 1;
  }
}
