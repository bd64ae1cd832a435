// Ground-truth mapper quality. R1: per-heuristic optimality gap against the
// ExactMapper branch-and-bound baseline on a seeded small-graph corpus
// (scenario-generator shape classes x kind/capacity constraints on/off),
// with ns/mapping throughput per strategy. R2: NSGA-II mapping-front
// hypervolume against the single-solution strategies under a shared
// reference point taken from the greedy and anneal mappings alone. R3:
// NSGA-II fronts driven through DseSession's
// mapping_fronts stage must be bit-identical across thread counts 1/3/0
// with the EvalCache on and off. M1: every registered strategy's objective
// and wall time on the IPv4 graph and a 64-node pipeline. M2: the
// incremental evaluator keeps the annealer's trajectory and makes it >= 5x
// faster than full re-evaluation. A2a/A2b: anneal against greedy and
// random on the three bundled graphs (MultiFlex, Section 7.2), and the
// IPv4 mapping it finds. Emits BENCH_mapper_quality.json (schema
// documented in README.md); CTest runs it as test bench.mapper_quality.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "soc/apps/graphs.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/exact_mapper.hpp"
#include "soc/core/mapper.hpp"
#include "soc/core/mapping.hpp"
#include "soc/core/nsgaii_mapper.hpp"
#include "soc/core/objective_space.hpp"
#include "soc/core/scenario.hpp"
#include "soc/sim/rng.hpp"

using namespace soc;

namespace {

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Heterogeneous CPU+ASIP pool for the unconstrained corpus half.
core::PlatformDesc cpu_asip_platform(int pes) {
  std::vector<core::PeDesc> descs;
  for (int i = 0; i < pes; ++i) {
    descs.push_back(core::PeDesc{
        i % 2 ? tech::Fabric::kGeneralPurposeCpu : tech::Fabric::kAsip, 4, {},
        0.0});
  }
  return core::PlatformDesc(std::move(descs), noc::TopologyKind::kMesh2D,
                            tech::node_90nm());
}

/// Kind-striped, capacity-limited pool for the constrained corpus half.
core::PlatformDesc striped_platform(int pes, int groups, double capacity) {
  std::vector<core::PeDesc> descs;
  for (int i = 0; i < pes; ++i) {
    core::PeDesc d{tech::Fabric::kAsip, 4, {}, 0.0};
    if (groups > 0) d.compatible_kinds = {i % groups};
    d.capacity = capacity;
    descs.push_back(std::move(d));
  }
  return core::PlatformDesc(std::move(descs), noc::TopologyKind::kMesh2D,
                            tech::node_90nm());
}

/// One corpus instance: a seeded small scenario graph plus the platform and
/// constraint policy it is mapped under.
struct Instance {
  core::TaskGraph graph;
  core::PlatformDesc platform;
  core::MappingConstraints constraints;
  bool constrained;
};

/// Seeded corpus: shape classes x constraints on/off x per_class instances,
/// every graph within the exact mapper's node budget (depth 3 x width 3).
std::vector<Instance> build_corpus(int per_class) {
  const core::ScenarioGenerator gen(0xdac03ULL);
  std::vector<Instance> corpus;
  for (const bool constrained : {false, true}) {
    for (const core::ScenarioShape shape :
         {core::ScenarioShape::kLayered, core::ScenarioShape::kSeriesParallel,
          core::ScenarioShape::kFanInHeavy}) {
      for (int i = 0; i < per_class; ++i) {
        core::ScenarioSpec spec;
        spec.shape = shape;
        spec.depth = 3;
        spec.width = 3;
        spec.kinds = constrained ? 2 : 1;
        spec.demand_min = 0.5;
        spec.demand_max = 2.0;
        spec.name = "mq";
        corpus.push_back(Instance{
            gen.generate(spec, i),
            constrained ? striped_platform(5, 2, 8.0) : cpu_asip_platform(5),
            constrained ? core::MappingConstraints{}
                        : core::MappingConstraints::none(),
            constrained});
      }
    }
  }
  return corpus;
}

/// Heterogeneous pool: mostly ASIPs, every fourth PE a GP CPU, one
/// hardwired and one eFPGA engine (the Figure 2 FPPA mix).
core::PlatformDesc mixed_platform(int pes) {
  std::vector<core::PeDesc> descs;
  for (int i = 0; i < pes; ++i) {
    core::PeDesc d;
    if (i % 4 == 3) {
      d.fabric = tech::Fabric::kGeneralPurposeCpu;
    } else if (i == 0) {
      d.fabric = tech::Fabric::kHardwired;
    } else if (i == 1) {
      d.fabric = tech::Fabric::kEfpga;
    } else {
      d.fabric = tech::Fabric::kAsip;
    }
    descs.push_back(d);
  }
  return core::PlatformDesc(std::move(descs), noc::TopologyKind::kMesh2D,
                            tech::node_90nm());
}

core::PlatformDesc asip16_platform() {
  return core::PlatformDesc(
      std::vector<core::PeDesc>(16,
                                core::PeDesc{tech::Fabric::kAsip, 4, {}, 0.0}),
      noc::TopologyKind::kMesh2D, tech::node_90nm());
}

/// 8-stage pipeline replicated 8x: the 64-node data-parallel workload the
/// DSE's larger candidates map (one stream per 8 PEs).
core::TaskGraph replicated64() {
  core::TaskGraph g("pipe8");
  for (int i = 0; i < 8; ++i) {
    core::TaskNode t;
    t.name = "s" + std::to_string(i);
    t.work_ops = 50.0 + 25.0 * (i % 3);
    g.add_node(std::move(t));
  }
  for (int i = 0; i + 1 < 8; ++i) g.add_edge({i, i + 1, 8.0});
  return g.replicated(8);
}

/// anneal_mapping's proposal schedule with every candidate scored by the
/// full evaluator: the baseline the incremental evaluator is measured
/// against.
core::Mapping full_eval_anneal(const core::TaskGraph& g,
                               const core::PlatformDesc& p,
                               const core::ObjectiveWeights& w,
                               const core::AnnealConfig& cfg) {
  sim::Rng rng(cfg.seed);
  core::Mapping current = core::greedy_mapping(g, p, w);
  core::Mapping best = current;
  if (g.node_count() == 0 || p.pe_count() < 2) return best;
  double cur = core::evaluate_mapping(g, p, current, w).objective;
  double best_obj = cur;
  const double decay = std::pow(cfg.t_end / cfg.t_start,
                                1.0 / std::max(1, cfg.iterations - 1));
  double temp = cfg.t_start;
  for (int it = 0; it < cfg.iterations; ++it, temp *= decay) {
    const auto task = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(g.node_count())));
    const int old_pe = current[task];
    int new_pe = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(p.pe_count() - 1)));
    if (new_pe >= old_pe) ++new_pe;
    current[task] = new_pe;
    const double nobj = core::evaluate_mapping(g, p, current, w).objective;
    const double delta = nobj - cur;
    if (delta <= 0.0 || rng.next_double() < std::exp(-delta / temp)) {
      cur = nobj;
      if (cur < best_obj) {
        best_obj = cur;
        best = current;
      }
    } else {
      current[task] = old_pe;
    }
  }
  return best;
}

/// 2D hypervolume (minimization) of the (x, y) staircase against ref
/// (rx, ry); points outside the reference box contribute nothing.
double hypervolume_2d(std::vector<std::pair<double, double>> pts, double rx,
                      double ry) {
  std::sort(pts.begin(), pts.end());
  double area = 0.0;
  double best_y = ry;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double x = std::min(pts[i].first, rx);
    const double y = std::min(pts[i].second, best_y);
    double next_x = rx;
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (pts[j].second < y) {
        next_x = std::min(pts[j].first, rx);
        break;
      }
    }
    if (next_x > x) area += (next_x - x) * (ry - y);
    best_y = y;
  }
  return area;
}

/// 3D hypervolume (minimization) by z-slicing: sort by the energy axis and
/// integrate the 2D (bottleneck, comm) staircase area over each z slab.
double hypervolume_3d(const std::vector<core::MappingCost>& costs, double rx,
                      double ry, double rz) {
  std::vector<std::size_t> order(costs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return costs[a].energy_pj_per_item < costs[b].energy_pj_per_item;
  });
  double volume = 0.0;
  std::vector<std::pair<double, double>> slab;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const double z0 = costs[order[k]].energy_pj_per_item;
    if (z0 >= rz) break;
    slab.push_back({costs[order[k]].bottleneck_cycles,
                    costs[order[k]].comm_word_hops});
    const double z1 =
        k + 1 < order.size()
            ? std::min(costs[order[k + 1]].energy_pj_per_item, rz)
            : rz;
    if (z1 > z0) volume += hypervolume_2d(slab, rx, ry) * (z1 - z0);
  }
  return volume;
}

bool point_streams_identical(const std::vector<core::DsePoint>& a,
                             const std::vector<core::DsePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].mapping != b[i].mapping ||
        a[i].mapping_cost.objective != b[i].mapping_cost.objective ||
        a[i].mapping_cost.bottleneck_cycles !=
            b[i].mapping_cost.bottleneck_cycles ||
        a[i].mapping_cost.energy_pj_per_item !=
            b[i].mapping_cost.energy_pj_per_item ||
        a[i].pareto_optimal != b[i].pareto_optimal) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::JsonReport json("mapper_quality");

  const std::vector<Instance> corpus = build_corpus(16);
  const std::vector<std::string> heuristics = {"anneal", "greedy", "random"};
  core::AnnealConfig ac;
  ac.iterations = 2'000;

  bench::title("R1", "Optimality gap vs the branch-and-bound ground truth");
  bench::note("gap = (heuristic - optimal) / optimal objective; corpus =");
  bench::note("3 scenario shapes x constraints on/off, <= 9 tasks, 5 PEs");
  bench::rule();

  const core::ExactMapper exact;
  const core::ObjectiveWeights weights;
  std::vector<core::MappingFrontPoint> optima;
  optima.reserve(corpus.size());
  auto t0 = std::chrono::steady_clock::now();
  for (const Instance& inst : corpus) {
    optima.push_back(
        exact.solve(inst.graph, inst.platform, weights, inst.constraints));
  }
  const double exact_ms = ms_since(t0);

  struct GapStats {
    double sum = 0.0;
    double max = 0.0;
    double min = 0.0;
    int optimal_hits = 0;
    double ms = 0.0;
  };
  std::map<std::string, GapStats> stats;
  for (const std::string& name : heuristics) {
    GapStats& gs = stats[name];
    const auto mapper = core::make_mapper(name, ac);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Instance& inst = corpus[i];
      ac.seed = 0x9d5ULL + i;
      sim::Rng rng(ac.seed);
      t0 = std::chrono::steady_clock::now();
      const core::Mapping m = mapper->map(inst.graph, inst.platform, weights,
                                          rng, inst.constraints);
      gs.ms += ms_since(t0);
      const core::MappingCost mc = core::evaluate_mapping(
          inst.graph, inst.platform, m, weights, inst.constraints);
      const double opt = optima[i].cost.objective;
      const double gap = (mc.objective - opt) / opt;
      gs.sum += gap;
      gs.max = std::max(gs.max, gap);
      gs.min = std::min(gs.min, gap);
      if (gap <= 1e-9) ++gs.optimal_hits;
    }
  }

  const double n = static_cast<double>(corpus.size());
  std::printf("  %zu instances | exact: %.2f ms/solve\n", corpus.size(),
              exact_ms / n);
  for (const std::string& name : heuristics) {
    const GapStats& gs = stats[name];
    std::printf("  %-7s mean gap %6.2f%% | max %6.2f%% | optimal %3d/%zu | "
                "%8.0f ns/mapping\n",
                name.c_str(), 1e2 * gs.sum / n, 1e2 * gs.max, gs.optimal_hits,
                corpus.size(), 1e6 * gs.ms / n);
  }
  bench::rule();
  bool gaps_nonnegative = true;
  for (const auto& [name, gs] : stats) gaps_nonnegative &= gs.min >= -1e-9;
  bench::verdict(gaps_nonnegative,
                 "no heuristic ever beats the exact optimum (gap >= 0 on "
                 "every instance)");
  const bool anneal_beats_greedy =
      stats["anneal"].sum <= stats["greedy"].sum + 1e-12;
  bench::verdict(anneal_beats_greedy,
                 "anneal's aggregate gap is no worse than greedy's");

  bench::title("R2", "NSGA-II mapping-front hypervolume vs single solutions");
  bench::note("3D volume dominated under a reference point 1.1x the nadir");
  bench::note("of the greedy and anneal mappings; NSGA-II seeds its");
  bench::note("population with greedy");
  bench::rule();

  const core::NsgaiiMapper nsga(ac);
  double hv_nsga_sum = 0.0;
  double hv_greedy_sum = 0.0;
  double hv_anneal_sum = 0.0;
  double front_size_sum = 0.0;
  double nsga_ms = 0.0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Instance& inst = corpus[i];
    ac.seed = 0x51aULL + i;
    sim::Rng rng(ac.seed);
    t0 = std::chrono::steady_clock::now();
    const auto front = nsga.map_front(inst.graph, inst.platform, weights, rng,
                                      inst.constraints);
    nsga_ms += ms_since(t0);
    front_size_sum += static_cast<double>(front.size());
    std::map<std::string, core::MappingCost> singles;
    for (const char* name : {"greedy", "anneal"}) {
      sim::Rng r2(0x3c3ULL + i);
      const core::Mapping m = core::make_mapper(name, ac)->map(
          inst.graph, inst.platform, weights, r2, inst.constraints);
      singles[name] = core::evaluate_mapping(inst.graph, inst.platform, m,
                                             weights, inst.constraints);
    }
    // Reference point: 1.1x the per-axis nadir of the feasible greedy and
    // anneal mappings, so no strategy's volume moves when only the front
    // under test changes.
    double rx = 0.0;
    double ry = 0.0;
    double rz = 0.0;
    bool any_feasible = false;
    for (const char* name : {"greedy", "anneal"}) {
      const core::MappingCost& mc = singles[name];
      if (!mc.feasible) continue;
      any_feasible = true;
      rx = std::max(rx, mc.bottleneck_cycles);
      ry = std::max(ry, mc.comm_word_hops);
      rz = std::max(rz, mc.energy_pj_per_item);
    }
    if (!any_feasible) continue;  // no reference: no volume to compare
    rx = 1.1 * rx + 1e-9;
    ry = 1.1 * ry + 1e-9;
    rz = 1.1 * rz + 1e-9;
    std::vector<core::MappingCost> front_costs;
    for (const auto& fp : front) {
      if (fp.cost.feasible) front_costs.push_back(fp.cost);
    }
    hv_nsga_sum += hypervolume_3d(front_costs, rx, ry, rz);
    const auto single_hv = [&](const char* name) {
      const core::MappingCost& mc = singles[name];
      return mc.feasible ? hypervolume_3d({mc}, rx, ry, rz) : 0.0;
    };
    hv_greedy_sum += single_hv("greedy");
    hv_anneal_sum += single_hv("anneal");
  }
  std::printf("  mean front size %.1f | %8.0f ns/front\n", front_size_sum / n,
              1e6 * nsga_ms / n);
  std::printf("  mean hypervolume: nsga2 %.3g | greedy %.3g | anneal %.3g\n",
              hv_nsga_sum / n, hv_greedy_sum / n, hv_anneal_sum / n);
  bench::rule();
  const bool hv_covers_seeds = hv_nsga_sum >= hv_greedy_sum - 1e-9 &&
                               hv_nsga_sum >= hv_anneal_sum - 1e-9;
  bench::verdict(hv_covers_seeds,
                 "the NSGA-II front dominates at least the volume of the "
                 "greedy and anneal mappings");

  bench::title("R3", "Session mapping fronts: thread/cache determinism");
  bench::note("DseSession.mapping_fronts with nsga2 across num_threads");
  bench::note("1/3/0 and EvalCache on/off: one bit-identical point stream");
  bench::rule();

  core::ScenarioSpec spec;
  spec.depth = 3;
  spec.width = 3;
  spec.name = "mq-session";
  const core::TaskGraph session_graph =
      core::ScenarioGenerator(0xdac03ULL).generate(spec, 1);
  core::DseSpace space;
  space.pe_counts = {4, 8};
  space.thread_counts = {2};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D};
  space.fabrics = {tech::Fabric::kAsip};
  core::AnnealConfig sess_ac;
  sess_ac.iterations = 2'400;
  sess_ac.seed = 0x77aaULL;
  const core::DseProblem problem{session_graph,
                                 core::ObjectiveSpace::default_space(),
                                 {},
                                 tech::node_90nm()};
  std::vector<core::DsePoint> base;
  bool fronts_identical = true;
  std::size_t front_points = 0;
  for (const int threads : {1, 3, 0}) {
    for (const bool cache : {false, true}) {
      core::DseConfig dc;
      dc.mapper = "nsga2";
      dc.mapping_fronts = true;
      dc.num_threads = threads;
      dc.use_eval_cache = cache;
      core::DseSession session(problem, space, sess_ac, dc);
      std::vector<core::DsePoint> pts = session.run();
      if (base.empty()) {
        base = std::move(pts);
        front_points = base.size() - session.grid_point_count();
      } else {
        fronts_identical &= point_streams_identical(base, pts);
      }
    }
  }
  std::printf("  %zu grid points + %zu mapping-front extras x 6 runs\n",
              base.size() - front_points, front_points);
  bench::rule();
  bench::verdict(fronts_identical,
                 "all six runs produce one bit-identical point stream");

  bench::title("M1", "Registered strategies: objective vs wall time");
  bench::note("feasibility of every strategy is gated by the MapperRegistry");
  bench::note("tests; exact is skipped past its node budget");
  struct Scenario {
    const char* label;
    core::TaskGraph graph;
    core::PlatformDesc platform;
  };
  const Scenario scenarios[] = {
      {"ipv4 x8-mixed", apps::ipv4_task_graph(), mixed_platform(8)},
      {"pipe8x8 x16-asip", replicated64(), asip16_platform()},
  };
  for (const Scenario& sc : scenarios) {
    bench::rule();
    std::printf("  %-18s (%d tasks, %d edges)\n", sc.label,
                sc.graph.node_count(), sc.graph.edge_count());
    std::printf("  %-10s %14s %12s\n", "mapper", "objective", "time ms");
    for (const std::string& name : core::registered_mappers()) {
      const auto mapper = core::make_mapper(name);
      sim::Rng rng(2003);
      t0 = std::chrono::steady_clock::now();
      core::Mapping m;
      try {
        m = mapper->map(sc.graph, sc.platform, weights, rng);
      } catch (const core::ExactBudgetExceeded&) {
        std::printf("  %-10s %14s %12s\n", name.c_str(), "over-budget", "-");
        continue;
      }
      const double ms = ms_since(t0);
      const double objective =
          core::evaluate_mapping(sc.graph, sc.platform, m, weights).objective;
      std::printf("  %-10s %14.3f %12.3f\n", name.c_str(), objective, ms);
      const std::string prefix = std::string(sc.label) + "." + name;
      json.add(prefix + ".objective", objective);
      json.add(prefix + ".ms", ms);
    }
  }

  bench::title("M2", "Incremental objective: anneal hot-loop speedup");
  bench::note("default AnnealConfig (20k iterations) on the 64-node graph;");
  bench::note("baseline re-runs the full O(V*E) evaluator every iteration;");
  bench::note("each side's time is the best of 5 alternating runs");
  bench::rule();
  {
    const core::TaskGraph g = replicated64();
    const core::PlatformDesc p = asip16_platform();
    const core::AnnealConfig cfg;  // default: 20k iterations
    core::Mapping m_full;
    core::Mapping m_inc;
    double full_ms = 1e300;
    double inc_ms = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      t0 = std::chrono::steady_clock::now();
      m_full = full_eval_anneal(g, p, weights, cfg);
      full_ms = std::min(full_ms, ms_since(t0));
      t0 = std::chrono::steady_clock::now();
      m_inc = core::anneal_mapping(g, p, weights, cfg);
      inc_ms = std::min(inc_ms, ms_since(t0));
    }
    const double obj_full = core::evaluate_mapping(g, p, m_full, weights).objective;
    const double obj_inc = core::evaluate_mapping(g, p, m_inc, weights).objective;
    const double speedup = inc_ms > 0.0 ? full_ms / inc_ms : 0.0;
    // Identical proposal schedule + bit-exact incremental scores => the two
    // loops walk the same trajectory and must land on the same mapping.
    const bool same_result = m_full == m_inc;
    std::printf("  %-22s %12.1f ms   objective %.3f\n", "full re-evaluation",
                full_ms, obj_full);
    std::printf("  %-22s %12.1f ms   objective %.3f\n",
                "incremental (shipped)", inc_ms, obj_inc);
    std::printf("  speedup: %.1fx, trajectories identical: %s\n", speedup,
                same_result ? "yes" : "NO");
    bench::rule();
    bench::verdict(speedup >= 5.0 && same_result,
                   "incremental evaluator makes the annealer >=5x faster "
                   "without changing its search trajectory");
    json.add("anneal64.full_ms", full_ms);
    json.add("anneal64.incremental_ms", inc_ms);
    json.add("anneal64.speedup", speedup);
    json.add("anneal64.same_trajectory", same_result);
    json.add("anneal64.objective", obj_inc);
  }

  bench::title("A2a", "Mapper quality: random vs greedy vs annealing");
  bench::rule();
  std::printf("  %-16s %14s %14s %14s\n", "graph", "random(best5)", "greedy",
              "anneal");
  const core::PlatformDesc mixed8 = mixed_platform(8);
  core::AnnealConfig ac15k;
  ac15k.iterations = 15'000;
  const core::TaskGraph ipv4 = apps::ipv4_task_graph();
  bool anneal_wins = true;
  core::Mapping ipv4_anneal;
  for (const core::TaskGraph& graph :
       {ipv4, apps::mjpeg_task_graph(), apps::wlan_task_graph()}) {
    sim::Rng rng(7);
    double rnd = 1e18;
    for (int i = 0; i < 5; ++i) {
      const core::Mapping m = core::random_mapping(graph, mixed8, rng);
      rnd = std::min(
          rnd, core::evaluate_mapping(graph, mixed8, m, weights).objective);
    }
    const double greedy =
        core::evaluate_mapping(graph, mixed8,
                               core::greedy_mapping(graph, mixed8, weights),
                               weights)
            .objective;
    const core::Mapping m = core::anneal_mapping(graph, mixed8, weights, ac15k);
    const double anneal =
        core::evaluate_mapping(graph, mixed8, m, weights).objective;
    if (graph.name() == ipv4.name()) ipv4_anneal = m;
    anneal_wins &= anneal <= greedy + 1e-9 && anneal <= rnd + 1e-9;
    std::printf("  %-16s %14.2f %14.2f %14.2f\n", graph.name().c_str(), rnd,
                greedy, anneal);
    json.add(graph.name() + ".anneal_objective", anneal);
    json.add(graph.name() + ".greedy_objective", greedy);
  }
  bench::verdict(anneal_wins,
                 "annealing is no worse than greedy or the best of 5 random "
                 "mappings on every graph");

  bench::title("A2b", "Mapping detail: IPv4 graph on the mixed platform");
  bench::rule();
  {
    for (int i = 0; i < ipv4.node_count(); ++i) {
      const int pe = ipv4_anneal[static_cast<std::size_t>(i)];
      std::printf("  %-14s -> pe%-2d (%s)\n", ipv4.node(i).name.c_str(), pe,
                  tech::fabric_profile(mixed8.pe(pe).fabric).name);
    }
    const core::MappingCost cost =
        core::evaluate_mapping(ipv4, mixed8, ipv4_anneal, weights);
    bench::rule();
    std::printf("  bottleneck %.1f cyc/pkt | comm %.1f word-hops | %.1f pJ | "
                "latency %.0f cyc | %s\n",
                cost.bottleneck_cycles, cost.comm_word_hops,
                cost.energy_pj_per_item, cost.pipeline_latency,
                cost.feasible ? "feasible" : "INFEASIBLE");
    bench::verdict(cost.feasible,
                   "anneal finds a feasible heterogeneous mapping");
  }

  json.add("corpus_instances", static_cast<long long>(corpus.size()));
  json.add("exact_ms_per_solve", exact_ms / n);
  for (const std::string& name : heuristics) {
    const GapStats& gs = stats[name];
    json.add("gap_mean_" + name, gs.sum / n);
    json.add("gap_max_" + name, gs.max);
    json.add("optimal_rate_" + name, static_cast<double>(gs.optimal_hits) / n);
    json.add("ns_per_mapping_" + name, 1e6 * gs.ms / n);
  }
  json.add("nsga2_ns_per_front", 1e6 * nsga_ms / n);
  json.add("nsga2_mean_front_size", front_size_sum / n);
  json.add("hv_mean_nsga2", hv_nsga_sum / n);
  json.add("hv_mean_greedy", hv_greedy_sum / n);
  json.add("hv_mean_anneal", hv_anneal_sum / n);
  json.add("session_front_extras", static_cast<long long>(front_points));
  json.add("gaps_nonnegative", gaps_nonnegative);
  json.add("anneal_gap_le_greedy", anneal_beats_greedy);
  json.add("hv_covers_seeds", hv_covers_seeds);
  json.add("fronts_bit_identical", fronts_identical);

  json.write();
  return bench::exit_code();
}
