// Simulation-in-the-loop DSE: the analytic sweep prunes the design space,
// then every Pareto survivor is re-scored by replaying its mapped traffic
// on the event-driven NoC simulator (DseConfig.validate_pareto). This bench
// checks the methodology's load-bearing assumption — that the analytic
// ranking of the front survives contention-aware simulation — and records
// the analytic-vs-simulated rank correlation in BENCH_validated_dse.json.
// A2c: a stage-1 sweep of the mjpeg platform space exposes a non-trivial
// Pareto front. A2d: the FPPA chain validator (validate.hpp) runs mappings
// as DSOC pipelines on the event-driven platform; the analytic bottleneck
// must hold for a coarse-grained chain.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "bench_util.hpp"
#include "soc/apps/graphs.hpp"
#include "soc/core/dse.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/objective_space.hpp"
#include "soc/core/validate.hpp"

using namespace soc;

namespace {

/// Fractional ranks (average over ties) of `v`, ascending.
std::vector<double> ranks(const std::vector<double>& v) {
  const std::size_t n = v.size();
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> r(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && v[idx[j + 1]] == v[idx[i]]) ++j;
    const double avg = 0.5 * static_cast<double>(i + j) + 1.0;
    for (std::size_t k = i; k <= j; ++k) r[idx[k]] = avg;
    i = j + 1;
  }
  return r;
}

/// Spearman's rho between two equal-length samples (Pearson on ranks).
double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = a.size();
  if (n < 2) return 1.0;
  const auto ra = ranks(a);
  const auto rb = ranks(b);
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += ra[i];
    mb += rb[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  return va > 0.0 && vb > 0.0 ? cov / std::sqrt(va * vb) : 1.0;
}

bool same_sim_figures(const std::vector<core::DsePoint>& a,
                      const std::vector<core::DsePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].validated != b[i].validated ||
        a[i].sim_throughput_per_kcycle != b[i].sim_throughput_per_kcycle ||
        a[i].sim_to_analytic_ratio != b[i].sim_to_analytic_ratio ||
        a[i].sim_peak_link_utilization != b[i].sim_peak_link_utilization ||
        a[i].sim_avg_packet_latency != b[i].sim_avg_packet_latency ||
        a[i].sim_network_saturated != b[i].sim_network_saturated) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::JsonReport json("validated_dse");

  core::DseSpace space;
  space.pe_counts = {4, 8, 16, 32};
  space.thread_counts = {2, 4};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kRing,
                      noc::TopologyKind::kMesh2D, noc::TopologyKind::kFatTree,
                      noc::TopologyKind::kCrossbar};
  space.fabrics = {tech::Fabric::kAsip, tech::Fabric::kGeneralPurposeCpu};
  core::AnnealConfig ac;
  ac.iterations = 3'000;
  const auto graph = apps::mjpeg_task_graph();

  bench::title("V1", "Two-stage DSE: analytic sweep + NoC-replay validation");
  bench::note("stage 1 scores every candidate from the static hop matrix;");
  bench::note("stage 2 replays each Pareto mapping on the event-driven NoC");
  bench::rule();

  core::DseConfig dc;
  dc.validate_pareto = true;
  const auto t0 = std::chrono::steady_clock::now();
  const auto points =
      core::DseSession(core::DseProblem{graph}, space, ac, dc).run();
  const double total_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

  std::printf("  %-28s %10s %10s %7s %9s\n", "pareto candidate", "analytic",
              "simulated", "ratio", "peak link");
  std::vector<double> analytic_tp, simulated_tp;
  int saturated = 0;
  double ratio_sum = 0.0, ratio_min = 1e300;
  for (const auto& pt : points) {
    if (!pt.validated) continue;
    char label[64];
    std::snprintf(label, sizeof label, "%d PEs x%dT %s", pt.candidate.num_pes,
                  pt.candidate.threads_per_pe,
                  noc::to_string(pt.candidate.topology));
    std::printf("  %-28s %10.2f %10.2f %7.2f %8.0f%%%s\n", label,
                pt.throughput_per_kcycle, pt.sim_throughput_per_kcycle,
                pt.sim_to_analytic_ratio, 100.0 * pt.sim_peak_link_utilization,
                pt.sim_network_saturated ? " SAT" : "");
    analytic_tp.push_back(pt.throughput_per_kcycle);
    simulated_tp.push_back(pt.sim_throughput_per_kcycle);
    saturated += pt.sim_network_saturated ? 1 : 0;
    ratio_sum += pt.sim_to_analytic_ratio;
    ratio_min = std::min(ratio_min, pt.sim_to_analytic_ratio);
  }
  const auto front = static_cast<long long>(analytic_tp.size());
  const double rho = spearman(analytic_tp, simulated_tp);
  bench::rule();
  std::printf("  %lld Pareto points validated (of %zu candidates) in %.0f ms\n",
              front, points.size(), total_ms);
  std::printf("  analytic-vs-simulated Spearman rho = %.3f | mean ratio %.2f "
              "| min ratio %.2f | %d saturated\n",
              rho, front ? ratio_sum / static_cast<double>(front) : 0.0,
              ratio_min, saturated);
  bench::verdict(front >= 2 && rho >= 0.7,
                 "analytic Pareto ordering survives contention-aware "
                 "simulation (rho >= 0.7)");
  json.add("front_points", front);
  json.add("candidates", static_cast<long long>(points.size()));
  json.add("spearman_rho", rho);
  json.add("mean_sim_to_analytic_ratio",
           front ? ratio_sum / static_cast<double>(front) : 0.0);
  json.add("min_sim_to_analytic_ratio", front ? ratio_min : 0.0);
  json.add("saturated_points", static_cast<long long>(saturated));
  json.add("two_stage_ms", total_ms);

  bench::title("V2", "Determinism: validated sweep at 1 thread vs all cores");
  bench::rule();
  core::DseConfig serial = dc;
  serial.num_threads = 1;
  const auto points_serial =
      core::DseSession(core::DseProblem{graph}, space, ac, serial).run();
  const bool deterministic = same_sim_figures(points, points_serial);
  bench::verdict(deterministic,
                 "simulated figures bit-identical across thread counts");
  json.add("deterministic_across_threads", deterministic);

  bench::title("V3", "Closed-loop headroom: network-limited round rate");
  bench::note("closed loop windows rounds in flight, so it measures what the");
  bench::note("NoC alone sustains — headroom over the compute-paced open loop");
  bench::rule();
  core::DseConfig closed = dc;
  closed.validation.mode = noc::ReplayConfig::Mode::kClosedLoop;
  const auto points_closed =
      core::DseSession(core::DseProblem{graph}, space, ac, closed).run();
  double open_best = 0.0, closed_best = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].validated) continue;
    open_best = std::max(open_best, points[i].sim_throughput_per_kcycle);
    closed_best =
        std::max(closed_best, points_closed[i].sim_throughput_per_kcycle);
  }
  std::printf("  best open-loop %.2f items/kcyc | best closed-loop (network "
              "limit) %.2f items/kcyc\n",
              open_best, closed_best);
  bench::verdict(closed_best > 0.0,
                 "closed-loop replay yields a positive network-limited rate");
  json.add("best_open_loop_items_per_kcycle", open_best);
  json.add("best_closed_loop_items_per_kcycle", closed_best);

  bench::title("A2c", "Platform DSE sweep (mjpeg graph), Pareto front");
  bench::note("homogeneous candidates: mjpeg maps fully onto ASIP pools;");
  bench::note("DSP-only candidates are infeasible (display DMA needs ASIP/HW)");
  bench::rule();
  core::DseSpace a2c_space;
  a2c_space.pe_counts = {4, 8, 16};
  a2c_space.thread_counts = {2, 4};
  a2c_space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D,
                          noc::TopologyKind::kCrossbar};
  a2c_space.fabrics = {tech::Fabric::kAsip, tech::Fabric::kDsp};
  const core::DseConfig a2c_config;  // stage 1 only, every hardware thread
  const auto t_a2c = std::chrono::steady_clock::now();
  const auto a2c_points =
      core::DseSession(core::DseProblem{graph}, a2c_space, ac, a2c_config)
          .run();
  const double a2c_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t_a2c)
                            .count();
  int a2c_front = 0;
  for (const auto& pt : a2c_points) {
    if (!pt.pareto_optimal) continue;
    std::printf("  %s\n", core::to_string(pt).c_str());
    ++a2c_front;
  }
  bench::rule();
  std::printf("  %zu candidates evaluated in %.0f ms, %d on the Pareto front\n",
              a2c_points.size(), a2c_ms, a2c_front);
  bench::verdict(a2c_front >= 2 &&
                     a2c_front < static_cast<int>(a2c_points.size()),
                 "DSE exposes a non-trivial throughput/area/power frontier");
  json.add("dse.candidates", static_cast<long long>(a2c_points.size()));
  json.add("dse.pareto_points", static_cast<long long>(a2c_front));
  json.add("dse.sweep_ms", a2c_ms);
  json.add("dse.mapper", a2c_config.mapper);

  bench::title("A2d", "Cross-level validation: analytic model vs simulation");
  bench::note("each mapping runs as a real DSOC pipeline on the event-driven");
  bench::note("FPPA at 90% of its predicted capacity (Section 3: 'feed the ...");
  bench::note("figures up to higher abstraction levels')");
  bench::rule();
  std::printf("  %-24s %10s %10s %8s %8s\n", "case", "predicted", "measured",
              "ratio", "pe util");
  bool coarse_ok = true;
  {
    // Coarse-grained pipeline: the fast model should be accurate.
    core::TaskGraph g("coarse-chain");
    for (int i = 0; i < 4; ++i) {
      core::TaskNode t;
      t.name = "s" + std::to_string(i);
      t.work_ops = 400;
      g.add_node(std::move(t));
    }
    for (int i = 0; i + 1 < 4; ++i) g.add_edge({i, i + 1, 8});
    const core::PlatformDesc p(
        std::vector<core::PeDesc>(
            4, core::PeDesc{tech::Fabric::kGeneralPurposeCpu, 4, {}, 0.0}),
        noc::TopologyKind::kMesh2D, tech::node_90nm());
    const auto r = core::validate_mapping(g, p, core::Mapping{0, 1, 2, 3});
    coarse_ok = r.ratio > 1.0 && r.ratio < 1.3;
    std::printf("  %-24s %10.0f %10.1f %8.2f %8.2f\n", "coarse 4-stage chain",
                r.predicted_bottleneck_cycles, r.measured_cycles_per_item,
                r.ratio, r.bottleneck_pe_utilization);
    json.add("validate.coarse_ratio", r.ratio);
  }
  {
    // Fine-grained IPv4 pipeline: marshalling/NI overheads the analytic
    // bottleneck ignores become visible — quantifying the model's limits.
    const auto g = apps::ipv4_task_graph();
    const core::PlatformDesc p(
        std::vector<core::PeDesc>(8,
                                  core::PeDesc{tech::Fabric::kAsip, 4, {}, 0.0}),
        noc::TopologyKind::kMesh2D, tech::node_90nm());
    core::AnnealConfig ipv4_ac;
    ipv4_ac.iterations = 4000;
    const auto m = core::anneal_mapping(g, p, {}, ipv4_ac);
    const auto r = core::validate_mapping(g, p, m);
    std::printf("  %-24s %10.0f %10.1f %8.2f %8.2f\n", "fine-grained ipv4",
                r.predicted_bottleneck_cycles, r.measured_cycles_per_item,
                r.ratio, r.bottleneck_pe_utilization);
  }
  bench::rule();
  bench::verdict(coarse_ok,
                 "analytic mapper predictions hold on-platform for "
                 "coarse-grained pipelines (fine-grained ones expose "
                 "marshalling overheads, motivating the cycle-level layer)");

  json.write();
  return bench::exit_code();
}
