// C5: characterization of the topology range "bus, ring, tree to
// full-crossbar" (Section 6.1): zero-load latency, saturation throughput,
// latency-vs-load curves, and the >100-cycle latency regime. `--quick`
// runs only what the two verdicts read: C5a over bus, mesh and crossbar,
// and C5c; the verdict-free C5b/C5d tables are skipped.
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "soc/noc/traffic.hpp"

using namespace soc;
using noc::TopologyKind;

namespace {

constexpr TopologyKind kKinds[] = {
    TopologyKind::kBus,      TopologyKind::kRing,
    TopologyKind::kBinaryTree, TopologyKind::kFatTree,
    TopologyKind::kMesh2D,   TopologyKind::kTorus2D,
    TopologyKind::kCrossbar,
};

void latency_vs_load(const noc::MeasureConfig& fast) {
  bench::title("C5b", "Latency vs offered load (mesh vs bus vs crossbar, N=32)");
  bench::rule();
  const std::vector<double> rates{0.02, 0.05, 0.1, 0.2, 0.3, 0.5};
  std::printf("  %-8s", "rate");
  for (const auto k : {TopologyKind::kBus, TopologyKind::kMesh2D,
                       TopologyKind::kFatTree, TopologyKind::kCrossbar}) {
    std::printf(" %12s", noc::to_string(k));
  }
  std::printf("   (avg latency, cycles; '-' = saturated)\n");
  for (const double r : rates) {
    std::printf("  %-8.2f", r);
    for (const auto k : {TopologyKind::kBus, TopologyKind::kMesh2D,
                         TopologyKind::kFatTree, TopologyKind::kCrossbar}) {
      noc::TrafficConfig t;
      t.injection_rate = r;
      t.packet_flits = 8;
      const auto pt = noc::measure_load_point(k, 32, {}, t, fast);
      if (pt.saturated) {
        std::printf(" %12s", "-");
      } else {
        std::printf(" %12.1f", pt.avg_latency);
      }
    }
    std::printf("\n");
  }
}

void pattern_sensitivity(const noc::MeasureConfig& fast) {
  bench::title("C5d", "Pattern sensitivity (N=16 ring vs mesh vs fat-tree)");
  bench::rule();
  std::printf("  %-16s %10s %10s %10s   (saturation rate)\n", "pattern", "ring",
              "mesh", "fat-tree");
  for (const auto pat : {noc::TrafficPattern::kUniform,
                         noc::TrafficPattern::kNeighbor,
                         noc::TrafficPattern::kBitComplement,
                         noc::TrafficPattern::kHotspot}) {
    std::printf("  %-16s", noc::to_string(pat));
    for (const auto k : {TopologyKind::kRing, TopologyKind::kMesh2D,
                         TopologyKind::kFatTree}) {
      noc::TrafficConfig tc;
      tc.pattern = pat;
      tc.packet_flits = 8;
      std::printf(" %10.4f", noc::find_saturation_rate(k, 16, {}, tc, fast));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const noc::MeasureConfig fast{5'000, 40'000};

  bench::title("C5a", "Topology characterization at N=32 (uniform, 8-flit pkts)");
  bench::rule();
  std::printf("  %-12s %9s %9s %11s %12s\n", "topology", "diameter", "avg hops",
              "zero-load", "sat flits/n/c");
  double sat_bus = 0, sat_mesh = 0, sat_xbar = 0;
  for (const auto k : kKinds) {
    if (quick && k != TopologyKind::kBus && k != TopologyKind::kMesh2D &&
        k != TopologyKind::kCrossbar) {
      continue;
    }
    const auto topo = noc::make_topology(k, 32);
    const double zl = noc::zero_load_latency(k, 32, {}, 8);
    noc::TrafficConfig t;
    t.packet_flits = 8;
    const double sat = noc::find_saturation_rate(k, 32, {}, t, fast);
    if (k == TopologyKind::kBus) sat_bus = sat;
    if (k == TopologyKind::kMesh2D) sat_mesh = sat;
    if (k == TopologyKind::kCrossbar) sat_xbar = sat;
    std::printf("  %-12s %9d %9.2f %11.1f %12.4f\n", noc::to_string(k),
                topo->diameter_hops(), topo->average_hops(), zl, sat);
  }
  bench::verdict(sat_bus < sat_mesh && sat_mesh <= sat_xbar * 1.01,
                 "ordering bus < mesh <= crossbar in saturation throughput");

  if (!quick) latency_vs_load(fast);

  bench::title("C5c", "NoC latency exceeds 100 cycles (Section 6.1 regime)");
  bench::note("64-node mesh near saturation with technology-scaled links");
  bench::rule();
  noc::NetworkConfig scaled;
  scaled.link_latency_cycles = 4;  // multi-cycle repeated global wires @50nm
  noc::TrafficConfig t;
  t.injection_rate = 0.30;
  t.packet_flits = 8;
  const auto pt = noc::measure_load_point(TopologyKind::kMesh2D, 64, scaled, t,
                                          fast);
  std::printf("  mesh-64: offered %.2f accepted %.3f avg %.1f p95 %.1f p99 %.1f\n",
              pt.offered_flits_per_node_cycle, pt.accepted_flits_per_node_cycle,
              pt.avg_latency, pt.p95_latency, pt.p99_latency);
  bench::verdict(pt.p95_latency > 100.0,
                 "complex NoC exhibits latencies >100 cycles under load");

  if (!quick) pattern_sensitivity(fast);
  return bench::exit_code();
}
