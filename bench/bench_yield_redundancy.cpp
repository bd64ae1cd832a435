// Y1: Section 4's "statistical design, self-repair and various forms of
// redundancy" — Stapper yield vs die size per node, and how spare PEs in a
// homogeneous FPPA array buy back manufacturing yield.
#include "bench_util.hpp"
#include "soc/econ/yield.hpp"
#include "soc/platform/cost.hpp"
#include "soc/proc/multithread.hpp"

using namespace soc;

int main() {
  bench::title("Y1a", "Die yield vs area across the roadmap (launch-time D0)");
  bench::rule();
  std::printf("  %-8s %10s", "node", "D0/cm2");
  for (const double a : {50.0, 100.0, 200.0, 400.0}) std::printf(" %9.0fmm2", a);
  std::printf("\n");
  for (const auto& n : tech::roadmap()) {
    const auto p = econ::defect_params_for(n);
    std::printf("  %-8s %10.2f", n.name.c_str(), p.defects_per_cm2);
    for (const double a : {50.0, 100.0, 200.0, 400.0}) {
      std::printf(" %11.1f%%", 100.0 * econ::die_yield(a, p));
    }
    std::printf("\n");
  }
  bench::note("big nanometer dies yield badly at launch: the economic force");
  bench::note("behind Section 4's call for self-repair and redundancy");

  bench::title("Y1b", "Spare-PE repair on a 64-PE FPPA (50nm, 200mm2 die)");
  bench::rule();
  const auto& node = tech::node_50nm();
  const auto dp = econ::defect_params_for(node);
  // 64 required PEs; each ~1.9 mm2 (4-thread PE at 50nm); the rest of the
  // die (NoC + memories + IO) is non-redundant.
  const double pe_mm2 = platform::kPeMtx / node.density_mtx_mm2 *
                        soc::proc::mt_area_overhead(4);
  const int required = 64;
  const double rest_mm2 = 200.0 - required * pe_mm2;
  std::printf("  PE area %.2f mm2, non-redundant area %.1f mm2, D0 %.2f/cm2\n",
              pe_mm2, rest_mm2, dp.defects_per_cm2);
  std::printf("  %-9s %10s %14s %16s\n", "spares", "yield", "die cost $",
              "vs no-spare");
  double y0 = 0.0;
  double best_gain = 0.0;
  for (const int spares : {0, 1, 2, 4, 8}) {
    const int total = required + spares;
    const double die_mm2 = rest_mm2 + total * pe_mm2;
    const double y = econ::array_yield_with_spares(total, required, pe_mm2,
                                                   rest_mm2, dp);
    const double cost = econ::cost_per_good_die(die_mm2, y);
    if (spares == 0) y0 = y;
    best_gain = std::max(best_gain, y / y0);
    std::printf("  %-9d %9.1f%% %14.2f %15.2fx\n", spares, 100.0 * y, cost,
                y / y0);
  }
  bench::rule();
  bench::verdict(best_gain > 1.2,
                 "a handful of spare PEs buys >20% yield on a nanometer-scale "
                 "processor array");

  bench::title("Y1c", "Cost per good die: monolithic HW IP vs repairable array");
  bench::note("same 200mm2 die; monolithic logic has no repair granularity");
  bench::rule();
  const double mono_yield = econ::die_yield(200.0, dp);
  const double array_yield = econ::array_yield_with_spares(
      required + 4, required, pe_mm2, rest_mm2, dp);
  const double die_mm2 = rest_mm2 + (required + 4) * pe_mm2;
  std::printf("  monolithic: yield %.1f%% cost $%.2f\n", 100 * mono_yield,
              econ::cost_per_good_die(200.0, mono_yield));
  std::printf("  array+4sp : yield %.1f%% cost $%.2f\n", 100 * array_yield,
              econ::cost_per_good_die(die_mm2, array_yield));
  bench::verdict(array_yield > mono_yield,
                 "regular PE arrays are structurally easier to yield than "
                 "monolithic logic — another force toward MP-SoC platforms");
  return bench::exit_code();
}
