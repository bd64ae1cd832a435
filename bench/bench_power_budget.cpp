// P1: "low-power is a must, not just an added-value feature" (Section 4)
// — power-limited vs area-limited PE counts per node, and the fabric
// choice the power wall forces ("the objective of low-power will favor the
// use of hardware over software in many cases").
#include <algorithm>

#include "bench_util.hpp"
#include "soc/platform/cost.hpp"
#include "soc/tech/clock_model.hpp"

using namespace soc;

int main() {
  bench::title("P1a", "Power per always-active PE across the roadmap");
  bench::rule();
  std::printf("  %-8s %10s", "node", "clk GHz");
  for (const auto f : {tech::Fabric::kGeneralPurposeCpu, tech::Fabric::kDsp,
                       tech::Fabric::kAsip}) {
    std::printf(" %11s", tech::fabric_profile(f).name);
  }
  std::printf("   (mW per PE at full duty)\n");
  for (const auto& n : tech::roadmap()) {
    const tech::ClockModel ck(n);
    std::printf("  %-8s %10.2f", n.name.c_str(), ck.asic_ghz());
    for (const auto f : {tech::Fabric::kGeneralPurposeCpu, tech::Fabric::kDsp,
                         tech::Fabric::kAsip}) {
      std::printf(" %11.1f", platform::pe_power_mw(n, f));
    }
    std::printf("\n");
  }

  bench::title("P1b", "The dark-silicon squeeze (200mm2 die, 1W handset budget)");
  bench::note("PEs the area affords vs PEs the power budget can keep busy at");
  bench::note("full clock: the usable fraction collapses with scaling");
  bench::rule();
  std::printf("  %-8s %12s %12s %14s %12s\n", "node", "area-limited",
              "1W-limited", "all-on power W", "usable %");
  double usable_130 = 0.0, usable_32 = 0.0;
  for (const auto& n : tech::roadmap()) {
    const int by_area = platform::pes_per_die(n, 200.0, 4);
    const int w1 = platform::pes_within_power(
        n, tech::Fabric::kGeneralPurposeCpu, 1000.0, 4);
    const double all_on_w =
        by_area * platform::pe_power_mw(n, tech::Fabric::kGeneralPurposeCpu, 4) /
        1000.0;
    const double usable =
        by_area > 0 ? 100.0 * std::min(w1, by_area) / by_area : 0.0;
    if (n.name == "130nm") usable_130 = usable;
    if (n.name == "32nm") usable_32 = usable;
    std::printf("  %-8s %12d %12d %14.1f %11.1f%%\n", n.name.c_str(), by_area,
                w1, all_on_w, usable);
  }
  bench::rule();
  bench::verdict(usable_32 < 0.5 * usable_130,
                 "from the paper's 130nm 'today' to 32nm, the fraction of the "
                 "die's PEs a 1W budget keeps busy falls >2x — the power wall "
                 "behind 'low-power is a must'");

  bench::title("P1c", "Fabric choice under a fixed power budget");
  bench::note("ops/s each fabric delivers from a 500mW budget at 90nm — why");
  bench::note("'the objective of low-power will favor hardware over software'");
  bench::rule();
  const auto& n90 = tech::node_90nm();
  const tech::ClockModel ck90(n90);
  double best_sw = 0.0, hw_ops = 0.0;
  for (const auto f : {tech::Fabric::kGeneralPurposeCpu, tech::Fabric::kDsp,
                       tech::Fabric::kAsip, tech::Fabric::kEfpga,
                       tech::Fabric::kHardwired}) {
    const auto& p = tech::fabric_profile(f);
    const tech::EnergyModel em(n90);
    const double ghz =
        f == tech::Fabric::kEfpga ? ck90.efpga_ghz() : ck90.asic_ghz();
    // Gops/s per mW = ops/cycle * GHz / mW-per-engine, scaled to budget.
    const double engine_mw = em.op_energy_pj(f) * ghz * p.ops_per_cycle;
    const double gops = p.ops_per_cycle * ghz / engine_mw * 500.0;
    if (f == tech::Fabric::kHardwired) hw_ops = gops;
    if (f == tech::Fabric::kGeneralPurposeCpu || f == tech::Fabric::kDsp ||
        f == tech::Fabric::kAsip) {
      best_sw = std::max(best_sw, gops);
    }
    std::printf("  %-11s %10.1f Gops/s from 500 mW\n", p.name, gops);
  }
  bench::rule();
  bench::verdict(hw_ops > 5.0 * best_sw,
                 "hardwired logic turns the same power budget into >5x the "
                 "throughput of any programmable fabric");
  return bench::exit_code();
}
