// C4: global-wire scaling — repeated/unrepeated delay, isochronous radius
// and the 6-10-cycle cross-chip prediction at 50 nm (Section 6.1, [12]).
#include "bench_util.hpp"
#include "soc/tech/variation.hpp"
#include "soc/tech/wire_model.hpp"

using namespace soc;

int main() {
  bench::title("C4", "Cross-chip wire delay vs process node");
  bench::note("paper: 'In 50 nm technologies ... the intra-chip propagation");
  bench::note("        delay will be between six and ten clock cycles'");
  bench::note("model: distributed-RC global wire, optimal repeaters, 15 mm die,");
  bench::note("       corner-to-corner Manhattan route, 14-FO4 clock");
  bench::rule();
  std::printf("  %-8s %7s %9s %10s %11s %12s %11s\n", "node", "clk GHz",
              "ps/mm", "seg mm", "1-cyc mm", "x-chip ps", "x-chip cyc");
  double cycles_at_50 = 0.0;
  for (const auto& n : tech::roadmap()) {
    const tech::WireModel w(n);
    const auto r = w.repeated(30.0);
    const double cyc = w.cross_chip_cycles();
    if (n.name == "50nm") cycles_at_50 = cyc;
    std::printf("  %-8s %7.2f %9.1f %10.2f %11.2f %12.0f %11.2f\n",
                n.name.c_str(), n.clock_ghz(), r.delay_per_mm_ps, r.segment_mm,
                w.critical_length_mm(), r.delay_ps, cyc);
  }
  bench::rule();
  bench::note("unrepeated vs repeated delay for a 10 mm global wire:");
  std::printf("  %-8s %14s %14s %8s\n", "node", "unrepeated ps", "repeated ps",
              "ratio");
  for (const auto& n : tech::roadmap()) {
    const tech::WireModel w(n);
    const double u = w.unrepeated_delay_ps(10.0);
    const double r = w.repeated(10.0).delay_ps;
    std::printf("  %-8s %14.0f %14.0f %8.1f\n", n.name.c_str(), u, r, u / r);
  }
  bench::rule();
  std::printf("  cross-chip delay at the 50nm node: %.1f cycles\n", cycles_at_50);
  bench::verdict(cycles_at_50 >= 6.0 && cycles_at_50 <= 10.0,
                 "6-10 clock cycles cross-chip at 50 nm");

  bench::title("V1", "On-chip variation: the statistical-design guardband");
  bench::note("Section 4: OCV 'will lead to statistical design'. Clock period");
  bench::note("needed so ALL critical paths meet timing at 99% yield, vs the");
  bench::note("deterministic nominal period.");
  bench::rule();
  std::printf("  %-8s %8s", "node", "sigma");
  for (const int paths : {100, 1'000, 10'000, 100'000}) {
    std::printf(" %8dp", paths);
  }
  std::printf("   (guardband %% of nominal)\n");
  double gb50 = 0.0;
  for (const auto& n : tech::roadmap()) {
    const auto v = tech::variation_for(n);
    std::printf("  %-8s %7.1f%%", n.name.c_str(), 100.0 * v.sigma_fraction);
    for (const int paths : {100, 1'000, 10'000, 100'000}) {
      const double gb = tech::guardband_fraction(n, paths);
      if (n.name == "50nm" && paths == 10'000) gb50 = gb;
      std::printf(" %8.1f%%", 100.0 * gb);
    }
    std::printf("\n");
  }
  bench::rule();
  bench::verdict(gb50 > 0.2,
                 "worst-case margining costs >20% of the clock at 50nm: "
                 "statistical design becomes mandatory");
  return bench::exit_code();
}
