// C3: hardware (56%/yr) vs embedded-software (140%/yr) complexity growth
// and the crossover the paper reports "today" (~2003).
#include "bench_util.hpp"
#include "soc/econ/trends.hpp"

using namespace soc;

int main() {
  bench::title("C3", "HW vs embedded-SW complexity growth (Section 6)");
  bench::note("paper: transistors +56%/yr; embedded S/W +140%/yr;");
  bench::note("       'in many leading SoCs today [2003] the embedded S/W effort");
  bench::note("        has surpassed that of the H/W design effort'");
  bench::rule();
  const auto hw = econ::hw_complexity_trend();
  const auto sw = econ::sw_complexity_trend();
  std::printf("  %-6s %14s %14s %8s\n", "year", "HW complexity", "SW complexity",
              "SW/HW");
  for (int year = 1997; year <= 2010; ++year) {
    const double h = hw.value_at(year);
    const double s = sw.value_at(year);
    std::printf("  %-6d %14.2f %14.2f %8.2f\n", year, h, s, s / h);
  }
  bench::rule();
  const double cross = econ::crossover_year(hw, sw);
  std::printf("  crossover year: %.1f\n", cross);
  std::printf("  HW doubling time: %.2f years (Moore's law ~18 months)\n",
              hw.years_to_grow(2.0));
  bench::verdict(cross > 2001 && cross < 2005,
                 "SW effort overtakes HW effort around the paper's date (2003)");
  return bench::exit_code();
}
