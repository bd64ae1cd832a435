// C1/C2: mask-set and design-NRE break-even volumes across the roadmap,
// and the platform-amortization argument of Section 1.
#include <cinttypes>

#include "bench_util.hpp"
#include "soc/econ/amortization.hpp"
#include "soc/econ/nre_model.hpp"

using namespace soc;

int main() {
  bench::title("C1", "Mask-set NRE and break-even volume vs process node");
  bench::note("paper: mask NRE x10 in ~3 generations, >$1M at 90nm;");
  bench::note("       $5 ASP at 20% margin => >1M units to pay the mask set");
  bench::rule();
  std::printf("  %-8s %6s %12s %16s\n", "node", "year", "mask NRE $", "units to break even");
  const econ::ChipProduct product{};  // $5, 20%
  for (const auto& n : tech::roadmap()) {
    const double mask = econ::NreModel::mask_set_usd(n);
    std::printf("  %-8s %6d %12.3e %16.2e\n", n.name.c_str(), n.year, mask,
                econ::NreModel::break_even_units(mask, product));
  }
  bench::rule();
  const auto n250 = *tech::find_node(std::string("250nm"));
  const double growth3 = econ::NreModel::mask_cost_growth(n250, 3);
  std::printf("  mask-cost growth over 3 generations (250->90nm): %.1fx\n", growth3);
  const double units90 = econ::NreModel::break_even_units(
      econ::NreModel::mask_set_usd(tech::node_90nm()), product);
  bench::verdict(growth3 >= 8 && growth3 <= 12 && units90 > 1e6,
                 "x10/3-generations and >1M-unit mask break-even at 90nm");

  bench::title("C2", "Design NRE break-even volumes");
  bench::note("paper: design NRE $10M-$100M at 0.13um => 10-100M units");
  bench::rule();
  std::printf("  %-8s %14s %14s %12s %12s\n", "node", "design lo $", "design hi $",
              "units lo", "units hi");
  for (const auto& n : tech::roadmap()) {
    const auto d = econ::NreModel::design_nre(n);
    std::printf("  %-8s %14.3e %14.3e %12.2e %12.2e\n", n.name.c_str(), d.low_usd,
                d.high_usd, econ::NreModel::break_even_units(d.low_usd, product),
                econ::NreModel::break_even_units(d.high_usd, product));
  }
  const auto d130 = econ::NreModel::design_nre(*tech::find_node(std::string("130nm")));
  bench::verdict(d130.low_usd == 10e6 && d130.high_usd == 100e6,
                 "$10M-$100M design NRE at 130nm => 10-100M break-even units");

  bench::title("C2b", "Platform amortization vs per-product ASICs");
  bench::note("paper: 'a SoC design platform needs to be amortized over many");
  bench::note("        variants and generations of a product family'");
  bench::rule();
  // Platform: $40M once; each derivative $4M (S/W + config). ASIC: $25M each.
  const double platform_nre = 40e6;
  const double derivative = 4e6;
  const double asic = 25e6;
  const double mask = econ::NreModel::mask_set_usd(tech::node_90nm());
  std::printf("  %-10s %16s %16s\n", "variants", "platform NRE $", "ASIC NRE $");
  for (int n = 1; n <= 8; n *= 2) {
    econ::PlatformAmortization pa(platform_nre, mask);
    for (int i = 0; i < n; ++i) pa.add_variant({1e6, derivative, false});
    std::printf("  %-10d %16.3e %16.3e\n", n, pa.platform_total_nre(),
                pa.asic_total_nre(asic));
  }
  const int be = econ::PlatformAmortization::break_even_variants(
      platform_nre, mask, derivative, asic);
  std::printf("  platform strategy wins from %d variants on\n", be);
  bench::verdict(be >= 2 && be <= 3, "platform amortization wins within a small product family");
  return bench::exit_code();
}
