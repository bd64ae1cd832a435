// C8: NPSE-style SRAM multibit-trie LPM vs TCAM — memory, area, power per
// lookup across table sizes, plus the stride ablation.
#include "bench_util.hpp"
#include "soc/apps/lpm.hpp"
#include "soc/apps/route_gen.hpp"

using namespace soc;

int main() {
  const auto& node = tech::node_90nm();

  bench::title("C8a", "SRAM trie vs TCAM across routing-table sizes (90nm)");
  bench::note("paper [9]: 'an SRAM-based approach that is more memory and");
  bench::note("power-efficient' than CAM-based lookup");
  bench::rule();
  std::printf("  %-9s %11s %11s %12s %12s %9s %9s\n", "routes", "trie kbit",
              "tcam kbit", "trie pJ/lkp", "tcam pJ/lkp", "trie cyc",
              "tcam cyc");
  bool power_wins_all = true;
  for (const std::size_t n : {10'000ul, 50'000ul, 100'000ul, 200'000ul}) {
    const auto routes = apps::generate_routes({.count = n, .seed = 21});
    apps::MultibitTrie trie(8);
    trie.build(routes);
    const auto c = apps::compare_lpm_cost(trie, routes.size(), node);
    power_wins_all &=
        c.trie_energy_pj_per_lookup < c.tcam_energy_pj_per_lookup;
    std::printf("  %-9zu %11.0f %11.0f %12.2f %12.1f %9d %9d\n", n,
                c.trie_sram_kbits, c.tcam_kbits, c.trie_energy_pj_per_lookup,
                c.tcam_energy_pj_per_lookup, c.trie_lookup_cycles,
                c.tcam_lookup_cycles);
  }
  bench::verdict(power_wins_all,
                 "SRAM trie beats TCAM on lookup energy at every table size");

  bench::title("C8b", "Stride ablation (100k routes): size vs depth");
  bench::rule();
  std::printf("  %-8s %8s %12s %12s %12s\n", "stride", "levels", "table kbit",
              "avg reads", "worst reads");
  const auto routes = apps::generate_routes({.count = 100'000, .seed = 22});
  const auto trace = apps::generate_lookup_trace(routes, 20'000, 0.9, 23);
  // Stride 16 at this table size allocates 64k-entry nodes per distinct
  // /16 — hundreds of MB; the table column already shows the exponential
  // blow-up by stride 12.
  for (const int stride : {2, 4, 6, 8, 12}) {
    apps::MultibitTrie trie(stride);
    trie.build(routes);
    double reads = 0;
    int worst = 0;
    for (const auto ip : trace) {
      const auto r = trie.lookup(ip);
      reads += r.memory_accesses;
      worst = std::max(worst, r.memory_accesses);
    }
    std::printf("  %-8d %8d %12.0f %12.2f %12d\n", stride, trie.levels(),
                static_cast<double>(trie.size_words()) * 32.0 / 1000.0,
                reads / static_cast<double>(trace.size()), worst);
  }
  bench::note("larger strides buy fewer memory reads with exponential table");
  bench::note("growth: the classic SRAM-LPM engineering knob");
  return bench::exit_code();
}
