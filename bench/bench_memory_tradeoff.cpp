// Section 3's second "main design issue": embedded memory architecture
// tradeoffs — eSRAM vs eDRAM vs eFlash vs external DRAM, plus the
// latency-hiding trio (cache + prefetch + the memory wall).
#include <vector>

#include "bench_util.hpp"
#include "soc/mem/mem_tech.hpp"
#include "soc/mem/prefetch.hpp"
#include "soc/sim/rng.hpp"

using namespace soc;

int main() {
  bench::title("M1", "Embedded memory technologies, 8 Mbit macro per node");
  bench::rule();
  std::printf("  %-8s %-9s %10s %9s %9s %12s %12s\n", "node", "kind",
              "area mm2", "rd cyc", "wr cyc", "rd pJ/word", "static mW");
  for (const auto& node : {*tech::find_node(std::string("130nm")),
                           tech::node_90nm(), tech::node_50nm()}) {
    const auto cmp = mem::compare_memories(8u << 20, node);
    for (const auto* m : {&cmp.sram, &cmp.edram, &cmp.eflash, &cmp.external}) {
      std::printf("  %-8s %-9s %10.2f %9u %9u %12.2f %12.3f\n",
                  node.name.c_str(), std::string(mem::to_string(m->kind)).c_str(),
                  m->area_mm2, m->read_cycles, m->write_cycles,
                  m->read_energy_pj_per_word, m->static_power_mw);
    }
    bench::rule();
  }

  bench::title("M2", "The memory wall in cycles (external DRAM @55ns)");
  bench::rule();
  std::printf("  %-8s %10s %14s\n", "node", "clk GHz", "ext-DRAM cycles");
  for (const auto& n : tech::roadmap()) {
    const auto ext = mem::memory_macro(mem::MemoryKind::kExternalDram,
                                       1u << 20, n);
    std::printf("  %-8s %10.2f %14u\n", n.name.c_str(), n.clock_ghz(20.0),
                ext.read_cycles);
  }
  bench::note("fixed wall-clock DRAM turns into 100+ cycles at the 50nm node:");
  bench::note("the latency the paper's multithreading/prefetch/split-transaction");
  bench::note("trio exists to hide (Section 6.2)");

  bench::title("M3", "Stride prefetching on streaming vs random traffic");
  bench::rule();
  std::vector<std::uint64_t> stream;
  for (std::uint64_t a = 0; a < 512 * 1024; a += 8) stream.push_back(a);
  sim::Rng rng(3);
  std::vector<std::uint64_t> random;
  for (int i = 0; i < 60'000; ++i) {
    random.push_back(rng.next_below(1u << 22) & ~7ULL);
  }
  const mem::CacheConfig cache{16 * 1024, 32, 4};
  const mem::StridePrefetcher::Config pf{16, 4, 2};
  const auto rs = mem::run_prefetch_experiment(stream, cache, pf);
  const auto rr = mem::run_prefetch_experiment(random, cache, pf);
  std::printf("  %-10s %14s %14s %12s\n", "traffic", "base hit", "prefetch hit",
              "issued");
  std::printf("  %-10s %13.1f%% %13.1f%% %12llu\n", "stream",
              100 * rs.baseline_hit_rate, 100 * rs.prefetch_hit_rate,
              static_cast<unsigned long long>(rs.prefetches_issued));
  std::printf("  %-10s %13.1f%% %13.1f%% %12llu\n", "random",
              100 * rr.baseline_hit_rate, 100 * rr.prefetch_hit_rate,
              static_cast<unsigned long long>(rr.prefetches_issued));
  bench::verdict(rs.prefetch_hit_rate > rs.baseline_hit_rate + 0.15,
                 "prefetching recovers streaming misses (one of the paper's "
                 "three latency-hiding mechanisms)");
  return bench::exit_code();
}
