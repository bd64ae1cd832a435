// C6/F2: the paper's Section 7.2 experiment — a DSOC IPv4 fast path on a
// multithreaded FPPA: near-100% PE utilization despite >100-cycle NoC
// latency, at 10 Gb/s worst-case line rate. Reproduced as sweeps over
// processor count, thread count and NoC latency.
#include "bench_util.hpp"
#include "soc/apps/fastpath.hpp"
#include "soc/apps/ipv4.hpp"

using namespace soc;

namespace {

apps::FastpathConfig base_config() {
  apps::FastpathConfig cfg;
  cfg.fppa.topology = noc::TopologyKind::kMesh2D;
  cfg.fppa.mem_timing = tlm::MemoryTiming{4, 2, 8};
  cfg.fppa.mem_words = 1u << 22;
  cfg.num_routes = 4'000;
  cfg.ingress_ports = 6;
  cfg.table_replicas = 4;
  cfg.seed = 12;
  return cfg;
}

apps::FastpathResults run(apps::FastpathConfig cfg) {
  apps::FastpathApp app(std::move(cfg));
  return app.run(/*warmup=*/8'000, /*measure=*/50'000);
}

}  // namespace

int main() {
  const auto& node50 = tech::node_50nm();
  const apps::LineRate line{};  // 10 Gb/s, 64 B worst case
  const double budget = apps::cycles_per_packet_budget(line, node50);

  bench::title("C6a", "Line-rate arithmetic at the 50nm node");
  std::printf("  worst-case 10G packet rate: %.2f Mpps\n",
              line.packets_per_sec() / 1e6);
  std::printf("  ASIC clock at 50nm: %.2f GHz\n", node50.clock_ghz(20.0));
  std::printf("  platform-wide budget: %.0f cycles/packet\n", budget);

  bench::title("C6b", "Utilization & throughput vs hardware threads");
  bench::note("16 PEs, mesh, link latency 20 (remote RTT > 100 cycles),");
  bench::note("saturating offered load (0.5 pkt/cycle)");
  bench::rule();
  std::printf("  %-8s %10s %10s %12s %12s %10s\n", "threads", "util", "fwd/kcyc",
              "remote RTT", "Gbps@50nm", "verify");
  double util1 = 0, util16 = 0, fwd1 = 0, fwd16 = 0, rtt16 = 0;
  for (const int threads : {1, 2, 4, 8, 16}) {
    auto cfg = base_config();
    cfg.fppa.num_pes = 16;
    cfg.fppa.threads_per_pe = threads;
    cfg.fppa.net.link_latency_cycles = 20;
    cfg.packets_per_cycle = 0.5;
    const auto r = run(cfg);
    if (threads == 1) {
      util1 = r.platform.mean_pe_utilization;
      fwd1 = r.forwarded_per_kcycle;
    }
    if (threads == 16) {
      util16 = r.platform.mean_pe_utilization;
      fwd16 = r.forwarded_per_kcycle;
      rtt16 = r.platform.mean_remote_latency;
    }
    std::printf("  %-8d %10.3f %10.1f %12.1f %12.2f %9s\n", threads,
                r.platform.mean_pe_utilization, r.forwarded_per_kcycle,
                r.platform.mean_remote_latency, r.gbps_at(node50),
                r.verify_failures == 0 ? "ok" : "FAIL");
  }
  bench::rule();
  bench::verdict(rtt16 > 100.0 && util16 > 0.8 && util16 > 2.5 * util1 &&
                     fwd16 > 3.0 * fwd1,
                 "HW multithreading sustains near-full utilization under "
                 ">100-cycle NoC latency");

  bench::title("C6c", "Processors needed to hold the 10G line (130nm clock)");
  bench::note("StepNP-era platform: 130nm ASIC clock ~1.06 GHz, realistic");
  bench::note("fast path ~500 compute cycles/packet + 3 dependent table reads.");
  bench::note("10G worst case = 14.88 Mpps -> offered 0.0140 packets/cycle;");
  bench::note("40G row = 4x that. Paper: 'ten to hundreds of processors'.");
  bench::rule();
  // Copy, not reference: find_node returns the optional by value, so a
  // reference would dangle once the temporary dies at end of statement.
  const auto node130 = *tech::find_node(std::string("130nm"));
  const double clk130_hz = node130.clock_ghz(20.0) * 1e9;
  const double line10_ppc = line.packets_per_sec() / clk130_hz;
  std::printf("  line-rate budget at 130nm: %.1f cycles/packet\n",
              1.0 / line10_ppc);
  std::printf("  %-7s %-7s %10s %10s %10s %10s\n", "line", "PEs", "accepted",
              "util", "fwd Mpps", "verify");
  bool eight_holds = false;
  bool four_fails = false;
  const struct { const char* line_name; double mult; int pes; } cases[] = {
      {"10G", 1.0, 4},  {"10G", 1.0, 8},  {"10G", 1.0, 16},
      {"40G", 4.0, 16}, {"40G", 4.0, 32},
  };
  for (const auto& c : cases) {
    auto cfg = base_config();
    cfg.fppa.num_pes = c.pes;
    cfg.fppa.threads_per_pe = 8;
    cfg.fppa.net.link_latency_cycles = 4;
    cfg.parse_cycles = 300;
    cfg.rewrite_cycles = 200;
    cfg.packets_per_cycle = line10_ppc * c.mult;
    cfg.ingress_ports = 8;
    const auto r = run(cfg);
    const double mpps =
        r.forwarded_per_kcycle / 1000.0 * clk130_hz / 1e6;
    if (c.pes == 4 && c.mult == 1.0) four_fails = r.accepted_fraction < 0.99;
    if (c.pes == 8 && c.mult == 1.0) eight_holds = r.accepted_fraction > 0.99;
    std::printf("  %-7s %-7d %9.1f%% %10.3f %10.2f %10s\n", c.line_name, c.pes,
                100.0 * r.accepted_fraction, r.platform.mean_pe_utilization,
                mpps, r.verify_failures == 0 ? "ok" : "FAIL");
  }
  bench::rule();
  bench::verdict(four_fails && eight_holds,
                 "holding 10G worst-case at 130nm takes ~8 multithreaded PEs "
                 "(tens of PEs at 40G) — the paper's MP-SoC scale");

  bench::title("A4", "Lookup ablation: software trie walk vs NPSE engine");
  bench::note("8 PEs x 4 threads, same load; the engine collapses ~3 dependent");
  bench::note("NoC round trips into one pipelined request (Section 8, [9])");
  bench::rule();
  std::printf("  %-10s %10s %10s %12s %12s\n", "mode", "util", "fwd/kcyc",
              "pkt lat", "reads/pkt");
  double lat_sw = 0, lat_hw = 0, fwd_sw = 0, fwd_hw = 0;
  for (const auto mode :
       {apps::LookupMode::kSoftwareWalk, apps::LookupMode::kHardwareEngine}) {
    auto cfg = base_config();
    cfg.fppa.num_pes = 8;
    cfg.fppa.threads_per_pe = 4;
    cfg.packets_per_cycle = 0.25;
    cfg.lookup_mode = mode;
    const auto r = run(cfg);
    const bool hw = mode == apps::LookupMode::kHardwareEngine;
    if (hw) {
      lat_hw = r.platform.mean_task_latency;
      fwd_hw = r.forwarded_per_kcycle;
    } else {
      lat_sw = r.platform.mean_task_latency;
      fwd_sw = r.forwarded_per_kcycle;
    }
    std::printf("  %-10s %10.3f %10.1f %12.1f %12.2f\n",
                hw ? "npse-hw" : "sw-walk", r.platform.mean_pe_utilization,
                r.forwarded_per_kcycle, r.platform.mean_task_latency,
                r.mean_trie_reads);
  }
  bench::rule();
  bench::verdict(lat_hw < lat_sw && fwd_hw >= fwd_sw * 0.95,
                 "hardware search engine cuts packet latency vs software walk");

  bench::title("A5", "Dispatch ablation: shared pool queue vs partitioned");
  bench::note("same platform and load; partitioned queues suffer head-of-line");
  bench::note("blocking when per-packet service times vary (trie depth, NoC)");
  bench::rule();
  std::printf("  %-13s %10s %10s %12s %12s\n", "dispatch", "util", "fwd/kcyc",
              "mean lat", "p99 lat");
  double p99_shared = 0, p99_part = 0;
  for (const auto mode :
       {platform::PoolMode::kSharedQueue, platform::PoolMode::kPartitionedQueues}) {
    auto cfg = base_config();
    cfg.fppa.num_pes = 8;
    cfg.fppa.threads_per_pe = 4;
    cfg.packets_per_cycle = 0.16;
    cfg.fppa.pool_mode = mode;
    const auto r = run(cfg);
    const bool shared = mode == platform::PoolMode::kSharedQueue;
    (shared ? p99_shared : p99_part) = r.platform.p99_task_latency;
    std::printf("  %-13s %10.3f %10.1f %12.1f %12.1f\n",
                shared ? "shared" : "partitioned",
                r.platform.mean_pe_utilization, r.forwarded_per_kcycle,
                r.platform.mean_task_latency, r.platform.p99_task_latency);
  }
  bench::rule();
  bench::verdict(p99_shared <= p99_part,
                 "a shared server-pool queue bounds tail latency vs "
                 "partitioned dispatch");

  bench::title("C6d", "Below saturation: packet latency and acceptance");
  bench::rule();
  std::printf("  %-10s %10s %12s %12s\n", "load p/c", "accepted", "mean lat",
              "p99 lat");
  for (const double load : {0.05, 0.1, 0.2}) {
    auto cfg = base_config();
    cfg.fppa.num_pes = 16;
    cfg.fppa.threads_per_pe = 8;
    cfg.packets_per_cycle = load;
    const auto r = run(cfg);
    std::printf("  %-10.2f %9.1f%% %12.1f %12.1f\n", load,
                100.0 * r.accepted_fraction, r.platform.mean_task_latency,
                r.platform.p99_task_latency);
  }
  return bench::exit_code();
}
