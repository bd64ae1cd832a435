// A1: the latency-hiding ablation — hardware-thread count vs remote-op
// latency, analytic model against the event-driven PE simulation
// (Section 6.2's multithreading argument in isolation).
#include <memory>

#include "bench_util.hpp"
#include "soc/noc/topologies.hpp"
#include "soc/platform/mt_pe.hpp"
#include "soc/proc/multithread.hpp"
#include "soc/tlm/endpoints.hpp"

using namespace soc;

namespace {

struct SimPoint {
  double utilization;
  double remote_latency;
};

/// One PE + one memory, task = compute C | read | compute C, saturating
/// backlog; link latency scales the remote RTT.
SimPoint simulate(int contexts, std::uint32_t link_latency, sim::Cycle compute) {
  sim::EventQueue queue;
  noc::NetworkConfig nc;
  nc.link_latency_cycles = link_latency;
  noc::Network net(noc::make_crossbar(4), nc, queue);
  tlm::Transport transport(net, queue);
  tlm::MemoryEndpoint mem(tlm::MemoryTiming{4, 2, 8}, 4096, queue);
  transport.attach(1, mem);
  platform::WorkQueue pool;
  platform::PeConfig pc;
  pc.terminal = 0;
  pc.thread_contexts = contexts;
  platform::MtPe pe("pe", pc, transport, pool, queue);
  pe.start();
  for (int i = 0; i < 4000; ++i) {
    platform::WorkItem item;
    item.created_at = 0;
    item.gen = [compute, step = 0](const std::vector<std::uint32_t>&) mutable
        -> platform::Step {
      switch (step++) {
        case 0: return platform::Step::compute(compute);
        case 1: return platform::Step::read(1, 0, 1);
        case 2: return platform::Step::compute(compute);
        default: return platform::Step::done();
      }
    };
    pool.push(std::move(item));
  }
  constexpr sim::Cycle kWindow = 60'000;
  queue.run_until(kWindow);
  return SimPoint{pe.utilization(kWindow), pe.remote_latency().mean()};
}

}  // namespace

int main() {
  bench::title("A1a", "PE utilization vs hardware threads and remote latency");
  bench::note("task shape: compute 30 | remote read | compute 30 (C=60/op)");
  bench::note("sim = event-driven MtPe; model = T*C/(C+L) capped at C/(C+s)");
  bench::rule();
  std::printf("  %-10s %-9s %10s %10s %10s\n", "latency", "threads", "sim util",
              "model", "error");
  bool model_tracks = true;
  for (const std::uint32_t link : {5u, 20u, 60u}) {
    for (const int threads : {1, 2, 4, 8, 16}) {
      const auto pt = simulate(threads, link, 30);
      proc::MtParams p;
      p.threads = threads;
      p.compute_cycles = 60.0;
      p.remote_latency = pt.remote_latency;
      p.switch_penalty = 1.0;
      const double model = proc::mt_utilization(p);
      const double err = pt.utilization - model;
      model_tracks &= std::abs(err) < 0.15;
      std::printf("  L=%-8.0f %-9d %10.3f %10.3f %+10.3f\n", pt.remote_latency,
                  threads, pt.utilization, model, err);
    }
    bench::rule();
  }
  bench::verdict(model_tracks,
                 "analytic multithreading model tracks the simulation");

  bench::title("A1b", "Threads needed to hide a given latency");
  bench::rule();
  std::printf("  %-12s %10s %10s %10s\n", "latency cyc", "C=25", "C=50",
              "C=100");
  for (const double lat : {25.0, 50.0, 100.0, 200.0, 400.0}) {
    std::printf("  %-12.0f %10d %10d %10d\n", lat,
                proc::threads_to_hide_latency(25, lat),
                proc::threads_to_hide_latency(50, lat),
                proc::threads_to_hide_latency(100, lat));
  }
  bench::note("paper: >100-cycle NoC latencies are hidden with the thread");
  bench::note("counts StepNP-class NPUs provision (4-16 contexts)");

  bench::title("A1c", "Area cost of multithreading vs utilization gained");
  bench::rule();
  std::printf("  %-9s %12s %14s %14s\n", "threads", "area (rel)", "util(L=150)",
              "util/area");
  for (const int t : {1, 2, 4, 8, 16}) {
    proc::MtParams p;
    p.threads = t;
    p.compute_cycles = 60.0;
    p.remote_latency = 150.0;
    const double u = proc::mt_utilization(p);
    const double a = proc::mt_area_overhead(t);
    std::printf("  %-9d %12.2f %14.3f %14.3f\n", t, a, u, u / a);
  }
  bench::note("the sweet spot sits where the paper's platforms sit: enough");
  bench::note("contexts to saturate, before register-bank area dominates");
  return bench::exit_code();
}
