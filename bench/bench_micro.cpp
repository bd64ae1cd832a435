// A3: google-benchmark micro suite for the simulation substrate — event
// queue, NoC transit, ISS retire rate, trie build/lookup, mapper cost
// evaluation, the annealing mapper. Keeps the simulator honest about its
// own performance.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "soc/apps/lpm.hpp"
#include "soc/apps/route_gen.hpp"
#include "soc/core/dse.hpp"
#include "soc/core/mapping.hpp"
#include "soc/core/scenario.hpp"
#include "soc/apps/graphs.hpp"
#include "soc/noc/traffic.hpp"
#include "soc/proc/assembler.hpp"
#include "soc/proc/cpu.hpp"
#include "soc/sim/event_queue.hpp"

namespace {

using namespace soc;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    std::uint64_t sum = 0;
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(static_cast<sim::Cycle>((i * 7919) % 5000),
                    [&sum, i] { sum += static_cast<std::uint64_t>(i); });
    }
    q.run_all();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_NocMeshTransit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    noc::Network net(noc::make_mesh(n), {}, q);
    for (int i = 0; i < 200; ++i) {
      net.inject(static_cast<noc::TerminalId>(i % n),
                 static_cast<noc::TerminalId>((i * 13 + 5) % n), 8);
    }
    q.run_all();
    benchmark::DoNotOptimize(net.delivered());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_NocMeshTransit)->Arg(16)->Arg(64);

void BM_IssRetireRate(benchmark::State& state) {
  static const proc::Program prog = proc::assemble(R"(
      addi r1, r0, 0
      addi r2, r0, 10000
    loop:
      addi r1, r1, 1
      mul  r3, r1, r1
      andi r3, r3, 0xFF
      bne  r1, r2, loop
      halt
  )");
  for (auto _ : state) {
    proc::Cpu cpu(prog, 4096);
    const auto r = cpu.run();
    benchmark::DoNotOptimize(r.instructions);
  }
  state.SetItemsProcessed(state.iterations() * 40002);
}
BENCHMARK(BM_IssRetireRate);

void BM_TrieBuild(benchmark::State& state) {
  const auto routes = apps::generate_routes(
      {.count = static_cast<std::size_t>(state.range(0)), .seed = 3});
  for (auto _ : state) {
    apps::MultibitTrie t(8);
    t.build(routes);
    benchmark::DoNotOptimize(t.size_words());
  }
}
BENCHMARK(BM_TrieBuild)->Arg(10'000)->Arg(100'000);

void BM_TrieLookup(benchmark::State& state) {
  const auto routes = apps::generate_routes({.count = 50'000, .seed = 3});
  apps::MultibitTrie t(8);
  t.build(routes);
  const auto trace = apps::generate_lookup_trace(routes, 4096, 0.9, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookup(trace[i++ & 4095]).next_hop);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieLookup);

void BM_MappingEvaluate(benchmark::State& state) {
  const auto graph = apps::mjpeg_task_graph();
  core::PlatformDesc platform(
      std::vector<core::PeDesc>(8, core::PeDesc{tech::Fabric::kAsip, 4, {}, 0.0}),
      noc::TopologyKind::kMesh2D, tech::node_90nm());
  const core::Mapping m{0, 1, 2, 3, 4, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::evaluate_mapping(graph, platform, m).objective);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MappingEvaluate);

/// One annealer input shaped like dsebench new_app's: a generated graph,
/// replicated per candidate as the sweep does, on one ladder platform.
struct AnnealJob {
  core::TaskGraph work;
  const core::PlatformDesc* platform;
  std::uint64_t seed;
};

/// ScenarioGenerator(seed).matrix(4, 1) for seeds 1-8 on the 18-candidate
/// ladder at 90 nm: 576 mappings. Built once, outside every timed loop.
const std::vector<AnnealJob>& anneal_ladder_jobs() {
  static const std::vector<core::PlatformDesc> platforms = [] {
    core::DseSpace ladder;
    ladder.pe_counts = {4, 8, 16};
    ladder.thread_counts = {2, 4};
    ladder.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D,
                         noc::TopologyKind::kCrossbar};
    ladder.fabrics = {tech::Fabric::kAsip};
    std::vector<core::PlatformDesc> out;
    for (const auto& c : core::enumerate_candidates(ladder)) {
      out.push_back(core::make_candidate_platform(c));
    }
    return out;
  }();
  static const std::vector<AnnealJob> jobs = [] {
    std::vector<AnnealJob> out;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      for (const auto& g : core::ScenarioGenerator(seed).matrix(4, 1)) {
        for (const auto& p : platforms) {
          const int replicas = std::max(1, p.pe_count() / g.node_count());
          out.push_back({g.replicated(replicas), &p, out.size()});
        }
      }
    }
    return out;
  }();
  return jobs;
}

/// The annealing mapper over the whole ladder at Arg iterations per
/// mapping. Arg(1) is the greedy start plus the objective's set-up (what
/// new_app's memo priming pays per mapping); Arg(1000) is new_app's loop.
/// `s_per_mapping` is the time per mapping.
void BM_AnnealLadder(benchmark::State& state) {
  const auto& jobs = anneal_ladder_jobs();
  core::AnnealConfig cfg;
  cfg.iterations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (const auto& job : jobs) {
      sim::Rng rng(job.seed);
      benchmark::DoNotOptimize(
          core::anneal_mapping(job.work, *job.platform, {}, cfg, rng));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));
  state.counters["s_per_mapping"] = benchmark::Counter(
      static_cast<double>(jobs.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_AnnealLadder)->Arg(1)->Arg(1000);

void BM_NocLoadPoint(benchmark::State& state) {
  for (auto _ : state) {
    noc::TrafficConfig t;
    t.injection_rate = 0.1;
    const auto pt = noc::measure_load_point(noc::TopologyKind::kMesh2D, 16, {},
                                            t, noc::MeasureConfig{500, 4000});
    benchmark::DoNotOptimize(pt.avg_latency);
  }
}
BENCHMARK(BM_NocLoadPoint);

}  // namespace

BENCHMARK_MAIN();
