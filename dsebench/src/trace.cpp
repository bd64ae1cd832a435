// The traced run: per-layer numbers measured from outside the program.
//
// Nothing inside the library is instrumented; the benchmark only calls
// public functions and times those calls.
//
//  1. Service-path peel. Each peel sweep (a fresh index of the same seeded
//     stream) first runs once unmeasured to warm the memo, then three more
//     times on identical work, in rotating order: in a local DseSession at
//     the service's pool width, through the service on LoopbackTransport,
//     and through the service on SocketTransport. Loopback minus local is
//     charged to svc, socket minus loopback to tlm.
//  2. Client timestamps. A traced socket window records submit(), every
//     streamed point and wait(); its sweep_ms_p50 minus the untraced one is
//     the tracing overhead.
//  3. Call-by-call replay. For each flat index the children (the public
//     calls ShardEvaluator::evaluate makes on that point's path: key build
//     and lookup on a memo hit; bare make_topology, estimate_cost,
//     make_topology + apply_physical, the PlatformDesc constructor,
//     Mapper::map and evaluate_mapping on a miss) run first, then the real
//     ShardEvaluator::evaluate as their parent span; stage 2 likewise under
//     ShardEvaluator::validate. Replayed points must equal the parent's and
//     the streamed ones bit for bit, and the children must sum to within a
//     tenth of their parents, or the breakdown no longer measures the
//     program.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string_view>
#include <thread>

#include "harness.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/mapper.hpp"
#include "soc/core/mapping_validator.hpp"
#include "soc/noc/floorplan.hpp"
#include "soc/noc/topologies.hpp"
#include "soc/platform/cost.hpp"
#include "soc/platform/fppa.hpp"
#include "soc/sim/parallel.hpp"

namespace dsebench {

namespace {

/// Replay spans kept in memory at most; the replay window stops early
/// beyond this (rerank makes ~14k spans per sweep).
constexpr std::size_t kMaxSpans = 200'000;
/// Children may sum to within this share of their parent spans.
constexpr double kMaxDrift = 0.10;

std::int64_t ns_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t sweep = 0;   ///< stream index of the sweep
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double timer_ns = 0.0;  ///< the clock reads' own cost inside the span
  /// Duration of the traced calls, the timer's own cost removed.
  double ns() const { return static_cast<double>(end_ns - start_ns) - timer_ns; }
};

/// In-memory span store, written out when the benchmark ends.
class Tracer {
 public:
  /// Reserves room up front (a reallocation inside a timed call would be
  /// charged to it) and measures the cost of one empty Lap.
  Tracer();
  void set_sweep(std::uint64_t k) { sweep_ = k; }
  std::uint32_t reserve() { return ++next_id_; }
  void record(std::uint32_t id, std::uint32_t parent, const char* name,
              std::int64_t t0, std::int64_t t1, double timer_ns = 0.0) {
    spans_.push_back({id, parent, sweep_, name, t0, t1, timer_ns});
  }
  /// Cost of one empty Lap call: a clock read and a record. A memo hit
  /// takes a few us, so five of these would otherwise skew the breakdown.
  double lap_ns() const { return lap_ns_; }
  /// Runs f() as span `name` under `parent` (with a pre-reserved `id` when
  /// its children were recorded first) and returns f's result.
  template <typename F>
  auto span(std::uint32_t parent, const char* name, F&& f, std::uint32_t id = 0) {
    const std::int64_t t0 = ns_now();
    auto r = f();
    record(id ? id : reserve(), parent, name, t0, ns_now());
    return r;
  }
  const std::vector<Span>& spans() const { return spans_; }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "sweep\tid\tparent\tname\tstart_ns\tend_ns\ttimer_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%llu\t%u\t%u\t%s\t%lld\t%lld\t%.1f\n",
                   static_cast<unsigned long long>(s.sweep), s.id, s.parent,
                   s.name, static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.timer_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 0;
  std::uint64_t sweep_ = 0;
  double lap_ns_ = 0.0;
};

/// Times consecutive calls as sibling spans under `parent` that share
/// their boundaries: one clock read per call instead of two (a read costs
/// tens of ns, a memo hit a few us).
class Lap {
 public:
  Lap(Tracer& tr, std::uint32_t parent, std::int64_t start)
      : tr_(tr), parent_(parent), start_(start), last_(start) {}
  template <typename F>
  auto operator()(const char* name, F&& f) {
    auto r = f();
    const std::int64_t t = ns_now();
    tr_.record(tr_.reserve(), parent_, name, last_, t, tr_.lap_ns());
    last_ = t;
    ++laps_;
    return r;
  }
  std::int64_t start() const { return start_; }
  std::int64_t last() const { return last_; }
  /// Timer cost inside [start(), last()].
  double timer_ns() const { return static_cast<double>(laps_) * tr_.lap_ns(); }

 private:
  Tracer& tr_;
  std::uint32_t parent_;
  std::int64_t start_;
  std::int64_t last_;
  int laps_ = 0;
};

Tracer::Tracer() {
  spans_.reserve(kMaxSpans + kMaxSpans / 2);
  constexpr int kLaps = 20'000;
  Lap lap(*this, 0, ns_now());
  for (int i = 0; i < kLaps; ++i) lap("calibration", [] { return 0; });
  lap_ns_ = static_cast<double>(lap.last() - lap.start()) / kLaps;
  spans_.clear();
  next_id_ = 0;
}

bool same_point(const core::DsePoint& a, const core::DsePoint& b) {
  return core::marshal_point(a) == core::marshal_point(b);
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Totals of the replay. Spans are wall-clock; the replay thread's CPU and
/// wall time over the sections that record them give the share of wall
/// time it actually ran, which converts span times into the CPU time the
/// breakdown compares with sweep CPU when the host steals cycles.
struct ReplayCounts {
  double sim_cycles = 0.0;
  double packets = 0.0;
  double cpu_ns = 0.0;
  double wall_ns = 0.0;
};

/// Adds the replay thread's CPU and wall time over its scope to `counts`.
class Section {
 public:
  explicit Section(ReplayCounts& counts)
      : counts_(counts), cpu0_(thread_cpu_ns()), wall0_(ns_now()) {}
  ~Section() {
    counts_.cpu_ns += static_cast<double>(thread_cpu_ns() - cpu0_);
    counts_.wall_ns += static_cast<double>(ns_now() - wall0_);
  }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;

 private:
  ReplayCounts& counts_;
  std::int64_t cpu0_;
  std::int64_t wall0_;
};

/// Replays ShardEvaluator::evaluate(flat) through the public calls on the
/// point's path, as children of span `parent`, and reassembles the point.
core::DsePoint replay_stage1(Tracer& tr, std::uint32_t parent,
                             const core::SweepRequest& req,
                             const core::ShardEvaluator& shard,
                             const core::Mapper& mapper,
                             const std::vector<std::string>& platform_keys,
                             const std::vector<std::string>& graph_keys,
                             std::size_t flat) {
  const std::size_t ncand = shard.candidates().size();
  const std::size_t s = flat / ncand;
  const std::size_t c = flat % ncand;
  const core::TaskGraph& graph = req.scenarios[s];
  const core::DseCandidate& cand = shard.candidates()[c];
  const core::DseConfig& cfg = req.config;
  core::EvalCache& cache = core::EvalCache::global();

  // The EvalContext constructor's path, under a core.context span.
  const std::uint32_t ctx_id = tr.reserve();
  Lap ctx(tr, ctx_id, ns_now());
  const int replicas = std::max(1, cand.num_pes / graph.node_count());
  const core::TaskGraph work = ctx("core.work_graph", [&] {
    return replicas > 1 ? graph.replicated(replicas) : core::TaskGraph(graph);
  });
  auto hit = ctx("core.eval_cache.lookup", [&] {
    return cache.find_platform(core::EvalCache::platform_key(cand, cfg));
  });
  platform::PlatformCost silicon;
  std::shared_ptr<const core::PlatformDesc> desc;
  if (hit) {
    silicon = hit->silicon;
    desc = std::move(hit->platform);
  } else {
    platform::FppaConfig fc;
    fc.num_pes = cand.num_pes;
    fc.threads_per_pe = cand.threads_per_pe;
    fc.topology = cand.topology;
    const auto cost_topo = ctx("noc.build", [&] {
      return noc::make_topology(cand.topology, fc.terminal_count());
    });
    silicon = ctx("platform.estimate_cost", [&] {
      return platform::estimate_cost(
          fc, cand.node,
          platform::PhysicalCostConfig{cfg.die_mm2, cfg.link_timing}, *cost_topo);
    });
    std::optional<noc::PhysicalSpec> phys;
    if (cfg.physical_links) {
      phys = noc::PhysicalSpec{noc::LinkTimingModel(cand.node, cfg.link_timing),
                               silicon.die_mm2};
    }
    const auto topo = ctx("noc.build", [&] {
      return noc::make_topology(cand.topology, cand.num_pes);
    });
    if (phys) {
      ctx("noc.floorplan", [&] {
        topo->apply_physical(phys->timing, phys->die_mm2);
        return 0;
      });
    }
    desc = ctx("core.platform_desc", [&] {
      std::vector<core::PeDesc> pes(
          static_cast<std::size_t>(cand.num_pes),
          core::PeDesc{cand.pe_fabric, cand.threads_per_pe, {}, cfg.pe_capacity});
      if (cfg.pe_kind_groups > 0) {
        for (int i = 0; i < cand.num_pes; ++i) {
          pes[static_cast<std::size_t>(i)].compatible_kinds = {i % cfg.pe_kind_groups};
        }
      }
      return std::make_shared<const core::PlatformDesc>(
          std::move(pes), cand.topology, cand.node, phys, *topo);
    });
  }
  tr.record(ctx_id, parent, "core.context", ctx.start(), ctx.last(), ctx.timer_ns());

  Lap lap(tr, parent, ctx.last());
  const std::uint64_t seed = sim::derive_seed(req.anneal.seed, flat);
  auto memo = lap("core.eval_cache.lookup", [&] {
    return cache.find_mapping(core::EvalCache::mapping_key(
        platform_keys[c], graph_keys[s], mapper.name(), req.problem.weights,
        cfg.constraints, req.anneal, mapper.deterministic(), seed));
  });
  core::Mapping mapping;
  core::MappingCost cost;
  if (memo) {
    mapping = std::move(memo->mapping);
    cost = std::move(memo->cost);
  } else {
    sim::Rng rng(seed);
    mapping = lap("core.mapper", [&] {
      return mapper.map(work, *desc, req.problem.weights, rng, cfg.constraints);
    });
    cost = lap("core.evaluate_mapping", [&] {
      return core::evaluate_mapping(work, *desc, mapping, req.problem.weights,
                                    cfg.constraints);
    });
  }
  return lap("core.point_assembly", [&] {
    core::DsePoint pt;
    pt.candidate = cand;
    pt.mapping_cost = std::move(cost);
    pt.silicon = silicon;
    pt.mapping = std::move(mapping);
    pt.mapper = std::string(mapper.name());
    const double cycles = pt.mapping_cost.bottleneck_cycles;
    pt.throughput_per_kcycle = cycles > 0.0 ? 1000.0 * replicas / cycles : 0.0;
    const double power = silicon.peak_dynamic_mw + silicon.leakage_mw;
    pt.mw_per_throughput =
        pt.throughput_per_kcycle > 0.0 ? power / pt.throughput_per_kcycle : 0.0;
    pt.scenario = static_cast<int>(s);
    pt.scenario_name = graph.name();
    return pt;
  });
}

/// Replays ShardEvaluator::validate for grid point `i` as children of span
/// `parent`: the EvalContext constructor and MappingValidator::run.
core::DsePoint replay_stage2(Tracer& tr, std::uint32_t parent,
                             const core::SweepRequest& req,
                             const core::ShardEvaluator& shard, std::size_t i,
                             core::DsePoint pt, ReplayCounts& counts) {
  const std::size_t ncand = shard.candidates().size();
  Lap lap(tr, parent, ns_now());
  core::EvalContext ctx = lap("core.context", [&] {
    return core::EvalContext(req.scenarios[i / ncand], shard.candidates()[i % ncand],
                             req.config, &core::EvalCache::global());
  });
  const core::ValidationReport rep = lap("noc.replay", [&] {
    core::MappingValidator v(ctx.work(), ctx.platform(), pt.mapping,
                             req.config.validation, ctx.take_topology());
    return v.run();
  });
  counts.sim_cycles += static_cast<double>(req.config.validation.warmup_cycles +
                                           req.config.validation.measure_cycles);
  for (const core::EdgeFlowReport& e : rep.edges) {
    counts.packets += static_cast<double>(e.packets_delivered);
  }
  pt.validated = true;
  pt.sim_throughput_per_kcycle = rep.simulated_items_per_kcycle * ctx.replicas();
  pt.sim_to_analytic_ratio = rep.sim_to_analytic_ratio;
  pt.sim_peak_link_utilization = rep.peak_link_utilization;
  pt.sim_avg_packet_latency = rep.avg_packet_latency;
  pt.sim_network_saturated = rep.network_saturated;
  return pt;
}

/// Replays one sweep: stage 1 call by call, the streamed run for
/// comparison, front marking, stage 2, and the codecs on the streamed
/// points. Returns an empty string, or what differed.
std::string replay_sweep(Tracer& tr, const core::SweepRequest& req,
                         svc::DseClient& client, ReplayCounts& counts) {
  std::optional<Section> section(counts);
  tr.span(0, "core.wire.request", [&] {
    return core::unmarshal_sweep_request(core::marshal_sweep_request(req))
        .scenarios.size();
  });
  const auto shard = tr.span(0, "core.shard_setup", [&] {
    return std::make_unique<core::ShardEvaluator>(
        req.problem, req.scenarios, req.space, req.anneal, req.config);
  });
  const auto mapper = core::make_mapper(req.config.mapper, req.anneal);
  std::vector<std::string> platform_keys;
  std::vector<std::string> graph_keys;
  for (const core::DseCandidate& c : shard->candidates()) {
    platform_keys.push_back(core::EvalCache::platform_key(c, req.config));
  }
  for (const core::TaskGraph& g : req.scenarios) {
    graph_keys.push_back(core::EvalCache::graph_key(g));
  }

  // Stage 1. The children run first, so the real call meets the memo
  // exactly as the sweep would have. Whichever runs second finds the
  // caches warm, so where the memo cannot change (the previous point was
  // all hits) every other point runs the real call first.
  core::EvalCache& cache = core::EvalCache::global();
  std::vector<core::DsePoint> points;
  bool all_hits = false;  // the previous real call stored nothing
  for (std::size_t f = 0; f < shard->grid_point_count(); ++f) {
    const std::uint32_t id = tr.reserve();
    const bool real_first = all_hits && f % 2 == 1;
    core::FlatPointEval real;
    const auto run_real = [&] {
      const core::EvalCacheStats before = cache.stats();
      real = tr.span(0, "core.shard_eval", [&] { return shard->evaluate(f); }, id);
      const core::EvalCacheStats d = cache.stats().delta_since(before);
      all_hits = d.platform_misses == 0 && d.mapping_misses == 0;
    };
    if (real_first) run_real();
    const core::DsePoint replayed = replay_stage1(
        tr, id, req, *shard, *mapper, platform_keys, graph_keys, f);
    if (real_first && !all_hits) {
      return "flat " + std::to_string(f) +
             " missed the memo after an all-hit point; its path was not replayed";
    }
    if (!real_first) run_real();
    if (!same_point(replayed, real.point)) {
      return "stage-1 replay of flat " + std::to_string(f) +
             " differs from ShardEvaluator::evaluate";
    }
    points.push_back(std::move(real.point));
  }

  section.reset();  // the streamed run blocks the replay thread
  const svc::SweepResult streamed = client.wait(client.submit(req));
  section.emplace(counts);

  const core::SweepFronts fronts = tr.span(0, "core.front", [&] {
    return shard->mark_fronts(points, {});
  });
  if (fronts.aggregate != streamed.front ||
      fronts.per_scenario != streamed.scenario_fronts) {
    return "replayed fronts differ from the streamed ones";
  }
  if (req.config.validate_pareto) {
    for (const std::size_t i : fronts.aggregate) {
      const std::uint32_t id = tr.reserve();
      const core::DsePoint replayed =
          replay_stage2(tr, id, req, *shard, i, points[i], counts);
      core::DsePoint real = tr.span(
          0, "core.validate", [&] { return shard->validate(i, points[i]); }, id);
      if (!same_point(replayed, real)) {
        return "stage-2 replay of point " + std::to_string(i) +
               " differs from ShardEvaluator::validate";
      }
      points[i] = std::move(real);
    }
  }
  if (points.size() != streamed.points.size()) {
    return "replayed sweep has a different point count";
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!same_point(points[i], streamed.points[i])) {
      return "replayed point " + std::to_string(i) + " differs from the streamed one";
    }
  }

  // The codecs every streamed point crosses, on the streamed points.
  dsoc::CallHeader hdr;
  hdr.method = svc::svc_method::kPoint;
  for (std::size_t i = 0; i < streamed.points.size(); ++i) {
    const core::DsePoint& p = streamed.points[i];
    dsoc::WireWriter w;  // the kPoint payload the service marshals
    w.u32(1);
    w.u32(svc::kStageEvaluated);
    w.u64(i);
    core::wire_put(w, p);
    w.u64(0);
    const std::vector<std::uint32_t> args = w.take();
    Lap lap(tr, 0, ns_now());
    const auto words = lap("core.wire.encode", [&] { return core::marshal_point(p); });
    lap("core.wire.decode", [&] { return core::unmarshal_point(words).scenario; });
    lap("dsoc.marshal", [&] {
      std::vector<std::uint32_t> out;
      return dsoc::unmarshal_call(dsoc::marshal_call(hdr, args), out).method;
    });
  }
  return "";
}

/// Per-name aggregate of the replay spans.
struct NameStats {
  std::size_t count = 0;
  double total_ns = 0.0;
  double mean_ns() const { return count ? total_ns / static_cast<double>(count) : 0.0; }
};

/// Layer a replay span's self time is charged to; null for the codec
/// spans, which sit inside the service-path peel.
const char* layer_of(std::string_view name, std::string_view parent) {
  if (name == "core.mapper" || name == "core.evaluate_mapping") return "mapper";
  if (name == "noc.build" || name == "noc.floorplan" ||
      name == "platform.estimate_cost" || name == "core.platform_desc") {
    return "platform_build";
  }
  if (name == "core.eval_cache.lookup") return "eval_cache";
  if (name == "core.front") return "front";
  if (name == "core.validate" || name == "noc.replay" ||
      (name == "core.context" && parent == "core.validate")) {
    return "stage2";
  }
  if (name == "core.shard_setup" || name == "core.shard_eval" ||
      name == "core.context" || name == "core.work_graph" ||
      name == "core.point_assembly") {
    return "stage1_other";
  }
  return nullptr;
}

constexpr const char* kLayers[] = {"mapper", "platform_build", "eval_cache",
                                   "stage1_other", "front", "stage2",
                                   "service_path", "other"};

/// Process CPU per sweep of a window, seconds.
double cpu_per_sweep(const LoopResult& r) {
  return r.sweeps.empty() ? 0.0 : r.cpu_s / static_cast<double>(r.sweeps.size());
}

/// Sweep times of a window, failed sweeps infinite.
std::vector<double> sweep_times(const LoopResult& r) {
  std::vector<double> v;
  for (const SweepRecord& s : r.sweeps) {
    v.push_back(s.failed ? std::numeric_limits<double>::infinity() : s.sweep_ms);
  }
  return v;
}

double validated_per_sweep(const LoopResult& r) {
  double v = 0.0;
  for (const SweepRecord& s : r.sweeps) v += static_cast<double>(s.validated);
  return r.sweeps.empty() ? 0.0 : v / static_cast<double>(r.sweeps.size());
}

double p50(const std::vector<double>& v) {
  const auto pc = percentile(v, 50);
  return pc ? pc->value : std::nan("");
}

}  // namespace

std::string run_traced(const RequestStream& rs, double seconds, E2eRun& base,
                       const std::string& trace_path, bool& ok) {
  ok = true;
  const double slice = seconds / 4.0;
  constexpr std::size_t kMinPeelSweeps = 2 * kMinBeyond;
  Harness& h = *base.harness;

  // 1. Peel on identical, memo-warm work (see the file comment), with the
  // workload's own client count: rerank's two clients run concurrently in
  // every way, each local session at its share of the pool width.
  const int clients = rs.clients();
  enum { kLocal, kLoopback, kSocket, kWays };
  std::vector<double> peel_ms[kWays];
  double peel_cpu_s[kWays] = {};
  std::size_t peeled = 0;
  {
    Harness lh(clients, Harness::Bus::kLoopback);
    const auto run_way = [&](int way, int c, const core::SweepRequest& req) {
      if (way == kLocal) return local_digest(req, kPoolThreads / clients, true);
      svc::DseClient& cl = way == kLoopback ? lh.client(c) : h.client(c);
      const svc::SweepResult r = cl.wait(cl.submit(req));
      return digest_result(r.points, r.grid_points, r.extra_parents, r.front,
                           r.scenario_fronts);
    };
    const auto run_group = [&](int way, const std::vector<core::SweepRequest>& reqs,
                               std::vector<Digest>& out, std::vector<double>& ms) {
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          const double t0 = now_ms();
          out[static_cast<std::size_t>(c)] = run_way(way, c, reqs[static_cast<std::size_t>(c)]);
          ms[static_cast<std::size_t>(c)] = now_ms() - t0;
        });
      }
      for (auto& t : threads) t.join();
    };
    const auto n = static_cast<std::size_t>(clients);
    const double end = now_ms() + 1000.0 * slice;
    while (peeled < kMinPeelSweeps || now_ms() < end) {
      std::vector<core::SweepRequest> reqs;
      for (int c = 0; c < clients; ++c) reqs.push_back(rs.sweep(base.next_k++));
      std::vector<Digest> want(n), got(n);
      std::vector<double> ms(n);
      run_group(kLocal, reqs, want, ms);  // warms the memo
      for (int j = 0; j < kWays; ++j) {
        const int way = static_cast<int>((peeled / n + static_cast<std::size_t>(j)) % kWays);
        const double cpu0 = cpu_seconds();
        run_group(way, reqs, got, ms);
        peel_cpu_s[way] += cpu_seconds() - cpu0;
        peel_ms[way].insert(peel_ms[way].end(), ms.begin(), ms.end());
        if (got != want) {
          std::printf("# REPLICA GUARD: a peel sweep differs between ways\n");
          ok = false;
        }
      }
      peeled += n;
    }
  }

  // 2. Client timestamps on a traced socket window (the workload's own
  // clients, fresh sweeps).
  const LoopResult traced =
      closed_loop(clients, base.next_k, slice, kMinPeelSweeps,
                  [&](int c, std::uint64_t k) {
                    return service_sweep(h.client(c), rs.sweep(k), k, true);
                  });

  // 3. Call-by-call replay.
  Tracer tr;
  for (const SweepRecord& r : traced.sweeps) {
    if (r.failed) continue;
    tr.set_sweep(r.k);
    const std::uint32_t id = tr.reserve();
    const auto ns = [](double ms) { return static_cast<std::int64_t>(ms * 1e6); };
    tr.record(id, 0, "svc.sweep", ns(r.t_submit), ns(r.t_done));
    tr.record(tr.reserve(), id, "svc.submit", ns(r.t_submit), ns(r.t_accepted));
    tr.record(tr.reserve(), id, "svc.stream", ns(r.t_first), ns(r.t_last));
    tr.record(tr.reserve(), id, "svc.finish", ns(r.t_last), ns(r.t_done));
  }
  const std::size_t client_spans = tr.spans().size();
  ReplayCounts counts;
  std::size_t replayed = 0;
  const double replay_end = now_ms() + 1000.0 * slice;
  while (ok && (replayed < 2 ||
                (now_ms() < replay_end && tr.spans().size() < kMaxSpans))) {
    const std::uint64_t k = base.next_k++;
    tr.set_sweep(k);
    const std::string why = replay_sweep(tr, rs.sweep(k), h.client(0), counts);
    ++replayed;
    if (!why.empty()) {
      std::printf("# REPLICA GUARD: sweep %llu: %s\n",
                  static_cast<unsigned long long>(k), why.c_str());
      ok = false;
    }
  }

  // Self time per span: its duration minus its children's.
  const std::vector<Span>& spans = tr.spans();
  std::map<std::uint32_t, std::size_t> index;
  for (std::size_t i = client_spans; i < spans.size(); ++i) index[spans[i].id] = i;
  const auto parent_of = [&](const Span& s) -> const Span* {
    const auto it = s.parent ? index.find(s.parent) : index.end();
    return it == index.end() ? nullptr : &spans[it->second];
  };
  std::vector<double> child_ns(spans.size(), 0.0);
  for (std::size_t i = client_spans; i < spans.size(); ++i) {
    if (const Span* p = parent_of(spans[i])) child_ns[index.at(p->id)] += spans[i].ns();
  }
  std::map<std::string_view, NameStats> by_name;
  std::map<std::string_view, double> layer_ns;
  double parent_ns = 0.0;
  double children_ns = 0.0;
  for (std::size_t i = client_spans; i < spans.size(); ++i) {
    const Span& s = spans[i];
    NameStats& st = by_name[s.name];
    ++st.count;
    st.total_ns += s.ns();
    const Span* p = parent_of(s);
    if (const char* layer = layer_of(s.name, p ? p->name : "")) {
      layer_ns[layer] += std::max(0.0, s.ns() - child_ns[i]);
    }
    if (std::string_view(s.name) == "core.shard_eval" ||
        std::string_view(s.name) == "core.validate") {
      parent_ns += s.ns();
      children_ns += child_ns[i];
    }
  }
  const double drift = parent_ns > 0.0 ? children_ns / parent_ns : 1.0;
  // Span times below are CPU time: wall-clock spans scaled by the share of
  // wall time the replay thread ran.
  const double on_cpu = counts.wall_ns > 0.0 ? counts.cpu_ns / counts.wall_ns : 1.0;
  for (auto& [name, st] : by_name) st.total_ns *= on_cpu;
  for (auto& [layer, ns] : layer_ns) ns *= on_cpu;

  // Layer self time per sweep of the timed window. Stage 2 scales with the
  // front points a sweep validates, which varies from sweep to sweep, so
  // it is charged per validated point at the timed window's count.
  const LoopResult& t = base.timed;
  const double sweep_cpu_ms = 1000.0 * cpu_per_sweep(t);
  const double nsweeps = static_cast<double>(replayed);
  const double validated_timed = validated_per_sweep(t);
  const double validated_replayed = static_cast<double>(by_name["core.validate"].count);
  std::map<std::string_view, double> self_ms;
  double accounted = 0.0;
  for (const auto& [layer, ns] : layer_ns) {
    self_ms[layer] = layer == std::string_view("stage2")
                         ? (validated_replayed > 0.0
                                ? ns / 1e6 / validated_replayed * validated_timed
                                : 0.0)
                         : ns / 1e6 / nsweeps;
    accounted += self_ms[layer];
  }
  const double n_peel = static_cast<double>(peeled);
  const double svc_cpu_peel = 1000.0 * (peel_cpu_s[kLoopback] - peel_cpu_s[kLocal]) / n_peel;
  const double tlm_cpu_peel = 1000.0 * (peel_cpu_s[kSocket] - peel_cpu_s[kLoopback]) / n_peel;
  self_ms["service_path"] = svc_cpu_peel + tlm_cpu_peel;
  accounted += self_ms["service_path"];
  self_ms["other"] = sweep_cpu_ms - accounted;

  const double untraced_p50 = p50(sweep_times(t));
  const double traced_p50 = p50(sweep_times(traced));
  const double local_p50 = p50(peel_ms[kLocal]);
  const double loopback_p50 = p50(peel_ms[kLoopback]);
  const double socket_p50 = p50(peel_ms[kSocket]);

  std::printf("# traced breakdown of %s: %zu replayed sweeps, sweep CPU %.3f ms "
              "(untraced window)\n",
              workload_name(rs.workload()), replayed, sweep_cpu_ms);
  std::printf("#   %-16s %12s %8s\n", "layer", "self ms/sweep", "share");
  for (const char* layer : kLayers) {
    std::printf("#   %-16s %12.4f %7.1f%%\n", layer, self_ms[layer],
                100.0 * self_ms[layer] / sweep_cpu_ms);
  }
  std::printf("# peel over %zu identical warm sweeps: sweep_ms_p50 local %.3f, "
              "loopback %.3f, socket %.3f; CPU per sweep svc %.3f, tlm %.3f ms\n",
              peeled, local_p50, loopback_p50, socket_p50, svc_cpu_peel, tlm_cpu_peel);
  std::printf("# replay thread on CPU for %.1f%% of its wall time; span times "
              "are scaled by it\n", 100.0 * on_cpu);
  std::printf("# replayed children / parent spans: %.3f (timer cost %.1f ns per "
              "child removed)%s\n", drift, tr.lap_ns(),
              std::abs(drift - 1.0) > kMaxDrift ? "  DRIFT: breakdown does not "
                                                  "measure the program"
                                                : "");
  std::printf("# tracing overhead: %+.4f ms (traced sweep_ms_p50 %.4f, untraced "
              "%.4f)\n",
              traced_p50 - untraced_p50, traced_p50, untraced_p50);
  if (tr.write(trace_path)) {
    std::printf("# %zu spans written to %s\n", spans.size(), trace_path.c_str());
  } else {
    std::printf("# could not write spans to %s\n", trace_path.c_str());
  }

  std::vector<double> submit_ms, gaps_us, finish_ms;
  for (const SweepRecord& r : traced.sweeps) {
    submit_ms.push_back(r.t_accepted - r.t_submit);
    finish_ms.push_back(r.t_done - r.t_last);
    gaps_us.insert(gaps_us.end(), r.gaps_us.begin(), r.gaps_us.end());
  }
  const double sweeps = static_cast<double>(t.sweeps.size());
  const double points = static_cast<double>(t.grid_points);
  double streamed = 0.0;
  for (const SweepRecord& r : t.sweeps) streamed += static_cast<double>(r.points_streamed);
  const Counters& cn = base.counters;
  const auto rate = [](std::uint64_t a, std::uint64_t b) {
    return a + b ? static_cast<double>(a) / static_cast<double>(a + b) : 0.0;
  };
  const auto mean = [&](const char* name, double scale) {
    return by_name[name].mean_ns() * scale;
  };
  const double replay_ms = by_name["noc.replay"].total_ns / 1e6;

  std::string m;
  const auto add = [&m](const std::string& name, double v, const char* unit) {
    if (!m.empty()) m += ", ";
    m += json_metric(name.c_str(), v, unit);
  };
  add("core.mapper_us", mean("core.mapper", 1e-3), "us");
  add("core.evaluate_mapping_us", mean("core.evaluate_mapping", 1e-3), "us");
  add("noc.build_us", mean("noc.build", 1e-3), "us");
  add("noc.floorplan_us", mean("noc.floorplan", 1e-3), "us");
  add("platform.estimate_cost_us", mean("platform.estimate_cost", 1e-3), "us");
  add("core.platform_desc_us", mean("core.platform_desc", 1e-3), "us");
  add("core.context_us", mean("core.context", 1e-3), "us");
  add("noc.builds_per_point", static_cast<double>(cn.builds.builds) / points, "count");
  add("noc.floorplans_per_point", static_cast<double>(cn.builds.floorplans) / points,
      "count");
  add("core.eval_cache.platform_hit_rate",
      rate(cn.cache.platform_hits, cn.cache.platform_misses), "fraction");
  add("core.eval_cache.mapping_hit_rate",
      rate(cn.cache.mapping_hits, cn.cache.mapping_misses), "fraction");
  add("core.eval_cache.evictions_per_sweep",
      static_cast<double>(cn.cache.evictions) / sweeps, "count");
  add("core.eval_cache.lookup_ns", mean("core.eval_cache.lookup", 1.0), "ns");
  add("core.shard_eval_us", mean("core.shard_eval", 1e-3), "us");
  add("core.front_ms_per_sweep", by_name["core.front"].total_ns / 1e6 / nsweeps, "ms");
  add("svc.submit_ms_p50", p50(submit_ms), "ms");
  add("svc.stream_gap_us_p50", p50(gaps_us), "us");
  add("svc.finish_ms_p50", p50(finish_ms), "ms");
  add("svc.peel_ms_per_sweep", loopback_p50 - local_p50, "ms");
  add("svc.cpu_peel_ms_per_sweep", svc_cpu_peel, "ms");
  add("svc.points_streamed_per_sweep", streamed / sweeps, "count");
  add("dsoc.marshal_ns_per_point", mean("dsoc.marshal", 1.0), "ns");
  add("core.wire.encode_ns_per_point", mean("core.wire.encode", 1.0), "ns");
  add("core.wire.decode_ns_per_point", mean("core.wire.decode", 1.0), "ns");
  add("core.wire.request_us", mean("core.wire.request", 1e-3), "us");
  add("tlm.peel_ms_per_sweep", socket_p50 - loopback_p50, "ms");
  add("tlm.cpu_peel_ms_per_sweep", tlm_cpu_peel, "ms");
  add("tlm.frames_per_point", static_cast<double>(cn.frames) / points, "count");
  add("tlm.bytes_per_point",
      (4.0 * static_cast<double>(cn.payload_words) + 16.0 * static_cast<double>(cn.frames)) /
          points,
      "B");
  add("core.validate_ms", mean("core.validate", 1e-6), "ms");
  add("core.validated_per_sweep", validated_timed, "count");
  add("noc.replay_ns_per_cycle",
      counts.sim_cycles > 0.0 ? by_name["noc.replay"].total_ns / counts.sim_cycles : 0.0,
      "ns");
  add("noc.replay_packets_per_ms", replay_ms > 0.0 ? counts.packets / replay_ms : 0.0,
      "1/ms");
  for (const char* layer : kLayers) {
    add(std::string("self_ms.") + layer, self_ms[layer], "ms");
    add(std::string("share.") + layer, self_ms[layer] / sweep_cpu_ms, "fraction");
  }
  add("trace.children_to_parent", drift, "ratio");
  add("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
  return m;
}

}  // namespace dsebench
