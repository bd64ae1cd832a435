#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "soc/apps/graphs.hpp"
#include "soc/core/objective_space.hpp"
#include "soc/core/scenario.hpp"
#include "soc/sim/parallel.hpp"
#include "soc/sim/rng.hpp"
#include "soc/tech/process_node.hpp"

namespace dsebench {

namespace {

constexpr const char* kNames[] = {"new_app", "node_wall", "rerank",
                                  "validate_front"};

tech::ProcessNode node(const char* name) {
  const auto n = tech::find_node(std::string(name));
  if (!n) throw std::logic_error(std::string("unknown process node ") + name);
  return *n;
}

/// The 18-candidate ladder platform_dse and dse_client sweep.
core::DseSpace ladder() {
  core::DseSpace s;
  s.pe_counts = {4, 8, 16};
  s.thread_counts = {2, 4};
  s.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D,
                  noc::TopologyKind::kCrossbar};
  s.fabrics = {tech::Fabric::kAsip};
  return s;
}

/// 64 platforms per node: 4 pool sizes x 2 thread counts x 4 interconnects
/// x 2 fabrics.
core::DseSpace platforms64(std::vector<tech::ProcessNode> nodes) {
  core::DseSpace s;
  s.nodes = std::move(nodes);
  s.pe_counts = {4, 8, 16, 32};
  s.thread_counts = {2, 4};
  s.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D,
                  noc::TopologyKind::kFatTree, noc::TopologyKind::kCrossbar};
  s.fabrics = {tech::Fabric::kAsip, tech::Fabric::kGeneralPurposeCpu};
  return s;
}

/// Objective sets rerank cycles through; none is the pools' own
/// (tput, area, power) triple, so every re-rank marks a different front.
constexpr const char* kRerankObjectives[] = {
    "tput,area,power,energy", "tput,energy", "tput,area", "area,power,energy"};
constexpr int kRerankPools = 4;
/// Memo fill: kFillRequests x kFillScenarios graphs x 18 ladder platforms
/// = 66,816 mappings, just past the mapping memo's 65,536 entries.
constexpr std::uint64_t kFillRequests = 58;
constexpr int kFillScenarios = 64;

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (int i = 0; i < 4; ++i) {
    if (name == kNames[i]) return static_cast<Workload>(i);
  }
  return std::nullopt;
}

const char* workload_name(Workload w) { return kNames[static_cast<int>(w)]; }

RequestStream::RequestStream(Workload w, std::uint64_t seed)
    : w_(w), base_(sim::derive_seed(seed, static_cast<std::uint64_t>(w) + 1)) {}

int RequestStream::clients() const noexcept {
  return w_ == Workload::kRerank ? 2 : 1;
}

std::uint64_t RequestStream::warmup_sweeps() const noexcept {
  switch (w_) {
    // 20 x 256 fresh platforms: the 4,096-entry platform LRU is full and
    // evicting before timing starts.
    case Workload::kNodeWall: return 20;
    // One re-rank per pool.
    case Workload::kRerank: return kRerankPools;
    // The first sweep builds the ladder's 18 platforms; the others run in
    // the steady state (ladder warm, every mapping a miss).
    default: return 3;
  }
}

core::SweepRequest RequestStream::rerank_pool(int pool) const {
  core::SweepRequest req;
  req.scenarios = core::ScenarioGenerator(
                      sim::derive_seed(base_, 0xb00ULL + static_cast<std::uint64_t>(pool)))
                      .matrix(8, 1);
  req.space = platforms64({node("130nm"), node("90nm"), node("65nm")});
  req.config.mapper = "greedy";
  return req;
}

std::vector<core::SweepRequest> RequestStream::priming() const {
  std::vector<core::SweepRequest> out;
  switch (w_) {
    case Workload::kRerank:
      for (int p = 0; p < kRerankPools; ++p) out.push_back(rerank_pool(p));
      break;
    case Workload::kNewApp:
    case Workload::kValidateFront:
      // Fill the 65,536-entry mapping memo with entries shaped like the
      // stream's (same generator presets, ladder and mapper; anneal cut to
      // one iteration), as a long-running daemon's memo would be. Timed
      // sweeps then evict as they store, so rss_mb does not grow with the
      // number of sweeps a run completes.
      for (std::uint64_t c = 0; c < kFillRequests; ++c) {
        core::SweepRequest req = sweep(0);
        req.scenarios =
            core::ScenarioGenerator(sim::derive_seed(base_, 0xf111000ULL + c))
                .matrix(kFillScenarios, 1);
        req.anneal.iterations = 1;
        req.config.validate_pareto = false;
        out.push_back(std::move(req));
      }
      break;
    case Workload::kNodeWall:
      break;
  }
  return out;
}

core::SweepRequest RequestStream::sweep(std::uint64_t k) const {
  const std::uint64_t s = sim::derive_seed(base_, k);
  switch (w_) {
    case Workload::kNodeWall: {
      core::SweepRequest req;
      const int app = static_cast<int>(k % 3);
      const core::TaskGraph g = app == 0   ? apps::ipv4_task_graph()
                                : app == 1 ? apps::mjpeg_task_graph()
                                           : apps::wlan_task_graph();
      req.problem.graph = g;
      req.scenarios = core::ScenarioSet{g};
      req.space = platforms64(
          {node("130nm"), node("90nm"), node("65nm"), node("50nm")});
      req.config.mapper = "greedy";
      // A die budget of its own per sweep: every platform key is new.
      sim::Rng rng(s);
      req.config.die_mm2 = 60.0 + 240.0 * rng.next_double();
      return req;
    }
    case Workload::kRerank: {
      core::SweepRequest req =
          rerank_pool(static_cast<int>(k % kRerankPools));
      req.problem.objectives = core::ObjectiveSpace::from_names(
          kRerankObjectives[(k / kRerankPools) % 4]);
      return req;
    }
    case Workload::kNewApp:
    case Workload::kValidateFront: {
      core::SweepRequest req;
      req.scenarios = core::ScenarioGenerator(s).matrix(4, 1);
      req.space = ladder();
      req.problem.node = tech::node_90nm();
      if (w_ == Workload::kNewApp) {
        req.config.mapper = "anneal";
        req.anneal.iterations = 1000;
      } else {
        req.config.mapper = "greedy";
        req.config.validate_pareto = true;
      }
      return req;
    }
  }
  throw std::logic_error("unknown workload");
}

// ----------------------------------------------------------------- digest ---

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    a_ = (a_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
  b_ += v + 0x9e3779b97f4a7c15ULL;
  b_ = (b_ ^ (b_ >> 30)) * 0xbf58476d1ce4e5b9ULL;
  b_ = (b_ ^ (b_ >> 27)) * 0x94d049bb133111ebULL;
  b_ ^= b_ >> 31;
}

void Digest::add_words(std::span<const std::uint32_t> words) noexcept {
  add(words.size());
  for (const std::uint32_t w : words) add(w);
}

void Digest::add(const Digest& other) noexcept {
  add(other.a_);
  add(other.b_);
}

std::string Digest::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(a_),
                static_cast<unsigned long long>(b_));
  return buf;
}

Digest digest_result(const std::vector<core::DsePoint>& points,
                     std::size_t grid_points,
                     const std::vector<std::size_t>& extra_parents,
                     const std::vector<std::size_t>& front,
                     const std::vector<std::vector<std::size_t>>& scenario_fronts) {
  Digest d;
  d.add(grid_points);
  d.add(points.size());
  for (const core::DsePoint& p : points) d.add_words(core::marshal_point(p));
  const auto add_indices = [&d](const std::vector<std::size_t>& v) {
    d.add(v.size());
    for (const std::size_t i : v) d.add(i);
  };
  add_indices(extra_parents);
  add_indices(front);
  d.add(scenario_fronts.size());
  for (const auto& f : scenario_fronts) add_indices(f);
  return d;
}

// ------------------------------------------------------------- percentile ---

std::optional<Percentile> percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0 && p < 100.0)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))));
  if (n - rank < kMinBeyond) return std::nullopt;
  return Percentile{samples[rank - 1], n, n - rank};
}

// ------------------------------------------------------------ fingerprint ---

std::string Fingerprint::json() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %d, \"hardware_concurrency\": %u, \"compiler\": "
                "\"%s\", \"build_type\": \"%s\", \"sanitizer\": \"%s\"}",
                nproc, hardware_concurrency, compiler.c_str(),
                build_type.c_str(), sanitizer.c_str());
  return buf;
}

Fingerprint fingerprint() {
  Fingerprint f;
  cpu_set_t set;
  CPU_ZERO(&set);
  f.nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  f.hardware_concurrency = std::thread::hardware_concurrency();
#if defined(__clang__)
  f.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  f.compiler = std::string("gcc ") + __VERSION__;
#else
  f.compiler = "unknown";
#endif
#ifdef NDEBUG
  f.build_type = "release";
#else
  f.build_type = "debug";
#endif
  f.sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  f.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  f.sanitizer = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  f.sanitizer = "address";
#elif __has_feature(thread_sanitizer)
  f.sanitizer = "thread";
#endif
#endif
  return f;
}

}  // namespace dsebench
