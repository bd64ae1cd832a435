#pragma once

// Helpers shared by the benchmark program and its self-test: the seeded
// request streams of the four workloads, the result digest, the tail
// percentile rule, and the host/build fingerprint.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "soc/core/dse_wire.hpp"

namespace soc::apps {}
namespace soc::platform {}
namespace soc::svc {}
namespace soc::tlm {}

namespace dsebench {

namespace apps = soc::apps;
namespace core = soc::core;
namespace dsoc = soc::dsoc;
namespace noc = soc::noc;
namespace platform = soc::platform;
namespace sim = soc::sim;
namespace svc = soc::svc;
namespace tech = soc::tech;
namespace tlm = soc::tlm;

/// The four workloads; each is built so that a different layer does most
/// of the work (see design.json).
enum class Workload { kNewApp, kNodeWall, kRerank, kValidateFront };

/// Parses a workload name ("new_app", "node_wall", "rerank",
/// "validate_front").
std::optional<Workload> parse_workload(std::string_view name);
/// The workload's name as BENCHMARK.json spells it.
const char* workload_name(Workload w);

/// The seeded, endless request stream of one workload. Sweep k is a pure
/// function of (workload, seed, k); the service only ever sees these
/// generated requests.
class RequestStream {
 public:
  RequestStream(Workload w, std::uint64_t seed);

  Workload workload() const noexcept { return w_; }
  /// Closed-loop client threads.
  int clients() const noexcept;
  /// Requests set-up runs before the warm-up sweeps: rerank's four
  /// 1,536-point pools, or the mapping-memo fill of new_app and
  /// validate_front; empty for node_wall.
  std::vector<core::SweepRequest> priming() const;
  /// Sweeps 0 .. warmup_sweeps()-1 run in set-up and bring the memo into
  /// the workload's steady state; timing starts at the next index.
  std::uint64_t warmup_sweeps() const noexcept;
  /// Sweep k of the stream.
  core::SweepRequest sweep(std::uint64_t k) const;

 private:
  core::SweepRequest rerank_pool(int pool) const;

  Workload w_;
  std::uint64_t base_;  ///< per-workload stream seed
};

/// 128-bit digest (two independent 64-bit lanes) over 64-bit values.
class Digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add_words(std::span<const std::uint32_t> words) noexcept;
  void add(const Digest& other) noexcept;
  std::string hex() const;
  bool operator==(const Digest&) const = default;

 private:
  std::uint64_t a_ = 0xcbf29ce484222325ULL;
  std::uint64_t b_ = 0x9e3779b97f4a7c15ULL;
};

/// Digest of one assembled sweep result: every point through
/// core::marshal_point (so every analytic and sim_* figure and flag), the
/// grid size, extra parents, the aggregate front and the per-scenario
/// fronts.
Digest digest_result(const std::vector<core::DsePoint>& points,
                     std::size_t grid_points,
                     const std::vector<std::size_t>& extra_parents,
                     const std::vector<std::size_t>& front,
                     const std::vector<std::vector<std::size_t>>& scenario_fronts);

/// A nearest-rank percentile and the evidence behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count
  std::size_t beyond = 0;   ///< samples strictly after the reported rank
};

/// Minimum number of samples a reported percentile must have beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// The nearest-rank p-th percentile (0 < p < 100) of `samples`, reported
/// only when at least kMinBeyond samples lie beyond its rank; nullopt
/// otherwise. Infinite samples (failed sweeps) sort last.
std::optional<Percentile> percentile(std::vector<double> samples, double p);

/// Compiler, build type and sanitizer mode of this binary, and the host's
/// processor counts.
struct Fingerprint {
  int nproc = 0;                     ///< CPUs this process may run on
  unsigned hardware_concurrency = 0; ///< std::thread::hardware_concurrency
  std::string compiler;
  std::string build_type;  ///< "release" (NDEBUG) or "debug"
  std::string sanitizer;   ///< "none", "address" or "thread"
  /// One JSON object with every field.
  std::string json() const;
  /// True for an optimised, uninstrumented build — the only kind whose
  /// figures may be reported.
  bool reportable() const { return build_type == "release" && sanitizer == "none"; }
};

Fingerprint fingerprint();

}  // namespace dsebench
