#pragma once

/// \file
/// Session-oriented design-space exploration: DseProblem + DseSession with
/// staged execution (enumerate → evaluate → front → validate), pluggable
/// dominance objectives (ObjectiveSpace), a streaming point observer, and a
/// per-candidate EvalContext that builds, floorplans, and BFS-routes each
/// candidate's interconnect exactly once across both exploration stages.
/// Also home of the sweep result layout (SweepLayout / lay_out_sweep) that
/// the session, the DSE service, and its client all assemble through.

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "soc/core/dse.hpp"
#include "soc/core/eval_cache.hpp"
#include "soc/core/mapper.hpp"
#include "soc/core/objective_space.hpp"

namespace soc::core {

/// An ordered set of application task graphs a session evaluates every
/// candidate against — typically ScenarioGenerator output (scenario.hpp),
/// but any graphs work. Order is part of the session's identity: points
/// and fronts are reported per scenario index.
using ScenarioSet = std::vector<TaskGraph>;

/// What a DSE session explores: the application, the dominance objectives,
/// and the scalarization weights the mappers optimize under. The design
/// space itself (DseSpace) and the execution knobs (AnnealConfig/DseConfig)
/// are passed to the session separately — the problem is what you solve,
/// the space and config are how.
struct DseProblem {
  /// Application task graph (replicated per candidate onto larger pools).
  TaskGraph graph;
  /// Dominance axes the front is marked over; defaults to the historical
  /// (tput, area, power) triple. Add "energy" for the energy frontier.
  ObjectiveSpace objectives = ObjectiveSpace::default_space();
  /// Scalarized mapping-objective weights every candidate is mapped under.
  ObjectiveWeights weights{};
  /// Process node candidates are evaluated at when DseSpace::nodes is empty.
  tech::ProcessNode node = tech::node_90nm();
};

/// Everything one candidate's evaluation needs, built exactly once: the
/// silicon estimate (estimate_cost fed the cost interconnect this context
/// builds), the annotated PE topology (built + floorplanned once, shared
/// between the PlatformDesc matrices the stage-1 mapper scores against and
/// the stage-2 MappingValidator replay via take_topology()), the platform
/// view, and the replicated work graph. Constructing one performs exactly
/// two noc::Topology builds (cost + PE interconnect) and at most two
/// floorplans — the monolithic pipeline performed up to five per validated
/// Pareto point (see noc::topology_build_stats for the counters that prove
/// it).
class EvalContext {
 public:
  /// Builds the full context for `candidate` under `config`. Throws
  /// std::invalid_argument on an empty task graph. With `cache` the
  /// platform-level products (silicon estimate + floorplanned PlatformDesc)
  /// are served from the memo when the candidate's canonical key hits —
  /// skipping both topology builds — and stored on a miss; a hit context
  /// owns no topology instance (has_topology() is false from birth), so
  /// stage-2 consumers fall back to PlatformDesc::build_topology(), which
  /// reproduces it bit-identically.
  EvalContext(const TaskGraph& graph, const DseCandidate& candidate,
              const DseConfig& config, EvalCache* cache = nullptr);

  /// The candidate this context evaluates.
  const DseCandidate& candidate() const noexcept { return cand_; }
  /// Silicon estimate (also the source of the floorplan's die area).
  const platform::PlatformCost& silicon() const noexcept { return silicon_; }
  /// Platform view over the shared annotated topology.
  const PlatformDesc& platform() const noexcept { return *platform_; }
  /// The (possibly replicated) task graph this candidate is scored on.
  const TaskGraph& work() const noexcept { return *work_; }
  /// Stream replicas the work graph carries (num_pes / |graph|, >= 1).
  int replicas() const noexcept { return replicas_; }

  /// Hands the annotated PE topology to the stage-2 replay (noc::Network
  /// takes ownership). Null after the first call — the instance exists
  /// exactly once; late consumers fall back to
  /// PlatformDesc::build_topology(), which reproduces it bit-identically.
  std::unique_ptr<noc::Topology> take_topology() noexcept {
    return std::move(topo_);
  }
  /// True until take_topology() surrenders the shared instance.
  bool has_topology() const noexcept { return topo_ != nullptr; }

 private:
  /// The uncached path: both topology builds, the silicon estimate, and a
  /// fresh PlatformDesc (the products a cache miss stores).
  void build_cold(const DseConfig& config);

  DseCandidate cand_;
  platform::PlatformCost silicon_;
  std::unique_ptr<noc::Topology> topo_;
  int replicas_ = 1;
  std::optional<TaskGraph> work_;  // engaged by the constructor
  /// Immutable platform view — shared with the EvalCache on hits (and
  /// handed to it on misses), exclusively owned when built uncached.
  std::shared_ptr<const PlatformDesc> platform_;
};

/// Stage-1 products of one flat grid point, as produced by
/// ShardEvaluator::evaluate: the canonical point (scenario fields stamped),
/// the mapping-front extras of the pair (empty unless
/// DseConfig::mapping_fronts), and the pair's EvalContext — kept alive so
/// stage 2 can replay on the very topology stage 1 mapped against.
struct FlatPointEval {
  /// The canonical scenario-major grid point.
  DsePoint point;
  /// Mapping-front extras of this pair, strategy order (see
  /// DseConfig::mapping_fronts).
  std::vector<DsePoint> extras;
  /// The pair's evaluation context (never null).
  std::unique_ptr<EvalContext> context;
};

/// The front index sets a completed sweep reports, as produced by
/// ShardEvaluator::mark_fronts: ascending flat indices into the marked
/// point vector (grid points first, extras after).
struct SweepFronts {
  /// The cross-scenario aggregate Pareto front, ascending flat indices.
  std::vector<std::size_t> aggregate;
  /// One front slice per scenario, scenario order.
  std::vector<std::vector<std::size_t>> per_scenario;
};

/// One sweep's stage-1 products as a collector receives them — from the
/// session's thread pool, the service pool, or the wire — in whatever order
/// evaluations complete. The three vectors run in parallel, one entry per
/// arrival; nothing is sized by the grid until lay_out_sweep places them.
struct SweepArrivals {
  /// Flat grid index of each arrival.
  std::vector<std::size_t> flats;
  /// Each arrival's canonical grid point.
  std::vector<DsePoint> points;
  /// Each arrival's mapping-front extras, strategy order.
  std::vector<std::vector<DsePoint>> extras;

  /// Records the products of flat grid index `flat`.
  void add(std::size_t flat, DsePoint point,
           std::vector<DsePoint> point_extras) {
    flats.push_back(flat);
    points.push_back(std::move(point));
    extras.push_back(std::move(point_extras));
  }
  /// Reserves room for `n` arrivals (allocation only; nothing is built).
  void reserve(std::size_t n) {
    flats.reserve(n);
    points.reserve(n);
    extras.reserve(n);
  }
};

/// A sweep's result in the session layout: the scenario-major grid, then
/// mapping-front extras in flat-parent order, and the fronts marked over
/// them. DseSession, soc::svc::DseService and soc::svc::DseClient all hold
/// their results in this one shape, built by lay_out_sweep.
struct SweepLayout {
  /// Grid points in flat order, then extras in flat-parent order.
  std::vector<DsePoint> points;
  /// Size of the canonical grid (scenarios x candidates).
  std::size_t grid_points = 0;
  /// Per extra point: the flat grid index of its parent pair.
  std::vector<std::size_t> extra_parents;
  /// Aggregate front: ascending indices into `points`.
  std::vector<std::size_t> front;
  /// Per-scenario fronts: ascending indices into `points`, scenario order.
  std::vector<std::vector<std::size_t>> scenario_fronts;

  /// Flat grid index of the (scenario, candidate) pair that produced point
  /// `i`: `i` itself on the grid, the recorded parent for an extra. Throws
  /// std::out_of_range when `i` is not below points.size().
  std::size_t parent(std::size_t i) const;

  /// Sets both front index sets and every pareto_optimal flag: a point is
  /// flagged exactly when it is on the aggregate front. Throws
  /// std::invalid_argument, naming the set ("front index 9 ..." or
  /// "scenario-front index 9 ..."), when an index is not below
  /// points.size().
  void set_fronts(SweepFronts fronts);

  /// Overlays stage-2 point `validated` (which must say it was validated)
  /// at index `i`. Throws std::invalid_argument, naming the index, unless
  /// `i` is an aggregate-front member not validated yet.
  void overlay_validated(std::size_t i, DsePoint validated);
};

/// Lays out one sweep's stage-1 arrivals, taken in any order: the grid in
/// flat order, then every arrival's extras in flat-parent order. The grid
/// is permuted in place inside the arrivals' own point buffer, so laying
/// out costs no second copy of the sweep. Fronts are left empty
/// (ShardEvaluator::mark_fronts marks them over the result). Throws
/// std::invalid_argument unless the arrivals' flat indices are exactly
/// [0, grid_points), each once.
SweepLayout lay_out_sweep(SweepArrivals arrivals, std::size_t grid_points);

/// The per-point evaluation kernel a DSE sweep is made of, factored out of
/// DseSession so the session's thread pool and soc::svc::DseService's pool
/// run the *same code* on the same flat indices — a served sweep is
/// byte-identical to a local one by construction, not by parallel
/// maintenance of two evaluators.
///
/// The flat index space is the session's: point s*C + c scores candidate c
/// under scenario s, and its mapper RNG stream is derived statelessly from
/// (anneal.seed, flat index), so any subset of indices can be evaluated on
/// any thread, process, or machine in any order. Construction validates
/// every input up front (same checks and messages as DseSession) and
/// enumerates the candidate space eagerly; evaluate() and validate() are
/// const and thread-safe.
class ShardEvaluator {
 public:
  /// Validates config, objectives, space and scenarios (throwing
  /// std::invalid_argument naming the offending field), resolves the
  /// mapper, enumerates the candidate space, and — when
  /// config.use_eval_cache — precomputes the canonical EvalCache keys once
  /// per candidate and scenario.
  ShardEvaluator(DseProblem problem, ScenarioSet scenarios, DseSpace space,
                 AnnealConfig anneal = {}, DseConfig config = {});

  /// The problem under exploration.
  const DseProblem& problem() const noexcept { return problem_; }
  /// The scenario set (never empty).
  const ScenarioSet& scenarios() const noexcept { return scenarios_; }
  /// The swept design space.
  const DseSpace& space() const noexcept { return space_; }
  /// Mapper knobs (iteration budget, temperatures, seed).
  const AnnealConfig& anneal() const noexcept { return anneal_; }
  /// Execution knobs.
  const DseConfig& config() const noexcept { return config_; }
  /// The enumerated candidate space, sweep order.
  const std::vector<DseCandidate>& candidates() const noexcept {
    return candidates_;
  }
  /// Size of the canonical scenario-major grid: scenarios x candidates.
  std::size_t grid_point_count() const noexcept {
    return scenarios_.size() * candidates_.size();
  }

  /// Stage 1 for one flat grid point: builds the pair's EvalContext
  /// (EvalCache-served when enabled), runs the mapper (or replays the
  /// mapping memo), and assembles the point exactly as DseSession::evaluate
  /// does. Throws std::out_of_range on an index outside the grid.
  FlatPointEval evaluate(std::size_t flat) const;

  /// Stage 2 for one evaluated point: replays `point`'s stored mapping on
  /// the event-driven NoC of the (scenario, candidate) pair at
  /// `parent_flat` — the point's own pair for grid points, the parent pair
  /// for mapping-front extras — and returns the point with its sim_*
  /// figures stamped. The context is rebuilt deterministically
  /// (PlatformDesc::build_topology reproduces stage 1's instance bit for
  /// bit), so the figures equal a single-machine session's. Throws
  /// std::out_of_range on a bad index and std::invalid_argument on bad
  /// replay knobs.
  DsePoint validate(std::size_t parent_flat, DsePoint point) const;

  /// Marks each scenario's Pareto front over problem.objectives in place
  /// on `points` — the full scenario-major grid (grid_point_count()
  /// entries) followed by mapping-front extras in flat-parent order,
  /// located by `extra_parents` (a SweepLayout's two fields) — and returns
  /// the front index sets. Dominance never crosses scenario slices. This
  /// is the one marker: DseSession::front() and DseService both run it, so
  /// a served sweep marks fronts bit-identical to a local session's.
  /// Throws std::invalid_argument when sizes disagree or a parent index is
  /// outside the grid.
  SweepFronts mark_fronts(std::vector<DsePoint>& points,
                          const std::vector<std::size_t>& extra_parents) const;

 private:
  DseProblem problem_;
  ScenarioSet scenarios_;
  DseSpace space_;
  AnnealConfig anneal_;
  DseConfig config_;
  std::unique_ptr<Mapper> mapper_;  ///< resolved once; stateless, shared
  std::vector<DseCandidate> candidates_;
  EvalCache* cache_ = nullptr;  ///< global() when config.use_eval_cache
  std::vector<std::string> platform_keys_;  ///< per candidate (cache only)
  std::vector<std::string> graph_keys_;     ///< per scenario (cache only)
};

/// A design-space exploration run with staged execution. The stages —
/// enumerate() → evaluate() → front() → validate() — run at most once each,
/// auto-run their prerequisites, and cache their results; run() drives the
/// standard pipeline in one call. Between stages the caller owns the pace:
/// inspect points(), re-rank externally, or skip validation entirely.
///
/// Candidates are independent, so evaluate() and validate() shard across a
/// thread pool (DseConfig::num_threads); each candidate's mapper RNG is
/// seeded by a stateless hash of (anneal.seed, candidate index), and the
/// validator is RNG-free, so every figure the session produces is
/// bit-identical at any thread count.
///
/// The session owns one EvalContext per candidate: the annotated topology a
/// candidate was mapped against in stage 1 is the very instance its stage-2
/// replay simulates — nothing is rebuilt or re-floorplanned between stages.
/// The contexts stay inspectable (context()) for the session's lifetime, so
/// memory is O(candidates x pe_count^2) rather than O(worker threads) — a
/// few KB per candidate at the repo's sweep sizes; destroy the session to
/// release it.
class DseSession {
 public:
  /// Which stage produced the point an observer receives.
  enum class Stage {
    kEvaluated,  ///< stage 1: analytic figures just computed
    kValidated,  ///< stage 2: sim_* figures just measured
  };

  /// Streaming point observer (see on_point).
  using PointObserver = std::function<void(const DsePoint&, Stage)>;

  /// Validates every input up front — config (including the ValidatorConfig
  /// knobs when config.validate_pareto is set), space axes, non-empty graph
  /// and objective set, registered mapper — throwing std::invalid_argument
  /// naming the offending field before any work is done. Explores the
  /// single scenario problem.graph (scenario_count() == 1).
  DseSession(DseProblem problem, DseSpace space, AnnealConfig anneal = {},
             DseConfig config = {});

  /// Multi-scenario session: every candidate is evaluated against every
  /// graph of `scenarios` (which replaces problem.graph as the work source;
  /// problem.graph may be empty here). Points are laid out scenario-major —
  /// point s*C + c scores candidate c under scenario s — and each
  /// candidate's mapper RNG stream is derived from that flat index, so a
  /// one-scenario set reproduces the single-scenario session bit for bit.
  /// Throws std::invalid_argument on an empty set or an empty scenario
  /// graph.
  DseSession(DseProblem problem, ScenarioSet scenarios, DseSpace space,
             AnnealConfig anneal = {}, DseConfig config = {});

  DseSession(const DseSession&) = delete;             ///< non-copyable
  DseSession& operator=(const DseSession&) = delete;  ///< non-copyable

  /// Installs a streaming observer invoked once per point as its stage
  /// completes. Calls are serialized (never concurrent), from worker
  /// threads, in completion order: nondeterministic under num_threads != 1,
  /// sweep order when serial. Install before evaluate().
  void on_point(PointObserver observer);

  /// Stage 0: enumerates the cartesian candidate space in sweep order
  /// (nodes outermost, fabrics innermost; problem.node when space.nodes is
  /// empty).
  const std::vector<DseCandidate>& enumerate();

  /// Stage 1: maps and scores every (scenario, candidate) pair with the
  /// configured mapper (analytic hop-matrix figures + silicon estimate),
  /// building each pair's EvalContext exactly once. Returns the points,
  /// scenario-major sweep order (scenario_count() x candidate count).
  const std::vector<DsePoint>& evaluate();

  /// Marks each scenario's Pareto front over problem.objectives —
  /// dominance never crosses scenario slices — and returns the aggregate
  /// front: the ascending union of the per-scenario fronts' flat point
  /// indices (identical to the historical single-front indices when
  /// scenario_count() == 1).
  const std::vector<std::size_t>& front();

  /// Stage 2: replays each front point's mapping on the event-driven NoC
  /// (MappingValidator) — on the same topology instance stage 1 mapped
  /// against — and records the sim_* figures. Runs when called, whether or
  /// not config.validate_pareto is set (the flag only steers run()); since
  /// an explicit call arms the replay knobs the constructor may not have
  /// policed, they are re-checked here, throwing std::invalid_argument
  /// naming the field.
  const std::vector<DsePoint>& validate();

  /// The standard pipeline: evaluate(), front(), then validate() when
  /// config.validate_pareto is set. Returns a copy of the points (the
  /// session keeps its own, so staged inspection still works afterwards).
  std::vector<DsePoint> run();

  /// The problem under exploration.
  const DseProblem& problem() const noexcept { return shard_.problem(); }
  /// The swept design space.
  const DseSpace& space() const noexcept { return shard_.space(); }
  /// Mapper knobs (iteration budget, temperatures, seed).
  const AnnealConfig& anneal() const noexcept { return shard_.anneal(); }
  /// Execution knobs.
  const DseConfig& config() const noexcept { return shard_.config(); }
  /// Points so far (empty before evaluate()), scenario-major. With
  /// DseConfig::mapping_fronts the first grid_point_count() entries are the
  /// canonical scenario-major grid and the rest are mapping-front extras in
  /// flat-parent order (extra_parent() locates each one's grid pair).
  const std::vector<DsePoint>& points() const noexcept {
    return layout_.points;
  }
  /// Size of the canonical scenario-major grid: scenario_count() x candidate
  /// count (== points().size() unless DseConfig::mapping_fronts appended
  /// extras); 0 before evaluate().
  std::size_t grid_point_count() const noexcept { return layout_.grid_points; }
  /// Flat grid index of the (scenario, candidate) pair that produced extra
  /// point `i` — `i` must be in [grid_point_count(), points().size());
  /// throws std::out_of_range otherwise.
  std::size_t extra_parent(std::size_t i) const;
  /// Aggregate front indices (empty before front()).
  const std::vector<std::size_t>& front_indices() const noexcept {
    return layout_.front;
  }
  /// Number of scenarios the session evaluates (1 for the single-graph
  /// constructor).
  int scenario_count() const noexcept {
    return static_cast<int>(shard_.scenarios().size());
  }
  /// Scenario graph `s` (bounds-checked).
  const TaskGraph& scenario(int s) const {
    return shard_.scenarios().at(static_cast<std::size_t>(s));
  }
  /// Per-scenario Pareto fronts: scenario_fronts()[s] holds that slice's
  /// front as ascending *flat* point indices (empty before front()).
  const std::vector<std::vector<std::size_t>>& scenario_fronts()
      const noexcept {
    return layout_.scenario_fronts;
  }
  /// The whole result in the shared sweep layout — points(),
  /// grid_point_count(), the extra parents and both front sets in one
  /// value, the shape a served sweep (soc::svc::SweepResult) also has.
  const SweepLayout& layout() const noexcept { return layout_; }
  /// Cached evaluation context of flat point `i` (scenario-major,
  /// bounds-checked); valid after evaluate().
  const EvalContext& context(std::size_t i) const { return *contexts_.at(i); }
  /// EvalCache traffic of this session's evaluate() stage: the delta of the
  /// process-wide counters across stage 1 (all zeros before evaluate() or
  /// when config.use_eval_cache is off). Concurrent sessions sharing
  /// EvalCache::global() bleed into each other's delta — meter one sweep at
  /// a time for exact figures (what bench_session_reuse does).
  const EvalCacheStats& cache_stats() const noexcept { return cache_stats_; }

  /// True once enumerate() has run.
  bool enumerated() const noexcept { return enumerated_; }
  /// True once evaluate() has run.
  bool evaluated() const noexcept { return evaluated_; }
  /// True once front() has run.
  bool front_marked() const noexcept { return front_marked_; }
  /// True once validate() has run.
  bool validated() const noexcept { return validated_; }

 private:
  /// Serialized observer dispatch (no-op without an observer).
  void notify(const DsePoint& point, Stage stage);

  /// The per-point kernel and the single owner of the session's inputs
  /// (validation, mapper resolution and candidate enumeration live here).
  ShardEvaluator shard_;
  PointObserver observer_;
  std::mutex observer_mu_;
  std::vector<std::unique_ptr<EvalContext>> contexts_;  ///< by flat index
  EvalCacheStats cache_stats_{};  ///< evaluate()-stage delta (see accessor)
  SweepLayout layout_;
  bool enumerated_ = false;
  bool evaluated_ = false;
  bool front_marked_ = false;
  bool validated_ = false;
};

}  // namespace soc::core
