#include "soc/core/dse_session.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "dse_internal.hpp"
#include "soc/core/mapping_validator.hpp"
#include "soc/platform/cost.hpp"
#include "soc/sim/parallel.hpp"

namespace soc::core {

namespace internal {

void validate_space(const DseSpace& space) {
  if (space.pe_counts.empty()) {
    throw std::invalid_argument("DseSpace: pe_counts axis is empty");
  }
  if (space.thread_counts.empty()) {
    throw std::invalid_argument("DseSpace: thread_counts axis is empty");
  }
  if (space.topologies.empty()) {
    throw std::invalid_argument("DseSpace: topologies axis is empty");
  }
  if (space.fabrics.empty()) {
    throw std::invalid_argument("DseSpace: fabrics axis is empty");
  }
  for (const int p : space.pe_counts) {
    if (p <= 0) {
      throw std::invalid_argument(
          "DseSpace: pe_counts entries must be positive, got " +
          std::to_string(p));
    }
  }
  for (const int t : space.thread_counts) {
    if (t <= 0) {
      throw std::invalid_argument(
          "DseSpace: thread_counts entries must be positive, got " +
          std::to_string(t));
    }
  }
}

void validate_exec_config(const DseConfig& config) {
  if (config.num_threads < 0) {
    throw std::invalid_argument(
        "DseConfig: num_threads must be >= 0 (0 = all cores), got " +
        std::to_string(config.num_threads));
  }
  if (config.die_mm2 < 0.0) {
    throw std::invalid_argument(
        "DseConfig: die_mm2 must be >= 0 (0 = auto-size), got " +
        std::to_string(config.die_mm2));
  }
  if (config.pe_kind_groups < 0) {
    throw std::invalid_argument(
        "DseConfig: pe_kind_groups must be >= 0 (0 = unrestricted), got " +
        std::to_string(config.pe_kind_groups));
  }
  if (config.pe_capacity < 0.0) {
    throw std::invalid_argument(
        "DseConfig: pe_capacity must be >= 0 (0 = unlimited), got " +
        std::to_string(config.pe_capacity));
  }
}

void validate_validator_config(const ValidatorConfig& v) {
  if (v.load_factor <= 0.0 || v.load_factor > 1.0) {
    throw std::invalid_argument(
        "DseConfig: validation.load_factor must be in (0, 1], got " +
        std::to_string(v.load_factor));
  }
  if (v.words_per_flit <= 0.0) {
    throw std::invalid_argument(
        "DseConfig: validation.words_per_flit must be > 0, got " +
        std::to_string(v.words_per_flit));
  }
  if (v.warmup_cycles == 0) {
    throw std::invalid_argument(
        "DseConfig: validation.warmup_cycles must be > 0 (queues need to "
        "fill before measurement)");
  }
  if (v.measure_cycles == 0) {
    throw std::invalid_argument(
        "DseConfig: validation.measure_cycles must be > 0");
  }
  if (v.max_outstanding_rounds <= 0) {
    throw std::invalid_argument(
        "DseConfig: validation.max_outstanding_rounds must be > 0, got " +
        std::to_string(v.max_outstanding_rounds));
  }
  if (v.top_hotspots <= 0) {
    throw std::invalid_argument(
        "DseConfig: validation.top_hotspots must be > 0, got " +
        std::to_string(v.top_hotspots));
  }
}

void validate_config(const DseConfig& config) {
  validate_exec_config(config);
  // Stage 2 armed up front: reject the replay knobs that would otherwise
  // flow silently into the simulation (or surface mid-sweep from deep
  // inside MappingValidator) before any candidate is evaluated.
  if (config.validate_pareto) validate_validator_config(config.validation);
}

std::vector<PeDesc> candidate_pes(const DseCandidate& cand,
                                  const DseConfig& config) {
  std::vector<PeDesc> pes(
      static_cast<std::size_t>(cand.num_pes),
      PeDesc{cand.pe_fabric, cand.threads_per_pe, {}, config.pe_capacity});
  if (config.pe_kind_groups > 0) {
    // Stripe the pool across kind groups: PE i accepts only task kind
    // (i % groups), so every group stays reachable from every graph the
    // generator tags with kinds < groups.
    for (int i = 0; i < cand.num_pes; ++i) {
      pes[static_cast<std::size_t>(i)].compatible_kinds = {
          i % config.pe_kind_groups};
    }
  }
  return pes;
}

std::optional<noc::PhysicalSpec> candidate_physical_spec(
    const DseCandidate& cand, const DseConfig& config, double die_mm2) {
  if (!config.physical_links) return std::nullopt;
  return noc::PhysicalSpec{noc::LinkTimingModel(cand.node, config.link_timing),
                           die_mm2};
}

void apply_validation(const EvalContext& ctx, DsePoint& pt,
                      const ValidatorConfig& vc,
                      std::unique_ptr<noc::Topology> topo) {
  MappingValidator validator(ctx.work(), ctx.platform(), pt.mapping, vc,
                             std::move(topo));
  const ValidationReport rep = validator.run();
  pt.validated = true;
  // One replay round is one item of the (replicated) work graph, i.e.
  // `replicas` stream items — the same scaling the analytic throughput uses.
  pt.sim_throughput_per_kcycle =
      rep.simulated_items_per_kcycle * ctx.replicas();
  pt.sim_to_analytic_ratio = rep.sim_to_analytic_ratio;
  pt.sim_peak_link_utilization = rep.peak_link_utilization;
  pt.sim_avg_packet_latency = rep.avg_packet_latency;
  pt.sim_network_saturated = rep.network_saturated;
}

}  // namespace internal

// ------------------------------------------------------------ EvalContext ---

EvalContext::EvalContext(const TaskGraph& graph, const DseCandidate& candidate,
                         const DseConfig& config, EvalCache* cache)
    : cand_(candidate) {
  if (graph.node_count() == 0) {
    throw std::invalid_argument("EvalContext: task graph has no nodes");
  }
  // Larger platforms host data-parallel stream replicas: one graph instance
  // per |graph| PEs, at least one.
  replicas_ = std::max(1, cand_.num_pes / graph.node_count());
  work_.emplace(replicas_ > 1 ? graph.replicated(replicas_)
                              : TaskGraph(graph));

  if (!cache) {
    build_cold(config);
    return;
  }
  std::string key = EvalCache::platform_key(cand_, config);
  if (auto hit = cache->find_platform(key)) {
    // Both topology builds skipped: the memoized PlatformDesc carries the
    // floorplanned matrices, and stage 2 rebuilds the (deterministic)
    // instance on demand via PlatformDesc::build_topology().
    silicon_ = hit->silicon;
    platform_ = std::move(hit->platform);
    return;
  }
  build_cold(config);
  // A concurrent miss on the same key stores an identical entry (platforms
  // are pure functions of the key); first insert wins.
  cache->store_platform(std::move(key),
                        EvalCache::PlatformEntry{silicon_, platform_});
}

void EvalContext::build_cold(const DseConfig& config) {
  platform::FppaConfig fc;
  fc.num_pes = cand_.num_pes;
  fc.threads_per_pe = cand_.threads_per_pe;
  fc.topology = cand_.topology;
  // Build 1: the cost interconnect (PE + memory + sink terminals).
  // estimate_cost annotates it in place (die sizing + floorplan) and prices
  // it; the silicon estimate is its only product, so it dies here.
  const auto cost_topo =
      noc::make_topology(cand_.topology, fc.terminal_count());
  silicon_ = platform::estimate_cost(
      fc, cand_.node,
      platform::PhysicalCostConfig{config.die_mm2, config.link_timing},
      *cost_topo);

  // Build 2: the PE interconnect, annotated on the die the silicon estimate
  // sized (or the fixed one). This single instance backs the PlatformDesc
  // matrices now and the stage-2 NoC replay later.
  std::optional<noc::PhysicalSpec> phys =
      internal::candidate_physical_spec(cand_, config, silicon_.die_mm2);
  topo_ = noc::make_topology(cand_.topology, cand_.num_pes,
                             phys ? &*phys : nullptr);

  platform_ = std::make_shared<const PlatformDesc>(
      internal::candidate_pes(cand_, config), cand_.topology, cand_.node,
      std::move(phys), *topo_);
}

// ------------------------------------------------------ point assembly -----

namespace {

/// Assembles one DsePoint from a mapping and its cost — the shared tail of
/// the cold path (mapper just ran) and the memo path (EvalCache hit). The
/// derived figures are pure deterministic arithmetic over (cost, silicon,
/// replicas), so a memoized (mapping, cost) pair reproduces the cold
/// point's every field bit for bit.
DsePoint make_point(const EvalContext& ctx, Mapping m, const MappingCost& mc,
                    std::string_view mapper_name) {
  DsePoint pt;
  pt.candidate = ctx.candidate();
  pt.mapping_cost = mc;
  pt.silicon = ctx.silicon();
  pt.mapping = std::move(m);
  pt.mapper = std::string(mapper_name);
  // One "item" of the replicated graph carries `replicas` stream items,
  // one per copy.
  pt.throughput_per_kcycle =
      mc.bottleneck_cycles > 0.0
          ? 1000.0 * ctx.replicas() / mc.bottleneck_cycles
          : 0.0;
  const double power = ctx.silicon().peak_dynamic_mw + ctx.silicon().leakage_mw;
  pt.mw_per_throughput =
      pt.throughput_per_kcycle > 0.0 ? power / pt.throughput_per_kcycle : 0.0;
  return pt;
}

/// Maps and scores one candidate on its cached context. Pure function of
/// its arguments (the rng carries this candidate's derived stream), so
/// candidates can be evaluated on any thread in any order.
DsePoint evaluate_point(const EvalContext& ctx, const ObjectiveWeights& weights,
                        const Mapper& mapper, sim::Rng& rng,
                        const MappingConstraints& constraints) {
  Mapping m = mapper.map(ctx.work(), ctx.platform(), weights, rng, constraints);
  const MappingCost mc = evaluate_mapping(ctx.work(), ctx.platform(), m,
                                          weights, constraints);
  return make_point(ctx, std::move(m), mc, mapper.name());
}

}  // namespace

// -------------------------------------------------------- ShardEvaluator ---

ShardEvaluator::ShardEvaluator(DseProblem problem, ScenarioSet scenarios,
                               DseSpace space, AnnealConfig anneal,
                               DseConfig config)
    : problem_(std::move(problem)),
      scenarios_(std::move(scenarios)),
      space_(std::move(space)),
      anneal_(anneal),
      config_(std::move(config)) {
  // The historical DseSession message texts are kept verbatim: the session
  // delegates its up-front validation here, and callers (and tests) match
  // on them.
  if (scenarios_.empty()) {
    throw std::invalid_argument("DseSession: scenario set is empty");
  }
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    if (scenarios_[s].node_count() == 0) {
      throw std::invalid_argument("DseSession: scenario " + std::to_string(s) +
                                  " ('" + scenarios_[s].name() +
                                  "') has no nodes");
    }
  }
  internal::validate_config(config_);
  if (problem_.objectives.size() == 0) {
    throw std::invalid_argument(
        "DseSession: problem.objectives must contain at least one axis");
  }
  internal::validate_space(space_);
  // Resolve the strategy once, up front: unknown names fail here (listing
  // the registry), and Mapper instances are stateless, so this one serves
  // every worker thread.
  mapper_ = make_mapper(config_.mapper, anneal_);
  candidates_ = enumerate_candidates(space_, problem_.node);
  if (config_.use_eval_cache) {
    // Cross-sweep memo: canonical keys are serialized once per candidate
    // and per scenario (not once per flat point) before any shard fans out.
    cache_ = &EvalCache::global();
    platform_keys_.reserve(candidates_.size());
    for (const DseCandidate& c : candidates_) {
      platform_keys_.push_back(EvalCache::platform_key(c, config_));
    }
    graph_keys_.reserve(scenarios_.size());
    for (const TaskGraph& g : scenarios_) {
      graph_keys_.push_back(EvalCache::graph_key(g));
    }
  }
}

FlatPointEval ShardEvaluator::evaluate(std::size_t flat) const {
  if (flat >= grid_point_count()) {
    throw std::out_of_range("ShardEvaluator::evaluate: flat index " +
                            std::to_string(flat) + " outside grid of " +
                            std::to_string(grid_point_count()));
  }
  const std::size_t ncand = candidates_.size();
  const std::size_t s = flat / ncand;
  const std::size_t c = flat % ncand;
  const std::uint64_t seed = sim::derive_seed(anneal_.seed, flat);
  FlatPointEval out;
  out.context = std::make_unique<EvalContext>(scenarios_[s], candidates_[c],
                                              config_, cache_);
  const EvalContext& ctx = *out.context;
  if (config_.mapping_fronts) {
    // The mapping shard of the cache is bypassed in mapping-front mode (one
    // mapping per key); platform memoization still applies through the
    // EvalContext.
    sim::Rng rng(seed);
    std::vector<MappingFrontPoint> members =
        mapper_->map_front(ctx.work(), ctx.platform(), problem_.weights, rng,
                           config_.constraints);
    if (members.empty()) {
      throw std::runtime_error("DseSession: mapper '" +
                               std::string(mapper_->name()) +
                               "' returned an empty mapping front");
    }
    // The first member is the strategy's map() result by contract, so the
    // canonical grid stays bit-identical to a flag-off sweep.
    out.point = make_point(ctx, std::move(members.front().mapping),
                           members.front().cost, mapper_->name());
    for (std::size_t k = 1; k < members.size(); ++k) {
      DsePoint pt = make_point(ctx, std::move(members[k].mapping),
                               members[k].cost, mapper_->name());
      pt.scenario = static_cast<int>(s);
      pt.scenario_name = scenarios_[s].name();
      out.extras.push_back(std::move(pt));
    }
  } else if (cache_) {
    std::string mkey = EvalCache::mapping_key(
        platform_keys_[c], graph_keys_[s], mapper_->name(), problem_.weights,
        config_.constraints, anneal_, mapper_->deterministic(), seed);
    if (auto memo = cache_->find_mapping(mkey)) {
      // Replay the memoized run: the derived point fields are recomputed
      // from the cached (mapping, cost) by the same deterministic
      // arithmetic, so the stream stays bit-identical.
      out.point =
          make_point(ctx, std::move(memo->mapping), memo->cost,
                     mapper_->name());
    } else {
      sim::Rng rng(seed);
      out.point = evaluate_point(ctx, problem_.weights, *mapper_, rng,
                                 config_.constraints);
      cache_->store_mapping(std::move(mkey),
                            EvalCache::MappingEntry{out.point.mapping,
                                                    out.point.mapping_cost});
    }
  } else {
    sim::Rng rng(seed);
    out.point = evaluate_point(ctx, problem_.weights, *mapper_, rng,
                               config_.constraints);
  }
  out.point.scenario = static_cast<int>(s);
  out.point.scenario_name = scenarios_[s].name();
  return out;
}

DsePoint ShardEvaluator::validate(std::size_t parent_flat,
                                  DsePoint point) const {
  internal::validate_validator_config(config_.validation);
  if (parent_flat >= grid_point_count()) {
    throw std::out_of_range("ShardEvaluator::validate: flat index " +
                            std::to_string(parent_flat) + " outside grid of " +
                            std::to_string(grid_point_count()));
  }
  const std::size_t ncand = candidates_.size();
  // A fresh context for the pair: platform-memo hits skip the builds, and
  // whichever path runs, the replay topology (the fresh instance here, the
  // PlatformDesc::build_topology() fallback on a hit) is bit-identical to
  // the one stage 1 mapped against.
  EvalContext ctx(scenarios_[parent_flat / ncand], candidates_[parent_flat % ncand],
                  config_, cache_);
  internal::apply_validation(ctx, point, config_.validation,
                             ctx.take_topology());
  return point;
}

SweepFronts ShardEvaluator::mark_fronts(
    std::vector<DsePoint>& points,
    const std::vector<std::size_t>& extra_parents) const {
  const std::size_t grid = grid_point_count();
  if (points.size() != grid + extra_parents.size()) {
    throw std::invalid_argument(
        "ShardEvaluator::mark_fronts: " + std::to_string(points.size()) +
        " points for a grid of " + std::to_string(grid) + " + " +
        std::to_string(extra_parents.size()) + " extras");
  }
  for (const std::size_t parent : extra_parents) {
    if (parent >= grid) {
      throw std::invalid_argument(
          "ShardEvaluator::mark_fronts: extra parent " +
          std::to_string(parent) + " outside grid of " + std::to_string(grid));
    }
  }
  const std::size_t ncand = candidates_.size();
  const std::size_t nscen = scenarios_.size();
  const std::vector<double> rows =
      internal::objective_rows(problem_.objectives, points);
  SweepFronts out;
  out.per_scenario.reserve(nscen);
  // Dominance never crosses scenarios: each slice is marked on its own, by
  // index over the one value matrix. A slice is its grid run plus its
  // mapping-front extras, which compete with the grid on equal footing —
  // extras sit in flat-parent order, so each scenario's run of the extra
  // region is contiguous.
  std::vector<std::size_t> slice;
  std::size_t e = 0;
  for (std::size_t s = 0; s < nscen; ++s) {
    slice.clear();
    for (std::size_t c = 0; c < ncand; ++c) slice.push_back(s * ncand + c);
    for (; e < extra_parents.size() && extra_parents[e] < (s + 1) * ncand;
         ++e) {
      slice.push_back(grid + e);
    }
    out.per_scenario.push_back(internal::mark_front_among(
        points, rows, slice, config_.num_threads));
    out.aggregate.insert(out.aggregate.end(), out.per_scenario[s].begin(),
                         out.per_scenario[s].end());
  }
  // Extras of early scenarios carry later flat indices than later
  // scenarios' grid points; restore the documented ascending order.
  if (!extra_parents.empty()) {
    std::sort(out.aggregate.begin(), out.aggregate.end());
  }
  return out;
}

// ------------------------------------------------------------ SweepLayout ---

std::size_t SweepLayout::parent(std::size_t i) const {
  if (i >= points.size()) {
    throw std::out_of_range("SweepLayout::parent: point " + std::to_string(i) +
                            " of " + std::to_string(points.size()));
  }
  return i < grid_points ? i : extra_parents.at(i - grid_points);
}

void SweepLayout::set_fronts(SweepFronts fronts) {
  const auto check = [this](const std::vector<std::size_t>& set,
                            const char* name) {
    for (const std::size_t i : set) {
      if (i >= points.size()) {
        throw std::invalid_argument(
            std::string(name) + " index " + std::to_string(i) +
            " outside the sweep's " + std::to_string(points.size()) +
            " points");
      }
    }
  };
  check(fronts.aggregate, "front");
  for (const auto& slice : fronts.per_scenario) check(slice, "scenario-front");
  for (DsePoint& pt : points) pt.pareto_optimal = false;
  for (const std::size_t i : fronts.aggregate) points[i].pareto_optimal = true;
  front = std::move(fronts.aggregate);
  scenario_fronts = std::move(fronts.per_scenario);
}

void SweepLayout::overlay_validated(std::size_t i, DsePoint validated) {
  // The flags equal front membership (set_fronts), and a point's own
  // validated flag records its overlay, so both checks read point i alone:
  // overlays of distinct points may run concurrently.
  const char* refusal = i >= points.size()        ? "outside the sweep"
                        : !points[i].pareto_optimal ? "not on the front"
                        : points[i].validated       ? "validated twice"
                        : !validated.validated      ? "not validated"
                                                    : nullptr;
  if (refusal) {
    throw std::invalid_argument("validated index " + std::to_string(i) + " " +
                                refusal);
  }
  points[i] = std::move(validated);
}

SweepLayout lay_out_sweep(SweepArrivals arrivals, std::size_t grid_points) {
  std::vector<std::size_t>& flats = arrivals.flats;
  const std::size_t n = flats.size();
  if (arrivals.points.size() != n || arrivals.extras.size() != n) {
    throw std::invalid_argument("lay_out_sweep: arrival vectors disagree");
  }
  std::vector<bool> seen(grid_points, false);
  std::size_t nextras = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t f = flats[k];
    if (f >= grid_points || seen[f]) {
      throw std::invalid_argument(
          "lay_out_sweep: flat index " + std::to_string(f) +
          (f >= grid_points ? " outside grid of " + std::to_string(grid_points)
                            : " arrived twice"));
    }
    seen[f] = true;
    nextras += arrivals.extras[k].size();
  }
  if (n != grid_points) {
    const auto missing = std::find(seen.begin(), seen.end(), false);
    throw std::invalid_argument(
        "lay_out_sweep: grid point " +
        std::to_string(missing - seen.begin()) + " never arrived");
  }
  // The flats are a permutation of the grid: follow its cycles so entry f
  // holds flat index f. Arrivals in flat order move nothing.
  for (std::size_t k = 0; k < n; ++k) {
    while (flats[k] != k) {
      const std::size_t f = flats[k];
      std::swap(arrivals.points[k], arrivals.points[f]);
      std::swap(arrivals.extras[k], arrivals.extras[f]);
      std::swap(flats[k], flats[f]);
    }
  }
  SweepLayout out;
  out.grid_points = grid_points;
  out.points = std::move(arrivals.points);
  out.points.reserve(grid_points + nextras);
  out.extra_parents.reserve(nextras);
  for (std::size_t f = 0; f < grid_points; ++f) {
    for (DsePoint& pt : arrivals.extras[f]) {
      out.extra_parents.push_back(f);
      out.points.push_back(std::move(pt));
    }
  }
  return out;
}

// ------------------------------------------------------------- DseSession ---

namespace {

/// The single-graph session's scenario set, checked first so an empty graph
/// reports the historical single-graph message.
ScenarioSet single_scenario(const DseProblem& problem) {
  if (problem.graph.node_count() == 0) {
    throw std::invalid_argument("DseSession: task graph has no nodes");
  }
  return ScenarioSet{problem.graph};
}

}  // namespace

DseSession::DseSession(DseProblem problem, DseSpace space, AnnealConfig anneal,
                       DseConfig config)
    : shard_(problem, single_scenario(problem), std::move(space), anneal,
             std::move(config)) {}

// All up-front validation (config, objectives, space, scenarios, mapper
// resolution) lives in the shared kernel.
DseSession::DseSession(DseProblem problem, ScenarioSet scenarios,
                       DseSpace space, AnnealConfig anneal, DseConfig config)
    : shard_(std::move(problem), std::move(scenarios), std::move(space),
             anneal, std::move(config)) {}

void DseSession::on_point(PointObserver observer) {
  observer_ = std::move(observer);
}

void DseSession::notify(const DsePoint& point, Stage stage) {
  if (!observer_) return;
  const std::lock_guard<std::mutex> lock(observer_mu_);
  observer_(point, stage);
}

std::size_t DseSession::extra_parent(std::size_t i) const {
  if (i < layout_.grid_points) {
    throw std::out_of_range("DseSession::extra_parent: grid index");
  }
  return layout_.parent(i);
}

const std::vector<DseCandidate>& DseSession::enumerate() {
  enumerated_ = true;
  return shard_.candidates();
}

const std::vector<DsePoint>& DseSession::evaluate() {
  if (evaluated_) return layout_.points;
  enumerate();
  // Flat scenario-major layout: point s*C + c scores candidate c under
  // scenario s, and its RNG stream is derived from that flat index — with
  // one scenario this is exactly the historical per-candidate stream.
  const std::size_t total = shard_.grid_point_count();
  contexts_.resize(total);
  SweepArrivals arrivals;
  arrivals.reserve(total);
  const DseConfig& config = shard_.config();
  EvalCache* cache = config.use_eval_cache ? &EvalCache::global() : nullptr;
  const EvalCacheStats before = cache ? cache->stats() : EvalCacheStats{};
  // The per-point work is the shared kernel — the same code DseService's
  // pool runs on the same flat indices, so the two are byte-identical by
  // construction. Arrivals land in completion order; lay_out_sweep puts
  // them (and their mapping-front extras) in the flat layout afterwards.
  sim::parallel_for(
      total, sim::ParallelConfig{config.num_threads}, [&](std::size_t f) {
        FlatPointEval r = shard_.evaluate(f);
        contexts_[f] = std::move(r.context);
        const std::lock_guard<std::mutex> lock(observer_mu_);
        arrivals.add(f, std::move(r.point), std::move(r.extras));
        if (observer_) observer_(arrivals.points.back(), Stage::kEvaluated);
      });
  layout_ = lay_out_sweep(std::move(arrivals), total);
  for (std::size_t i = layout_.grid_points; i < layout_.points.size(); ++i) {
    notify(layout_.points[i], Stage::kEvaluated);
  }
  if (cache) cache_stats_ = cache->stats().delta_since(before);
  evaluated_ = true;
  return layout_.points;
}

const std::vector<std::size_t>& DseSession::front() {
  if (front_marked_) return layout_.front;
  evaluate();
  layout_.set_fronts(shard_.mark_fronts(layout_.points, layout_.extra_parents));
  front_marked_ = true;
  return layout_.front;
}

const std::vector<DsePoint>& DseSession::validate() {
  if (validated_) return layout_.points;
  const DseConfig& config = shard_.config();
  // An explicit validate() arms the replay even when config.validate_pareto
  // never did — police the same knobs the constructor checks in that case
  // (MappingValidator's own checks miss warmup_cycles).
  internal::validate_validator_config(config.validation);
  front();
  // Stage two: replay each survivor's stage-1 mapping (stored in the point)
  // on the event-driven NoC — on the very topology instance the context
  // built for stage 1 (take_topology), so nothing is rebuilt. Each
  // validation is a pure function of its point — the validator is RNG-free
  // — so sharding the front across threads cannot change any figure.
  const std::vector<std::size_t>& front = layout_.front;
  sim::parallel_for(
      front.size(), sim::ParallelConfig{config.num_threads},
      [&](std::size_t k) {
        const std::size_t i = front[k];
        DsePoint pt = layout_.points[i];
        // Mapping-front extras replay on their parent pair's context; only
        // the canonical grid point may consume the shared topology instance
        // (a concurrent extra would race the move), so extras fall back to
        // the deterministic PlatformDesc::build_topology() rebuild.
        EvalContext& ctx = *contexts_[layout_.parent(i)];
        internal::apply_validation(
            ctx, pt, config.validation,
            i < layout_.grid_points ? ctx.take_topology() : nullptr);
        notify(pt, Stage::kValidated);
        layout_.overlay_validated(i, std::move(pt));
      });
  validated_ = true;
  return layout_.points;
}

std::vector<DsePoint> DseSession::run() {
  front();
  if (shard_.config().validate_pareto) validate();
  return layout_.points;
}

}  // namespace soc::core
