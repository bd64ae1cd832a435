#pragma once

/// \file
/// Cross-sweep candidate memo for stage-1 DSE evaluation.
///
/// Overlapping sweeps (two DseSpaces sharing an axis prefix, scenario
/// matrices over one platform ladder, repeated --quick runs) re-derive
/// identical candidates from scratch: two topology builds, a floorplan, a
/// silicon estimate, and a full mapper run per (scenario, candidate) pair.
/// EvalCache memoizes the two expensive stage-1 products:
///
///  - the *platform* entry — the silicon estimate (estimate_cost) and the
///    immutable PlatformDesc (floorplanned matrices included) of one
///    candidate under one DseConfig;
///  - the *mapping* entry — the Mapping and MappingCost one mapper produced
///    for one (platform, work graph, weights, constraints, seed) tuple.
///
/// Keys are canonical byte serializations of every input that can influence
/// the memoized value — not hashes. They walk the same per-type member
/// lists as the dse_wire codecs, so a member the wire carries is keyed too.
/// Two keys are equal exactly when every serialized field is equal
/// (fixed-width scalars, length-prefixed strings and containers), so a hit
/// can never return another candidate's result and the sweep's
/// bit-exactness contract survives caching: a warm sweep replays the cold
/// sweep's DsePoint stream bit for bit (the property test in
/// tests/test_eval_cache.cpp holds this at every thread count).
///
/// Entries are value-immutable: a candidate's platform and a seed's mapping
/// are pure functions of their key, so concurrent inserts under the same key
/// carry identical payloads and first-insert-wins is safe. Both shards are
/// LRU-bounded; hit/miss/evict counters are surfaced through stats() and,
/// per sweep, through DseSession::cache_stats() / `platform_dse`.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "soc/core/dse.hpp"

namespace soc::core {

/// Monotonic hit/miss/evict counters of one EvalCache (or the delta between
/// two snapshots of one — see delta_since).
struct EvalCacheStats {
  std::uint64_t platform_hits = 0;    ///< platform lookups served from memo
  std::uint64_t platform_misses = 0;  ///< platform lookups that rebuilt
  std::uint64_t mapping_hits = 0;     ///< mapping lookups served from memo
  std::uint64_t mapping_misses = 0;   ///< mapping lookups that re-mapped
  std::uint64_t evictions = 0;        ///< LRU entries dropped (both shards)

  /// Hits / lookups over both shards combined; 0 when nothing was looked up.
  double hit_rate() const noexcept;
  /// Mapping-shard hit fraction; 0 when nothing was looked up.
  double mapping_hit_rate() const noexcept;
  /// Member-wise difference against an earlier snapshot of the same cache —
  /// the per-sweep figure DseSession reports.
  EvalCacheStats delta_since(const EvalCacheStats& base) const noexcept;
};

/// Bounded, thread-safe memo of stage-1 evaluation products, shared across
/// sessions via global(). See the file comment for the keying contract.
class EvalCache {
 public:
  /// One candidate's platform-level products under one DseConfig. The
  /// PlatformDesc is shared (immutable after construction) between the
  /// cache and every EvalContext that hits on it.
  struct PlatformEntry {
    platform::PlatformCost silicon;
    std::shared_ptr<const PlatformDesc> platform;
  };

  /// One mapper run's products on one (platform, work graph, knobs) tuple.
  struct MappingEntry {
    Mapping mapping;
    MappingCost cost;
  };

  /// An empty cache holding at most the given entry counts per shard
  /// (oldest-use evicted beyond that). Throws std::invalid_argument on a
  /// zero capacity.
  explicit EvalCache(std::size_t max_platform_entries = 4096,
                     std::size_t max_mapping_entries = 65536);
  ~EvalCache();

  EvalCache(const EvalCache&) = delete;             ///< non-copyable
  EvalCache& operator=(const EvalCache&) = delete;  ///< non-copyable

  /// The process-wide cache every DseSession uses by default
  /// (DseConfig::use_eval_cache). Never destroyed (function-local static,
  /// intentionally leaked like the mapper registry), so worker threads may
  /// touch it during static teardown.
  static EvalCache& global();

  /// Looks up a platform entry; counts a hit or a miss.
  std::optional<PlatformEntry> find_platform(const std::string& key);
  /// Inserts a platform entry under `key` (kept once, in the entry). First
  /// insert wins: a concurrent duplicate (necessarily bit-identical, see the
  /// file comment) is dropped.
  void store_platform(std::string key, PlatformEntry entry);
  /// Looks up a mapping entry; counts a hit or a miss.
  std::optional<MappingEntry> find_mapping(const std::string& key);
  /// Inserts a mapping entry under `key` (first insert wins).
  void store_mapping(std::string key, MappingEntry entry);

  /// Counter snapshot (monotonic; counters survive clear()).
  EvalCacheStats stats() const;
  /// Drops every entry (counters keep running). Tests that assert
  /// cold-sweep invariants (exact build counts, context-owned topologies)
  /// call this on global() first so a warm process cannot skew them.
  void clear();

  // --- canonical key builders ----------------------------------------------

  /// Serializes everything that shapes a candidate's EvalContext platform
  /// products: the candidate axes, every ProcessNode parameter, and the
  /// DseConfig knobs feeding estimate_cost / the floorplan / PeDesc
  /// construction (physical_links, die_mm2, link_timing, pe_kind_groups,
  /// pe_capacity). Mapper-side knobs are deliberately absent — they key the
  /// mapping shard.
  static std::string platform_key(const DseCandidate& cand,
                                  const DseConfig& config);

  /// Serializes a scenario graph's mapping-relevant content: every TaskNode
  /// and TaskEdge member the wire carries except names — two structurally
  /// identical scenarios share their mapping results.
  static std::string graph_key(const TaskGraph& graph);

  /// Serializes one mapper run's identity on top of a platform and graph
  /// key: strategy name, objective weights, and constraint policy. For
  /// stochastic strategies (`deterministic_mapper` false) every anneal knob
  /// (its seed included) and the derived per-point seed are appended — two
  /// points share a memo entry only when their RNG streams are identical.
  /// Deterministic strategies (greedy, heft — see Mapper::deterministic())
  /// omit both, so they hit across candidate indices, sweeps, and anneal
  /// budgets.
  static std::string mapping_key(const std::string& platform_key,
                                 const std::string& graph_key,
                                 std::string_view mapper,
                                 const ObjectiveWeights& weights,
                                 const MappingConstraints& constraints,
                                 const AnnealConfig& anneal,
                                 bool deterministic_mapper,
                                 std::uint64_t derived_seed);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace soc::core
