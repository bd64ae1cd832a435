#include "soc/core/eval_cache.hpp"

#include <atomic>
#include <cstring>
#include <list>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace soc::core {

namespace {

// --- canonical byte serialization -------------------------------------------
// Fixed-width little-endian scalars and length-prefixed strings make the
// encoding injective: equal keys imply equal inputs, field for field. Doubles
// are serialized as their IEEE-754 bit patterns, so "same value" means the
// bit-exact same value the evaluators will compute with.

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_i32(std::string& out, std::int32_t v) {
  put_u64(out, static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_bool(std::string& out, bool v) { out.push_back(v ? '\1' : '\0'); }

void put_str(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

// --- bounded LRU shard -------------------------------------------------------

template <typename V>
class LruShard {
 public:
  explicit LruShard(std::size_t capacity) : capacity_(capacity) {}

  std::optional<V> find(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);  // mark most recent
    return it->second->second;
  }

  // First insert under a key wins; a later duplicate (identical by the
  // value-immutability argument in the header) is dropped.
  void insert(const std::string& key, V value,
              std::atomic<std::uint64_t>& evictions) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (index_.find(key) != index_.end()) return;
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    while (index_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    order_.clear();
  }

 private:
  std::mutex mu_;
  std::size_t capacity_;
  std::list<std::pair<std::string, V>> order_;  // front = most recently used
  std::unordered_map<std::string, typename std::list<
                                      std::pair<std::string, V>>::iterator>
      index_;
};

}  // namespace

// --- stats -------------------------------------------------------------------

double EvalCacheStats::hit_rate() const noexcept {
  const std::uint64_t hits = platform_hits + mapping_hits;
  const std::uint64_t total = hits + platform_misses + mapping_misses;
  return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
}

double EvalCacheStats::mapping_hit_rate() const noexcept {
  const std::uint64_t total = mapping_hits + mapping_misses;
  return total ? static_cast<double>(mapping_hits) / static_cast<double>(total)
               : 0.0;
}

EvalCacheStats EvalCacheStats::delta_since(
    const EvalCacheStats& base) const noexcept {
  return {platform_hits - base.platform_hits,
          platform_misses - base.platform_misses,
          mapping_hits - base.mapping_hits,
          mapping_misses - base.mapping_misses,
          evictions - base.evictions};
}

// --- EvalCache ---------------------------------------------------------------

struct EvalCache::Impl {
  Impl(std::size_t platform_cap, std::size_t mapping_cap)
      : platforms(platform_cap), mappings(mapping_cap) {}

  LruShard<PlatformEntry> platforms;
  LruShard<MappingEntry> mappings;
  std::atomic<std::uint64_t> platform_hits{0};
  std::atomic<std::uint64_t> platform_misses{0};
  std::atomic<std::uint64_t> mapping_hits{0};
  std::atomic<std::uint64_t> mapping_misses{0};
  std::atomic<std::uint64_t> evictions{0};
};

EvalCache::EvalCache(std::size_t max_platform_entries,
                     std::size_t max_mapping_entries) {
  if (max_platform_entries == 0 || max_mapping_entries == 0) {
    throw std::invalid_argument("EvalCache: shard capacity must be > 0");
  }
  impl_ = std::make_unique<Impl>(max_platform_entries, max_mapping_entries);
}

EvalCache::~EvalCache() = default;

EvalCache& EvalCache::global() {
  // Leaked on purpose (same pattern as the mapper registry): sweeps on
  // worker threads may outlive main()'s static destructors.
  static EvalCache& cache = *new EvalCache();
  return cache;
}

std::optional<EvalCache::PlatformEntry> EvalCache::find_platform(
    const std::string& key) {
  auto hit = impl_->platforms.find(key);
  (hit ? impl_->platform_hits : impl_->platform_misses)
      .fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void EvalCache::store_platform(const std::string& key, PlatformEntry entry) {
  impl_->platforms.insert(key, std::move(entry), impl_->evictions);
}

std::optional<EvalCache::MappingEntry> EvalCache::find_mapping(
    const std::string& key) {
  auto hit = impl_->mappings.find(key);
  (hit ? impl_->mapping_hits : impl_->mapping_misses)
      .fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void EvalCache::store_mapping(const std::string& key, MappingEntry entry) {
  impl_->mappings.insert(key, std::move(entry), impl_->evictions);
}

EvalCacheStats EvalCache::stats() const {
  return {impl_->platform_hits.load(std::memory_order_relaxed),
          impl_->platform_misses.load(std::memory_order_relaxed),
          impl_->mapping_hits.load(std::memory_order_relaxed),
          impl_->mapping_misses.load(std::memory_order_relaxed),
          impl_->evictions.load(std::memory_order_relaxed)};
}

void EvalCache::clear() {
  impl_->platforms.clear();
  impl_->mappings.clear();
}

// --- key builders ------------------------------------------------------------

std::string EvalCache::platform_key(const DseCandidate& cand,
                                    const DseConfig& config) {
  std::string k;
  k.reserve(224);
  put_str(k, "soc-platform-v1");  // schema tag: bump on any field change
  put_i32(k, cand.num_pes);
  put_i32(k, cand.threads_per_pe);
  put_i32(k, static_cast<std::int32_t>(cand.topology));
  put_i32(k, static_cast<std::int32_t>(cand.pe_fabric));
  // Every ProcessNode parameter: nodes differing in any electrical or
  // economic figure never share an entry, even under one name.
  put_str(k, cand.node.name);
  put_f64(k, cand.node.feature_nm);
  put_i32(k, cand.node.year);
  put_f64(k, cand.node.vdd_v);
  put_f64(k, cand.node.fo4_ps);
  put_f64(k, cand.node.wire_r_ohm_per_mm);
  put_f64(k, cand.node.wire_c_ff_per_mm);
  put_f64(k, cand.node.density_mtx_mm2);
  put_f64(k, cand.node.mask_set_cost_usd);
  put_f64(k, cand.node.sram_bit_um2);
  put_f64(k, cand.node.leakage_rel);
  // DseConfig knobs that flow into estimate_cost, the floorplan, or the
  // candidate PE pool.
  put_bool(k, config.physical_links);
  put_f64(k, config.die_mm2);
  put_f64(k, config.link_timing.fo4_per_cycle);
  put_i32(k, config.link_timing.critical_paths);
  put_f64(k, config.link_timing.yield_target);
  put_bool(k, config.link_timing.apply_guardband);
  put_i32(k, config.pe_kind_groups);
  put_f64(k, config.pe_capacity);
  return k;
}

std::string EvalCache::graph_key(const TaskGraph& graph) {
  std::string k;
  k.reserve(64 + 64 * static_cast<std::size_t>(graph.node_count()));
  put_str(k, "soc-graph-v1");
  put_i32(k, graph.node_count());
  for (const TaskNode& n : graph.nodes()) {
    put_f64(k, n.work_ops);
    put_f64(k, n.state_kbytes);
    put_i32(k, n.kind);
    put_f64(k, n.demand);
    put_u64(k, n.allowed_fabrics.size());
    for (const tech::Fabric f : n.allowed_fabrics) {
      put_i32(k, static_cast<std::int32_t>(f));
    }
  }
  put_i32(k, graph.edge_count());
  for (const TaskEdge& e : graph.edges()) {
    put_i32(k, e.src);
    put_i32(k, e.dst);
    put_f64(k, e.words_per_item);
  }
  return k;
}

std::string EvalCache::mapping_key(const std::string& platform_key,
                                   const std::string& graph_key,
                                   std::string_view mapper,
                                   const ObjectiveWeights& weights,
                                   const MappingConstraints& constraints,
                                   const AnnealConfig& anneal,
                                   bool deterministic_mapper,
                                   std::uint64_t derived_seed) {
  std::string k;
  k.reserve(platform_key.size() + graph_key.size() + 96);
  put_str(k, "soc-mapping-v1");
  put_str(k, platform_key);
  put_str(k, graph_key);
  put_str(k, mapper);
  put_f64(k, weights.load);
  put_f64(k, weights.comm);
  put_f64(k, weights.energy);
  put_bool(k, constraints.enforce_kinds);
  put_bool(k, constraints.enforce_capacity);
  put_bool(k, deterministic_mapper);
  if (!deterministic_mapper) {
    // Stochastic strategies are functions of their RNG stream too: the
    // anneal schedule and the per-point derived seed pin the exact
    // trajectory, so a hit replays precisely the run it memoized.
    put_i32(k, anneal.iterations);
    put_f64(k, anneal.t_start);
    put_f64(k, anneal.t_end);
    put_u64(k, derived_seed);
  }
  return k;
}

}  // namespace soc::core
