#include "soc/core/eval_cache.hpp"

#include <atomic>
#include <list>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "dse_fields.hpp"

namespace soc::core {

namespace {

// --- canonical key bytes ------------------------------------------------------
// The sink FieldWriter encodes keys onto: fixed-width scalars in host byte
// order (keys never leave the process), one byte per boolean, and u64
// length prefixes. Doubles go as their IEEE-754 bit patterns, so "same
// value" means the bit-exact same value the evaluators will compute with.
class KeySink {
 public:
  explicit KeySink(std::string& out) : out_(out) {}

  void u32(std::uint32_t v) { raw(v); }
  void u64(std::uint64_t v) { raw(v); }
  void i32(std::int32_t v) { raw(v); }
  void f64(double v) { raw(v); }
  void boolean(bool v) { out_.push_back(v ? '\1' : '\0'); }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s);
  }

 private:
  template <class T>
  void raw(T v) {
    out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  std::string& out_;
};

/// Writes key fields; names are skipped (see dse_fields.hpp).
using KeyWriter = fields::FieldWriter<KeySink, false>;

// --- bounded LRU shard -------------------------------------------------------

// Each key is stored once, in its list node; the index views it there
// (list nodes never move, so the views stay valid until the node is
// erased). A mapping key embeds its platform and graph keys (~1 KB), so a
// second copy in the index would double a full shard's key bytes.
template <typename V>
class LruShard {
 public:
  explicit LruShard(std::size_t capacity) : capacity_(capacity) {}

  std::optional<V> find(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);  // mark most recent
    return it->second->value;
  }

  // First insert under a key wins; a later duplicate (identical by the
  // value-immutability argument in the header) is dropped.
  void insert(std::string key, V value,
              std::atomic<std::uint64_t>& evictions) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (index_.find(key) != index_.end()) return;
    order_.push_front(Entry{std::move(key), std::move(value)});
    index_.emplace(order_.front().key, order_.begin());
    while (index_.size() > capacity_) {
      index_.erase(order_.back().key);
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
  struct Entry {
    std::string key;
    V value;
  };

  std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
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

void EvalCache::store_platform(std::string key, PlatformEntry entry) {
  impl_->platforms.insert(std::move(key), std::move(entry), impl_->evictions);
}

std::optional<EvalCache::MappingEntry> EvalCache::find_mapping(
    const std::string& key) {
  auto hit = impl_->mappings.find(key);
  (hit ? impl_->mapping_hits : impl_->mapping_misses)
      .fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void EvalCache::store_mapping(std::string key, MappingEntry entry) {
  impl_->mappings.insert(std::move(key), std::move(entry), impl_->evictions);
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
// Each key opens with a schema tag (bump it on any change to what a key
// covers) and walks the member lists of dse_fields.hpp, so a member added
// there is keyed as soon as it is carried.

std::string EvalCache::platform_key(const DseCandidate& cand,
                                    const DseConfig& config) {
  std::string k;
  k.reserve(224);
  KeySink sink(k);
  sink.str("soc-platform-v2");
  // The candidate with every ProcessNode parameter (nodes differing in any
  // electrical or economic figure never share an entry, even under one
  // name), then the DseConfig knobs that flow into estimate_cost, the
  // floorplan, or the candidate PE pool.
  KeyWriter{sink}(cand, config.physical_links, config.die_mm2,
                  config.link_timing, config.pe_kind_groups,
                  config.pe_capacity);
  return k;
}

std::string EvalCache::graph_key(const TaskGraph& graph) {
  std::string k;
  k.reserve(64 + 64 * static_cast<std::size_t>(graph.node_count()));
  KeySink sink(k);
  sink.str("soc-graph-v2");
  KeyWriter{sink}(graph);
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
  k.reserve(platform_key.size() + graph_key.size() + mapper.size() + 128);
  KeySink sink(k);
  sink.str("soc-mapping-v2");
  KeyWriter key{sink};
  key(platform_key, graph_key, mapper, weights, constraints,
      deterministic_mapper);
  if (!deterministic_mapper) {
    // Stochastic strategies are functions of their RNG stream too: the
    // anneal schedule and the per-point derived seed pin the exact
    // trajectory, so a hit replays precisely the run it memoized.
    key(anneal, derived_seed);
  }
  return k;
}

}  // namespace soc::core
