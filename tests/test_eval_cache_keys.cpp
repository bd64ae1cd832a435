// The EvalCache memo's mechanics (soc/core/eval_cache.hpp): canonical key
// injectivity and the bounded LRU shards. Small enough for the `quick`
// label, so the sanitizer CI jobs run them; the whole-sweep warm/cold
// properties are in test_eval_cache.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <random>
#include <string>
#include <vector>

#include "soc/core/eval_cache.hpp"

namespace soc::core {
namespace {

using tech::Fabric;

// ---------------------------------------------------------------- keying ---

TEST(EvalCacheKeys, PlatformKeySeparatesEveryAxisAndConfigKnob) {
  const DseCandidate base;
  const DseConfig dc;
  const std::string k0 = EvalCache::platform_key(base, dc);
  EXPECT_EQ(k0, EvalCache::platform_key(base, dc));  // deterministic

  DseCandidate c = base;
  c.num_pes = base.num_pes + 4;
  EXPECT_NE(k0, EvalCache::platform_key(c, dc));
  c = base;
  c.threads_per_pe = base.threads_per_pe + 1;
  EXPECT_NE(k0, EvalCache::platform_key(c, dc));
  c = base;
  c.topology = noc::TopologyKind::kCrossbar;
  EXPECT_NE(k0, EvalCache::platform_key(c, dc));
  c = base;
  c.pe_fabric = Fabric::kAsip;
  EXPECT_NE(k0, EvalCache::platform_key(c, dc));
  c = base;
  c.node = *tech::find_node("65nm");
  EXPECT_NE(k0, EvalCache::platform_key(c, dc));
  // Same node name, different electricals: still a different platform.
  c = base;
  c.node.vdd_v *= 0.9;
  EXPECT_NE(k0, EvalCache::platform_key(c, dc));

  DseConfig d = dc;
  d.die_mm2 = 225.0;
  EXPECT_NE(k0, EvalCache::platform_key(base, d));
  d = dc;
  d.physical_links = false;
  EXPECT_NE(k0, EvalCache::platform_key(base, d));
  d = dc;
  d.link_timing.fo4_per_cycle += 2.0;
  EXPECT_NE(k0, EvalCache::platform_key(base, d));
  d = dc;
  d.pe_kind_groups = 2;
  EXPECT_NE(k0, EvalCache::platform_key(base, d));
  d = dc;
  d.pe_capacity = 6.0;
  EXPECT_NE(k0, EvalCache::platform_key(base, d));
  // Knobs that cannot change the platform products do not split the key.
  d = dc;
  d.num_threads = 3;
  d.validate_pareto = true;
  EXPECT_EQ(k0, EvalCache::platform_key(base, d));
}

TEST(EvalCacheKeys, GraphKeyIgnoresNamesButSeesStructure) {
  TaskGraph a("alpha");
  a.add_node({"stage0", 100.0, 1.0, {}, 0, 1.0});
  a.add_node({"stage1", 50.0, 1.0, {}, 1, 2.0});
  a.add_edge({0, 1, 8.0});
  TaskGraph b("beta");  // same structure, different names
  b.add_node({"x", 100.0, 1.0, {}, 0, 1.0});
  b.add_node({"y", 50.0, 1.0, {}, 1, 2.0});
  b.add_edge({0, 1, 8.0});
  EXPECT_EQ(EvalCache::graph_key(a), EvalCache::graph_key(b));

  TaskGraph c("alpha");  // one payload word differs
  c.add_node({"stage0", 100.0, 1.0, {}, 0, 1.0});
  c.add_node({"stage1", 50.0, 1.0, {}, 1, 2.0});
  c.add_edge({0, 1, 9.0});
  EXPECT_NE(EvalCache::graph_key(a), EvalCache::graph_key(c));

  TaskGraph d("alpha");  // one fabric restriction differs
  d.add_node({"stage0", 100.0, 1.0, {Fabric::kAsip}, 0, 1.0});
  d.add_node({"stage1", 50.0, 1.0, {}, 1, 2.0});
  d.add_edge({0, 1, 8.0});
  EXPECT_NE(EvalCache::graph_key(a), EvalCache::graph_key(d));
}

TEST(EvalCacheKeys, MappingKeyDropsSeedOnlyForDeterministicMappers) {
  const std::string pk = "p", gk = "g";
  const ObjectiveWeights w;
  const MappingConstraints mc;
  const AnnealConfig ac;
  // Stochastic: the derived seed (and anneal schedule) split entries.
  EXPECT_NE(EvalCache::mapping_key(pk, gk, "anneal", w, mc, ac, false, 1),
            EvalCache::mapping_key(pk, gk, "anneal", w, mc, ac, false, 2));
  AnnealConfig longer = ac;
  longer.iterations = ac.iterations + 1;
  EXPECT_NE(EvalCache::mapping_key(pk, gk, "anneal", w, mc, ac, false, 1),
            EvalCache::mapping_key(pk, gk, "anneal", w, mc, longer, false, 1));
  // Deterministic: seeds and anneal budgets share one entry.
  EXPECT_EQ(EvalCache::mapping_key(pk, gk, "heft", w, mc, ac, true, 1),
            EvalCache::mapping_key(pk, gk, "heft", w, mc, longer, true, 2));
  // But weights and constraint policy always split.
  ObjectiveWeights w2;
  w2.comm = w.comm * 2.0;
  EXPECT_NE(EvalCache::mapping_key(pk, gk, "heft", w, mc, ac, true, 1),
            EvalCache::mapping_key(pk, gk, "heft", w2, mc, ac, true, 1));
  EXPECT_NE(
      EvalCache::mapping_key(pk, gk, "heft", w, mc, ac, true, 1),
      EvalCache::mapping_key(pk, gk, "heft", w, MappingConstraints::none(),
                             ac, true, 1));
}

// ------------------------------------------------------------- mechanics ---

TEST(EvalCache, LruEvictsOldestAndCountsIt) {
  EvalCache cache(1024, 2);  // tiny mapping shard
  cache.store_mapping("a", {{0}, {}});
  cache.store_mapping("b", {{1}, {}});
  cache.store_mapping("a", {{9}, {}});  // duplicate: first insert wins
  ASSERT_TRUE(cache.find_mapping("a"));
  EXPECT_EQ(cache.find_mapping("a")->mapping, Mapping{0});
  cache.store_mapping("c", {{2}, {}});  // capacity 2: evicts LRU entry "b"
  EXPECT_FALSE(cache.find_mapping("b"));
  EXPECT_TRUE(cache.find_mapping("a"));
  EXPECT_TRUE(cache.find_mapping("c"));
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.clear();
  EXPECT_FALSE(cache.find_mapping("a"));
  EXPECT_GE(cache.stats().mapping_misses, 2u);  // counters survive clear()
  EXPECT_THROW(EvalCache(0, 1), std::invalid_argument);
}

TEST(EvalCache, ChurnPastCapacityKeepsExactlyTheSurvivors) {
  // ~1 KB keys (never inline in std::string) cycled through a tiny cache
  // with finds interleaved, against a reference LRU list: the shards index
  // their entries by views into the stored keys, so an eviction or a
  // recency splice that disturbed a key would lose or misreport an entry.
  constexpr std::size_t kPlatforms = 4;
  constexpr std::size_t kMappings = 8;
  constexpr int kKeys = 64;
  EvalCache cache(kPlatforms, kMappings);
  const auto key = [](int i) {
    return std::string(1000, static_cast<char>('a' + i % 26)) +
           std::to_string(i);
  };
  std::list<int> platforms;  // the model shards; front = most recent
  std::list<int> mappings;
  std::uint64_t evictions = 0;
  const auto contains = [](const std::list<int>& lru, int i) {
    return std::find(lru.begin(), lru.end(), i) != lru.end();
  };
  const auto find = [](std::list<int>& lru, int i) {
    const auto it = std::find(lru.begin(), lru.end(), i);
    if (it == lru.end()) return false;
    lru.splice(lru.begin(), lru, it);
    return true;
  };
  const auto store = [&](std::list<int>& lru, std::size_t cap, int i) {
    if (contains(lru, i)) return;  // first insert wins, recency unchanged
    lru.push_front(i);
    if (lru.size() > cap) {
      lru.pop_back();
      ++evictions;
    }
  };
  std::mt19937 rng(0xCAC4Eu);
  for (int step = 0; step < 400; ++step) {
    const int i = static_cast<int>(rng() % kKeys);
    switch (rng() % 4u) {
      case 0:
        cache.store_platform(key(i), {});
        store(platforms, kPlatforms, i);
        break;
      case 1:
        cache.store_mapping(key(i), {{i}, {}});
        store(mappings, kMappings, i);
        break;
      case 2:
        EXPECT_EQ(cache.find_platform(key(i)).has_value(), find(platforms, i))
            << "step " << step;
        break;
      default: {
        const auto hit = cache.find_mapping(key(i));
        ASSERT_EQ(hit.has_value(), find(mappings, i)) << "step " << step;
        if (hit) {
          EXPECT_EQ(hit->mapping, Mapping{i}) << "step " << step;
        }
      }
    }
  }
  EXPECT_EQ(cache.stats().evictions, evictions);
  // Every survivor is found and no evicted key is.
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(cache.find_platform(key(i)).has_value(), contains(platforms, i))
        << i;
    const auto hit = cache.find_mapping(key(i));
    ASSERT_EQ(hit.has_value(), contains(mappings, i)) << i;
    if (hit) {
      EXPECT_EQ(hit->mapping, Mapping{i}) << i;
    }
  }
}

}  // namespace
}  // namespace soc::core
