// The dse_wire codecs every served sweep crosses: round-trips of the full
// sweep specification and the DsePoint stream, and strict rejection of
// truncated, resized, mutated, or random word streams (seeded fuzzing).
// Everything here is small enough for the `quick` label, so the sanitizer
// CI jobs run all of it.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "soc/core/dse_session.hpp"
#include "soc/core/dse_wire.hpp"
#include "soc/core/objective_space.hpp"

namespace soc::core {
namespace {

// ------------------------------------------------------------- fixtures ---

TaskGraph small_pipeline() {
  TaskGraph g("dist-pipe");
  TaskNode a;
  a.name = "src";
  a.work_ops = 150.0;
  TaskNode b;
  b.name = "filter";
  b.work_ops = 300.0;
  TaskNode c;
  c.name = "route";
  c.work_ops = 220.0;
  TaskNode d;
  d.name = "sink";
  d.work_ops = 90.0;
  const int ia = g.add_node(std::move(a));
  const int ib = g.add_node(std::move(b));
  const int ic = g.add_node(std::move(c));
  const int id = g.add_node(std::move(d));
  g.add_edge({ia, ib, 8.0});
  g.add_edge({ib, ic, 4.0});
  g.add_edge({ic, id, 4.0});
  g.add_edge({ia, ic, 2.0});
  return g;
}

TaskGraph second_scenario() {
  TaskGraph g("dist-alt");
  TaskNode a;
  a.name = "in";
  a.work_ops = 80.0;
  TaskNode b;
  b.name = "crunch";
  b.work_ops = 400.0;
  TaskNode c;
  c.name = "out";
  c.work_ops = 120.0;
  const int ia = g.add_node(std::move(a));
  const int ib = g.add_node(std::move(b));
  const int ic = g.add_node(std::move(c));
  g.add_edge({ia, ib, 6.0});
  g.add_edge({ib, ic, 3.0});
  return g;
}

DseSpace small_space() {
  DseSpace space;
  space.pe_counts = {4, 8};
  space.thread_counts = {2};
  space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D};
  space.fabrics = {tech::Fabric::kAsip};
  return space;
}

AnnealConfig small_anneal() {
  AnnealConfig a;
  a.iterations = 250;
  return a;
}

DseProblem small_problem(const TaskGraph& g) {
  return DseProblem{g, ObjectiveSpace::default_space(), ObjectiveWeights{},
                    tech::node_90nm()};
}

// ------------------------------------------------------------ wire codecs ---

SweepRequest sample_request() {
  SweepRequest req;
  req.problem = small_problem(small_pipeline());
  req.scenarios = {small_pipeline(), second_scenario()};
  req.space = small_space();
  req.anneal = small_anneal();
  req.config.mapper = "greedy";
  req.config.validate_pareto = true;
  req.config.die_mm2 = 42.5;
  req.config.pe_kind_groups = 2;
  return req;
}

TEST(DseWire, SweepRequestRoundTrip) {
  const SweepRequest req = sample_request();
  const std::vector<std::uint32_t> words = marshal_sweep_request(req);
  const SweepRequest back = unmarshal_sweep_request(words);
  // Injective encoding: a decode/re-encode cycle reproduces the words.
  EXPECT_EQ(marshal_sweep_request(back), words);
  EXPECT_EQ(back.scenarios.size(), 2u);
  EXPECT_EQ(back.scenarios[1].name(), "dist-alt");
  EXPECT_EQ(back.config.mapper, "greedy");
  EXPECT_EQ(back.problem.objectives.names(),
            ObjectiveSpace::default_space().names());
}

TEST(DseWire, PointRoundTrip) {
  // A point with every awkward field populated: negative violation ids,
  // non-finite-free doubles, flags, strings.
  DsePoint pt;
  pt.candidate.num_pes = 8;
  pt.candidate.threads_per_pe = 2;
  pt.candidate.topology = noc::TopologyKind::kFatTree;
  pt.candidate.pe_fabric = tech::Fabric::kAsip;
  pt.mapping_cost.bottleneck_cycles = 123.456;
  pt.mapping_cost.feasible = false;
  pt.mapping_cost.violations.push_back(ConstraintViolation{
      ConstraintViolationKind::kIncompatibleKind, -1, 3, "task kind 2 on pe 3"});
  pt.scenario = 1;
  pt.scenario_name = "dist-alt";
  pt.mapping = {0, 1, 2, 3};
  pt.mapper = "nsga2";
  pt.throughput_per_kcycle = 7.25;
  pt.pareto_optimal = true;
  pt.validated = true;
  pt.sim_to_analytic_ratio = 0.875;
  pt.sim_network_saturated = true;
  const std::vector<std::uint32_t> words = marshal_point(pt);
  const DsePoint back = unmarshal_point(words);
  EXPECT_EQ(marshal_point(back), words);
  EXPECT_EQ(back.scenario_name, "dist-alt");
  EXPECT_EQ(back.mapping, pt.mapping);
  ASSERT_EQ(back.mapping_cost.violations.size(), 1u);
  EXPECT_EQ(back.mapping_cost.violations[0].task, -1);
  EXPECT_TRUE(back.sim_network_saturated);
}

/// A 128-bit digest of a word stream — two independent 64-bit lanes (FNV-1a
/// and a multiply-xorshift mix) — plus its length, so a pinned encoding
/// fits on a line and any drift in any word changes it.
struct WordsDigest {
  std::size_t words = 0;
  std::uint64_t fnv = 0;
  std::uint64_t mix = 0;
  bool operator==(const WordsDigest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const WordsDigest& d) {
  return os << "{" << d.words << ", 0x" << std::hex << d.fnv << ", 0x"
            << d.mix << std::dec << "}";
}

WordsDigest digest(const std::vector<std::uint32_t>& words) {
  WordsDigest d{words.size(), 0xcbf29ce484222325ull, 0x9e3779b97f4a7c15ull};
  for (const std::uint32_t w : words) {
    d.fnv = (d.fnv ^ w) * 0x100000001b3ull;
    d.mix = (d.mix ^ w) * 0xbf58476d1ce4e5b9ull;
    d.mix ^= d.mix >> 31;
  }
  return d;
}

/// A point with every field set to a non-default value, violations and
/// sim_* figures included.
DsePoint full_point() {
  DsePoint pt;
  pt.candidate.num_pes = 12;
  pt.candidate.threads_per_pe = 3;
  pt.candidate.topology = noc::TopologyKind::kTorus2D;
  pt.candidate.pe_fabric = tech::Fabric::kEfpga;
  pt.candidate.node = tech::node_90nm();
  pt.mapping_cost.bottleneck_cycles = 812.5;
  pt.mapping_cost.comm_word_hops = 96.25;
  pt.mapping_cost.energy_pj_per_item = 1234.0625;
  pt.mapping_cost.pipeline_latency = 2048.75;
  pt.mapping_cost.feasible = false;
  pt.mapping_cost.objective = 1.0e6 + 0.5;
  pt.mapping_cost.violations = {
      ConstraintViolation{ConstraintViolationKind::kIncompatibleKind, 2, 5,
                          "kind 1 on pe 5"},
      ConstraintViolation{ConstraintViolationKind::kOverCapacity, -1, 7,
                          "pe 7 over capacity"}};
  pt.silicon.pe_area_mm2 = 21.5;
  pt.silicon.mem_area_mm2 = 8.25;
  pt.silicon.noc_area_mm2 = 3.125;
  pt.silicon.total_area_mm2 = 32.875;
  pt.silicon.peak_dynamic_mw = 950.5;
  pt.silicon.leakage_mw = 120.25;
  pt.silicon.mask_nre_usd = 1.5e6;
  pt.silicon.die_mm2 = 40.0;
  pt.silicon.noc_wire_mm = 61.75;
  pt.silicon.noc_wire_mw = 14.5;
  pt.silicon.noc_pipeline_mw = 2.25;
  pt.silicon.noc_max_extra_latency = 3;
  pt.scenario = 2;
  pt.scenario_name = "pinned-scn";
  pt.mapping = {0, 11, 4, 7, 7, 2};
  pt.mapper = "anneal";
  pt.throughput_per_kcycle = 1.2307;
  pt.mw_per_throughput = 870.0625;
  pt.pareto_optimal = true;
  pt.validated = true;
  pt.sim_throughput_per_kcycle = 1.0625;
  pt.sim_to_analytic_ratio = 0.8633;
  pt.sim_peak_link_utilization = 0.71875;
  pt.sim_avg_packet_latency = 23.5;
  pt.sim_network_saturated = true;
  return pt;
}

TEST(DseWire, EncodingMatchesPinnedWords) {
  // Round trips and fuzzing cannot see a format drift (a reordered or
  // re-typed field still round-trips), so the words themselves are pinned.
  // A change here breaks every client and daemon built before it.
  EXPECT_EQ(digest(marshal_sweep_request(sample_request())),
            (WordsDigest{342, 0xddf5eb728db041bbull, 0x31d0bc27dff52554ull}));
  EXPECT_EQ(digest(marshal_point(full_point())),
            (WordsDigest{128, 0x0479b7692fc0566cull, 0x5fc1a8d6f59d1d29ull}));
}

TEST(DseWire, WireWordsCountsTheEncodedPoint) {
  // The service sizes each kPoint message from wire_words before writing
  // it, so the count must equal the encoding's length exactly, string
  // padding included.
  EXPECT_EQ(wire_words(DsePoint{}), marshal_point(DsePoint{}).size());
  DsePoint pt = full_point();
  for (std::size_t len = 0; len <= 9; ++len) {
    pt.scenario_name.assign(len, 's');
    pt.mapper.assign(9 - len, 'm');
    pt.mapping.assign(len, 3);
    EXPECT_EQ(wire_words(pt), marshal_point(pt).size()) << "length " << len;
  }
}

TEST(DseWire, EveryTruncationThrows) {
  // Fuzz-ish sweep over every strict prefix: the decoders must throw
  // std::invalid_argument (never read out of bounds, never accept).
  const std::vector<std::uint32_t> point_words = marshal_point(DsePoint{});
  for (std::size_t n = 0; n < point_words.size(); ++n) {
    const std::vector<std::uint32_t> cut(point_words.begin(),
                                         point_words.begin() + n);
    EXPECT_THROW(unmarshal_point(cut), std::invalid_argument) << n;
  }
  const std::vector<std::uint32_t> req_words =
      marshal_sweep_request(sample_request());
  for (std::size_t n = 0; n < req_words.size(); n += 7) {
    const std::vector<std::uint32_t> cut(req_words.begin(),
                                         req_words.begin() + n);
    EXPECT_THROW(unmarshal_sweep_request(cut), std::invalid_argument) << n;
  }
}

TEST(DseWire, TrailingGarbageAndBogusEnumsThrow) {
  std::vector<std::uint32_t> words = marshal_point(DsePoint{});
  words.push_back(0);
  EXPECT_THROW(unmarshal_point(words), std::invalid_argument);
  // Corrupt the topology enum (first candidate field after the axes).
  DsePoint pt;
  std::vector<std::uint32_t> bad = marshal_point(pt);
  // Locate the topology word: candidate = pe_count i32 (2 words via u64),
  // threads i32 (2), topology u32 at index 4.
  bad[4] = 0xFFFFu;
  EXPECT_THROW(unmarshal_point(bad), std::invalid_argument);
  // A count field claiming more elements than the stream holds must be
  // rejected before allocation.
  std::vector<std::uint32_t> req = marshal_sweep_request(sample_request());
  req.resize(40);
  EXPECT_THROW(unmarshal_sweep_request(req), std::invalid_argument);
}

// Seeded randomized fuzzing of the strict decoders. The contract under
// arbitrary input is: either throw std::invalid_argument, or decode to a
// value whose re-encoding is byte-identical to the input (the decoder may
// never crash, read out of bounds, or silently accept a stream it cannot
// reproduce). Deterministic seeds keep failures replayable, and the quick
// label runs these under ASan and TSan in CI.

/// Draws a fuzz word biased toward the decoders' edge cases: zero,
/// all-ones, and small counts are far more likely than uniform noise to
/// land on a length/enum/flag field's boundary.
std::uint32_t fuzz_word(std::mt19937& rng) {
  switch (rng() % 8u) {
    case 0: return 0u;
    case 1: return 0xFFFFFFFFu;
    case 2: return rng() % 8u;
    default: return rng();
  }
}

/// Applies the throw-or-identical contract to one candidate word stream.
template <typename Unmarshal, typename Marshal>
void expect_throw_or_identical(const std::vector<std::uint32_t>& words,
                               Unmarshal unmarshal, Marshal marshal,
                               const char* what, unsigned iter) {
  try {
    const auto decoded = unmarshal(words);
    EXPECT_EQ(marshal(decoded), words)
        << what << " iteration " << iter
        << ": decoder accepted a stream it cannot re-encode";
  } catch (const std::invalid_argument&) {
    // Rejection is the expected outcome for nearly all mutants.
  }
}

TEST(DseWire, FuzzRandomStreamsThrowOrRoundTrip) {
  std::mt19937 rng(0xD5E01u);
  for (unsigned iter = 0; iter < 400; ++iter) {
    std::vector<std::uint32_t> words(rng() % 64u);
    for (auto& w : words) w = fuzz_word(rng);
    expect_throw_or_identical(
        words, [](const auto& v) { return unmarshal_point(v); },
        [](const auto& p) { return marshal_point(p); }, "point", iter);
    expect_throw_or_identical(
        words, [](const auto& v) { return unmarshal_sweep_request(v); },
        [](const auto& r) { return marshal_sweep_request(r); }, "request",
        iter);
  }
}

TEST(DseWire, FuzzMutatedPointStreams) {
  std::mt19937 rng(0xD5E02u);
  const std::vector<std::uint32_t> base = marshal_point([] {
    DsePoint pt;
    pt.candidate.num_pes = 8;
    pt.mapping = {0, 1, 2};
    pt.mapper = "anneal";
    pt.scenario_name = "fuzz";
    pt.pareto_optimal = true;
    return pt;
  }());
  for (unsigned iter = 0; iter < 600; ++iter) {
    std::vector<std::uint32_t> words = base;
    const unsigned edits = 1u + rng() % 3u;
    for (unsigned e = 0; e < edits; ++e) {
      words[rng() % words.size()] = fuzz_word(rng);
    }
    expect_throw_or_identical(
        words, [](const auto& v) { return unmarshal_point(v); },
        [](const auto& p) { return marshal_point(p); }, "mutated point",
        iter);
  }
}

TEST(DseWire, FuzzMutatedRequestStreams) {
  std::mt19937 rng(0xD5E03u);
  const std::vector<std::uint32_t> base =
      marshal_sweep_request(sample_request());
  for (unsigned iter = 0; iter < 300; ++iter) {
    std::vector<std::uint32_t> words = base;
    const unsigned edits = 1u + rng() % 3u;
    for (unsigned e = 0; e < edits; ++e) {
      words[rng() % words.size()] = fuzz_word(rng);
    }
    expect_throw_or_identical(
        words, [](const auto& v) { return unmarshal_sweep_request(v); },
        [](const auto& r) { return marshal_sweep_request(r); },
        "mutated request", iter);
  }
}

TEST(DseWire, FuzzResizedStreams) {
  // Random truncations and garbage extensions of valid streams: the
  // decoders must reject every length change (both codecs are exact-length
  // via expect_end, so a resized stream can never re-encode identically).
  std::mt19937 rng(0xD5E04u);
  const std::vector<std::uint32_t> point = marshal_point(DsePoint{});
  const std::vector<std::uint32_t> req =
      marshal_sweep_request(sample_request());
  for (unsigned iter = 0; iter < 200; ++iter) {
    for (const auto* base : {&point, &req}) {
      std::vector<std::uint32_t> words = *base;
      if (rng() % 2u) {
        words.resize(rng() % words.size());  // strict prefix
      } else {
        const unsigned extra = 1u + rng() % 4u;
        for (unsigned e = 0; e < extra; ++e) words.push_back(fuzz_word(rng));
      }
      const bool is_point = base == &point;
      if (is_point) {
        EXPECT_THROW(unmarshal_point(words), std::invalid_argument) << iter;
      } else {
        EXPECT_THROW(unmarshal_sweep_request(words), std::invalid_argument)
            << iter;
      }
    }
  }
}

}  // namespace
}  // namespace soc::core
