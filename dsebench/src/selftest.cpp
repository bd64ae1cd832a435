// Self-tests of the benchmark's own helpers: the tail percentile rule, the
// result digest and the seeded request generation. Prints each failure and
// exits 1 if there was one.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "soc/core/eval_cache.hpp"
#include "workloads.hpp"

using namespace dsebench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "dsebench selftest FAILED: %s\n", what);
    ++failures;
  }
}

void test_percentile() {
  for (std::size_t n = 1; n <= 1000; ++n) {
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
    for (const double p : {50.0, 90.0, 99.0}) {
      const auto pc = percentile(v, p);
      // Reported only with ten samples beyond it, and reported whenever
      // the sample count allows it.
      const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
      expect(pc.has_value() == (n - rank >= kMinBeyond), "percentile reported iff 10 beyond");
      if (!pc) continue;
      std::size_t above = 0;
      for (const double x : v) above += x > pc->value ? 1 : 0;
      expect(pc->beyond >= kMinBeyond && above == pc->beyond && pc->samples == n,
             "reported tail has its beyond count of larger samples");
    }
  }
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(percentile(hundred, 90) && percentile(hundred, 90)->value == 90.0,
         "p90 of 1..100 is 90 with 10 beyond");
  expect(!percentile(std::vector<double>(99, 1.0), 90), "99 samples give no p90");
  // Failed sweeps are infinitely slow: they sort into the tail.
  hundred[0] = std::numeric_limits<double>::infinity();
  expect(percentile(hundred, 90)->value == 91.0, "an infinite sample sorts last");
}

/// Flips the lowest bit of a double's representation.
void flip(double& d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  bits ^= 1;
  std::memcpy(&d, &bits, sizeof bits);
}

void test_digest() {
  std::vector<core::DsePoint> pts(3);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    pts[i].mapping = {0, 1, 2};
    pts[i].throughput_per_kcycle = 1.5 + static_cast<double>(i);
    pts[i].mapping_cost.bottleneck_cycles = 640.0;
    pts[i].silicon.pe_area_mm2 = 12.25;
    pts[i].sim_avg_packet_latency = 17.0;
  }
  const std::vector<std::size_t> front = {0, 2};
  const std::vector<std::vector<std::size_t>> sfront = {{0, 2}};
  const auto digest = [&](const std::vector<core::DsePoint>& p) {
    return digest_result(p, p.size(), {}, front, sfront);
  };
  const Digest base = digest(pts);
  expect(digest(pts) == base, "digest is deterministic");
  const auto changed = [&](auto mutate, const char* what) {
    std::vector<core::DsePoint> p = pts;
    mutate(p[1]);
    expect(!(digest(p) == base), what);
  };
  changed([](core::DsePoint& p) { flip(p.throughput_per_kcycle); }, "flip throughput");
  changed([](core::DsePoint& p) { flip(p.mw_per_throughput); }, "flip mw_per_throughput");
  changed([](core::DsePoint& p) { flip(p.mapping_cost.bottleneck_cycles); }, "flip bottleneck");
  changed([](core::DsePoint& p) { flip(p.mapping_cost.energy_pj_per_item); }, "flip energy");
  changed([](core::DsePoint& p) { flip(p.silicon.pe_area_mm2); }, "flip area");
  changed([](core::DsePoint& p) { flip(p.sim_avg_packet_latency); }, "flip sim latency");
  changed([](core::DsePoint& p) { flip(p.sim_throughput_per_kcycle); }, "flip sim throughput");
  changed([](core::DsePoint& p) { p.mapping[2] ^= 1; }, "flip a mapping bit");
  changed([](core::DsePoint& p) { p.candidate.num_pes ^= 1; }, "flip a candidate bit");
  changed([](core::DsePoint& p) { p.pareto_optimal = !p.pareto_optimal; }, "flip pareto flag");
  changed([](core::DsePoint& p) { p.validated = !p.validated; }, "flip validated flag");
  expect(!(digest_result(pts, pts.size(), {}, {0, 3}, sfront) == base),
         "flip a front index bit");
  expect(!(digest_result(pts, pts.size(), {}, front, {{0, 3}}) == base),
         "flip a scenario-front index bit");
}

void test_requests() {
  for (const char* name : {"new_app", "node_wall", "rerank", "validate_front"}) {
    const Workload w = *parse_workload(name);
    const RequestStream a(w, 7), again(w, 7), other(w, 8);
    for (std::uint64_t k : {0ULL, 1ULL, 5ULL, 123ULL}) {
      const core::SweepRequest ra = a.sweep(k);
      const core::SweepRequest rb = other.sweep(k);
      expect(core::marshal_sweep_request(ra) == core::marshal_sweep_request(again.sweep(k)),
             "same seed, same request words");
      expect(core::marshal_sweep_request(ra) != core::marshal_sweep_request(rb),
             "different seed, different request");
      if (w == Workload::kNodeWall) {
        expect(ra.config.die_mm2 != rb.config.die_mm2, "different seed, different die budget");
        expect(ra.config.die_mm2 != a.sweep(k + 3).config.die_mm2,
               "every sweep has its own die budget");
      } else {
        expect(core::EvalCache::graph_key(ra.scenarios[0]) !=
                   core::EvalCache::graph_key(rb.scenarios[0]),
               "different seed, different graphs");
      }
    }
    const auto pa = a.priming();
    const auto pb = again.priming();
    expect(pa.size() == pb.size(), "same priming size");
    for (std::size_t i = 0; i < pa.size() && i < pb.size(); ++i) {
      expect(core::marshal_sweep_request(pa[i]) == core::marshal_sweep_request(pb[i]),
             "same seed, same priming words");
    }
  }
}

}  // namespace

int main() {
  test_percentile();
  test_digest();
  test_requests();
  if (failures) return 1;
  std::fprintf(stderr, "dsebench selftest: ok\n");
  return 0;
}
