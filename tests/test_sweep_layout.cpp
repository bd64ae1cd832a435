// The one sweep result layout (core::SweepLayout) and the front marker every
// sweep path shares: ShardEvaluator::mark_fronts against the copy-per-slice
// marker it replaced, on random scenario sets with mapping-front extras,
// ties and infeasible points; and the two layout steps (set_fronts,
// overlay_validated) the session, the service and the client all call.
// No sweep is evaluated, so everything here carries the `quick` label.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "soc/core/dse_session.hpp"
#include "soc/core/objective_space.hpp"

namespace soc::core {
namespace {

TaskGraph one_task(const std::string& name) {
  TaskGraph g(name);
  g.add_node({"t", 100.0, 1.0, {}, 0, 1.0});
  return g;
}

/// A shard over `nscen` one-task scenarios and `ncand` candidates (one per
/// PE count). Nothing is evaluated: mark_fronts reads only the shape.
ShardEvaluator shard_of(std::size_t nscen, std::size_t ncand, int threads) {
  ScenarioSet scenarios;
  for (std::size_t s = 0; s < nscen; ++s) {
    scenarios.push_back(one_task("s" + std::to_string(s)));
  }
  DseSpace space;
  space.pe_counts.clear();
  for (std::size_t c = 0; c < ncand; ++c) {
    space.pe_counts.push_back(static_cast<int>(c) + 1);
  }
  space.thread_counts = {1};
  space.topologies = {noc::TopologyKind::kBus};
  space.fabrics = {tech::Fabric::kAsip};
  DseConfig config;
  config.num_threads = threads;
  config.use_eval_cache = false;
  return ShardEvaluator(DseProblem{one_task("p")}, std::move(scenarios),
                        std::move(space), AnnealConfig{}, config);
}

/// The marker mark_fronts used before it marked slices by index: one
/// scenario marks the whole vector; otherwise each slice (grid run plus
/// its extras) is copied out, marked with ObjectiveSpace::mark_front, and
/// its flags are copied back.
SweepFronts copy_per_slice_fronts(const ObjectiveSpace& objectives,
                                  const DseConfig& config,
                                  std::vector<DsePoint>& points,
                                  std::size_t nscen, std::size_t ncand,
                                  const std::vector<std::size_t>& parents) {
  const std::size_t grid = nscen * ncand;
  SweepFronts out;
  out.per_scenario.assign(nscen, {});
  if (nscen == 1) {
    out.per_scenario[0] = objectives.mark_front(points, config);
    out.aggregate = out.per_scenario[0];
    return out;
  }
  std::vector<std::size_t> extra_begin(nscen + 1, 0);
  std::size_t e = 0;
  for (std::size_t s = 0; s < nscen; ++s) {
    extra_begin[s] = e;
    while (e < parents.size() && parents[e] < (s + 1) * ncand) ++e;
  }
  extra_begin[nscen] = e;
  for (std::size_t s = 0; s < nscen; ++s) {
    std::vector<DsePoint> slice(points.begin() + s * ncand,
                                points.begin() + (s + 1) * ncand);
    const std::size_t eb = extra_begin[s];
    const std::size_t ee = extra_begin[s + 1];
    for (std::size_t x = eb; x < ee; ++x) slice.push_back(points[grid + x]);
    std::vector<std::size_t> idx = objectives.mark_front(slice, config);
    for (std::size_t c = 0; c < ncand; ++c) {
      points[s * ncand + c].pareto_optimal = slice[c].pareto_optimal;
    }
    for (std::size_t x = eb; x < ee; ++x) {
      points[grid + x].pareto_optimal = slice[ncand + (x - eb)].pareto_optimal;
    }
    for (std::size_t& k : idx) {
      k = k < ncand ? s * ncand + k : grid + eb + (k - ncand);
    }
    out.aggregate.insert(out.aggregate.end(), idx.begin(), idx.end());
    out.per_scenario[s] = std::move(idx);
  }
  std::sort(out.aggregate.begin(), out.aggregate.end());
  return out;
}

/// A point whose three default axes (tput, area, power) come from small
/// value sets, so ties and duplicates are common; one in five infeasible.
DsePoint random_point(std::mt19937& rng) {
  DsePoint pt;
  pt.throughput_per_kcycle = static_cast<double>(rng() % 4);
  pt.silicon.total_area_mm2 = static_cast<double>(rng() % 3);
  pt.silicon.peak_dynamic_mw = static_cast<double>(rng() % 3);
  pt.mapping_cost.feasible = rng() % 5 != 0;
  pt.pareto_optimal = rng() % 2 == 0;  // stale flags must be overwritten
  return pt;
}

TEST(SweepLayout, MarkFrontsMatchesTheCopyPerSliceMarker) {
  std::mt19937 rng(0xF207u);
  // Random shapes, plus two whose slices cross the 256-point threshold of
  // the sharded dominance pass.
  struct Shape {
    std::size_t nscen, ncand;
  };
  std::vector<Shape> shapes{{2, 300}, {1, 280}};
  for (int t = 0; t < 60; ++t) {
    shapes.push_back({1 + rng() % 5, 1 + rng() % 40});
  }
  for (const Shape& shape : shapes) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::to_string(shape.nscen) + " scenarios x " +
                   std::to_string(shape.ncand) + " candidates, " +
                   std::to_string(threads) + " threads");
      const ShardEvaluator shard = shard_of(shape.nscen, shape.ncand, threads);
      const std::size_t grid = shard.grid_point_count();
      std::vector<DsePoint> points;
      for (std::size_t f = 0; f < grid; ++f) {
        points.push_back(random_point(rng));
      }
      std::vector<std::size_t> parents;
      for (std::size_t f = 0; f < grid; ++f) {
        for (std::size_t x = rng() % 4; x < 2; ++x) {
          parents.push_back(f);
          points.push_back(random_point(rng));
        }
      }
      std::vector<DsePoint> want = points;
      const SweepFronts ref =
          copy_per_slice_fronts(shard.problem().objectives, shard.config(),
                                want, shape.nscen, shape.ncand, parents);
      const SweepFronts got = shard.mark_fronts(points, parents);
      EXPECT_EQ(got.aggregate, ref.aggregate);
      EXPECT_EQ(got.per_scenario, ref.per_scenario);
      for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_EQ(points[i].pareto_optimal, want[i].pareto_optimal) << i;
      }
    }
  }
}

/// Expects `fn` to throw std::invalid_argument whose message contains
/// `text`.
template <typename Fn>
void expect_refusal(Fn fn, const std::string& text) {
  try {
    fn();
    ADD_FAILURE() << "no refusal; expected '" << text << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
  }
}

TEST(SweepLayout, FrontsSetFlagsAndValidatedPointsOverlayFrontMembersOnce) {
  SweepLayout layout;
  layout.points.resize(4);
  layout.grid_points = 4;
  layout.points[0].pareto_optimal = true;  // stale: not on the new front
  layout.set_fronts({{1, 3}, {{1, 3}}});
  EXPECT_EQ(layout.front, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(layout.scenario_fronts,
            (std::vector<std::vector<std::size_t>>{{1, 3}}));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(layout.points[i].pareto_optimal, i == 1 || i == 3) << i;
  }
  expect_refusal([&] { layout.set_fronts({{1, 4}, {}}); }, "front index 4");
  expect_refusal([&] { layout.set_fronts({{1}, {{7}}}); },
                 "scenario-front index 7");

  DsePoint replayed;
  replayed.pareto_optimal = true;
  replayed.validated = true;
  replayed.sim_to_analytic_ratio = 0.5;
  expect_refusal([&] { layout.overlay_validated(2, replayed); },
                 "validated index 2 not on the front");
  expect_refusal([&] { layout.overlay_validated(9, replayed); },
                 "validated index 9 outside");
  DsePoint unvalidated = replayed;
  unvalidated.validated = false;
  expect_refusal([&] { layout.overlay_validated(1, unvalidated); },
                 "validated index 1 not validated");
  layout.overlay_validated(1, replayed);
  EXPECT_EQ(layout.points[1].sim_to_analytic_ratio, 0.5);
  expect_refusal([&] { layout.overlay_validated(1, replayed); },
                 "validated index 1 validated twice");
}

}  // namespace
}  // namespace soc::core
