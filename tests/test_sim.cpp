// Unit tests for the simulation kernel: RNG, statistics, event queue and
// the parallel executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "soc/sim/event_queue.hpp"
#include "soc/sim/parallel.hpp"
#include "soc/sim/rng.hpp"
#include "soc/sim/stats.hpp"

namespace soc::sim {
namespace {

// ----------------------------------------------------------------- RNG ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng r(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80'000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[r.next_below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, NextInInclusiveRange) {
  Rng r(3);
  for (int i = 0; i < 500; ++i) {
    const auto v = r.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    min = std::min(min, v);
    max = std::max(max, v);
  }
  EXPECT_LT(min, 0.01);
  EXPECT_GT(max, 0.99);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(5);
  EXPECT_FALSE(r.next_bool(0.0));
  EXPECT_TRUE(r.next_bool(1.0));
  EXPECT_FALSE(r.next_bool(-1.0));
  EXPECT_TRUE(r.next_bool(2.0));
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r(21);
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) s.push(r.next_exponential(10.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.3);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, GeometricMeanConverges) {
  Rng r(22);
  const double p = 0.25;
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) {
    s.push(static_cast<double>(r.next_geometric(p)));
  }
  // Mean failures before success = (1-p)/p = 3.
  EXPECT_NEAR(s.mean(), 3.0, 0.15);
}

TEST(Rng, NormalMoments) {
  Rng r(23);
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) s.push(r.next_normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(77);
  Rng a = parent.split();
  Rng b = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, WorksWithStdShuffle) {
  Rng r(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  const auto orig = v;
  std::shuffle(v.begin(), v.end(), r);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

// --------------------------------------------------------- RunningStats ---

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.push(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng r(31);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_normal() * 3 + 1;
    all.push(x);
    (i % 2 ? a : b).push(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.push(1.0);
  a.push(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

// ------------------------------------------------------------ Histogram ---

TEST(Histogram, BinPlacementAndOverflow) {
  Histogram h(10.0, 5);  // [0,50) + overflow
  h.push(0.0);
  h.push(9.999);
  h.push(10.0);
  h.push(49.0);
  h.push(50.0);
  h.push(1000.0);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 6u);
}

TEST(Histogram, RejectsBadConfig) {
  EXPECT_THROW(Histogram(0.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 0), std::invalid_argument);
}

TEST(Histogram, QuantileApproximatesExact) {
  Histogram h(1.0, 200);
  SampleSet exact;
  Rng r(55);
  for (int i = 0; i < 20'000; ++i) {
    const double v = r.next_exponential(20.0);
    h.push(v);
    exact.push(v);
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_NEAR(h.quantile(q), exact.quantile(q), 2.0) << "q=" << q;
  }
}

TEST(Histogram, NegativeValuesClampToFirstBin) {
  Histogram h(1.0, 4);
  h.push(-5.0);
  EXPECT_EQ(h.bin_count(0), 1u);
}

// ------------------------------------------------------------ SampleSet ---

TEST(SampleSet, ExactQuantiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.push(i);  // 1..100
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(SampleSet, PushAfterQuantileStillCorrect) {
  SampleSet s;
  s.push(3);
  s.push(1);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  s.push(0.5);  // invalidates sort
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.5);
}

// -------------------------------------------------------------- Counter ---

TEST(Counter, NamedAccumulation) {
  Counter c("flits_routed");
  EXPECT_EQ(c.name(), "flits_routed");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

// ----------------------------------------------------------- EventQueue ---

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, FifoTieBreakAtSameCycle) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] {
    ++fired;
    q.schedule_in(1, [&] { ++fired; });
  });
  q.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, RunUntilStopsAtLimit) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(5, [&] { ++fired; });
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(11, [&] { ++fired; });
  const auto ran = q.run_until(10);
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 10u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle) {
  EventQueue q;
  q.run_until(100);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, SchedulingInPastThrows) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::logic_error);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, ResetDropsPendingEventsAndRewindsClock) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(5, [&] { ++fired; });
  q.schedule_at(50, [&] { ++fired; });
  q.run_until(10);
  EXPECT_EQ(fired, 1);
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.now(), 0u);
  q.run_all();
  EXPECT_EQ(fired, 1);  // the cycle-50 event was discarded
}

TEST(EventQueue, ReusableAfterResetWithEarlierTimestamps) {
  // The queue-reuse contract the mapping validator relies on: after reset()
  // a new run may schedule at cycles that would have been "in the past".
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run_all();
  EXPECT_EQ(q.now(), 100u);
  q.reset();
  std::vector<int> order;
  q.schedule_at(5, [&] { order.push_back(1); });
  q.schedule_at(5, [&] { order.push_back(2); });  // FIFO still holds
  q.schedule_at(3, [&] { order.push_back(0); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), 5u);
}

/// Delays of the events that event `id` schedules when it runs: a pure
/// function of the id, so the queue under test and the reference model
/// grow the same schedule. Zero to two children, a third of them at delay
/// 0; none past id 3,000, so every cascade ends.
std::vector<Cycle> child_delays(int id) {
  if (id >= 3'000) return {};
  Rng r(static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ull + 1);
  std::vector<Cycle> delays(r.next_below(4) % 3);
  for (Cycle& d : delays) d = r.next_below(3);
  return delays;
}

/// The reference model of the queue's contract: the next event is the
/// pending one with the least (time, scheduling order). Ids are handed out
/// in scheduling order, so that is the least (time, id).
struct ReferenceQueue {
  void schedule_at(Cycle at) { pending.emplace_back(at, next_id++); }
  void run_until(Cycle limit) {
    for (;;) {
      const auto it = std::min_element(pending.begin(), pending.end());
      if (it == pending.end() || it->first > limit) break;
      const auto [at, id] = *it;
      pending.erase(it);
      now = at;
      ran.emplace_back(at, id);
      for (const Cycle d : child_delays(id)) schedule_at(now + d);
    }
    now = std::max(now, limit);
  }
  void reset() {
    pending.clear();
    now = 0;
  }
  std::vector<std::pair<Cycle, int>> pending;
  std::vector<std::pair<Cycle, int>> ran;
  Cycle now = 0;
  int next_id = 0;
};

/// Drives an EventQueue with the same ids; every action holds a copy of
/// `token`, so its use count tells how many captures are alive.
struct QueueUnderTest {
  void schedule_at(Cycle at) {
    const int id = next_id++;
    q.schedule_at(at, [this, id, hold = token] {
      ran.emplace_back(q.now(), id);
      for (const Cycle d : child_delays(id)) schedule_at(q.now() + d);
    });
  }
  EventQueue q;
  std::shared_ptr<int> token = std::make_shared<int>(0);
  std::vector<std::pair<Cycle, int>> ran;
  int next_id = 0;
};

TEST(EventQueue, MatchesStableTimeOrderReferenceModel) {
  // A seeded schedule with heavy same-cycle ties, actions that schedule
  // more actions (at delay 0 too), run_until limits interleaved with new
  // top-level events, and a reset() part-way: the executed order must be
  // the stable order by (time, scheduling order), and each capture must
  // die once its action has run or been discarded.
  Rng rng(20);
  QueueUnderTest sut;
  ReferenceQueue model;
  for (int round = 0; round < 400; ++round) {
    if (round == 200) {
      ASSERT_GT(sut.q.pending(), 0u);  // the reset discards live events
      sut.q.reset();
      model.reset();
      EXPECT_EQ(sut.token.use_count(), 1);
    }
    for (std::uint64_t n = rng.next_below(5); n > 0; --n) {
      const Cycle at = model.now + rng.next_below(3);
      sut.schedule_at(at);
      model.schedule_at(at);
    }
    const Cycle limit = model.now + rng.next_below(3);
    sut.q.run_until(limit);
    model.run_until(limit);
    ASSERT_EQ(sut.ran, model.ran) << "round " << round;
    ASSERT_EQ(sut.q.now(), model.now);
    ASSERT_EQ(sut.q.pending(), model.pending.size());
    // One reference here, one per pending action: none left by a run.
    ASSERT_EQ(sut.token.use_count(),
              static_cast<long>(1 + sut.q.pending()));
  }
  sut.q.run_all();
  model.run_until(kNeverCycle);
  EXPECT_EQ(sut.ran, model.ran);
  EXPECT_EQ(sut.token.use_count(), 1);
  EXPECT_GT(model.ran.size(), 1'000u);
}

// ------------------------------------------------------- parallel executor ---

TEST(Parallel, ResolveNumThreadsClampsToWorkAndFloorsAtOne) {
  EXPECT_EQ(resolve_num_threads(4, 100), 4);
  EXPECT_EQ(resolve_num_threads(8, 3), 3);   // never more chunks than items
  EXPECT_EQ(resolve_num_threads(1, 100), 1);
  EXPECT_EQ(resolve_num_threads(4, 0), 1);
  EXPECT_GE(resolve_num_threads(0, 100), 1);  // 0 = hardware_concurrency
}

TEST(Parallel, DeriveSeedIsStatelessAndPerIndex) {
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  EXPECT_NE(derive_seed(42, 0), derive_seed(42, 1));
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
  // Streams derived for the same index match regardless of any other call
  // order — the function keeps no state.
  const auto a = derive_seed(7, 1000);
  (void)derive_seed(7, 5);
  EXPECT_EQ(derive_seed(7, 1000), a);
}

TEST(Parallel, ParallelForVisitsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 7}) {
    std::vector<int> hits(1000, 0);
    parallel_for(hits.size(), ParallelConfig{threads},
                 [&](std::size_t i) { ++hits[i]; });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }))
        << "threads=" << threads;
  }
}

TEST(Parallel, ParallelForHandlesEmptyAndTinyRanges) {
  int calls = 0;
  parallel_for(0, ParallelConfig{4}, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, ParallelConfig{4}, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, ParallelForPropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(64, ParallelConfig{4},
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Parallel, ThreadPoolRunsQueuedJobs) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2);
  std::vector<std::uint64_t> out(256, 0);
  pool.parallel_for(out.size(), 4, [&](std::size_t i) {
    out[i] = derive_seed(99, i);
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], derive_seed(99, i));
  }
}

}  // namespace
}  // namespace soc::sim
