// Event-driven network behavior: delivery, latency composition, ordering,
// contention serialization, backpressure and statistics hygiene.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "soc/noc/network.hpp"
#include "soc/noc/topologies.hpp"
#include "soc/sim/rng.hpp"

namespace soc::noc {
namespace {

struct Harness {
  explicit Harness(std::unique_ptr<Topology> topo, NetworkConfig cfg = {})
      : net(std::move(topo), cfg, queue) {
    net.set_deliver([this](const Packet& p) { delivered.push_back(p); });
  }
  sim::EventQueue queue;
  Network net;
  std::vector<Packet> delivered;
};

TEST(Network, DeliversSinglePacket) {
  Harness h(make_mesh(16));
  h.net.inject(0, 15, 8, /*tag=*/42);
  h.queue.run_all();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].src, 0u);
  EXPECT_EQ(h.delivered[0].dst, 15u);
  EXPECT_EQ(h.delivered[0].tag, 42u);
  EXPECT_EQ(h.delivered[0].hops, 6u);  // 4x4 corner to corner
  EXPECT_EQ(h.net.in_flight(), 0u);
}

TEST(Network, ZeroLoadLatencyComposition) {
  // One 8-flit packet, 1 hop on a ring of 4 (0 -> 1).
  NetworkConfig cfg;
  cfg.router_pipeline_cycles = 3;
  cfg.link_latency_cycles = 1;
  cfg.ni_latency_cycles = 2;
  Harness h(make_ring(4), cfg);
  h.net.inject(0, 1, 8);
  h.queue.run_all();
  ASSERT_EQ(h.delivered.size(), 1u);
  // NI: 8 serialize + 2 + 3 = 13; hop: 8 + 1 + 3 = 12. Total 25.
  EXPECT_EQ(h.delivered[0].latency(), 25u);
}

TEST(Network, LatencyGrowsWithHops) {
  Harness h(make_mesh(16));
  h.net.inject(0, 1, 4);   // 1 hop
  h.net.inject(0, 15, 4);  // 6 hops (queued behind at the NI, but farther)
  h.queue.run_all();
  ASSERT_EQ(h.delivered.size(), 2u);
  const auto& near = h.delivered[0].dst == 1 ? h.delivered[0] : h.delivered[1];
  const auto& far = h.delivered[0].dst == 15 ? h.delivered[0] : h.delivered[1];
  EXPECT_LT(near.latency(), far.latency());
}

TEST(Network, SameFlowStaysInOrder) {
  Harness h(make_mesh(16));
  for (int i = 0; i < 20; ++i) h.net.inject(3, 12, 6, static_cast<std::uint64_t>(i));
  h.queue.run_all();
  ASSERT_EQ(h.delivered.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(h.delivered[static_cast<std::size_t>(i)].tag,
              static_cast<std::uint64_t>(i));
  }
}

TEST(Network, BusSerializesEverything) {
  // N simultaneous single-hop transfers on a bus must take ~N * serialize
  // time on the shared link; on a crossbar they proceed in parallel.
  constexpr int kN = 8;
  constexpr std::uint32_t kFlits = 16;

  Harness bus(make_bus(kN));
  for (int i = 0; i < kN; ++i) {
    bus.net.inject(static_cast<TerminalId>(i),
                   static_cast<TerminalId>((i + 1) % kN), kFlits);
  }
  bus.queue.run_all();
  const auto bus_done = bus.queue.now();

  Harness xbar(make_crossbar(kN));
  for (int i = 0; i < kN; ++i) {
    xbar.net.inject(static_cast<TerminalId>(i),
                    static_cast<TerminalId>((i + 1) % kN), kFlits);
  }
  xbar.queue.run_all();
  const auto xbar_done = xbar.queue.now();

  EXPECT_GT(bus_done, xbar_done + (kN - 2) * kFlits);
}

TEST(Network, HotspotContendsAtDestination) {
  // All terminals send to terminal 0 on a crossbar: the output port is
  // the serialization point.
  constexpr int kN = 8;
  constexpr std::uint32_t kFlits = 10;
  Harness h(make_crossbar(kN));
  for (int i = 1; i < kN; ++i) {
    h.net.inject(static_cast<TerminalId>(i), 0, kFlits);
  }
  h.queue.run_all();
  // Last delivery cannot beat (kN-1) serializations of the output port.
  EXPECT_GE(h.queue.now(), static_cast<sim::Cycle>((kN - 1) * kFlits));
  EXPECT_EQ(h.delivered.size(), static_cast<std::size_t>(kN - 1));
}

TEST(Network, FatTreeOutrunsBinaryTreeUnderBisectionTraffic) {
  constexpr int kN = 16;
  constexpr std::uint32_t kFlits = 8;
  const auto run = [&](std::unique_ptr<Topology> topo) {
    Harness h(std::move(topo));
    // Bit-complement: everything crosses the root.
    for (int i = 0; i < kN; ++i) {
      h.net.inject(static_cast<TerminalId>(i),
                   static_cast<TerminalId>(kN - 1 - i), kFlits);
    }
    h.queue.run_all();
    return h.queue.now();
  };
  EXPECT_LT(run(make_fat_tree(kN)), run(make_binary_tree(kN)));
}

TEST(Network, ExtraLinkLatencyConfigRespected) {
  NetworkConfig slow;
  slow.link_latency_cycles = 50;  // long global wires between routers
  NetworkConfig fast;
  fast.link_latency_cycles = 1;

  Harness hs(make_mesh(16), slow);
  Harness hf(make_mesh(16), fast);
  hs.net.inject(0, 15, 4);
  hf.net.inject(0, 15, 4);
  hs.queue.run_all();
  hf.queue.run_all();
  // 6 hops x 49 extra cycles.
  EXPECT_EQ(hs.delivered[0].latency() - hf.delivered[0].latency(), 6u * 49u);
}

TEST(Network, StatsCountersConsistent) {
  Harness h(make_torus(16));
  for (int i = 0; i < 50; ++i) {
    h.net.inject(static_cast<TerminalId>(i % 16),
                 static_cast<TerminalId>((i * 7 + 3) % 16), 5);
  }
  h.queue.run_all();
  EXPECT_EQ(h.net.injected(), 50u);
  EXPECT_EQ(h.net.delivered(), 50u);
  EXPECT_EQ(h.net.flits_delivered(), 250u);
  EXPECT_EQ(h.net.latency_samples().size(), 50u);
  EXPECT_GT(h.net.max_queue_depth(), 0u);
  EXPECT_GT(h.net.peak_link_utilization(h.queue.now()), 0.0);
}

TEST(Network, ResetStatsPreservesInFlight) {
  Harness h(make_mesh(16));
  h.net.inject(0, 15, 8);
  h.queue.run_until(5);  // packet still inside
  EXPECT_EQ(h.net.in_flight(), 1u);
  h.net.reset_stats();
  EXPECT_EQ(h.net.in_flight(), 1u);
  EXPECT_EQ(h.net.injected(), 0u);
  h.queue.run_all();
  EXPECT_EQ(h.net.in_flight(), 0u);
  EXPECT_EQ(h.net.delivered(), 1u);  // counted in the post-reset window
}

TEST(Network, RejectsBadInjections) {
  Harness h(make_mesh(4));
  EXPECT_THROW(h.net.inject(0, 99, 1), std::out_of_range);
  EXPECT_THROW(h.net.inject(99, 0, 1), std::out_of_range);
  EXPECT_THROW(h.net.inject(0, 1, 0), std::invalid_argument);
}

TEST(Network, SelfTrafficIsLocal) {
  Harness h(make_mesh(16));
  h.net.inject(5, 5, 4);
  h.queue.run_all();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].hops, 0u);  // never leaves the NI/router
}

// Property sweep: packet conservation and latency sanity across every
// topology, traffic shape and buffer regime.
class NetworkConservation
    : public ::testing::TestWithParam<std::tuple<TopologyKind, std::size_t>> {};

TEST_P(NetworkConservation, EveryInjectedPacketArrivesIntactOnce) {
  const auto [kind, capacity] = GetParam();
  NetworkConfig cfg;
  cfg.queue_capacity_pkts = capacity;
  Harness h(make_topology(kind, 16), cfg);
  sim::Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(capacity));
  std::uint64_t injected_flits = 0;
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<TerminalId>(rng.next_below(16));
    auto dst = static_cast<TerminalId>(rng.next_below(16));
    const auto flits = static_cast<std::uint32_t>(1 + rng.next_below(16));
    injected_flits += flits;
    h.net.inject(src, dst, flits, static_cast<std::uint64_t>(i));
    if (i % 7 == 0) h.queue.run_until(h.queue.now() + rng.next_below(50));
  }
  h.queue.run_all();
  ASSERT_EQ(h.delivered.size(), 300u) << to_string(kind);
  EXPECT_EQ(h.net.flits_delivered(), injected_flits);
  EXPECT_EQ(h.net.in_flight(), 0u);
  std::vector<bool> seen(300, false);
  for (const auto& p : h.delivered) {
    EXPECT_FALSE(seen.at(p.tag)) << "duplicate delivery";
    seen.at(p.tag) = true;
    EXPECT_GE(p.delivered_at, p.injected_at);
    EXPECT_GT(p.latency(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndBuffers, NetworkConservation,
    ::testing::Combine(
        ::testing::Values(TopologyKind::kBus, TopologyKind::kRing,
                          TopologyKind::kBinaryTree, TopologyKind::kFatTree,
                          TopologyKind::kMesh2D, TopologyKind::kTorus2D,
                          TopologyKind::kCrossbar),
        ::testing::Values(std::size_t{0}, std::size_t{4})),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(info.param) == 0 ? "_open" : "_credit");
    });

TEST(Network, FiniteBuffersApplyBackpressure) {
  // With tiny buffers on a mesh under a burst, peak queue depth must be
  // bounded by the configured capacity (the open-loop run is not).
  NetworkConfig tight;
  tight.queue_capacity_pkts = 2;
  Harness h(make_mesh(16), tight);
  for (int i = 0; i < 40; ++i) h.net.inject(0, 15, 8);
  h.queue.run_all();
  EXPECT_EQ(h.delivered.size(), 40u);
  EXPECT_LE(h.net.max_queue_depth(), 2u + 40u);  // NI queue is at source
  // All internal (topology) link queues were capped; the max tracked
  // includes the source NI which legitimately holds the backlog.
}

TEST(Network, RecordLatencyOffStillCountsEverything) {
  // Long-run mode: no per-packet latency samples accumulate (bounded
  // memory), but every counter the validator reads stays exact.
  NetworkConfig lean;
  lean.record_latency = false;
  Harness h(make_mesh(16), lean);
  for (int i = 0; i < 200; ++i) {
    h.net.inject(static_cast<TerminalId>(i % 16),
                 static_cast<TerminalId>((i * 5 + 2) % 16), 4,
                 static_cast<std::uint64_t>(i));
  }
  h.queue.run_all();
  EXPECT_EQ(h.net.delivered(), 200u);
  EXPECT_EQ(h.net.flits_delivered(), 800u);
  EXPECT_TRUE(h.net.latency_samples().empty());
  EXPECT_EQ(h.net.hop_stats().count(), 200u);
  // Per-packet timestamps still flow to the deliver callback.
  for (const auto& p : h.delivered) EXPECT_GT(p.latency(), 0u);
}

TEST(Network, RecordLatencyOffUnderBackpressureLongRun) {
  // The exact combination the validator's long runs exercise: finite
  // buffers (credit backpressure) plus disabled latency recording, over
  // many packets. Nothing may be lost, duplicated, or recorded.
  NetworkConfig cfg;
  cfg.record_latency = false;
  cfg.queue_capacity_pkts = 2;
  Harness h(make_mesh(16), cfg);
  sim::Rng rng(99);
  for (int i = 0; i < 600; ++i) {
    h.net.inject(static_cast<TerminalId>(rng.next_below(16)),
                 static_cast<TerminalId>(rng.next_below(16)),
                 static_cast<std::uint32_t>(1 + rng.next_below(8)),
                 static_cast<std::uint64_t>(i));
    if (i % 5 == 0) h.queue.run_until(h.queue.now() + 20);
  }
  h.queue.run_all();
  EXPECT_EQ(h.delivered.size(), 600u);
  EXPECT_EQ(h.net.in_flight(), 0u);
  EXPECT_TRUE(h.net.latency_samples().empty());
}

TEST(Network, PerLinkStatsExposeContention) {
  Harness h(make_bus(4));
  for (int i = 0; i < 10; ++i) h.net.inject(0, 1, 8);
  h.queue.run_all();
  // Link space: topology links first, then one NI link per terminal.
  EXPECT_EQ(h.net.link_count(),
            h.net.topology().links().size() +
                static_cast<std::size_t>(h.net.topology().terminal_count()));
  double max_util = 0.0;
  std::uint64_t total_busy = 0;
  for (std::size_t li = 0; li < h.net.link_count(); ++li) {
    max_util = std::max(max_util, h.net.link_utilization(li, h.queue.now()));
    total_busy += h.net.link_busy_cycles(li);
  }
  EXPECT_GT(total_busy, 0u);
  EXPECT_DOUBLE_EQ(max_util, h.net.peak_link_utilization(h.queue.now()));
  EXPECT_THROW(h.net.link_busy_cycles(h.net.link_count()), std::out_of_range);
  EXPECT_EQ(h.net.link_utilization(0, 0), 0.0);
}

TEST(Network, BackpressureDoesNotLoseOrReorderFlow) {
  NetworkConfig tight;
  tight.queue_capacity_pkts = 1;
  Harness h(make_binary_tree(8), tight);
  for (int i = 0; i < 25; ++i) {
    h.net.inject(0, 7, 6, static_cast<std::uint64_t>(i));
  }
  h.queue.run_all();
  ASSERT_EQ(h.delivered.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(h.delivered[static_cast<std::size_t>(i)].tag,
              static_cast<std::uint64_t>(i));
  }
}

TEST(Network, DeliveredPacketOutlivesInjectionsFromItsCallback) {
  // Closed-loop replay injects from inside the deliver callback. Those
  // injections may take the delivered packet's freed slot and grow the
  // in-flight table; the packet the callback holds must not change.
  Harness h(make_mesh(16));
  int injected_in_callback = 0;
  h.net.set_deliver([&](const Packet& p) {
    h.delivered.push_back(p);
    if (p.tag != 7) return;
    const Packet before = p;
    for (int i = 0; i < 64; ++i) {
      h.net.inject(p.dst, static_cast<TerminalId>(i % 16), 2);
      ++injected_in_callback;
    }
    EXPECT_EQ(p.id, before.id);
    EXPECT_EQ(p.src, before.src);
    EXPECT_EQ(p.dst, before.dst);
    EXPECT_EQ(p.tag, before.tag);
    EXPECT_EQ(p.hops, before.hops);
    EXPECT_EQ(p.injected_at, before.injected_at);
    EXPECT_EQ(p.delivered_at, before.delivered_at);
  });
  h.net.inject(0, 15, 8, /*tag=*/7);
  h.queue.run_all();
  EXPECT_EQ(injected_in_callback, 64);
  ASSERT_EQ(h.delivered.size(), 65u);
  EXPECT_EQ(h.delivered[0].tag, 7u);
  EXPECT_EQ(h.delivered[0].hops, 6u);
  EXPECT_EQ(h.net.in_flight(), 0u);
}

}  // namespace
}  // namespace soc::noc
