// Transport layer: split transactions over the NoC, endpoint models
// (banked memory, pipelined fixed-function, sink).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>

#include "soc/noc/topologies.hpp"
#include "soc/tlm/endpoints.hpp"
#include "soc/tlm/loopback.hpp"
#include "soc/tlm/transport.hpp"

namespace soc::tlm {
namespace {

struct Rig {
  explicit Rig(int terminals = 8, noc::NetworkConfig cfg = {})
      : net(noc::make_mesh(terminals), cfg, queue), transport(net, queue) {}
  sim::EventQueue queue;
  noc::Network net;
  Transport transport;
};

TEST(Transport, ReadRoundTripReturnsData) {
  Rig rig;
  MemoryEndpoint mem(MemoryTiming{4, 2, 1}, 1024, rig.queue);
  rig.transport.attach(5, mem);
  mem.poke(10, 0xCAFEBABE);

  bool done = false;
  rig.transport.read(0, 5, /*address=*/40, /*words=*/1,
                     [&](const Transaction& t) {
                       done = true;
                       ASSERT_EQ(t.payload.size(), 1u);
                       EXPECT_EQ(t.payload[0], 0xCAFEBABEu);
                       EXPECT_GT(t.round_trip(), 0u);
                     });
  rig.queue.run_all();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.transport.transactions_completed(), 1u);
  EXPECT_EQ(rig.transport.outstanding(), 0u);
}

TEST(Transport, BurstReadReturnsConsecutiveWords) {
  Rig rig;
  MemoryEndpoint mem(MemoryTiming{}, 64, rig.queue);
  rig.transport.attach(3, mem);
  for (std::uint32_t i = 0; i < 8; ++i) mem.poke(i, 100 + i);
  std::vector<std::uint32_t> got;
  rig.transport.read(1, 3, 0, 8,
                     [&](const Transaction& t) { got = t.payload; });
  rig.queue.run_all();
  ASSERT_EQ(got.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(got[i], 100 + i);
}

TEST(Transport, WriteIsVisibleToSubsequentRead) {
  Rig rig;
  MemoryEndpoint mem(MemoryTiming{}, 64, rig.queue);
  rig.transport.attach(2, mem);
  bool read_done = false;
  rig.transport.write(0, 2, /*address=*/16, {7, 8, 9},
                      [&](const Transaction&) {
                        rig.transport.read(0, 2, 16, 3,
                                           [&](const Transaction& t) {
                                             read_done = true;
                                             EXPECT_EQ(t.payload[0], 7u);
                                             EXPECT_EQ(t.payload[1], 8u);
                                             EXPECT_EQ(t.payload[2], 9u);
                                           });
                      });
  rig.queue.run_all();
  EXPECT_TRUE(read_done);
  EXPECT_EQ(mem.writes(), 1u);
  EXPECT_EQ(mem.reads(), 1u);
}

TEST(Transport, ReadLatencyIncludesNocAndService) {
  noc::NetworkConfig slow;
  slow.link_latency_cycles = 30;
  Rig rig(8, slow);
  MemoryEndpoint mem(MemoryTiming{10, 5, 1}, 64, rig.queue);
  rig.transport.attach(7, mem);
  sim::Cycle rtt = 0;
  rig.transport.read(0, 7, 0, 1,
                     [&](const Transaction& t) { rtt = t.round_trip(); });
  rig.queue.run_all();
  // Request + response each cross several hops with 30-cycle links; the
  // round trip must comfortably exceed 100 cycles (claim C5's regime).
  EXPECT_GT(rtt, 100u);
}

TEST(Transport, ManyOutstandingSplitTransactions) {
  Rig rig;
  MemoryEndpoint mem(MemoryTiming{4, 2, 4}, 4096, rig.queue);
  rig.transport.attach(6, mem);
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    rig.transport.read(static_cast<noc::TerminalId>(i % 4), 6,
                       static_cast<std::uint32_t>(i * 4), 1,
                       [&](const Transaction&) { ++completed; });
  }
  EXPECT_EQ(rig.transport.outstanding(), 64u);
  rig.queue.run_all();
  EXPECT_EQ(completed, 64);
  EXPECT_EQ(rig.transport.outstanding(), 0u);
}

TEST(Transport, MessageDeliveredOneWay) {
  Rig rig;
  SinkEndpoint sink(rig.queue);
  rig.transport.attach(4, sink);
  rig.transport.message(0, 4, {1, 2, 3});
  rig.queue.run_all();
  EXPECT_EQ(sink.received(), 1u);
  EXPECT_EQ(sink.words_received(), 3u);
}

TEST(Transport, ValidationErrors) {
  Rig rig;
  MemoryEndpoint mem(MemoryTiming{}, 64, rig.queue);
  rig.transport.attach(1, mem);
  EXPECT_THROW(rig.transport.attach(1, mem), std::logic_error);
  EXPECT_THROW(rig.transport.read(0, 1, 0, 0, nullptr), std::invalid_argument);
  // Request to a terminal without an endpoint dies loudly at delivery.
  rig.transport.read(0, 2, 0, 1, nullptr);
  EXPECT_THROW(rig.queue.run_all(), std::logic_error);
}

TEST(Transport, RttStatisticsAccumulate) {
  Rig rig;
  MemoryEndpoint mem(MemoryTiming{}, 64, rig.queue);
  rig.transport.attach(3, mem);
  for (int i = 0; i < 10; ++i) rig.transport.read(0, 3, 0, 1, nullptr);
  rig.queue.run_all();
  EXPECT_EQ(rig.transport.round_trip_samples().size(), 10u);
  EXPECT_GT(rig.transport.round_trip_samples().mean(), 0.0);
}

// -------------------------------------------------------- MemoryEndpoint ---

TEST(MemoryEndpoint, BankConflictsSerialize) {
  // Same bank: N accesses take ~N * read_cycles. Different banks overlap.
  const auto run_case = [](int banks, bool same_bank) {
    sim::EventQueue queue;
    noc::Network net(noc::make_crossbar(4), {}, queue);
    Transport transport(net, queue);
    MemoryEndpoint mem(MemoryTiming{20, 10, banks}, 4096, queue);
    transport.attach(3, mem);
    for (int i = 0; i < 4; ++i) {
      // Word address stride: same bank => stride = banks words.
      const std::uint32_t addr = same_bank
                                     ? static_cast<std::uint32_t>(i * banks * 4)
                                     : static_cast<std::uint32_t>(i * 4);
      transport.read(0, 3, addr, 1, nullptr);
    }
    queue.run_all();
    return queue.now();
  };
  const auto serial = run_case(4, /*same_bank=*/true);
  const auto parallel = run_case(4, /*same_bank=*/false);
  // Same-bank accesses queue behind each other; interleaved accesses
  // overlap all but the NI-injection stagger (~3 cycles per request).
  EXPECT_GT(serial, parallel + 2 * 20);
}

TEST(MemoryEndpoint, TracksMaxQueue) {
  sim::EventQueue queue;
  noc::Network net(noc::make_crossbar(4), {}, queue);
  Transport transport(net, queue);
  MemoryEndpoint mem(MemoryTiming{50, 10, 1}, 1024, queue);
  transport.attach(3, mem);
  for (int i = 0; i < 8; ++i) transport.read(0, 3, 0, 1, nullptr);
  queue.run_all();
  EXPECT_GT(mem.max_bank_queue(), 1u);
}

TEST(MemoryEndpoint, PeekReadsBackdoorAndNocWrites) {
  Rig rig;
  MemoryEndpoint mem(MemoryTiming{}, 64, rig.queue);
  rig.transport.attach(2, mem);
  mem.poke(5, 0xCAFEu);
  EXPECT_EQ(mem.peek(5), 0xCAFEu);
  EXPECT_EQ(mem.peek(6), 0u);
  // The backdoor takes no simulated time and counts no access.
  EXPECT_EQ(rig.queue.now(), 0u);
  EXPECT_EQ(mem.reads() + mem.writes(), 0u);
  // A write over the NoC lands where peek reads, word address = byte / 4.
  rig.transport.write(0, 2, /*address=*/32, {7, 8}, nullptr);
  rig.queue.run_all();
  EXPECT_EQ(mem.peek(8), 7u);
  EXPECT_EQ(mem.peek(9), 8u);
  EXPECT_EQ(mem.peek(5), 0xCAFEu);
  EXPECT_THROW(mem.peek(64), std::out_of_range);
}

TEST(MemoryEndpoint, OutOfRangeReadsReturnZero) {
  sim::EventQueue queue;
  noc::Network net(noc::make_crossbar(4), {}, queue);
  Transport transport(net, queue);
  MemoryEndpoint mem(MemoryTiming{}, 16, queue);
  transport.attach(3, mem);
  std::uint32_t got = 1;
  transport.read(0, 3, /*address=*/4096, 1,
                 [&](const Transaction& t) { got = t.payload.at(0); });
  queue.run_all();
  EXPECT_EQ(got, 0u);
}

// ------------------------------------------------- FixedFunctionEndpoint ---

TEST(FixedFunction, PipelineThroughputGovernedByII) {
  sim::EventQueue queue;
  noc::Network net(noc::make_crossbar(4), {}, queue);
  Transport transport(net, queue);
  std::vector<sim::Cycle> completions;
  FixedFunctionEndpoint ff(/*latency=*/100, /*ii=*/10, queue,
                           [&](const Transaction&) {
                             completions.push_back(queue.now());
                           });
  transport.attach(3, ff);
  for (int i = 0; i < 5; ++i) transport.message(0, 3, {1});
  queue.run_all();
  ASSERT_EQ(completions.size(), 5u);
  // Completions spaced by the initiation interval, not the latency.
  for (std::size_t i = 1; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i] - completions[i - 1], 10u);
  }
  EXPECT_EQ(ff.finished(), 5u);
}

TEST(FixedFunction, ConfigAccessAcksImmediately) {
  sim::EventQueue queue;
  noc::Network net(noc::make_crossbar(4), {}, queue);
  Transport transport(net, queue);
  FixedFunctionEndpoint ff(100, 10, queue, nullptr);
  transport.attach(3, ff);
  bool acked = false;
  transport.write(0, 3, 0, {1}, [&](const Transaction&) { acked = true; });
  queue.run_all();
  EXPECT_TRUE(acked);
}

// ---------------------------------------------------------- SinkEndpoint ---

TEST(Sink, ObserverSeesPayload) {
  sim::EventQueue queue;
  noc::Network net(noc::make_crossbar(4), {}, queue);
  Transport transport(net, queue);
  SinkEndpoint sink(queue);
  transport.attach(2, sink);
  std::vector<std::uint32_t> seen;
  sink.set_observer([&](const Transaction& t) { seen = t.payload; });
  transport.message(0, 2, {9, 8, 7});
  queue.run_all();
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{9, 8, 7}));
  EXPECT_GT(sink.last_arrival(), 0u);
}

// ----------------------------------------------------- loopback transport ---

/// Endpoint recording every kMessage payload it receives (thread-safe: the
/// loopback dispatches from per-terminal threads).
struct Recorder : Endpoint {
  void handle(const Transaction& request, CompletionFn) override {
    const std::lock_guard<std::mutex> lock(mu);
    payloads.push_back(request.payload);
    cv.notify_all();
  }
  std::size_t count() {
    const std::lock_guard<std::mutex> lock(mu);
    return payloads.size();
  }
  /// Blocks until `n` messages have arrived; false after 60 s without.
  [[nodiscard]] bool wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(60),
                       [&] { return payloads.size() >= n; });
  }
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<std::uint32_t>> payloads;
};

TEST(Loopback, DeliversInFifoOrderPerTerminal) {
  LoopbackTransport bus;
  Recorder rec;
  bus.attach(3, rec);
  for (std::uint32_t i = 0; i < 100; ++i) bus.message(0, 3, {i, i + 1});
  ASSERT_TRUE(rec.wait_for(100));
  bus.shutdown();
  ASSERT_EQ(rec.payloads.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(rec.payloads[i], (std::vector<std::uint32_t>{i, i + 1}));
  }
  EXPECT_EQ(bus.messages_delivered(), 100u);
  EXPECT_EQ(bus.words_on_wire(), 200u);
  EXPECT_EQ(bus.endpoint_count(), 1u);
}

TEST(Loopback, ShutdownDrainsPendingMessages) {
  LoopbackTransport bus;
  Recorder rec;
  bus.attach(1, rec);
  for (std::uint32_t i = 0; i < 50; ++i) bus.message(0, 1, {i});
  bus.shutdown();  // must drain, not drop
  EXPECT_EQ(rec.count(), 50u);
  bus.shutdown();  // idempotent
}

TEST(Loopback, RejectsBadUse) {
  LoopbackTransport bus;
  Recorder rec;
  bus.attach(1, rec);
  EXPECT_THROW(bus.attach(1, rec), std::logic_error);  // duplicate terminal
  EXPECT_THROW(bus.message(0, 9, {1}), std::invalid_argument);  // unattached
  bus.shutdown();
  EXPECT_THROW(bus.message(0, 1, {1}), std::logic_error);  // after shutdown
  EXPECT_THROW(bus.attach(2, rec), std::logic_error);
}

/// Endpoint that forwards every message it receives to another terminal —
/// the shape of a broker/coordinator relaying replies while the bus drains.
struct Relay : Endpoint {
  Relay(MessageBus& bus, noc::TerminalId self, noc::TerminalId next)
      : bus_(bus), self_(self), next_(next) {}
  void handle(const Transaction& request, CompletionFn) override {
    bus_.message(self_, next_, request.payload);
  }
  MessageBus& bus_;
  noc::TerminalId self_;
  noc::TerminalId next_;
};

TEST(Loopback, ShutdownDrainsRelayCascade) {
  // Regression: shutdown() used to flip shut_down_ before draining, so a
  // relay sending from inside handle() threw on a dispatcher thread
  // (std::terminate). The drain must deliver the whole cascade instead.
  LoopbackTransport bus;
  Recorder rec;
  Relay relay(bus, 1, 2);
  bus.attach(1, relay);
  bus.attach(2, rec);
  for (std::uint32_t i = 0; i < 50; ++i) bus.message(0, 1, {i});
  bus.shutdown();  // no wait_for: queued + relayed messages must all land
  ASSERT_EQ(rec.count(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(rec.payloads[i], (std::vector<std::uint32_t>{i}));
  }
  EXPECT_EQ(bus.messages_delivered(), 100u);  // 50 into relay + 50 into rec
}

TEST(Loopback, CrossTerminalTrafficAllArrives) {
  LoopbackTransport bus;
  Recorder a, b;
  bus.attach(1, a);
  bus.attach(2, b);
  for (std::uint32_t i = 0; i < 40; ++i) {
    bus.message(0, 1, {i});
    bus.message(0, 2, {i, i});
  }
  ASSERT_TRUE(a.wait_for(40));
  ASSERT_TRUE(b.wait_for(40));
  bus.shutdown();
  EXPECT_EQ(a.count(), 40u);
  EXPECT_EQ(b.count(), 40u);
  EXPECT_EQ(bus.words_on_wire(), 40u + 80u);
}

}  // namespace
}  // namespace soc::tlm
