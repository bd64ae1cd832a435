// The always-on DSE service (soc::svc) and its socket transport
// (tlm::SocketTransport): the streamed result of every sweep must be
// byte-identical to a single-machine DseSession of the same request —
// over the in-process loopback AND over a real TCP connection, with any
// number of concurrent clients — and the daemon's multiplexing contract
// (bounded admission, typed busy refusal, prompt cancel reclamation,
// per-client fairness) must hold under load. Everything here binds only
// ephemeral loopback ports and finishes fast enough for the `quick`
// label, so the sanitizer CI jobs race all of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "soc/core/dse_session.hpp"
#include "soc/core/dse_wire.hpp"
#include "soc/core/eval_cache.hpp"
#include "soc/svc/dse_client.hpp"
#include "soc/svc/dse_service.hpp"
#include "soc/tlm/loopback.hpp"
#include "soc/tlm/socket.hpp"

namespace soc::svc {
namespace {

using core::AnnealConfig;
using core::DseConfig;
using core::DsePoint;
using core::DseProblem;
using core::DseSession;
using core::DseSpace;
using core::ObjectiveSpace;
using core::ObjectiveWeights;
using core::ScenarioSet;
using core::SweepRequest;
using core::TaskGraph;
using core::TaskNode;

// ------------------------------------------------------------- fixtures ---

TaskGraph small_pipeline() {
  TaskGraph g("svc-pipe");
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
  TaskGraph g("svc-alt");
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

/// A complete small sweep request; `alt_scenario` adds a second scenario
/// graph (doubles the grid and exercises per-scenario fronts on the wire).
SweepRequest small_request(bool alt_scenario = false) {
  SweepRequest req;
  req.problem = DseProblem{small_pipeline(), ObjectiveSpace::default_space(),
                           ObjectiveWeights{}, tech::node_90nm()};
  req.scenarios = alt_scenario
                      ? ScenarioSet{small_pipeline(), second_scenario()}
                      : ScenarioSet{small_pipeline()};
  req.space.pe_counts = {4, 8};
  req.space.thread_counts = {2};
  req.space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D};
  req.space.fabrics = {tech::Fabric::kAsip};
  req.anneal.iterations = 250;
  return req;
}

/// A sweep slow enough to still be running when a follow-up protocol
/// message (busy probe, cancel) reaches the service: heavy anneal budget,
/// and the cross-sweep eval memo off so earlier tests in this process
/// can't turn its evaluations into instant cache hits.
SweepRequest slow_request(bool alt_scenario = false) {
  SweepRequest req = small_request(alt_scenario);
  req.anneal.iterations = 25000;
  req.config.use_eval_cache = false;
  return req;
}

/// Runs `request` through a local DseSession — the ground truth every
/// streamed sweep must reproduce byte-for-byte.
struct SessionRef {
  std::vector<DsePoint> points;
  std::vector<std::size_t> front;
  std::vector<std::vector<std::size_t>> scenario_fronts;
  std::size_t grid_points = 0;
  std::vector<std::size_t> extra_parents;
};

SessionRef run_reference(const SweepRequest& req) {
  DseSession session(req.problem, req.scenarios, req.space, req.anneal,
                     req.config);
  SessionRef ref;
  ref.points = session.run();
  ref.front = session.front();
  ref.scenario_fronts = session.scenario_fronts();
  ref.grid_points = session.grid_point_count();
  for (std::size_t i = ref.grid_points; i < ref.points.size(); ++i) {
    ref.extra_parents.push_back(session.extra_parent(i));
  }
  return ref;
}

/// Byte-identity through the canonical codec: equal word streams prove
/// every DsePoint field (doubles bit-for-bit) matches.
void expect_result_identical(const SweepResult& got, const SessionRef& want,
                             const std::string& what) {
  ASSERT_EQ(got.points.size(), want.points.size()) << what;
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    EXPECT_EQ(core::marshal_point(got.points[i]),
              core::marshal_point(want.points[i]))
        << what << ": point " << i << " diverged";
  }
  EXPECT_EQ(got.front, want.front) << what;
  EXPECT_EQ(got.scenario_fronts, want.scenario_fronts) << what;
  EXPECT_EQ(got.grid_points, want.grid_points) << what;
  EXPECT_EQ(got.extra_parents, want.extra_parents) << what;
}

// ----------------------------------------------------- socket transport ---

/// Test endpoint: records every payload it receives, in arrival order.
class Recorder final : public tlm::Endpoint {
 public:
  void handle(const tlm::Transaction& t, tlm::CompletionFn done) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      payloads_.push_back(t.payload);
      initiators_.push_back(t.initiator);
    }
    cv_.notify_all();
    if (done) done(t);
  }

  /// Blocks until `n` messages have arrived (test-deadline bounded).
  void wait_for(std::size_t n) {
    wait_until([n](const auto& got) { return got.size() >= n; });
  }

  /// Blocks until `done(payloads so far)` holds (test-deadline bounded).
  template <class Pred>
  void wait_until(Pred done) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return done(payloads_); });
  }

  std::vector<std::vector<std::uint32_t>> payloads() {
    std::lock_guard<std::mutex> lk(mu_);
    return payloads_;
  }
  std::vector<noc::TerminalId> initiators() {
    std::lock_guard<std::mutex> lk(mu_);
    return initiators_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::vector<std::uint32_t>> payloads_;
  std::vector<noc::TerminalId> initiators_;
};

TEST(SocketTransport, EphemeralPortAndBidirectionalFifo) {
  auto server = tlm::SocketTransport::listen(0);
  ASSERT_GT(server->port(), 0) << "ephemeral bind must report a real port";
  auto client = tlm::SocketTransport::connect("127.0.0.1", server->port());

  Recorder server_rec;
  Recorder client_rec;
  server->attach(0, server_rec);
  client->attach(1, client_rec);

  // Client -> server: 100 ordered messages from one sender must arrive in
  // send order (per-sender FIFO is what the service protocol rests on).
  for (std::uint32_t i = 0; i < 100; ++i) {
    client->message(1, 0, {i, i * 3u});
  }
  server_rec.wait_for(100);
  const auto inbound = server_rec.payloads();
  for (std::uint32_t i = 0; i < 100; ++i) {
    ASSERT_EQ(inbound[i], (std::vector<std::uint32_t>{i, i * 3u})) << i;
    ASSERT_EQ(server_rec.initiators()[i], 1u) << i;
  }

  // Server -> client uses the route learned from the inbound frames.
  for (std::uint32_t i = 0; i < 10; ++i) {
    server->message(0, 1, {0xBEEF0000u + i});
  }
  client_rec.wait_for(10);
  EXPECT_EQ(client_rec.payloads()[9],
            (std::vector<std::uint32_t>{0xBEEF0009u}));

  // Wire metering counts every word of every frame, both directions.
  EXPECT_GE(server->words_on_wire(), 200u);
  EXPECT_GE(client->frames_sent(), 100u);
  EXPECT_GE(server->frames_received(), 100u);
  EXPECT_EQ(server->connection_count(), 1u);

  client->shutdown();
  server->shutdown();
}

TEST(SocketTransport, LargePayloadSurvivesFraming) {
  auto server = tlm::SocketTransport::listen(0);
  auto client = tlm::SocketTransport::connect("127.0.0.1", server->port());
  Recorder rec;
  server->attach(0, rec);
  client->attach(7, rec);  // unused; gives the client a local terminal

  // Big enough to straddle many TCP segments; a framing bug (partial
  // read/write, byte-order slip) scrambles the checksum pattern.
  std::vector<std::uint32_t> body(200000);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  client->message(7, 0, body);
  rec.wait_for(1);
  EXPECT_EQ(rec.payloads()[0], body);

  client->shutdown();
  server->shutdown();
}

TEST(SocketTransport, ShutdownFlushesPendingWrites) {
  auto server = tlm::SocketTransport::listen(0);
  auto client = tlm::SocketTransport::connect("127.0.0.1", server->port());
  Recorder rec;
  server->attach(0, rec);
  client->attach(1, rec);
  for (std::uint32_t i = 0; i < 500; ++i) {
    client->message(1, 0, {i});
  }
  // Immediate shutdown: the writer must drain its outbox before closing,
  // so every queued frame still reaches the server.
  client->shutdown();
  rec.wait_for(500);
  const auto got = rec.payloads();
  ASSERT_EQ(got.size(), 500u);
  for (std::uint32_t i = 0; i < 500; ++i) {
    ASSERT_EQ(got[i][0], i) << "frame order broke at " << i;
  }
  server->shutdown();
}

TEST(SocketTransport, ConnectToDeadPortFails) {
  // Grab a port that is then closed again, so nothing listens on it.
  std::uint16_t dead_port = 0;
  {
    auto probe = tlm::SocketTransport::listen(0);
    dead_port = probe->port();
    probe->shutdown();
  }
  EXPECT_THROW(tlm::SocketTransport::connect("127.0.0.1", dead_port, 200),
               std::runtime_error);
}

// --------------------------------------------- service over the loopback ---

TEST(DseService, StreamedSweepIsByteIdenticalToSession) {
  const SweepRequest req = small_request(/*alt_scenario=*/true);
  const SessionRef ref = run_reference(req);

  tlm::LoopbackTransport bus;
  DseService service(bus, kServiceTerminal);
  DseClient client(bus, 1);

  std::atomic<std::uint64_t> streamed{0};
  const std::uint32_t id = client.submit(
      req, [&](std::uint64_t, const DsePoint&, bool) { ++streamed; });
  const SweepResult res = client.wait(id);

  expect_result_identical(res, ref, "loopback sweep");
  EXPECT_FALSE(res.cancelled);
  // Streaming really happened: one observer call per grid point.
  EXPECT_EQ(streamed.load(), ref.grid_points);
  EXPECT_EQ(res.points_streamed, ref.grid_points);
  EXPECT_GT(res.wall_ms, 0.0);

  service.stop();
  bus.shutdown();
}

// ------------------------------------- a sweep spread over the pool ---

TEST(DistributedSweep, MergeIdenticalAcrossWorkersThreadsAndCache) {
  // Pool width x the request's own thread knob x the eval memo: the served
  // layout must not depend on any of them.
  for (const bool cache : {true, false}) {
    SweepRequest req = small_request(/*alt_scenario=*/true);
    req.config.use_eval_cache = cache;
    const SessionRef ref = run_reference(req);
    for (const int pool : {1, 2, 4}) {
      for (const int threads : {1, 3}) {
        req.config.num_threads = threads;
        const std::string what = "pool=" + std::to_string(pool) +
                                 " threads=" + std::to_string(threads) +
                                 " cache=" + std::to_string(cache);
        tlm::LoopbackTransport bus;
        DseServiceConfig cfg;
        cfg.pool_threads = pool;
        DseService service(bus, kServiceTerminal, cfg);
        DseClient client(bus, 1);

        std::atomic<std::uint64_t> streamed{0};
        const std::uint32_t id = client.submit(
            req, [&](std::uint64_t, const DsePoint&, bool) { ++streamed; });
        const SweepResult res = client.wait(id);

        expect_result_identical(res, ref, what);
        EXPECT_FALSE(res.cancelled) << what;
        EXPECT_EQ(streamed.load(), ref.grid_points) << what;
        EXPECT_EQ(res.points_evaluated, ref.grid_points) << what;

        service.stop();
        bus.shutdown();
      }
    }
  }
}

TEST(DistributedSweep, SharedCacheWarmAcrossRuns) {
  // Two sweeps of one request on a 2-wide pool share the process-wide eval
  // memo: the cold run builds every candidate once, the warm run rebuilds
  // nothing and still reproduces the cold points bit for bit.
  const SweepRequest req = small_request();
  core::EvalCache& memo = core::EvalCache::global();
  memo.clear();

  tlm::LoopbackTransport bus;
  DseServiceConfig cfg;
  cfg.pool_threads = 2;
  DseService service(bus, kServiceTerminal, cfg);
  DseClient client(bus, 1);

  const core::EvalCacheStats base = memo.stats();
  const SweepResult cold = client.wait(client.submit(req));
  const core::EvalCacheStats mid = memo.stats();
  const SweepResult warm = client.wait(client.submit(req));
  const core::EvalCacheStats cold_stats = mid.delta_since(base);
  const core::EvalCacheStats warm_stats = memo.stats().delta_since(mid);

  // The pool claims each flat index exactly once: no re-evaluations.
  EXPECT_EQ(cold_stats.platform_misses, cold.grid_points);
  EXPECT_EQ(cold_stats.platform_hits, 0u);
  EXPECT_EQ(warm_stats.platform_misses, 0u);
  EXPECT_EQ(warm_stats.platform_hits, warm.grid_points);
  ASSERT_EQ(warm.points.size(), cold.points.size());
  for (std::size_t i = 0; i < warm.points.size(); ++i) {
    EXPECT_EQ(core::marshal_point(warm.points[i]),
              core::marshal_point(cold.points[i]))
        << "warm vs cold: point " << i << " diverged";
  }
  EXPECT_EQ(warm.front, cold.front);
  EXPECT_EQ(warm.scenario_fronts, cold.scenario_fronts);

  service.stop();
  bus.shutdown();
}

TEST(DseService, ValidatedSweepOverlaysStageTwoPoints) {
  SweepRequest req = small_request();
  req.config.validate_pareto = true;
  const SessionRef ref = run_reference(req);

  tlm::LoopbackTransport bus;
  DseService service(bus, kServiceTerminal);
  DseClient client(bus, 1);

  std::atomic<std::uint64_t> validated_seen{0};
  const std::uint32_t id = client.submit(
      req, [&](std::uint64_t, const DsePoint&, bool validated) {
        if (validated) ++validated_seen;
      });
  const SweepResult res = client.wait(id);

  expect_result_identical(res, ref, "validated sweep");
  // Every front point was re-streamed as a stage-2 overlay.
  EXPECT_EQ(validated_seen.load(), ref.front.size());

  service.stop();
  bus.shutdown();
}

TEST(DseService, MappingFrontExtrasTravelWithTheirParents) {
  SweepRequest req = small_request();
  req.config.mapper = "nsga2";
  req.config.mapping_fronts = true;
  req.anneal.iterations = 60;  // nsga2 budget: keep the quick label quick
  const SessionRef ref = run_reference(req);
  ASSERT_GT(ref.extra_parents.size(), 0u)
      << "fixture must actually produce mapping-front extras";

  tlm::LoopbackTransport bus;
  DseService service(bus, kServiceTerminal);
  DseClient client(bus, 1);
  const SweepResult res = client.wait(client.submit(req));
  expect_result_identical(res, ref, "map-fronts sweep");

  service.stop();
  bus.shutdown();
}

TEST(DseService, BoundedAdmissionRefusesWithTypedBusy) {
  DseServiceConfig cfg;
  cfg.pool_threads = 1;
  cfg.max_active = 1;
  cfg.max_queued = 0;
  tlm::LoopbackTransport bus;
  DseService service(bus, kServiceTerminal, cfg);
  DseClient client(bus, 1);

  const std::uint32_t first = client.submit(slow_request(true));
  bool refused = false;
  try {
    client.submit(small_request());
  } catch (const ServiceBusy& e) {
    refused = true;
    EXPECT_EQ(e.active, 1u);
    EXPECT_EQ(e.queued, 0u);
    EXPECT_EQ(e.max_active, 1u);
    EXPECT_EQ(e.max_queued, 0u);
    EXPECT_NE(std::string(e.what()).find("busy"), std::string::npos);
  }
  EXPECT_TRUE(refused) << "second submit must be refused, not queued";
  EXPECT_EQ(service.stats().rejected_busy, 1u);

  // The refusal was about capacity, not the sweep: the admitted one
  // still completes and the freed slot admits a retry.
  (void)client.wait(first);
  const std::uint32_t retry = client.submit(small_request());
  (void)client.wait(retry);
  EXPECT_EQ(service.stats().completed, 2u);

  service.stop();
  bus.shutdown();
}

TEST(DseService, CancelFreesTheSlotAndAdmitsTheQueuedSweep) {
  DseServiceConfig cfg;
  cfg.pool_threads = 1;
  cfg.max_active = 1;
  cfg.max_queued = 1;
  tlm::LoopbackTransport bus;
  DseService service(bus, kServiceTerminal, cfg);
  DseClient client(bus, 1);

  // Sweep A occupies the only active slot; cancel it from its own
  // observer after the first streamed point. That point can land before
  // submit() has returned A's id, so the observer waits for the id.
  std::atomic<std::uint32_t> id_a{0};
  std::atomic<bool> cancel_sent{false};
  const std::uint32_t a = client.submit(
      slow_request(true), [&](std::uint64_t, const DsePoint&, bool) {
        if (cancel_sent.exchange(true)) return;
        while (id_a.load() == 0) std::this_thread::yield();
        client.cancel(id_a.load());
      });
  id_a.store(a);
  // Sweep B lands in the queue behind it.
  const std::uint32_t b = client.submit(small_request());

  const SweepResult res_a = client.wait(a);
  EXPECT_TRUE(res_a.cancelled);
  EXPECT_LT(res_a.points_evaluated, 16u)
      << "cancel must stop the sweep before it finishes its 16-point grid";

  // The acceptance gate: the queued sweep must now run to completion —
  // and still be byte-identical to the local session.
  const SweepResult res_b = client.wait(b);
  expect_result_identical(res_b, run_reference(small_request()),
                          "post-cancel queued sweep");
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(service.active_sweeps(), 0u);
  EXPECT_EQ(service.queued_sweeps(), 0u);

  service.stop();
  bus.shutdown();
}

TEST(DseService, CancellingAQueuedSweepNeverRunsIt) {
  DseServiceConfig cfg;
  cfg.pool_threads = 1;
  cfg.max_active = 1;
  cfg.max_queued = 1;
  tlm::LoopbackTransport bus;
  DseService service(bus, kServiceTerminal, cfg);
  DseClient client(bus, 1);

  const std::uint32_t a = client.submit(slow_request(true));
  const std::uint32_t b = client.submit(small_request());
  client.cancel(b);
  const SweepResult res_b = client.wait(b);
  EXPECT_TRUE(res_b.cancelled);
  EXPECT_EQ(res_b.points_evaluated, 0u);
  (void)client.wait(a);
  EXPECT_EQ(service.stats().completed, 1u);

  service.stop();
  bus.shutdown();
}

TEST(DseService, InvalidRequestIsRefusedWithError) {
  tlm::LoopbackTransport bus;
  DseService service(bus, kServiceTerminal);
  DseClient client(bus, 1);

  SweepRequest bad = small_request();
  bad.space.pe_counts = {0};  // the session constructor rejects this
  EXPECT_THROW(client.submit(bad), std::runtime_error);
  EXPECT_EQ(service.stats().errors, 1u);
  EXPECT_EQ(service.stats().accepted, 0u);

  // The service survives the bad request and serves the next one.
  const SweepResult res = client.wait(client.submit(small_request()));
  EXPECT_FALSE(res.cancelled);

  service.stop();
  bus.shutdown();
}

TEST(DseService, BrokerRegistrationResolvesByInterfaceName) {
  tlm::LoopbackTransport bus;
  dsoc::Broker broker(bus);
  DseService service(broker, bus, kServiceTerminal);
  const dsoc::ObjectRef ref = broker.resolve(kServiceInterface);
  EXPECT_EQ(ref.terminal, kServiceTerminal);
  EXPECT_EQ(ref.id, kServiceObjectId);

  DseClient client(bus, 1, ref.terminal);
  const SweepResult res = client.wait(client.submit(small_request()));
  expect_result_identical(res, run_reference(small_request()),
                          "broker-resolved sweep");

  service.stop();
  bus.shutdown();
}

// ------------------------------------ the raw stream, message by message ---

/// A request whose stream carries every kind of kPoint: grid points with
/// nsga2 mapping-front extras, then stage-2 overlays of the front.
SweepRequest fronts_and_validation_request(bool alt_scenario) {
  SweepRequest req = small_request(alt_scenario);
  req.config.mapper = "nsga2";
  req.config.mapping_fronts = true;
  req.config.validate_pareto = true;
  req.anneal.iterations = 60;  // nsga2 budget: keep the quick label quick
  return req;
}

/// Submits `req` as a bare endpoint at `terminal` would: no DseClient.
void raw_submit(tlm::MessageBus& bus, noc::TerminalId terminal,
                std::uint32_t tag, const SweepRequest& req) {
  dsoc::WireWriter w;
  w.u32(terminal);
  w.u32(tag);
  core::wire_put(w, req);
  dsoc::CallHeader hdr;
  hdr.object = kServiceObjectId;
  hdr.method = svc_method::kSubmit;
  hdr.call = 1;
  bus.message(terminal, kServiceTerminal, dsoc::marshal_call(hdr, w.words()));
}

/// True once `got` holds a message that finishes a submit's stream (last
/// or not: the order is checked once everything has arrived).
bool stream_ended(const std::vector<std::vector<std::uint32_t>>& got) {
  return std::any_of(got.begin(), got.end(), [](const auto& body) {
    const dsoc::MethodId m = body.size() > 1 ? body[1] : 0;
    return m == svc_method::kDone || m == svc_method::kError ||
           m == svc_method::kBusy || m == svc_method::kCancelled;
  });
}

/// Reads a u64-counted list of u64 indices.
std::vector<std::size_t> read_index_list(dsoc::WireReader& r) {
  std::vector<std::size_t> out(static_cast<std::size_t>(r.u64()));
  for (std::size_t& i : out) i = static_cast<std::size_t>(r.u64());
  return out;
}

/// Checks one client's raw messages against ARCHITECTURE's method table and
/// the ordering contract: one kAccepted, first; one stage-0 kPoint per grid
/// index, carrying exactly that parent's extras; then one stage-1 kPoint
/// per front index, equal to the session's validated point; kDone last.
/// Every body must decode into the table's layout with no words left over.
void expect_stream_follows_table(
    const std::vector<std::vector<std::uint32_t>>& bodies, std::uint32_t tag,
    const SessionRef& ref, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_GE(bodies.size(), 2u);
  std::vector<std::size_t> extras_of(ref.grid_points, 0);
  for (const std::size_t parent : ref.extra_parents) ++extras_of[parent];
  std::vector<int> evaluated(ref.grid_points, 0);
  std::vector<int> validated(ref.points.size(), 0);
  std::uint32_t sweep = 0;
  bool in_stage_one = false;
  for (std::size_t k = 0; k < bodies.size(); ++k) {
    SCOPED_TRACE("message " + std::to_string(k));
    std::vector<std::uint32_t> args;
    dsoc::CallHeader hdr;
    try {
      hdr = dsoc::unmarshal_call(bodies[k], args);
    } catch (const std::exception& e) {
      FAIL() << "undecodable call: " << e.what();
    }
    EXPECT_EQ(hdr.object, 0u);
    EXPECT_EQ(hdr.call, 1u);
    EXPECT_EQ(hdr.reply_terminal, dsoc::kNoReply);
    dsoc::WireReader r(args);
    try {
      if (k == 0) {
        ASSERT_EQ(hdr.method, svc_method::kAccepted);
        EXPECT_EQ(r.u32(), tag);
        sweep = r.u32();
        EXPECT_EQ(r.u64(), ref.grid_points);
        r.boolean();
      } else if (k + 1 == bodies.size()) {
        ASSERT_EQ(hdr.method, svc_method::kDone);
        EXPECT_EQ(r.u32(), sweep);
        EXPECT_EQ(read_index_list(r), ref.front);
        std::vector<std::vector<std::size_t>> scenario_fronts(
            static_cast<std::size_t>(r.u64()));
        for (auto& sf : scenario_fronts) sf = read_index_list(r);
        EXPECT_EQ(scenario_fronts, ref.scenario_fronts);
        EXPECT_EQ(r.u64(), ref.grid_points);
        EXPECT_EQ(r.u64(), ref.front.size());
      } else {
        ASSERT_EQ(hdr.method, svc_method::kPoint);
        EXPECT_EQ(r.u32(), sweep);
        const std::uint32_t stage = r.u32();
        const std::uint64_t index = r.u64();
        DsePoint pt;
        core::wire_get(r, pt);
        const std::uint64_t n_extras = r.u64();
        for (std::uint64_t e = 0; e < n_extras; ++e) {
          DsePoint extra;
          core::wire_get(r, extra);
        }
        if (stage == kStageEvaluated) {
          ASSERT_FALSE(in_stage_one) << "stage-0 point after stage 1 began";
          ASSERT_LT(index, ref.grid_points);
          ++evaluated[index];
          EXPECT_EQ(n_extras, extras_of[index]) << "grid index " << index;
        } else {
          ASSERT_EQ(stage, kStageValidated);
          in_stage_one = true;
          ASSERT_LT(index, ref.points.size());
          ++validated[index];
          EXPECT_EQ(n_extras, 0u);
          EXPECT_EQ(core::marshal_point(pt), core::marshal_point(ref.points[index]))
              << "validated point " << index;
        }
      }
      EXPECT_TRUE(r.done()) << r.remaining() << " words left over";
    } catch (const std::exception& e) {
      FAIL() << "payload does not follow the method table: " << e.what();
    }
  }
  for (std::size_t i = 0; i < ref.grid_points; ++i) {
    EXPECT_EQ(evaluated[i], 1) << "grid index " << i;
  }
  for (std::size_t i = 0; i < ref.points.size(); ++i) {
    const bool on_front =
        std::find(ref.front.begin(), ref.front.end(), i) != ref.front.end();
    EXPECT_EQ(validated[i], on_front ? 1 : 0) << "point " << i;
  }
}

TEST(DseService, RawStreamFollowsTheMethodTableInOrder) {
  const SweepRequest reqs[2] = {fronts_and_validation_request(false),
                                fronts_and_validation_request(true)};
  const SessionRef refs[2] = {run_reference(reqs[0]), run_reference(reqs[1])};
  for (const SessionRef& ref : refs) {
    ASSERT_GT(ref.extra_parents.size(), 0u) << "fixture must yield extras";
    ASSERT_FALSE(ref.front.empty()) << "fixture must validate a front";
  }
  // One endpoint alone, then two at once, so two clients' senders
  // interleave on the 4-thread pool.
  for (const std::size_t clients : {1u, 2u}) {
    tlm::LoopbackTransport bus;
    DseServiceConfig cfg;
    cfg.pool_threads = 4;
    DseService service(bus, kServiceTerminal, cfg);
    Recorder recorders[2];
    for (std::size_t c = 0; c < clients; ++c) {
      bus.attach(static_cast<noc::TerminalId>(c + 1), recorders[c]);
    }
    for (std::size_t c = 0; c < clients; ++c) {
      raw_submit(bus, static_cast<noc::TerminalId>(c + 1),
                 static_cast<std::uint32_t>(40 + c), reqs[c]);
    }
    for (std::size_t c = 0; c < clients; ++c) {
      recorders[c].wait_until(stream_ended);
    }
    service.stop();
    bus.shutdown();  // delivers anything sent after the last message
    for (std::size_t c = 0; c < clients; ++c) {
      expect_stream_follows_table(
          recorders[c].payloads(), static_cast<std::uint32_t>(40 + c),
          refs[c],
          std::to_string(clients) + " client(s), client " + std::to_string(c));
    }
  }
}

// -------------------------------------------- a client distrusts the wire ---

/// One scripted service reply: the method and its argument words.
struct ScriptedReply {
  dsoc::MethodId method = 0;
  std::vector<std::uint32_t> args;
};

/// A scripted stand-in for DseService at kServiceTerminal: it answers every
/// kSubmit with the replies `script` builds for the submit's tag, verbatim
/// — whatever grid counts and indices they carry.
class FakeService final : public tlm::Endpoint {
 public:
  using Script = std::function<std::vector<ScriptedReply>(std::uint32_t)>;

  FakeService(tlm::MessageBus& bus, Script script)
      : bus_(bus), script_(std::move(script)) {
    bus_.attach(kServiceTerminal, *this);
  }

  void handle(const tlm::Transaction& t, tlm::CompletionFn done) override {
    std::vector<std::uint32_t> args;
    const dsoc::CallHeader hdr = dsoc::unmarshal_call(t.payload, args);
    if (hdr.method == svc_method::kSubmit) {
      dsoc::WireReader r(args);
      const noc::TerminalId client = r.u32();
      const std::uint32_t tag = r.u32();
      for (const ScriptedReply& reply : script_(tag)) {
        dsoc::CallHeader out;
        out.method = reply.method;
        bus_.message(kServiceTerminal, client,
                     dsoc::marshal_call(out, reply.args));
      }
    }
    if (done) done(t);
  }

 private:
  tlm::MessageBus& bus_;
  Script script_;
};

constexpr std::uint32_t kFakeSweepId = 7;

/// A complete scripted sweep: kAccepted reporting `grid`, one blank
/// evaluated kPoint per entry of `indices`, one validated kPoint per entry
/// of `validated`, then kDone whose aggregate and single scenario front are
/// both `front`. Every stream ends in kDone, so a client that skipped a
/// check would return from wait(), not hang.
std::vector<ScriptedReply> sweep_replies(
    std::uint32_t tag, std::uint64_t grid,
    const std::vector<std::uint64_t>& indices,
    const std::vector<std::uint64_t>& front,
    const std::vector<std::uint64_t>& validated = {}) {
  std::vector<ScriptedReply> out;
  dsoc::WireWriter acc;
  acc.u32(tag);
  acc.u32(kFakeSweepId);
  acc.u64(grid);
  acc.boolean(false);
  out.push_back({svc_method::kAccepted, acc.take()});
  const DsePoint blank;
  for (const std::uint64_t index : indices) {
    dsoc::WireWriter w;
    w.u32(kFakeSweepId);
    w.u32(kStageEvaluated);
    w.u64(index);
    core::wire_put(w, blank);
    w.u64(0);  // no extras
    out.push_back({svc_method::kPoint, w.take()});
  }
  DsePoint replayed;
  replayed.pareto_optimal = true;
  replayed.validated = true;
  for (const std::uint64_t index : validated) {
    dsoc::WireWriter w;
    w.u32(kFakeSweepId);
    w.u32(kStageValidated);
    w.u64(index);
    core::wire_put(w, replayed);
    w.u64(0);
    out.push_back({svc_method::kPoint, w.take()});
  }
  dsoc::WireWriter done;
  const auto put_front = [&] {
    done.u64(front.size());
    for (const std::uint64_t i : front) done.u64(i);
  };
  done.u32(kFakeSweepId);
  put_front();   // aggregate front
  done.u64(1);   // one scenario front ...
  put_front();   // ... equal to it
  done.u64(indices.size());  // evaluated
  done.u64(0);               // validated
  out.push_back({svc_method::kDone, done.take()});
  return out;
}

/// Submits small_request() (a 4-point grid) to a FakeService running
/// `script` and returns what wait() threw ("" if it returned).
std::string wait_error(FakeService::Script script) {
  tlm::LoopbackTransport bus;
  FakeService fake(bus, std::move(script));
  DseClient client(bus, 1);
  std::string error;
  try {
    (void)client.wait(client.submit(small_request()));
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  bus.shutdown();
  return error;
}

TEST(DseClient, WrongAcceptedGridCountFailsTheSweep) {
  const std::string error = wait_error([](std::uint32_t tag) {
    return sweep_replies(tag, 5, {0, 1, 2, 3, 4}, {0});
  });
  EXPECT_NE(error.find("kAccepted grid count 5"), std::string::npos) << error;
}

TEST(DseClient, OutOfRangePointIndexFailsTheSweep) {
  const std::string error = wait_error([](std::uint32_t tag) {
    return sweep_replies(tag, 4, {0, 1u << 20, 1, 2, 3}, {0});
  });
  EXPECT_NE(error.find("kPoint index 1048576"), std::string::npos) << error;
}

TEST(DseClient, OutOfRangeFrontIndexFailsTheSweep) {
  // The same stream with an in-range front is accepted, so the failure
  // below is the front index alone.
  EXPECT_EQ(wait_error([](std::uint32_t tag) {
              return sweep_replies(tag, 4, {0, 1, 2, 3}, {1});
            }),
            "");
  const std::string error = wait_error([](std::uint32_t tag) {
    return sweep_replies(tag, 4, {0, 1, 2, 3}, {1, 9});
  });
  EXPECT_NE(error.find("kDone front index 9"), std::string::npos) << error;
}

TEST(DseClient, ValidatedPointOffTheFrontFailsTheSweep) {
  // Index 2 is a real point but not a front member: a stage-2 overlay
  // there would replace an unvalidated point with a foreign one.
  const std::string error = wait_error([](std::uint32_t tag) {
    return sweep_replies(tag, 4, {0, 1, 2, 3}, {1}, {2});
  });
  EXPECT_NE(error.find("kPoint validated index 2"), std::string::npos)
      << error;
  // The same stream overlaying the front member is accepted.
  EXPECT_EQ(wait_error([](std::uint32_t tag) {
              return sweep_replies(tag, 4, {0, 1, 2, 3}, {1}, {1});
            }),
            "");
}

// ------------------------------------------- the acceptance: real TCP ---

TEST(DseService, ConcurrentTcpClientsReceiveByteIdenticalFronts) {
  // N concurrent clients over a real socket, each with a different sweep,
  // all multiplexed onto one shared pool — every streamed front must be
  // byte-identical to that client's own local DseSession run.
  auto server = tlm::SocketTransport::listen(0);
  DseServiceConfig cfg;
  cfg.max_active = 3;
  DseService service(*server, kServiceTerminal, cfg);

  const SweepRequest requests[3] = {small_request(), small_request(true), [] {
                                      SweepRequest r = small_request();
                                      r.config.validate_pareto = true;
                                      return r;
                                    }()};
  SessionRef refs[3];
  for (int i = 0; i < 3; ++i) refs[i] = run_reference(requests[i]);

  std::vector<std::thread> workers;
  std::string failures[3];
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      try {
        auto bus = tlm::SocketTransport::connect("127.0.0.1", server->port());
        DseClient client(*bus, static_cast<noc::TerminalId>(i + 1));
        std::atomic<std::uint64_t> streamed{0};
        const std::uint32_t id = client.submit(
            requests[i],
            [&](std::uint64_t, const DsePoint&, bool) { ++streamed; });
        const SweepResult res = client.wait(id);
        expect_result_identical(res, refs[i],
                                "tcp client " + std::to_string(i));
        if (streamed.load() == 0) failures[i] = "no streamed points";
        bus->shutdown();
      } catch (const std::exception& e) {
        failures[i] = e.what();
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(failures[i], "") << "tcp client " << i;
  }

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.errors, 0u);
  service.stop();
  server->shutdown();
}

TEST(DseService, TcpCancelReclaimsTheSlotAcrossClients) {
  // Client 1 cancels mid-sweep over TCP; client 2's queued sweep must
  // start, finish, and match its local session.
  auto server = tlm::SocketTransport::listen(0);
  DseServiceConfig cfg;
  cfg.pool_threads = 1;
  cfg.max_active = 1;
  cfg.max_queued = 1;
  DseService service(*server, kServiceTerminal, cfg);

  auto bus1 = tlm::SocketTransport::connect("127.0.0.1", server->port());
  DseClient c1(*bus1, 1);
  std::atomic<std::uint32_t> id1{0};
  std::atomic<bool> sent{false};
  const std::uint32_t a = c1.submit(
      slow_request(true), [&](std::uint64_t, const DsePoint&, bool) {
        if (sent.exchange(true)) return;
        while (id1.load() == 0) std::this_thread::yield();  // see above
        c1.cancel(id1.load());
      });
  id1.store(a);

  auto bus2 = tlm::SocketTransport::connect("127.0.0.1", server->port());
  DseClient c2(*bus2, 2);
  const std::uint32_t b = c2.submit(small_request());

  EXPECT_TRUE(c1.wait(a).cancelled);
  expect_result_identical(c2.wait(b), run_reference(small_request()),
                          "tcp post-cancel sweep");

  service.stop();
  bus1->shutdown();
  bus2->shutdown();
  server->shutdown();
}

TEST(DseService, DisconnectedClientFreesItsSlot) {
  // Client 1 disconnects right after its slow sweep is admitted. The first
  // send to it fails, which must retire that sweep as a cancel would and
  // admit client 2's sweep, queued behind it, long before the slow sweep
  // could have finished.
  auto server = tlm::SocketTransport::listen(0);
  DseServiceConfig cfg;
  cfg.pool_threads = 1;
  cfg.max_active = 1;
  cfg.max_queued = 1;
  DseService service(*server, kServiceTerminal, cfg);

  SweepRequest slow = slow_request(true);
  slow.anneal.iterations = 250000;  // hundreds of ms on one pool thread
  auto bus1 = tlm::SocketTransport::connect("127.0.0.1", server->port());
  DseClient c1(*bus1, 1);
  (void)c1.submit(slow);
  bus1->shutdown();

  auto bus2 = tlm::SocketTransport::connect("127.0.0.1", server->port());
  DseClient c2(*bus2, 2);
  const std::uint32_t b = c2.submit(small_request());
  expect_result_identical(c2.wait(b), run_reference(small_request()),
                          "sweep queued behind a disconnected client");

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.active_sweeps() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(service.active_sweeps(), 0u);
  EXPECT_EQ(service.queued_sweeps(), 0u);
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.completed, 1u) << "the disconnected client's sweep ran on";
  EXPECT_EQ(st.cancelled, 1u);

  service.stop();
  bus2->shutdown();
  server->shutdown();
}

}  // namespace
}  // namespace soc::svc
