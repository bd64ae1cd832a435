// The always-on DSE service, metered end to end. R1: concurrent-client
// multiplexing over the in-process loopback — three clients submit
// distinct sweeps at once; every streamed result must be byte-identical
// to that client's own single-machine DseSession (field-exact through the
// canonical dse_wire encoding), time-to-first-point and wall time are
// recorded per client, and the fairness gate requires every client to see
// its first point before any client's sweep finishes (round-robin
// interleaving, not head-of-line service). R2: control-plane contracts —
// a cancelled sweep frees its slot for the queued one (prompt
// reclamation) and a full service refuses with the typed busy reply. R3:
// the real socket — the same sweep over a TCP connection on an ephemeral
// loopback port, with time-to-first-point and wire-word volume. Emits
// BENCH_dse_service.json (schema in README.md); the exit code gates every
// verdict, and CTest runs `--quick` as test bench.dse_service_quick.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "soc/apps/graphs.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/dse_wire.hpp"
#include "soc/core/eval_cache.hpp"
#include "soc/core/objective_space.hpp"
#include "soc/svc/dse_client.hpp"
#include "soc/svc/dse_service.hpp"
#include "soc/tlm/loopback.hpp"
#include "soc/tlm/socket.hpp"

using namespace soc;

namespace {

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Byte-identity through the canonical wire codec.
bool streams_identical(const std::vector<core::DsePoint>& a,
                       const std::vector<core::DsePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (core::marshal_point(a[i]) != core::marshal_point(b[i])) return false;
  }
  return true;
}

/// The per-client sweep: same candidate axes, distinct anneal budgets so
/// the three concurrent sweeps are genuinely different problems.
core::SweepRequest make_request(const core::TaskGraph& graph, int iterations,
                                bool validate) {
  core::SweepRequest req;
  req.problem = core::DseProblem{graph, core::ObjectiveSpace::default_space(),
                                 core::ObjectiveWeights{}, tech::node_90nm()};
  req.scenarios = core::ScenarioSet{graph};
  req.space.pe_counts = {4, 8, 16};
  req.space.thread_counts = {2, 4};
  req.space.topologies = {noc::TopologyKind::kBus, noc::TopologyKind::kMesh2D,
                          noc::TopologyKind::kCrossbar};
  req.space.fabrics = {tech::Fabric::kAsip};
  req.anneal.iterations = iterations;
  req.config.validate_pareto = validate;
  req.config.use_eval_cache = false;  // meter real evaluations, not memo hits
  return req;
}

/// Ground truth for one request: a local DseSession run.
struct LocalRef {
  std::vector<core::DsePoint> points;
  std::vector<std::size_t> front;
  std::vector<std::vector<std::size_t>> scenario_fronts;
};

LocalRef run_local(const core::SweepRequest& req) {
  core::DseSession session(req.problem, req.scenarios, req.space, req.anneal,
                           req.config);
  LocalRef ref;
  ref.points = session.run();
  ref.front = session.front();
  ref.scenario_fronts = session.scenario_fronts();
  return ref;
}

struct ClientOutcome {
  bool identical = false;
  double t_first_ms = 0.0;
  double t_done_ms = 0.0;
  std::uint64_t streamed = 0;
  std::string error;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && !std::strcmp(argv[1], "--quick");
  const int base_iters = quick ? 2000 : 6000;

  const core::TaskGraph graph = apps::mjpeg_task_graph();
  bench::title("SVC", "always-on DSE service: multiplexed streaming sweeps");
  bench::note("graph " + graph.name() + ", 18-candidate grid, anneal " +
              std::to_string(base_iters) + "+ iters" +
              (quick ? " (--quick)" : ""));

  bench::JsonReport json("dse_service");
  json.add("quick", quick);
  bool all_ok = true;

  // ---- R1: three concurrent clients over the loopback. ---------------------
  // Distinct budgets => distinct sweeps; the shared clock t0 makes the
  // per-client first-point/done timestamps comparable for the fairness gate.
  core::SweepRequest requests[3] = {
      make_request(graph, base_iters, false),
      make_request(graph, base_iters + base_iters / 2, false),
      make_request(graph, base_iters * 2, false)};
  LocalRef refs[3];
  for (int i = 0; i < 3; ++i) refs[i] = run_local(requests[i]);

  tlm::LoopbackTransport bus;
  svc::DseServiceConfig cfg;
  cfg.max_active = 3;
  svc::DseService service(bus, svc::kServiceTerminal, cfg);

  ClientOutcome outcomes[3];
  // All three clients submit through the same start gate: without it the
  // first sweep can finish before the last client has even submitted, and
  // the fairness window below would measure submission skew, not
  // scheduling. (The shared t0 predates the gate — that common offset
  // cancels out of the max-first vs min-done comparison.)
  std::latch start_gate(3);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < 3; ++i) {
      clients.emplace_back([&, i] {
        ClientOutcome& out = outcomes[i];
        try {
          svc::DseClient client(bus, static_cast<noc::TerminalId>(i + 1));
          start_gate.arrive_and_wait();
          std::atomic<bool> first_seen{false};
          const std::uint32_t id = client.submit(
              requests[i], [&](std::uint64_t, const core::DsePoint&, bool) {
                if (!first_seen.exchange(true)) out.t_first_ms = ms_since(t0);
              });
          const svc::SweepResult res = client.wait(id);
          out.t_done_ms = ms_since(t0);
          out.streamed = res.points_streamed;
          out.identical = streams_identical(res.points, refs[i].points) &&
                          res.front == refs[i].front &&
                          res.scenario_fronts == refs[i].scenario_fronts;
        } catch (const std::exception& e) {
          out.error = e.what();
        }
      });
    }
    for (auto& c : clients) c.join();
  }

  bool identical_all = true;
  double max_first = 0.0;
  double min_done = 1e300;
  for (int i = 0; i < 3; ++i) {
    const ClientOutcome& out = outcomes[i];
    if (!out.error.empty()) {
      bench::note("client " + std::to_string(i) + " FAILED: " + out.error);
      identical_all = false;
      continue;
    }
    identical_all &= out.identical;
    if (out.t_first_ms > max_first) max_first = out.t_first_ms;
    if (out.t_done_ms < min_done) min_done = out.t_done_ms;
    char line[160];
    std::snprintf(line, sizeof line,
                  "client %d: first point %7.1f ms, done %7.1f ms, %llu "
                  "points streamed  %s",
                  i, out.t_first_ms, out.t_done_ms,
                  static_cast<unsigned long long>(out.streamed),
                  out.identical ? "identical" : "DIVERGED");
    bench::note(line);
    const std::string k = "client" + std::to_string(i);
    json.add(k + "_t_first_ms", out.t_first_ms);
    json.add(k + "_t_done_ms", out.t_done_ms);
    json.add(k + "_points_streamed", static_cast<long long>(out.streamed));
  }
  json.add("identical_all", identical_all);
  bench::verdict(identical_all,
                 "3 concurrent clients byte-identical to their local sessions");
  all_ok &= identical_all;

  // Fairness: round-robin scheduling must interleave the sweeps, so every
  // client sees its first point before any client's whole sweep finishes.
  const bool fair = max_first < min_done && min_done < 1e300;
  json.add("fairness_max_first_ms", max_first);
  json.add("fairness_min_done_ms", min_done);
  char fairline[160];
  std::snprintf(fairline, sizeof fairline,
                "fair interleaving: slowest first-point %.1f ms < fastest "
                "completion %.1f ms",
                max_first, min_done);
  bench::verdict(fair, fairline);
  all_ok &= fair;

  // ---- R2: cancel reclamation and typed backpressure. ----------------------
  bench::rule();
  {
    tlm::LoopbackTransport cbus;
    svc::DseServiceConfig ccfg;
    ccfg.pool_threads = 1;
    ccfg.max_active = 1;
    ccfg.max_queued = 1;
    svc::DseService csvc(cbus, svc::kServiceTerminal, ccfg);
    svc::DseClient client(cbus, 1);

    // A deliberately heavy sweep holds the slot; cancel it on first point.
    core::SweepRequest heavy = make_request(graph, 60000, false);
    std::atomic<std::uint32_t> heavy_id{0};
    std::atomic<bool> sent{false};
    const std::uint32_t a = client.submit(
        heavy, [&](std::uint64_t, const core::DsePoint&, bool) {
          if (sent.exchange(true)) return;
          // The first point can land before submit() returns the id.
          while (heavy_id.load() == 0) std::this_thread::yield();
          client.cancel(heavy_id.load());
        });
    heavy_id.store(a);
    const std::uint32_t b =
        client.submit(make_request(graph, base_iters, false));
    bool busy_refused = false;
    try {
      (void)client.submit(make_request(graph, base_iters, false));
    } catch (const svc::ServiceBusy&) {
      busy_refused = true;
    }
    const auto tc0 = std::chrono::steady_clock::now();
    const svc::SweepResult res_a = client.wait(a);
    const svc::SweepResult res_b = client.wait(b);
    const double t_reclaim = ms_since(tc0);

    const bool cancel_ok = res_a.cancelled && res_a.points_evaluated < 18 &&
                           !res_b.cancelled && res_b.points.size() == 18;
    json.add("cancel_points_evaluated",
             static_cast<long long>(res_a.points_evaluated));
    json.add("cancel_to_queued_done_ms", t_reclaim);
    json.add("cancel_ok", cancel_ok);
    char cline[160];
    std::snprintf(cline, sizeof cline,
                  "cancel frees the slot: %llu/18 evaluated, queued sweep "
                  "done %.1f ms later",
                  static_cast<unsigned long long>(res_a.points_evaluated),
                  t_reclaim);
    bench::verdict(cancel_ok, cline);
    all_ok &= cancel_ok;

    json.add("busy_refused", busy_refused);
    bench::verdict(busy_refused,
                   "full service refuses with the typed busy reply");
    all_ok &= busy_refused;
    csvc.stop();
    cbus.shutdown();
  }

  // ---- R3: the real socket on an ephemeral loopback port. ------------------
  bench::rule();
  {
    auto server = tlm::SocketTransport::listen(0);
    svc::DseService ssvc(*server, svc::kServiceTerminal);
    auto cbus = tlm::SocketTransport::connect("127.0.0.1", server->port());
    svc::DseClient client(*cbus, 1);

    const core::SweepRequest req = make_request(graph, base_iters, !quick);
    const LocalRef ref = run_local(req);
    const auto ts0 = std::chrono::steady_clock::now();
    const std::uint32_t id = client.submit(req);
    const svc::SweepResult res = client.wait(id);
    const double t_tcp = ms_since(ts0);

    const bool tcp_identical = streams_identical(res.points, ref.points) &&
                               res.front == ref.front &&
                               res.scenario_fronts == ref.scenario_fronts;
    const std::uint64_t wire_words = cbus->words_on_wire();
    const double bytes_per_point =
        res.points_streamed
            ? 4.0 * static_cast<double>(wire_words) /
                  static_cast<double>(res.points_streamed)
            : 0.0;
    char sline[200];
    std::snprintf(sline, sizeof sline,
                  "tcp sweep: first point %.1f ms, wall %.1f ms, %llu wire "
                  "words (%.0f bytes/point)",
                  res.time_to_first_point_ms, t_tcp,
                  static_cast<unsigned long long>(wire_words),
                  bytes_per_point);
    bench::note(sline);
    json.add("tcp_t_first_ms", res.time_to_first_point_ms);
    json.add("tcp_wall_ms", t_tcp);
    json.add("tcp_wire_words", static_cast<long long>(wire_words));
    json.add("tcp_bytes_per_point", bytes_per_point);
    json.add("tcp_identical", tcp_identical);
    bench::verdict(tcp_identical,
                   "socket-streamed sweep byte-identical to the local session");
    all_ok &= tcp_identical;

    ssvc.stop();
    cbus->shutdown();
    server->shutdown();
  }

  service.stop();
  bus.shutdown();

  bench::rule();
  json.add("all_ok", all_ok);
  json.write();
  bench::verdict(all_ok, "always-on DSE service contracts hold");
  return all_ok ? 0 : 1;
}
