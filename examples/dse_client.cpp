// TCP client of the always-on DSE daemon (examples/dse_serve.cpp): builds
// the same sweep platform_dse would run, submits it over a real socket,
// prints points as they stream in, and assembles the finished front.
//
//   ./build/examples/dse_client [ipv4|mjpeg|wlan] [anneal_iters]
//                               --port <tcp port> [--host <addr>]
//                               [--terminal <id>] [--mapper <name>]
//                               [--objectives <csv>] [--scenarios <count>]
//                               [--validate] [--map-fronts]
//                               [--cancel-after <k>] [--expect-local]
//                               [--quiet] [--help]
//
// `--terminal` assigns this client's NoC terminal id (default 1); two
// clients of one daemon must use distinct terminals. `--cancel-after <k>`
// cancels the sweep after <k> streamed points (exercises the daemon's
// slot reclamation). `--expect-local` re-runs the identical sweep through
// a local DseSession and fails (exit 1) unless every streamed point,
// front index, and extra parent is byte-identical — the service's
// correctness contract, checkable from the command line.
//
// Exit codes: 0 success, 1 sweep/connection failure or --expect-local
// mismatch, 2 usage error.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "soc/apps/graphs.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/core/dse_wire.hpp"
#include "soc/core/mapper.hpp"
#include "soc/core/objective_space.hpp"
#include "soc/core/scenario.hpp"
#include "soc/svc/dse_client.hpp"
#include "soc/tlm/socket.hpp"

using namespace soc;

namespace {

/// Strict base-10 integer parse: nullopt on empty input or trailing junk.
std::optional<long> parse_long(const char* s) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') return std::nullopt;
  return v;
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: dse_client [ipv4|mjpeg|wlan] [anneal_iters]\n"
               "                  --port <tcp port> [--host <addr>]\n"
               "                  [--terminal <id>] [--mapper <name>]\n"
               "                  [--objectives <csv>] "
               "[--scenarios <count>]\n"
               "                  [--validate] [--map-fronts]\n"
               "                  [--cancel-after <k>] [--expect-local]\n"
               "                  [--quiet] [--help]\n"
               "--terminal gives this client its own NoC terminal "
               "(default 1; concurrent clients\nof one daemon need "
               "distinct terminals);\n--cancel-after cancels the sweep "
               "after <k> streamed points;\n--expect-local re-runs the "
               "sweep in-process through DseSession and exits 1 on\nany "
               "byte-level divergence from the streamed result.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  long port = -1;
  long terminal = 1;
  std::string mapper_name = "anneal";
  std::string objective_names = "tput,area,power";
  int scenario_count = 0;
  bool validate = false;
  bool map_fronts = false;
  long cancel_after = 0;
  bool expect_local = false;
  bool quiet = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const auto need_str = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--help")) {
      print_usage(stdout);
      return 0;
    } else if (!std::strcmp(argv[i], "--validate")) {
      validate = true;
    } else if (!std::strcmp(argv[i], "--map-fronts")) {
      map_fronts = true;
    } else if (!std::strcmp(argv[i], "--expect-local")) {
      expect_local = true;
    } else if (!std::strcmp(argv[i], "--quiet")) {
      quiet = true;
    } else if (!std::strcmp(argv[i], "--host")) {
      const char* v = need_str("--host");
      if (!v) return 2;
      host = v;
    } else if (!std::strcmp(argv[i], "--mapper")) {
      const char* v = need_str("--mapper");
      if (!v) return 2;
      mapper_name = v;
    } else if (!std::strcmp(argv[i], "--objectives")) {
      const char* v = need_str("--objectives");
      if (!v) return 2;
      objective_names = v;
    } else if (!std::strcmp(argv[i], "--port")) {
      const char* v = need_str("--port");
      if (!v) return 2;
      const auto p = parse_long(v);
      if (!p || *p < 1 || *p > 65535) {
        std::fprintf(stderr, "--port: bad value '%s'\n", v);
        return 2;
      }
      port = *p;
    } else if (!std::strcmp(argv[i], "--terminal")) {
      const char* v = need_str("--terminal");
      if (!v) return 2;
      const auto t = parse_long(v);
      if (!t || *t < 1) {
        std::fprintf(stderr, "--terminal: bad value '%s' (must be >= 1; 0 "
                             "is the service)\n", v);
        return 2;
      }
      terminal = *t;
    } else if (!std::strcmp(argv[i], "--scenarios")) {
      const char* v = need_str("--scenarios");
      if (!v) return 2;
      const auto n = parse_long(v);
      if (!n || *n < 1) {
        std::fprintf(stderr, "--scenarios: bad value '%s'\n", v);
        return 2;
      }
      scenario_count = static_cast<int>(*n);
    } else if (!std::strcmp(argv[i], "--cancel-after")) {
      const char* v = need_str("--cancel-after");
      if (!v) return 2;
      const auto k = parse_long(v);
      if (!k || *k < 1) {
        std::fprintf(stderr, "--cancel-after: bad value '%s'\n", v);
        return 2;
      }
      cancel_after = *k;
    } else if (!std::strncmp(argv[i], "--", 2)) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      print_usage(stderr);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (port < 0) {
    std::fprintf(stderr, "--port is required (dse_serve prints its bound "
                         "port at startup)\n");
    return 2;
  }
  if (positional.size() > 2) {
    std::fprintf(stderr, "too many positional arguments\n");
    print_usage(stderr);
    return 2;
  }
  const char* which = positional.size() > 0 ? positional[0] : "mjpeg";
  if (std::strcmp(which, "ipv4") != 0 && std::strcmp(which, "mjpeg") != 0 &&
      std::strcmp(which, "wlan") != 0) {
    std::fprintf(stderr, "unknown graph '%s' (expected ipv4, mjpeg or "
                         "wlan)\n", which);
    return 2;
  }
  long iters = 500;
  if (positional.size() > 1) {
    const auto v = parse_long(positional[1]);
    if (!v || *v <= 0) {
      std::fprintf(stderr, "anneal_iters must be a positive integer, got "
                           "'%s'\n", positional[1]);
      return 2;
    }
    iters = *v;
  }

  // The same sweep platform_dse runs, as one serializable request.
  core::SweepRequest request;
  request.problem.graph = !std::strcmp(which, "ipv4")
                              ? apps::ipv4_task_graph()
                              : !std::strcmp(which, "wlan")
                                    ? apps::wlan_task_graph()
                                    : apps::mjpeg_task_graph();
  try {
    request.problem.objectives =
        core::ObjectiveSpace::from_names(objective_names);
    (void)core::make_mapper(mapper_name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad flag value: %s\n", e.what());
    return 2;
  }
  request.problem.node = tech::node_90nm();
  request.space.pe_counts = {4, 8, 16};
  request.space.thread_counts = {2, 4};
  request.space.topologies = {noc::TopologyKind::kBus,
                              noc::TopologyKind::kMesh2D,
                              noc::TopologyKind::kCrossbar};
  request.space.fabrics = {tech::Fabric::kAsip};
  request.anneal.iterations = static_cast<int>(iters);
  request.config.mapper = mapper_name;
  request.config.validate_pareto = validate;
  request.config.mapping_fronts = map_fronts;
  if (scenario_count > 0) {
    const core::ScenarioGenerator gen(request.anneal.seed);
    request.scenarios = gen.matrix(scenario_count, 1);
  } else {
    request.scenarios = core::ScenarioSet{request.problem.graph};
  }

  try {
    auto bus = tlm::SocketTransport::connect(
        host, static_cast<std::uint16_t>(port));
    svc::DseClient client(*bus, static_cast<noc::TerminalId>(terminal));
    std::uint64_t seen = 0;
    // Set once submit() returns; a point can stream in before that.
    std::atomic<std::uint32_t> sweep_id{0};
    const auto observer = [&](std::uint64_t index,
                              const core::DsePoint& pt, bool validated) {
      ++seen;
      if (!quiet) {
        std::printf("  point %4llu %s%s\n",
                    static_cast<unsigned long long>(index),
                    core::to_string(pt).c_str(),
                    validated ? "  [validated]" : "");
      }
      if (cancel_after > 0 &&
          seen == static_cast<std::uint64_t>(cancel_after)) {
        while (sweep_id.load() == 0) std::this_thread::yield();
        client.cancel(sweep_id.load());
      }
    };
    const std::uint32_t id = client.submit(request, observer);
    sweep_id = id;
    std::printf("dse_client: sweep %u accepted (terminal %ld)\n", id,
                terminal);
    std::fflush(stdout);
    svc::SweepResult res = client.wait(id);
    if (res.cancelled) {
      std::printf("dse_client: sweep %u cancelled after %llu evaluations "
                  "(%llu points streamed)\n",
                  id,
                  static_cast<unsigned long long>(res.points_evaluated),
                  static_cast<unsigned long long>(res.points_streamed));
      bus->shutdown();
      return 0;
    }
    std::printf("dse_client: sweep %u done: %zu points (%zu grid + %zu "
                "extras), front %zu, first point %.1f ms, wall %.1f ms\n",
                id, res.points.size(), res.grid_points,
                res.extra_parents.size(), res.front.size(),
                res.time_to_first_point_ms, res.wall_ms);

    if (expect_local) {
      core::DseSession session(request.problem, request.scenarios,
                               request.space, request.anneal, request.config);
      const std::vector<core::DsePoint>& want = session.run();
      const std::vector<std::size_t>& want_front = session.front();
      bool ok = want.size() == res.points.size() &&
                want_front == res.front &&
                session.scenario_fronts() == res.scenario_fronts &&
                session.grid_point_count() == res.grid_points;
      if (ok) {
        for (std::size_t i = 0; i < want.size(); ++i) {
          if (core::marshal_point(res.points[i]) !=
              core::marshal_point(want[i])) {
            std::fprintf(stderr, "dse_client: point %zu diverged from the "
                                 "local session\n", i);
            ok = false;
            break;
          }
        }
      }
      if (!ok) {
        std::fprintf(stderr, "dse_client: streamed result is NOT "
                             "byte-identical to the local session\n");
        bus->shutdown();
        return 1;
      }
      std::printf("dse_client: byte-identical to the local DseSession run "
                  "(%zu points)\n", want.size());
    }
    bus->shutdown();
    return 0;
  } catch (const svc::ServiceBusy& e) {
    std::fprintf(stderr, "dse_client: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dse_client: %s\n", e.what());
    return 1;
  }
}
