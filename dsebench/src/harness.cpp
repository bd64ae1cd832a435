#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>

#include "soc/core/dse_session.hpp"

namespace dsebench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_metric(const char* name, double value, const char* unit) {
  char buf[192];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  name, value, unit);
  } else {
    std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  name, unit);
  }
  return buf;
}

// ---------------------------------------------------------------- Harness ---

Harness::Harness(int clients, Bus bus) {
  svc::DseServiceConfig cfg;
  cfg.pool_threads = kPoolThreads;
  if (bus == Bus::kSocket) {
    server_ = tlm::SocketTransport::listen(0);
    service_ = std::make_unique<svc::DseService>(*server_, svc::kServiceTerminal, cfg);
    for (int i = 0; i < clients; ++i) {
      conns_.push_back(tlm::SocketTransport::connect("127.0.0.1", server_->port()));
      clients_.push_back(std::make_unique<svc::DseClient>(
          *conns_.back(), static_cast<noc::TerminalId>(i + 1)));
    }
  } else {
    loopback_ = std::make_unique<tlm::LoopbackTransport>();
    service_ = std::make_unique<svc::DseService>(*loopback_, svc::kServiceTerminal, cfg);
    for (int i = 0; i < clients; ++i) {
      clients_.push_back(std::make_unique<svc::DseClient>(
          *loopback_, static_cast<noc::TerminalId>(i + 1)));
    }
  }
}

Harness::~Harness() {
  service_->stop();
  for (auto& c : conns_) c->shutdown();
  if (server_) server_->shutdown();
  if (loopback_) loopback_->shutdown();
}

std::uint64_t Harness::frames_sent() const {
  std::uint64_t n = server_ ? server_->frames_sent() : 0;
  for (const auto& c : conns_) n += c->frames_sent();
  return n;
}

std::uint64_t Harness::payload_words() const {
  std::uint64_t n = server_ ? server_->words_on_wire() : 0;
  for (const auto& c : conns_) n += c->words_on_wire();
  return n / 2;
}

// ------------------------------------------------------------ closed loop ---

LoopResult closed_loop(int clients, std::uint64_t& next_k, double seconds,
                       std::size_t min_sweeps, const SweepFn& sweep) {
  std::atomic<std::uint64_t> next{next_k};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> go{false};
  double deadline = 0.0;
  std::vector<std::vector<SweepRecord>> per_client(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (;;) {
        if (now_ms() >= deadline && done.load() >= min_sweeps) break;
        SweepRecord rec = sweep(c, next.fetch_add(1));
        rec.t_end = now_ms();
        rec.cpu_end = cpu_seconds();
        per_client[static_cast<std::size_t>(c)].push_back(std::move(rec));
        done.fetch_add(1);
      }
    });
  }
  LoopResult out;
  out.cpu0 = cpu_seconds();
  out.t0 = now_ms();
  deadline = out.t0 + 1000.0 * seconds;
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  out.wall_s = (now_ms() - out.t0) / 1000.0;
  out.cpu_s = cpu_seconds() - out.cpu0;
  next_k = next.load();
  for (auto& v : per_client) {
    for (SweepRecord& r : v) out.sweeps.push_back(std::move(r));
  }
  std::sort(out.sweeps.begin(), out.sweeps.end(),
            [](const SweepRecord& a, const SweepRecord& b) { return a.t_end < b.t_end; });
  for (const SweepRecord& r : out.sweeps) {
    if (!r.failed) out.grid_points += r.grid_points;
  }
  return out;
}

std::vector<Chunk> chunks(const LoopResult& r) {
  const std::size_t n = r.sweeps.size();
  const std::size_t k = std::max<std::size_t>(1, n / kChunkSweeps);
  std::vector<Chunk> out;
  double t = r.t0;
  double cpu = r.cpu0;
  for (std::size_t c = 0; c < k && n > 0; ++c) {
    Chunk ch;
    ch.begin = c * n / k;
    ch.end = (c + 1) * n / k;
    const SweepRecord& last = r.sweeps[ch.end - 1];
    ch.wall_s = (last.t_end - t) / 1000.0;
    ch.cpu_s = last.cpu_end - cpu;
    for (std::size_t i = ch.begin; i < ch.end; ++i) {
      if (!r.sweeps[i].failed) ch.points += static_cast<double>(r.sweeps[i].grid_points);
    }
    t = last.t_end;
    cpu = last.cpu_end;
    out.push_back(ch);
  }
  return out;
}

// ----------------------------------------------------------------- sweeps ---

SweepRecord service_sweep(svc::DseClient& client, const core::SweepRequest& req,
                          std::uint64_t k, bool traced) {
  SweepRecord rec;
  rec.k = k;
  std::vector<double> arrivals;
  svc::PointObserverFn observer;
  if (traced) {
    arrivals.reserve(4096);
    observer = [&arrivals](std::uint64_t, const core::DsePoint&, bool) {
      arrivals.push_back(now_ms());
    };
  }
  try {
    const double t0 = now_ms();
    const std::uint32_t id = client.submit(req, std::move(observer));
    const double t_submitted = now_ms();
    const svc::SweepResult res = client.wait(id);
    const double t_done = now_ms();
    rec.sweep_ms = t_done - t0;
    rec.first_point_ms = res.time_to_first_point_ms;
    rec.grid_points = res.grid_points;
    rec.points_streamed = res.points_streamed;
    for (const core::DsePoint& p : res.points) rec.validated += p.validated ? 1 : 0;
    if (res.cancelled) {
      rec.failed = true;
      rec.error = "sweep cancelled";
    }
    rec.digest = digest_result(res.points, res.grid_points, res.extra_parents,
                               res.front, res.scenario_fronts);
    if (traced && !arrivals.empty()) {
      rec.t_submit = t0;
      rec.t_accepted = t_submitted;
      rec.t_first = arrivals.front();
      rec.t_last = arrivals.back();
      rec.t_done = t_done;
      for (std::size_t i = 1; i < arrivals.size(); ++i) {
        rec.gaps_us.push_back(1000.0 * (arrivals[i] - arrivals[i - 1]));
      }
    }
  } catch (const std::exception& e) {
    rec.failed = true;
    rec.error = e.what();
  }
  if (rec.failed) rec.sweep_ms = std::numeric_limits<double>::infinity();
  return rec;
}

Digest local_digest(core::SweepRequest req, int threads, bool use_eval_cache) {
  req.config.num_threads = threads;
  req.config.use_eval_cache = use_eval_cache;
  core::DseSession s(req.problem, req.scenarios, req.space, req.anneal, req.config);
  const std::vector<core::DsePoint> points = s.run();
  std::vector<std::size_t> extra_parents;
  for (std::size_t i = s.grid_point_count(); i < points.size(); ++i) {
    extra_parents.push_back(s.extra_parent(i));
  }
  return digest_result(points, s.grid_point_count(), extra_parents, s.front(),
                       s.scenario_fronts());
}

// ------------------------------------------------------------ the e2e run ---

namespace {

Counters read_counters(const Harness& h) {
  return {core::EvalCache::global().stats(), noc::topology_build_stats(),
          h.frames_sent(), h.payload_words()};
}

/// Service start, TCP connect, the priming requests and the warm-up
/// sweeps, all through the service: memo entries are then allocated by the
/// pool threads that later evict and replace them.
std::unique_ptr<Harness> set_up(const RequestStream& rs) {
  auto h = std::make_unique<Harness>(rs.clients(), Harness::Bus::kSocket);
  svc::DseClient& c = h->client(0);
  const auto run = [&c](const core::SweepRequest& req) {
    if (c.wait(c.submit(req)).cancelled) {
      throw std::runtime_error("set-up sweep cancelled");
    }
  };
  for (const core::SweepRequest& req : rs.priming()) run(req);
  for (std::uint64_t k = 0; k < rs.warmup_sweeps(); ++k) run(rs.sweep(k));
  return h;
}

}  // namespace

E2eRun run_e2e(const RequestStream& rs, double seconds) {
  E2eRun run;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Each repetition starts from an empty memo and a fresh service. The
    // freed memory goes back to the system, so the repetitions (a daemon
    // sets up once) do not raise rss_mb.
    run.harness.reset();
    core::EvalCache::global().clear();
    malloc_trim(0);
    const double t0 = now_ms();
    run.harness = set_up(rs);
    run.setup_reps_s.push_back((now_ms() - t0) / 1000.0);
  }
  std::vector<double> reps = run.setup_reps_s;
  std::sort(reps.begin(), reps.end());
  run.setup_s = reps[reps.size() / 2];

  run.first_timed_k = rs.warmup_sweeps();
  run.next_k = run.first_timed_k;
  Harness& h = *run.harness;
  const Counters before = read_counters(h);
  run.timed = closed_loop(
      rs.clients(), run.next_k, seconds, kMinTimedSweeps,
      [&](int c, std::uint64_t k) {
        return service_sweep(h.client(c), rs.sweep(k), k, false);
      });
  const Counters after = read_counters(h);
  run.rss_mb = peak_rss_mb();
  run.counters = {after.cache.delta_since(before.cache),
                  {after.builds.builds - before.builds.builds,
                   after.builds.floorplans - before.builds.floorplans},
                  after.frames - before.frames,
                  after.payload_words - before.payload_words};
  return run;
}

CheckResult check_against_reference(const RequestStream& rs, E2eRun& run) {
  CheckResult out;
  // Identical requests (rerank re-ranks 16 distinct ones) share one
  // reference run: DseSession output is a pure function of the request.
  std::map<std::string, Digest> reference;
  std::map<std::uint64_t, Digest> by_k;
  for (SweepRecord& rec : run.timed.sweeps) {
    if (rec.failed) continue;
    const core::SweepRequest req = rs.sweep(rec.k);
    Digest key;
    key.add_words(core::marshal_sweep_request(req));
    auto it = reference.find(key.hex());
    if (it == reference.end()) {
      it = reference.emplace(key.hex(), local_digest(req, 0, false)).first;
    }
    ++out.checked;
    if (!(it->second == rec.digest)) {
      ++out.mismatched;
      rec.failed = true;
      rec.error = "result differs from the local DseSession reference";
    }
    by_k.emplace(rec.k, rec.digest);
  }
  for (std::uint64_t k = run.first_timed_k;
       k < run.first_timed_k + kMinTimedSweeps; ++k) {
    const auto it = by_k.find(k);
    if (it == by_k.end()) {
      out.workload_digest.add(0);
    } else {
      out.workload_digest.add(it->second);
    }
  }
  return out;
}

}  // namespace dsebench
