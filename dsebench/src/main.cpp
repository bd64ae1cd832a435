// End-to-end benchmark of the DSE service.
//
//   dsebench --workload <new_app|node_wall|rerank|validate_front>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Starts an in-process DseService on an ephemeral loopback TCP port and
// drives it closed-loop with the workload's DseClients, every request
// generated from --seed. With --trace 0 it prints the end-to-end metrics;
// with --trace 1 it repeats that run untraced (for the counters and the
// tracing overhead) and then runs the traced breakdown. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// error or a build that may not report figures (Debug or sanitizer).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"

using namespace dsebench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: dsebench --workload <new_app|node_wall|rerank|"
               "validate_front> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The nearest-rank percentile of a chunk's samples; every chunk holds at
/// least kChunkSweeps sweeps, so a missing percentile is a bug.
double chunk_percentile(const std::vector<double>& samples, double p) {
  const auto pc = percentile(samples, p);
  return pc ? pc->value : std::nan("");
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = nullptr;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  std::string trace_out = "dsebench-trace.tsv";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (!std::strcmp(argv[i], "--workload")) {
      workload = argv[i + 1];
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = std::strtoll(argv[i + 1], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seconds")) {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace = std::atoi(argv[i + 1]);
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      trace_out = argv[i + 1];
    } else {
      usage();
      return 2;
    }
  }
  const auto w = workload ? parse_workload(workload) : std::nullopt;
  if (!w || seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    usage();
    return 2;
  }

  const Fingerprint fp = fingerprint();
  std::printf("# host %s\n", fp.json().c_str());
  if (!fp.reportable()) {
    std::fprintf(stderr,
                 "dsebench: refusing to report figures from a %s build with "
                 "sanitizer '%s'; build Release without sanitizers\n",
                 fp.build_type.c_str(), fp.sanitizer.c_str());
    return 2;
  }

  const RequestStream rs(*w, static_cast<std::uint64_t>(seed));
  std::printf("# workload %s, seed %lld, %.3g s timed window, %d client(s), "
              "%d pool threads\n",
              workload_name(*w), seed, seconds, rs.clients(), kPoolThreads);
  std::fflush(stdout);

  E2eRun run = run_e2e(rs, seconds);
  const LoopResult& t = run.timed;
  std::printf("# setup_s reps:");
  for (const double s : run.setup_reps_s) std::printf(" %.4f", s);
  std::printf("\n# timed: %zu sweeps in %.3f s, %llu grid points, %.3f s CPU\n",
              t.sweeps.size(), t.wall_s,
              static_cast<unsigned long long>(t.grid_points), t.cpu_s);

  // Per chunk of at least kChunkSweeps sweeps: the percentiles (failed
  // sweeps infinitely slow), throughput and CPU per point. The reported
  // figure is the median over chunks.
  const std::vector<Chunk> cs = chunks(t);
  enum { kP50, kP90, kF50, kF90, kPps, kCpu, kFigures };
  std::vector<double> fig[kFigures];
  for (std::size_t c = 0; c < cs.size(); ++c) {
    std::vector<double> sweep_ms, first_ms;
    for (std::size_t i = cs[c].begin; i < cs[c].end; ++i) {
      const SweepRecord& r = t.sweeps[i];
      sweep_ms.push_back(r.failed ? INFINITY : r.sweep_ms);
      first_ms.push_back(r.failed ? INFINITY : r.first_point_ms);
    }
    fig[kP50].push_back(chunk_percentile(sweep_ms, 50));
    fig[kP90].push_back(chunk_percentile(sweep_ms, 90));
    fig[kF50].push_back(chunk_percentile(first_ms, 50));
    fig[kF90].push_back(chunk_percentile(first_ms, 90));
    fig[kPps].push_back(cs[c].points / cs[c].wall_s);
    fig[kCpu].push_back(1e6 * cs[c].cpu_s / cs[c].points);
    const auto beyond = percentile(sweep_ms, 90);
    std::printf("# chunk %zu: %zu sweeps (p90: %zu beyond), sweep_ms p50 %.4f p90 "
                "%.4f, first_point_ms p50 %.4f p90 %.4f, %.1f points/s, %.2f us "
                "CPU/point\n",
                c + 1, cs[c].end - cs[c].begin, beyond ? beyond->beyond : 0,
                fig[kP50].back(), fig[kP90].back(), fig[kF50].back(),
                fig[kF90].back(), fig[kPps].back(), fig[kCpu].back());
  }
  std::printf("# figures are medians over %zu chunks\n", cs.size());

  std::string per_layer;
  bool trace_ok = true;
  if (trace == 1) {
    per_layer = run_traced(rs, seconds, run, trace_out, trace_ok);
  }
  run.harness.reset();

  // Outside every timed interval: each sweep against a local DseSession
  // run of the same request without the memo.
  const CheckResult check = check_against_reference(rs, run);
  std::size_t failed = 0;
  for (const SweepRecord& r : t.sweeps) {
    if (r.failed) {
      ++failed;
      if (failed <= 3) std::printf("# FAILED sweep %llu: %s\n",
                                   static_cast<unsigned long long>(r.k),
                                   r.error.c_str());
    }
  }
  const std::size_t attempted = t.sweeps.size();
  const bool correct = failed == 0 && trace_ok;
  std::printf("# correctness: %zu/%zu sweeps byte-identical (marshal_point, "
              "front, scenario fronts) to a local DseSession with "
              "use_eval_cache=false; failed_frac %.6f\n",
              check.checked - check.mismatched, attempted,
              static_cast<double>(failed) / static_cast<double>(attempted));
  std::printf("# digest %s seed %lld sweeps %llu..%llu: %s\n",
              workload_name(*w), seed,
              static_cast<unsigned long long>(run.first_timed_k),
              static_cast<unsigned long long>(run.first_timed_k + kMinTimedSweeps - 1),
              check.workload_digest.hex().c_str());
  std::printf("# The analytic model is checked only against the repo's own NoC "
              "replay; there is no hardware reference, so no accuracy figure "
              "is given.\n");

  std::string metrics;
  if (trace == 0) {
    metrics = json_metric("setup_s", run.setup_s, "s") + ", " +
              json_metric("sweep_ms_p50", median(fig[kP50]), "ms") + ", " +
              json_metric("sweep_ms_p90", median(fig[kP90]), "ms") + ", " +
              json_metric("first_point_ms_p50", median(fig[kF50]), "ms") + ", " +
              json_metric("points_per_s", median(fig[kPps]), "1/s") + ", " +
              json_metric("cpu_us_per_point", median(fig[kCpu]), "us") + ", " +
              json_metric("rss_mb", run.rss_mb, "MB");
  } else {
    // Too volatile to bound (see design.json), so tracked per layer.
    metrics = json_metric("first_point_ms_p90", median(fig[kF90]), "ms") + ", " +
              per_layer;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}
