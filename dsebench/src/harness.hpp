#pragma once

// The system under test as the benchmark drives it: an in-process
// DseService fed by closed-loop DseClients, the timed end-to-end run, and
// the correctness check against local DseSession runs.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "soc/core/eval_cache.hpp"
#include "soc/noc/topology.hpp"
#include "soc/svc/dse_client.hpp"
#include "soc/svc/dse_service.hpp"
#include "soc/tlm/loopback.hpp"
#include "soc/tlm/socket.hpp"
#include "workloads.hpp"

namespace dsebench {

/// Pool width of the service under test, and of the local sessions the
/// traced run peels it against.
inline constexpr int kPoolThreads = 2;
/// Sweeps per chunk at least, so a chunk's p90 has ten samples beyond it.
inline constexpr std::size_t kChunkSweeps = 100;
/// A timed window holds at least three chunks.
inline constexpr std::size_t kMinTimedSweeps = 3 * kChunkSweeps;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;

/// Milliseconds on the steady clock.
double now_ms();
/// User + system CPU seconds of the whole process.
double cpu_seconds();
/// Peak resident set of the process so far, MB.
double peak_rss_mb();

/// A DseService (kPoolThreads pool threads, default admission limits) and
/// `clients` DseClients on distinct terminals, either over real TCP (an
/// ephemeral loopback port, one connection per client: on a shared one a
/// client's submit reply queues behind the other client's point stream)
/// or over an in-process LoopbackTransport.
class Harness {
 public:
  enum class Bus { kSocket, kLoopback };

  Harness(int clients, Bus bus);
  /// Stops the service and shuts every transport down.
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  svc::DseClient& client(int i) { return *clients_.at(static_cast<std::size_t>(i)); }
  /// Frames written to TCP by every socket of this harness (0 on loopback).
  std::uint64_t frames_sent() const;
  /// Payload words carried over TCP. SocketTransport::words_on_wire counts
  /// a framed message on both ends (sent, then delivered locally), so the
  /// wire carried half the sum.
  std::uint64_t payload_words() const;

 private:
  std::unique_ptr<tlm::SocketTransport> server_;
  std::unique_ptr<tlm::LoopbackTransport> loopback_;
  std::unique_ptr<svc::DseService> service_;
  std::vector<std::unique_ptr<tlm::SocketTransport>> conns_;
  std::vector<std::unique_ptr<svc::DseClient>> clients_;
};

/// One sweep as a client saw it.
struct SweepRecord {
  std::uint64_t k = 0;  ///< stream index
  bool failed = false;  ///< refused, errored, cancelled or wrong
  std::string error;
  double sweep_ms = 0.0;        ///< submit() until wait() returns
  double first_point_ms = 0.0;  ///< SweepResult::time_to_first_point_ms
  std::size_t grid_points = 0;
  std::uint64_t points_streamed = 0;
  std::size_t validated = 0;  ///< points carrying stage-2 figures
  Digest digest;
  double t_end = 0.0;    ///< now_ms() when the sweep completed
  double cpu_end = 0.0;  ///< process CPU seconds then
  // Client timestamps (now_ms), recorded only by traced sweeps.
  double t_submit = 0.0;     ///< before submit()
  double t_accepted = 0.0;   ///< submit() returned
  double t_first = 0.0;      ///< first streamed point
  double t_last = 0.0;       ///< last streamed point
  double t_done = 0.0;       ///< wait() returned
  std::vector<double> gaps_us;  ///< between consecutive streamed points
};

/// All sweeps of one closed-loop window, in completion order.
struct LoopResult {
  std::vector<SweepRecord> sweeps;
  double t0 = 0.0;    ///< now_ms() when the window opened
  double cpu0 = 0.0;  ///< process CPU seconds then
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t grid_points = 0;  ///< delivered by successful sweeps
};

/// Consecutive sweeps [begin, end) of a window, with the wall and CPU time
/// from the completion before `begin` to the last completion, and the grid
/// points the chunk's sweeps delivered.
struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double points = 0.0;
};

/// Splits a window into floor(n / kChunkSweeps) chunks of at least
/// kChunkSweeps sweeps each. The end-to-end figures are medians over
/// chunks, so a burst of host noise in one chunk does not move them.
std::vector<Chunk> chunks(const LoopResult& r);

using SweepFn = std::function<SweepRecord(int client, std::uint64_t k)>;

/// Runs `clients` closed-loop client threads: each takes the next stream
/// index from `next_k`, runs `sweep` on it and repeats, until `seconds`
/// have passed and at least `min_sweeps` sweeps completed. Sweeps in
/// flight at the deadline finish; the window closes when the last does.
LoopResult closed_loop(int clients, std::uint64_t& next_k, double seconds,
                       std::size_t min_sweeps, const SweepFn& sweep);

/// Submits `req` on `client` and waits for its assembled result.
/// `traced` additionally records the client timestamps of SweepRecord.
SweepRecord service_sweep(svc::DseClient& client, const core::SweepRequest& req,
                          std::uint64_t k, bool traced);

/// Digest of a local DseSession run of `req` with `threads` threads and
/// the given eval-cache setting.
Digest local_digest(core::SweepRequest req, int threads, bool use_eval_cache);

/// Public counters read across the timed window.
struct Counters {
  core::EvalCacheStats cache;
  noc::TopologyBuildStats builds;
  std::uint64_t frames = 0;
  std::uint64_t payload_words = 0;
};

/// One end-to-end run: repeated set-up, then the timed window.
struct E2eRun {
  std::vector<double> setup_reps_s;
  double setup_s = 0.0;
  LoopResult timed;
  Counters counters;
  double rss_mb = 0.0;
  std::uint64_t first_timed_k = 0;
  std::uint64_t next_k = 0;  ///< first stream index not yet used
  std::unique_ptr<Harness> harness;  ///< the set-up service, still serving
};

/// Sets the workload up kSetupReps times (clearing the memo in between)
/// and runs the timed window on the last set-up's service.
E2eRun run_e2e(const RequestStream& rs, double seconds);

/// Outcome of checking every timed sweep against a local reference.
struct CheckResult {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  Digest workload_digest;  ///< over the first kMinTimedSweeps timed sweeps
};

/// Re-runs every timed sweep's request in a local DseSession with
/// use_eval_cache=false and compares digests; marks mismatches failed.
CheckResult check_against_reference(const RequestStream& rs, E2eRun& run);

/// `"name": {"value": v, "unit": "unit"}` with every digit of v (null
/// when v is not finite).
std::string json_metric(const char* name, double value, const char* unit);

/// The traced run: prints the per-layer breakdown and returns the
/// per-layer metrics as a JSON object body; sets `ok` false when a
/// replayed point differs from the streamed one. Spans go to `trace_path`.
std::string run_traced(const RequestStream& rs, double seconds, E2eRun& base,
                       const std::string& trace_path, bool& ok);

}  // namespace dsebench
