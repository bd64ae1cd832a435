#pragma once

/// \file
/// Synthetic traffic generators, workload flow replay, and load sweeps.

#include <string>
#include <vector>

#include "soc/noc/network.hpp"
#include "soc/noc/topologies.hpp"
#include "soc/sim/rng.hpp"

namespace soc::noc {

/// Synthetic spatial traffic patterns (standard NoC characterization set).
enum class TrafficPattern {
  kUniform,        ///< destination uniform over all other terminals
  kNeighbor,       ///< dst = src + 1 (mod N): best case for ring/mesh
  kBitComplement,  ///< dst = N-1-src: crosses the bisection, worst case
  kTranspose,      ///< dst = transpose on a square grid
  kHotspot,        ///< a fraction of traffic targets terminal 0
};

/// Short lower-case name of a traffic pattern (e.g. "bit-complement").
const char* to_string(TrafficPattern p) noexcept;

/// Open-loop traffic source configuration.
struct TrafficConfig {
  TrafficPattern pattern = TrafficPattern::kUniform;  ///< spatial pattern
  /// Offered load per terminal in flits/cycle (0 < rate <= 1 meaningful).
  double injection_rate = 0.1;
  std::uint32_t packet_flits = 8;  ///< 8 flits x 32 bit = 32-byte payload class
  double hotspot_fraction = 0.2;   ///< used by kHotspot
  std::uint64_t seed = 1;          ///< master seed for per-terminal streams
};

/// Bernoulli-process packet sources attached to every terminal of a
/// network. Drives injections through the shared event queue.
class TrafficGenerator {
 public:
  /// Builds one reproducible RNG stream per terminal of `net`. Throws
  /// std::invalid_argument on a non-positive injection rate.
  TrafficGenerator(Network& net, TrafficConfig cfg, sim::EventQueue& queue);

  /// Schedules the first injection for every terminal; sources then
  /// self-reschedule until stop() is called.
  void start();
  /// Stops scheduling injections; in-flight packets still drain.
  void stop() noexcept { running_ = false; }

  /// Chooses a destination for `src` under the configured pattern.
  TerminalId pick_destination(TerminalId src, sim::Rng& rng) const;

 private:
  void schedule_next(TerminalId t);

  Network& net_;
  TrafficConfig cfg_;
  sim::EventQueue& queue_;
  std::vector<sim::Rng> rngs_;  // one stream per terminal: reproducible
  bool running_ = false;
};

/// One recurring point-to-point transfer of a replayed workload: the
/// steady-state traffic a mapped task-graph edge generates per processed
/// item, lowered to NoC terms (source/destination terminal, packet size).
struct Flow {
  TerminalId src = 0;          ///< injecting terminal
  TerminalId dst = 0;          ///< destination terminal
  std::uint32_t flits = 1;     ///< packet size per round
};

/// Per-flow delivery statistics accumulated by FlowReplayer. Latency fields
/// cover the current measurement window (see FlowReplayer::reset_stats());
/// `delivered` counts all deliveries since construction, which is what round
/// accounting needs.
struct FlowStats {
  std::uint64_t delivered = 0;       ///< packets of this flow delivered, ever
  std::uint64_t window_delivered = 0;///< deliveries since the last reset_stats
  double latency_sum = 0.0;          ///< window sum of end-to-end latencies
  double latency_max = 0.0;          ///< window max end-to-end latency

  /// Mean end-to-end latency over the current window (0 when empty).
  double avg_latency() const noexcept {
    return window_delivered
               ? latency_sum / static_cast<double>(window_delivered)
               : 0.0;
  }
};

/// Pacing of a flow-set replay.
struct ReplayConfig {
  /// kOpenLoop fires one round of every flow each `period` cycles regardless
  /// of network state (characterizes behavior at a fixed offered load).
  /// kClosedLoop keeps at most `max_outstanding_rounds` rounds in flight and
  /// launches the next round the moment the oldest completes (measures the
  /// round rate the network itself can sustain).
  enum class Mode {
    kOpenLoop,   ///< fixed-period rounds, regardless of network state
    kClosedLoop  ///< windowed rounds, paced by completions
  };
  Mode mode = Mode::kOpenLoop;          ///< pacing discipline
  sim::Cycle period = 100;              ///< open-loop round period, cycles
  int max_outstanding_rounds = 4;       ///< closed-loop in-flight window
};

/// Replays a fixed set of flows round after round on a Network — the traffic
/// shape of a pipelined application in steady state, where every item
/// traversing the task graph regenerates the same edge transfers. Owns the
/// network's deliver callback (construct it last); fully deterministic: no
/// RNG, rounds and injections depend only on the flow set and config.
///
/// A round is one injection of every flow; round r is *complete* once every
/// flow has at least r deliveries (per-flow packets stay FIFO in the
/// simulator, so the minimum per-flow delivery count is exactly the number
/// of completed rounds).
class FlowReplayer {
 public:
  /// Throws std::invalid_argument on an empty flow set, a terminal id out of
  /// range for `net`'s topology, a zero-flit flow, a non-positive open-loop
  /// period, or a non-positive closed-loop window.
  FlowReplayer(Network& net, std::vector<Flow> flows, ReplayConfig cfg,
               sim::EventQueue& queue);

  /// Schedules the first round one cycle from now; subsequent rounds follow
  /// the configured pacing until stop().
  void start();
  /// Stops launching new rounds; in-flight packets still drain and count.
  void stop() noexcept { running_ = false; }

  /// Rounds injected so far.
  std::uint64_t rounds_injected() const noexcept { return rounds_injected_; }
  /// Completed rounds (minimum delivery count over all flows).
  std::uint64_t rounds_completed() const noexcept { return rounds_completed_; }
  /// Number of flows being replayed.
  std::size_t flow_count() const noexcept { return flows_.size(); }
  /// The flow definition at index `i` (throws std::out_of_range).
  const Flow& flow(std::size_t i) const { return flows_.at(i); }
  /// Delivery statistics of flow `i` (throws std::out_of_range).
  const FlowStats& stats(std::size_t i) const { return stats_.at(i); }

  /// Clears the per-flow latency window (start of measurement), leaving the
  /// cumulative delivery counters — and thus round accounting — untouched.
  void reset_stats() noexcept;

 private:
  void inject_round();
  void open_loop_tick();
  void on_delivery(const Packet& p);
  void advance_frontier();

  Network& net_;
  std::vector<Flow> flows_;
  ReplayConfig cfg_;
  sim::EventQueue& queue_;
  std::vector<FlowStats> stats_;
  std::uint64_t rounds_injected_ = 0;
  std::uint64_t rounds_completed_ = 0;
  /// Flows that have not yet delivered round rounds_completed_ + 1.
  std::size_t frontier_remaining_ = 0;
  bool running_ = false;
};

/// One measured point of a latency/throughput characterization curve.
struct LoadPoint {
  std::string topology;    ///< topology name the point was measured on
  int terminals = 0;       ///< terminal count of that topology
  double offered_flits_per_node_cycle = 0.0;   ///< configured injection rate
  double accepted_flits_per_node_cycle = 0.0;  ///< delivered rate measured
  double avg_latency = 0.0;   ///< mean packet latency, cycles
  double p50_latency = 0.0;   ///< median packet latency, cycles
  double p95_latency = 0.0;   ///< 95th-percentile packet latency, cycles
  double p99_latency = 0.0;   ///< 99th-percentile packet latency, cycles
  double avg_hops = 0.0;      ///< mean routed hop count
  std::uint64_t delivered = 0;      ///< packets delivered in the window
  std::size_t max_queue_depth = 0;  ///< peak link-queue depth observed
  bool saturated = false;  ///< accepted < 95% of offered
};

/// Parameters of one characterization run.
struct MeasureConfig {
  sim::Cycle warmup_cycles = 20'000;    ///< cycles before stats reset
  sim::Cycle measure_cycles = 100'000;  ///< measurement window length
};

/// Runs warmup + measurement for a single (topology, load) point.
LoadPoint measure_load_point(TopologyKind kind, int terminals,
                             const NetworkConfig& net_cfg,
                             const TrafficConfig& traffic,
                             const MeasureConfig& m = {});

/// Binary-searches the saturation throughput (accepted load where the
/// network stops keeping up with offered load) for one topology.
double find_saturation_rate(TopologyKind kind, int terminals,
                            const NetworkConfig& net_cfg, TrafficConfig traffic,
                            const MeasureConfig& m = {});

/// Zero-load latency: average packet latency with a single packet in
/// flight (analytic expectation over all src/dst pairs is approximated by
/// a low-rate measurement).
double zero_load_latency(TopologyKind kind, int terminals,
                         const NetworkConfig& net_cfg, std::uint32_t packet_flits);

}  // namespace soc::noc
