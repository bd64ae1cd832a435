#pragma once

/// \file
/// Simulation-in-the-loop mapping validation on the event-driven NoC.

#include <cstdint>
#include <memory>
#include <vector>

#include "soc/core/mapping.hpp"
#include "soc/noc/network.hpp"
#include "soc/noc/traffic.hpp"

namespace soc::core {

/// Knobs of a simulation-in-the-loop mapping validation run.
struct ValidatorConfig {
  /// Pacing of the replayed traffic. kOpenLoop offers item rounds at
  /// `load_factor` of the analytic capacity and checks whether the NoC keeps
  /// up; kClosedLoop windows rounds in flight and measures the round rate the
  /// network itself sustains, independent of compute.
  noc::ReplayConfig::Mode mode = noc::ReplayConfig::Mode::kOpenLoop;
  /// Open-loop offered load as a fraction of the analytic bottleneck rate.
  /// Must be in (0, 1]; the 0.9 default mirrors validate_mapping's "drive at
  /// 90% of predicted capacity" discipline — informative whether the model
  /// was right (network keeps up) or optimistic (queues back up).
  double load_factor = 0.9;
  /// Closed-loop in-flight window in item rounds (must be > 0).
  int max_outstanding_rounds = 4;
  /// Words per flit when lowering edge payloads to packets (must be > 0).
  double words_per_flit = 4.0;
  /// Fabric timing/buffering of the simulated network.
  noc::NetworkConfig net{};
  /// Cycles simulated before measurement starts (fills pipelines/queues).
  sim::Cycle warmup_cycles = 5'000;
  /// Measurement window length in cycles (must be > 0).
  sim::Cycle measure_cycles = 30'000;
  /// Number of contention hot-spots reported (links ranked by utilization).
  int top_hotspots = 4;
};

/// Measured behavior of one task-graph edge's traffic in the simulation.
struct EdgeFlowReport {
  int edge = 0;              ///< index into TaskGraph::edges()
  int src_pe = 0;            ///< mapped PE of the edge's producer
  int dst_pe = 0;            ///< mapped PE of the edge's consumer
  int hops = 0;              ///< routed hop count between the two PEs
  std::uint32_t flits = 1;   ///< packet size the edge payload lowered to
  bool local = false;        ///< same PE both ends: never enters the NoC
  std::uint64_t packets_delivered = 0;  ///< deliveries in the window
  double avg_latency_cycles = 0.0;      ///< mean end-to-end packet latency
  double max_latency_cycles = 0.0;      ///< worst end-to-end packet latency
};

/// One contended link of the simulated fabric, ranked by utilization.
struct LinkHotspot {
  int link = 0;              ///< index into Network link space
  bool ni = false;           ///< true for a network-interface injection link
  int from_router = -1;      ///< source router (-1 for NI links)
  int to_router = -1;        ///< sink router, or the attach router of an NI
  double utilization = 0.0;  ///< busy fraction of the measurement window
};

/// Analytic prediction vs. event-driven measurement for one mapping.
struct ValidationReport {
  /// The analytic cost model's verdict on the same (graph, platform, mapping).
  MappingCost analytic;
  /// Items/kcycle the analytic model predicts (1000 / bottleneck_cycles).
  double analytic_items_per_kcycle = 0.0;
  /// Items/kcycle offered to the network (open-loop only; 0 in closed loop).
  double offered_items_per_kcycle = 0.0;
  /// Items/kcycle the simulation actually completed in the window.
  double simulated_items_per_kcycle = 0.0;
  /// simulated / analytic — the figure DSE ranks by. ~load_factor when the
  /// NoC keeps up with the offered open-loop load; lower when contention the
  /// hop-count model cannot see throttles the platform.
  double sim_to_analytic_ratio = 0.0;
  /// Item rounds completed inside the measurement window.
  std::uint64_t rounds_completed = 0;
  /// True when the network failed to accept >= 95% of the offered open-loop
  /// load (always false in closed-loop mode).
  bool network_saturated = false;
  /// False when every edge is PE-local and no packet entered the NoC; the
  /// simulated figures then equal the offered/analytic rate by definition.
  bool network_active = false;
  /// Mean end-to-end latency over all delivered packets in the window.
  double avg_packet_latency = 0.0;
  /// Busy fraction of the most contended link in the window.
  double peak_link_utilization = 0.0;
  /// Per-edge measurements, one entry per task-graph edge (local included).
  std::vector<EdgeFlowReport> edges;
  /// The config.top_hotspots most utilized links, utilization descending.
  std::vector<LinkHotspot> hotspots;
};

/// Simulation-in-the-loop validator: replays the steady-state traffic of a
/// mapped task graph on the event-driven noc::Network matching the
/// platform's topology, and reports measured per-edge latency, link
/// contention hot-spots and sustained items/kcycle alongside the analytic
/// prediction the DSE sweep pruned with.
///
/// Each task-graph edge whose endpoints map to different PEs becomes a
/// recurring noc::Flow (words lowered to flits via cfg.words_per_flit); one
/// item traversing the pipeline corresponds to one replay round. The run is
/// a pure function of (graph, platform, mapping, config) — no RNG — so
/// validation inside a sharded DSE sweep stays bit-identical at any thread
/// count. The internal event queue is reset and reused across run() calls.
class MappingValidator {
 public:
  /// Captures references to graph/platform (both must outlive the validator)
  /// and a copy of the mapping. Throws std::invalid_argument on a mapping
  /// whose size does not match the graph, or on out-of-range config values
  /// (load_factor outside (0,1], non-positive words_per_flit,
  /// warmup_cycles, measure_cycles, max_outstanding_rounds or
  /// top_hotspots), named as DseSession names them
  /// ("validation.<field>").
  MappingValidator(const TaskGraph& graph, const PlatformDesc& platform,
                   Mapping mapping, ValidatorConfig cfg = {});

  /// Same validator fed a caller-built topology for the replay network
  /// instead of rebuilding one from the platform: `prebuilt` must match the
  /// platform (what PlatformDesc::build_topology() would produce — same
  /// family, terminal count and physical annotation; the terminal count is
  /// checked, throwing std::invalid_argument on mismatch). The first run()
  /// consumes the instance; later runs fall back to build_topology(), which
  /// is deterministic, so reports stay identical. The DSE session uses this
  /// to replay stage 2 on the very topology stage 1 mapped against.
  MappingValidator(const TaskGraph& graph, const PlatformDesc& platform,
                   Mapping mapping, ValidatorConfig cfg,
                   std::unique_ptr<noc::Topology> prebuilt);

  /// Runs warmup + measurement and returns the report. Deterministic:
  /// repeated calls return identical reports.
  ValidationReport run();

  /// The validated mapping.
  const Mapping& mapping() const noexcept { return mapping_; }
  /// The active configuration.
  const ValidatorConfig& config() const noexcept { return cfg_; }

 private:
  const TaskGraph* graph_;
  const PlatformDesc* platform_;
  Mapping mapping_;
  ValidatorConfig cfg_;
  /// Caller-built replay topology; consumed by the first run() that
  /// simulates (null afterwards, and always null without the prebuilt ctor).
  std::unique_ptr<noc::Topology> prebuilt_;
  sim::EventQueue queue_;  ///< reset + reused across run() calls
};

}  // namespace soc::core
