#pragma once

/// \file
/// Router-graph topology base class with BFS routing tables.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "soc/noc/packet.hpp"

namespace soc::noc {

class LinkTimingModel;  // soc/noc/link_timing.hpp

/// One unidirectional router-to-router channel.
struct LinkSpec {
  int from_router;  ///< source router index
  int to_router;    ///< sink router index
  /// Relative bandwidth in flits/cycle (fat-tree upper levels get > 1).
  double bandwidth = 1.0;
  /// Extra propagation cycles on top of the router pipeline — the
  /// tech-derived pipeline stages of a long global wire. Populated by
  /// Topology::apply_physical (zero for abstract, unplaced topologies).
  std::uint32_t extra_latency = 0;
  /// Floorplanned Manhattan wire length, mm (0 when unplaced).
  double length_mm = 0.0;
  /// Switching energy of the wire + repeaters, pJ per mm per bit toggled
  /// (0 when unplaced); from tech::RepeatedWire::energy_pj_per_mm.
  double energy_pj_per_mm = 0.0;
  /// True for a multi-drop shared medium (the bus) that must physically
  /// reach every tap: its floorplanned length is at least one die edge,
  /// however close its endpoint routers place.
  bool spans_die = false;
};

/// A network topology: a router graph plus the attachment of terminals to
/// routers. Routing tables are computed once by breadth-first search with
/// deterministic (lowest-link-index) tie-breaking, so runs are reproducible.
///
/// The paper (Section 6.1) calls for characterizing "the various topologies
/// - ranging from bus, ring, tree to full-crossbar"; the factories in
/// topologies.hpp produce every member of that range.
class Topology {
 public:
  /// Sizes the router graph; links and attachments are added by subclasses.
  Topology(std::string name, int routers, int terminals);
  virtual ~Topology() = default;  ///< virtual: held by unique_ptr<Topology>

  Topology(const Topology&) = delete;             ///< non-copyable
  Topology& operator=(const Topology&) = delete;  ///< non-copyable

  /// Human-readable topology name (e.g. "mesh4x4").
  const std::string& name() const noexcept { return name_; }
  /// Number of routers in the graph.
  int router_count() const noexcept { return routers_; }
  /// Number of terminals (network interfaces) attached to routers.
  int terminal_count() const noexcept { return terminals_; }
  /// All unidirectional router-to-router channels.
  const std::vector<LinkSpec>& links() const noexcept { return links_; }

  /// Router a terminal's network interface attaches to.
  int attach_router(TerminalId t) const { return attach_.at(t); }

  /// Next link (index into links()) from `router` toward terminal `dst`,
  /// or -1 when `dst` is attached to `router` (eject). Precondition:
  /// finalize() has been called (done by the factories).
  int route(int router, TerminalId dst) const {
    return route_table_[static_cast<std::size_t>(router) *
                            static_cast<std::size_t>(terminals_) +
                        dst];
  }

  /// Exact hop count (links traversed) between two terminals along the
  /// routed path. 0 when src == dst.
  int hops_between(TerminalId src, TerminalId dst) const;

  /// Longest shortest-path hop count between any terminal pair.
  int diameter_hops() const noexcept { return diameter_; }

  /// Average shortest-path hop count over all ordered terminal pairs.
  double average_hops() const noexcept { return avg_hops_; }

  /// Total link bandwidth (sum of flits/cycle over all links) — the cost
  /// metric wire-limited designs care about.
  double total_link_bandwidth() const noexcept;

  /// Physically annotates every link: floorplans the router graph on a
  /// square die of `die_mm2` mm^2 (see Floorplan) and folds the resulting
  /// wire lengths through `timing` into each LinkSpec's extra_latency /
  /// length_mm / energy_pj_per_mm. Routing tables are untouched — BFS
  /// routes by hop count, so call order relative to finalize() does not
  /// matter (the factories annotate after finalize()). Defined in
  /// floorplan.cpp.
  void apply_physical(const LinkTimingModel& timing, double die_mm2);

 protected:
  /// Subclass construction API: add a unidirectional link, returns its index.
  int add_link(int from, int to, double bandwidth = 1.0,
               std::uint32_t extra_latency = 0);
  /// Adds a link pair in both directions.
  void add_bidir(int a, int b, double bandwidth = 1.0,
                 std::uint32_t extra_latency = 0);
  /// Marks link `li` as a die-spanning multi-drop medium (LinkSpec
  /// spans_die; see Floorplan's length floor).
  void mark_spans_die(int li) {
    links_.at(static_cast<std::size_t>(li)).spans_die = true;
  }
  /// Attaches terminal `t`'s network interface to `router`.
  void attach_terminal(TerminalId t, int router) { attach_.at(t) = router; }

  /// Computes BFS routing tables and hop statistics. Must be called once
  /// after all links/attachments are added. Throws std::logic_error if the
  /// router graph does not connect every terminal pair.
  void finalize();

 private:
  std::string name_;
  int routers_;
  int terminals_;
  std::vector<LinkSpec> links_;
  std::vector<int> attach_;
  std::vector<int> route_table_;  // [router * terminals + dst] -> link or -1
  int diameter_ = 0;
  double avg_hops_ = 0.0;
};

/// Snapshot of the process-wide topology-construction counters: how many
/// router graphs were routed (Topology::finalize) and how many were
/// physically floorplanned (Topology::apply_physical) since process start.
/// The counters are monotonic and thread-safe (relaxed atomics); the DSE
/// reuse tests and `bench_session_reuse` use them to prove each sweep
/// candidate's interconnect is built and floorplanned exactly once across
/// both exploration stages.
struct TopologyBuildStats {
  std::uint64_t builds = 0;      ///< finalize() calls (BFS route-table builds)
  std::uint64_t floorplans = 0;  ///< apply_physical() calls (die floorplans)
};

/// Reads the process-wide topology-construction counters.
TopologyBuildStats topology_build_stats() noexcept;

/// Scoped meter over the process-wide topology-construction counters: records
/// the counter values at construction and reports deltas since then. The
/// counters are monotonic and nothing resets them, so consecutive bench/test
/// sections that each own a scope observe only their own builds.
class TopologyBuildStatsScope {
 public:
  /// Snapshots the current counters as the zero point.
  TopologyBuildStatsScope() noexcept : start_(topology_build_stats()) {}

  /// Counter deltas since construction (or the last rebase()).
  TopologyBuildStats delta() const noexcept {
    const TopologyBuildStats now = topology_build_stats();
    return {now.builds - start_.builds, now.floorplans - start_.floorplans};
  }

  /// Re-zeroes the scope at the current counter values — the section
  /// boundary marker for benches that meter several phases with one scope.
  void rebase() noexcept { start_ = topology_build_stats(); }

 private:
  TopologyBuildStats start_;
};

}  // namespace soc::noc
