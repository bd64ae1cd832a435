#pragma once

/// \file
/// Event-driven virtual-cut-through network simulator.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "soc/noc/packet.hpp"
#include "soc/noc/topology.hpp"
#include "soc/sim/event_queue.hpp"
#include "soc/sim/stats.hpp"

namespace soc::noc {

/// Timing and buffering parameters of the network fabric.
struct NetworkConfig {
  /// Cycles of router pipeline per hop (route computation, switch
  /// allocation, traversal). 3 matches aggressive early-2000s NoC routers.
  std::uint32_t router_pipeline_cycles = 3;
  /// Wire propagation cycles per hop, on top of serialization. Feed the
  /// soc::tech wire model here for technology-faithful global links.
  std::uint32_t link_latency_cycles = 1;
  /// One-way network-interface overhead (packetization / depacketization).
  std::uint32_t ni_latency_cycles = 2;
  /// Per-link queue capacity in packets; 0 = unbounded (open-loop
  /// characterization mode). Finite capacities enable virtual-cut-through
  /// backpressure; note that cyclic topologies (ring/torus) can deadlock
  /// under extreme load with very small buffers, as real VCT routers do
  /// without escape channels.
  std::size_t queue_capacity_pkts = 0;
  /// Collect exact per-packet latency samples (disable for long runs).
  bool record_latency = true;
};

/// Event-driven virtual-cut-through network simulator. Packets serialize
/// over each link (size_flits / bandwidth cycles), queue at contended links
/// and accumulate per-hop pipeline + propagation latency. Runs on an
/// external sim::EventQueue so it composes with the processor and platform
/// models in the same simulation.
///
/// In-flight packets live in a recycled slot table; link queues and events
/// carry slot indices, so a service-finish event captures {this, link} and
/// an arrival {this, link, slot}. Both fit std::function's inline buffer,
/// and a replay in steady state schedules its events without allocating.
class Network {
 public:
  /// Delivery-notification callback type (see set_deliver).
  using DeliverFn = std::function<void(const Packet&)>;

  /// Takes ownership of `topology` and schedules on `queue` (which must
  /// outlive the network). Throws std::invalid_argument on a null topology.
  Network(std::unique_ptr<Topology> topology, NetworkConfig cfg,
          sim::EventQueue& queue);

  Network(const Network&) = delete;             ///< non-copyable
  Network& operator=(const Network&) = delete;  ///< non-copyable

  /// Injects a packet at `src`'s network interface at the current cycle.
  /// Returns the packet id.
  std::uint64_t inject(TerminalId src, TerminalId dst, std::uint32_t size_flits,
                       std::uint64_t tag = 0);

  /// Callback invoked when a packet is fully delivered at its destination
  /// NI. Must be set before the first delivery (typically right after
  /// construction). The packet it receives stays valid for the whole call,
  /// even when the callback injects more packets.
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// The routed topology this network simulates.
  const Topology& topology() const noexcept { return *topology_; }
  /// Active timing/buffering parameters.
  const NetworkConfig& config() const noexcept { return cfg_; }

  // --- statistics ---
  /// Packets injected since construction or the last reset_stats().
  std::uint64_t injected() const noexcept { return injected_; }
  /// Packets fully delivered since construction or the last reset_stats().
  std::uint64_t delivered() const noexcept { return delivered_count_; }
  /// Packets currently inside the fabric (unaffected by reset_stats()).
  std::uint64_t in_flight() const noexcept { return in_flight_; }
  /// Flits delivered since construction or the last reset_stats().
  std::uint64_t flits_delivered() const noexcept { return flits_delivered_; }
  /// Exact per-packet latency samples (empty when record_latency is off).
  const sim::SampleSet& latency_samples() const noexcept { return latency_; }
  /// Running statistics over delivered packets' hop counts.
  const sim::RunningStats& hop_stats() const noexcept { return hops_; }
  /// Peak queue depth over all links (buffer sizing signal).
  std::size_t max_queue_depth() const noexcept { return max_queue_depth_; }
  /// Busy-cycle fraction of the most utilized link given elapsed cycles.
  double peak_link_utilization(sim::Cycle elapsed) const noexcept;

  /// Number of link queues the simulator tracks: the topology's links first,
  /// then one network-interface injection link per terminal. Valid indices
  /// for link_busy_cycles()/link_utilization().
  std::size_t link_count() const noexcept { return links_.size(); }
  /// Cycles link `li` has spent serializing flits since construction or the
  /// last reset_stats(). Indices below topology().links().size() address
  /// router-to-router links (see Topology::links() for their endpoints); the
  /// remainder are NI injection links in terminal order. Throws
  /// std::out_of_range on a bad index. Together with link_count() this lets
  /// contention analyses (the mapping validator's hot-spot report) rank
  /// individual links instead of only seeing the peak.
  std::uint64_t link_busy_cycles(std::size_t li) const;
  /// Busy-cycle fraction of one link over `elapsed` cycles (0 when elapsed
  /// is 0). Same index space and bounds checking as link_busy_cycles().
  double link_utilization(std::size_t li, sim::Cycle elapsed) const;

  /// Clears counters and samples (e.g. after warmup) without disturbing
  /// in-flight packets. Latency is still recorded for packets injected
  /// before the reset; callers typically also gate on injection time.
  void reset_stats() noexcept;

 private:
  struct LinkState {
    std::deque<std::uint32_t> queue;  ///< packet slots, head first
    bool busy = false;
    std::uint64_t busy_cycles = 0;
    /// Queue places promised to packets in transit toward this link (VCT
    /// credit).
    std::size_t reserved = 0;
    /// Links blocked waiting for space in this link's queue (credit wait).
    std::vector<int> waiters;
  };

  void enqueue_on_link(int li, std::uint32_t slot);
  void try_start_service(int li);
  /// The head packet of `li` has serialized: frees the link and sends the
  /// packet on toward the router at the link's far end.
  void finish_service(int li);
  /// The packet in `slot` reaches the router at the far end of `li`.
  void arrive(int li, std::uint32_t slot);
  void deliver_packet(std::uint32_t slot);
  void kick_waiters(int li);
  bool has_space(int li) const noexcept;
  /// Router a packet reaches over `li`: a topology link's far end, or for
  /// an NI link the source terminal's attach router.
  int far_router(const Packet& p, int li) const;

  std::unique_ptr<Topology> topology_;
  NetworkConfig cfg_;
  sim::EventQueue& queue_;
  DeliverFn deliver_;

  std::vector<LinkState> links_;  ///< topology links, then one NI link per terminal
  std::vector<Packet> packets_;      ///< in-flight packets by slot
  std::vector<std::uint32_t> free_;  ///< slots of packets_ free for reuse
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_count_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t flits_delivered_ = 0;
  sim::SampleSet latency_;
  sim::RunningStats hops_;
  std::size_t max_queue_depth_ = 0;
};

}  // namespace soc::noc
