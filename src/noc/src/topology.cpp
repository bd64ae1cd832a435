#include "soc/noc/topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "noc_internal.hpp"

namespace soc::noc {

namespace internal {
std::atomic<std::uint64_t> g_topology_builds{0};
std::atomic<std::uint64_t> g_topology_floorplans{0};
}  // namespace internal

TopologyBuildStats topology_build_stats() noexcept {
  return TopologyBuildStats{
      internal::g_topology_builds.load(std::memory_order_relaxed),
      internal::g_topology_floorplans.load(std::memory_order_relaxed)};
}

Topology::Topology(std::string name, int routers, int terminals)
    : name_(std::move(name)), routers_(routers), terminals_(terminals) {
  if (routers <= 0 || terminals <= 0) {
    throw std::invalid_argument("Topology: routers and terminals must be positive");
  }
  attach_.assign(static_cast<std::size_t>(terminals), -1);
}

int Topology::add_link(int from, int to, double bandwidth,
                       std::uint32_t extra_latency) {
  if (from < 0 || from >= routers_ || to < 0 || to >= routers_) {
    throw std::out_of_range("Topology::add_link: router index out of range");
  }
  if (bandwidth <= 0.0) {
    throw std::invalid_argument("Topology::add_link: bandwidth must be positive");
  }
  links_.push_back(LinkSpec{from, to, bandwidth, extra_latency});
  return static_cast<int>(links_.size()) - 1;
}

void Topology::add_bidir(int a, int b, double bandwidth,
                         std::uint32_t extra_latency) {
  add_link(a, b, bandwidth, extra_latency);
  add_link(b, a, bandwidth, extra_latency);
}

int Topology::hops_between(TerminalId src, TerminalId dst) const {
  if (src == dst) return 0;
  int router = attach_[src];
  int hops = 0;
  while (true) {
    const int li = route(router, dst);
    if (li < 0) return hops;
    router = links_[static_cast<std::size_t>(li)].to_router;
    ++hops;
    if (hops > routers_ + 1) {
      throw std::logic_error("Topology::hops_between: routing loop");
    }
  }
}

double Topology::total_link_bandwidth() const noexcept {
  double sum = 0.0;
  for (const auto& l : links_) sum += l.bandwidth;
  return sum;
}

void Topology::finalize() {
  internal::g_topology_builds.fetch_add(1, std::memory_order_relaxed);
  for (int t = 0; t < terminals_; ++t) {
    if (attach_[static_cast<std::size_t>(t)] < 0) {
      throw std::logic_error("Topology::finalize: unattached terminal");
    }
  }

  // Outgoing adjacency, ordered by link index for deterministic tie-breaks.
  std::vector<std::vector<int>> out(static_cast<std::size_t>(routers_));
  for (std::size_t li = 0; li < links_.size(); ++li) {
    out[static_cast<std::size_t>(links_[li].from_router)].push_back(
        static_cast<int>(li));
  }

  route_table_.assign(
      static_cast<std::size_t>(routers_) * static_cast<std::size_t>(terminals_),
      -1);

  // For each destination terminal, BFS backwards from its attach router on
  // the reversed graph to get, for every router, the first link of a
  // shortest path toward the destination.
  std::vector<std::vector<int>> in(static_cast<std::size_t>(routers_));
  for (std::size_t li = 0; li < links_.size(); ++li) {
    in[static_cast<std::size_t>(links_[li].to_router)].push_back(
        static_cast<int>(li));
  }

  long long hop_sum = 0;
  long long pair_count = 0;
  int max_hops = 0;

  std::vector<int> dist(static_cast<std::size_t>(routers_));
  for (TerminalId dst = 0; dst < static_cast<TerminalId>(terminals_); ++dst) {
    const int root = attach_[dst];
    std::fill(dist.begin(), dist.end(), std::numeric_limits<int>::max());
    dist[static_cast<std::size_t>(root)] = 0;
    std::queue<int> bfs;
    bfs.push(root);
    while (!bfs.empty()) {
      const int r = bfs.front();
      bfs.pop();
      for (int li : in[static_cast<std::size_t>(r)]) {
        const int u = links_[static_cast<std::size_t>(li)].from_router;
        if (dist[static_cast<std::size_t>(u)] >
            dist[static_cast<std::size_t>(r)] + 1) {
          dist[static_cast<std::size_t>(u)] =
              dist[static_cast<std::size_t>(r)] + 1;
          // First (lowest-index) link on a shortest path u -> ... -> root.
          route_table_[static_cast<std::size_t>(u) *
                           static_cast<std::size_t>(terminals_) +
                       dst] = li;
          bfs.push(u);
        }
      }
    }
    for (TerminalId src = 0; src < static_cast<TerminalId>(terminals_); ++src) {
      if (src == dst) continue;
      const int d = dist[static_cast<std::size_t>(attach_[src])];
      if (d == std::numeric_limits<int>::max()) {
        throw std::logic_error("Topology::finalize: disconnected terminal pair in '" +
                               name_ + "'");
      }
      hop_sum += d;
      ++pair_count;
      max_hops = std::max(max_hops, d);
    }
  }
  diameter_ = max_hops;
  avg_hops_ = pair_count ? static_cast<double>(hop_sum) /
                               static_cast<double>(pair_count)
                         : 0.0;
}

}  // namespace soc::noc
