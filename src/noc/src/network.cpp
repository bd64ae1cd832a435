#include "soc/noc/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace soc::noc {

Network::Network(std::unique_ptr<Topology> topology, NetworkConfig cfg,
                 sim::EventQueue& queue)
    : topology_(std::move(topology)), cfg_(cfg), queue_(queue) {
  if (!topology_) throw std::invalid_argument("Network: null topology");
  // Topology links first, then one implicit NI injection link per terminal.
  links_.resize(topology_->links().size() +
                static_cast<std::size_t>(topology_->terminal_count()));
}

std::uint64_t Network::inject(TerminalId src, TerminalId dst,
                              std::uint32_t size_flits, std::uint64_t tag) {
  if (src >= static_cast<TerminalId>(topology_->terminal_count()) ||
      dst >= static_cast<TerminalId>(topology_->terminal_count())) {
    throw std::out_of_range("Network::inject: terminal id out of range");
  }
  if (size_flits == 0) {
    throw std::invalid_argument("Network::inject: packet must have >= 1 flit");
  }
  Packet p;
  p.id = next_packet_id_++;
  p.src = src;
  p.dst = dst;
  p.size_flits = size_flits;
  p.tag = tag;
  p.injected_at = queue_.now();
  ++injected_;
  ++in_flight_;
  auto slot = static_cast<std::uint32_t>(packets_.size());
  if (free_.empty()) {
    packets_.push_back(p);
  } else {
    slot = free_.back();
    free_.pop_back();
    packets_[slot] = p;
  }
  const int ni_link = static_cast<int>(topology_->links().size()) +
                      static_cast<int>(src);
  enqueue_on_link(ni_link, slot);
  return p.id;
}

bool Network::has_space(int li) const noexcept {
  if (cfg_.queue_capacity_pkts == 0) return true;
  const auto& ls = links_[static_cast<std::size_t>(li)];
  return ls.queue.size() + ls.reserved < cfg_.queue_capacity_pkts;
}

int Network::far_router(const Packet& p, int li) const {
  const auto num_topo = static_cast<int>(topology_->links().size());
  return li < num_topo
             ? topology_->links()[static_cast<std::size_t>(li)].to_router
             : topology_->attach_router(p.src);
}

void Network::enqueue_on_link(int li, std::uint32_t slot) {
  auto& ls = links_[static_cast<std::size_t>(li)];
  ls.queue.push_back(slot);
  max_queue_depth_ = std::max(max_queue_depth_, ls.queue.size());
  try_start_service(li);
}

void Network::try_start_service(int li) {
  auto& ls = links_[static_cast<std::size_t>(li)];
  if (ls.busy || ls.queue.empty()) return;

  const Packet& head = packets_[ls.queue.front()];
  const int next = topology_->route(far_router(head, li), head.dst);
  if (next >= 0 && !has_space(next)) {
    auto& down = links_[static_cast<std::size_t>(next)];
    if (std::find(down.waiters.begin(), down.waiters.end(), li) ==
        down.waiters.end()) {
      down.waiters.push_back(li);
    }
    return;
  }
  if (next >= 0) ++links_[static_cast<std::size_t>(next)].reserved;

  const auto num_topo = static_cast<int>(topology_->links().size());
  const bool is_topo_link = li < num_topo;
  const double bw =
      is_topo_link ? topology_->links()[static_cast<std::size_t>(li)].bandwidth
                   : 1.0;
  ls.busy = true;
  const auto serialize = static_cast<sim::Cycle>(
      std::max(1.0, std::ceil(static_cast<double>(head.size_flits) / bw)));
  ls.busy_cycles += serialize;
  queue_.schedule_in(serialize, [this, li] { finish_service(li); });
}

void Network::finish_service(int li) {
  auto& link = links_[static_cast<std::size_t>(li)];
  const std::uint32_t slot = link.queue.front();
  link.queue.pop_front();
  link.busy = false;
  kick_waiters(li);
  const auto num_topo = static_cast<int>(topology_->links().size());
  const bool is_topo_link = li < num_topo;
  const std::uint32_t extra =
      is_topo_link
          ? topology_->links()[static_cast<std::size_t>(li)].extra_latency +
                cfg_.link_latency_cycles
          : cfg_.ni_latency_cycles;
  const sim::Cycle hop_latency = extra + cfg_.router_pipeline_cycles;
  queue_.schedule_in(hop_latency, [this, li, slot] { arrive(li, slot); });
  try_start_service(li);
}

void Network::arrive(int li, std::uint32_t slot) {
  Packet& p = packets_[slot];
  if (li < static_cast<int>(topology_->links().size())) ++p.hops;
  const int next = topology_->route(far_router(p, li), p.dst);
  if (next < 0) {
    deliver_packet(slot);
    return;
  }
  auto& down = links_[static_cast<std::size_t>(next)];
  if (down.reserved > 0) --down.reserved;
  enqueue_on_link(next, slot);
}

void Network::deliver_packet(std::uint32_t slot) {
  // Copy the packet out and free its slot first: the callback may inject,
  // which can reuse the slot or grow (and so move) the table.
  Packet p = packets_[slot];
  free_.push_back(slot);
  p.delivered_at = queue_.now();
  ++delivered_count_;
  --in_flight_;
  flits_delivered_ += p.size_flits;
  if (cfg_.record_latency) {
    latency_.push(static_cast<double>(p.latency()));
  }
  hops_.push(static_cast<double>(p.hops));
  if (deliver_) deliver_(p);
}

void Network::kick_waiters(int li) {
  auto& ls = links_[static_cast<std::size_t>(li)];
  if (ls.waiters.empty()) return;
  std::vector<int> pending;
  pending.swap(ls.waiters);
  for (int w : pending) try_start_service(w);
}

std::uint64_t Network::link_busy_cycles(std::size_t li) const {
  if (li >= links_.size()) {
    throw std::out_of_range("Network::link_busy_cycles: link index");
  }
  return links_[li].busy_cycles;
}

double Network::link_utilization(std::size_t li, sim::Cycle elapsed) const {
  const auto busy = link_busy_cycles(li);  // bounds-checks even when idle
  if (elapsed == 0) return 0.0;
  return static_cast<double>(busy) / static_cast<double>(elapsed);
}

double Network::peak_link_utilization(sim::Cycle elapsed) const noexcept {
  if (elapsed == 0) return 0.0;
  std::uint64_t peak = 0;
  for (const auto& ls : links_) peak = std::max(peak, ls.busy_cycles);
  return static_cast<double>(peak) / static_cast<double>(elapsed);
}

void Network::reset_stats() noexcept {
  injected_ = 0;
  delivered_count_ = 0;
  flits_delivered_ = 0;
  latency_.reset();
  hops_.reset();
  max_queue_depth_ = 0;
  for (auto& ls : links_) ls.busy_cycles = 0;
}

}  // namespace soc::noc
