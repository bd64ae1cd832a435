#include "soc/noc/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace soc::noc {

const char* to_string(TrafficPattern p) noexcept {
  switch (p) {
    case TrafficPattern::kUniform: return "uniform";
    case TrafficPattern::kNeighbor: return "neighbor";
    case TrafficPattern::kBitComplement: return "bit-complement";
    case TrafficPattern::kTranspose: return "transpose";
    case TrafficPattern::kHotspot: return "hotspot";
  }
  return "?";
}

TrafficGenerator::TrafficGenerator(Network& net, TrafficConfig cfg,
                                   sim::EventQueue& queue)
    : net_(net), cfg_(cfg), queue_(queue) {
  if (cfg_.injection_rate <= 0.0) {
    throw std::invalid_argument("TrafficGenerator: injection_rate must be > 0");
  }
  sim::Rng master(cfg_.seed);
  const int n = net_.topology().terminal_count();
  rngs_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) rngs_.push_back(master.split());
}

TerminalId TrafficGenerator::pick_destination(TerminalId src,
                                              sim::Rng& rng) const {
  const auto n = static_cast<TerminalId>(net_.topology().terminal_count());
  switch (cfg_.pattern) {
    case TrafficPattern::kUniform: {
      auto d = static_cast<TerminalId>(rng.next_below(n - 1));
      return d >= src ? d + 1 : d;  // uniform over terminals != src
    }
    case TrafficPattern::kNeighbor:
      return (src + 1) % n;
    case TrafficPattern::kBitComplement:
      return n - 1 - src;
    case TrafficPattern::kTranspose: {
      const auto k = static_cast<TerminalId>(
          std::lround(std::sqrt(static_cast<double>(n))));
      if (k * k != n) return n - 1 - src;  // fall back off-square
      const TerminalId d = (src % k) * k + src / k;
      return d == src ? (src + 1) % n : d;
    }
    case TrafficPattern::kHotspot: {
      if (src != 0 && rng.next_bool(cfg_.hotspot_fraction)) return 0;
      auto d = static_cast<TerminalId>(rng.next_below(n - 1));
      return d >= src ? d + 1 : d;
    }
  }
  return (src + 1) % n;
}

void TrafficGenerator::start() {
  running_ = true;
  const int n = net_.topology().terminal_count();
  for (int t = 0; t < n; ++t) schedule_next(static_cast<TerminalId>(t));
}

void TrafficGenerator::schedule_next(TerminalId t) {
  // Bernoulli injection: each cycle a packet starts with probability
  // rate/flits; the gap between starts is geometric.
  const double p_start =
      std::min(1.0, cfg_.injection_rate / static_cast<double>(cfg_.packet_flits));
  auto& rng = rngs_[t];
  const sim::Cycle gap = 1 + rng.next_geometric(p_start);
  queue_.schedule_in(gap, [this, t] {
    if (!running_) return;
    auto& r = rngs_[t];
    const TerminalId dst = pick_destination(t, r);
    net_.inject(t, dst, cfg_.packet_flits);
    schedule_next(t);
  });
}

FlowReplayer::FlowReplayer(Network& net, std::vector<Flow> flows,
                           ReplayConfig cfg, sim::EventQueue& queue)
    : net_(net), flows_(std::move(flows)), cfg_(cfg), queue_(queue) {
  if (flows_.empty()) {
    throw std::invalid_argument("FlowReplayer: empty flow set");
  }
  const auto terminals =
      static_cast<TerminalId>(net_.topology().terminal_count());
  for (const Flow& f : flows_) {
    if (f.src >= terminals || f.dst >= terminals) {
      throw std::invalid_argument("FlowReplayer: terminal id out of range");
    }
    if (f.flits == 0) {
      throw std::invalid_argument("FlowReplayer: flow needs >= 1 flit");
    }
  }
  if (cfg_.mode == ReplayConfig::Mode::kOpenLoop && cfg_.period == 0) {
    throw std::invalid_argument("FlowReplayer: open-loop period must be > 0");
  }
  if (cfg_.mode == ReplayConfig::Mode::kClosedLoop &&
      cfg_.max_outstanding_rounds <= 0) {
    throw std::invalid_argument(
        "FlowReplayer: closed-loop window must be > 0");
  }
  stats_.resize(flows_.size());
  frontier_remaining_ = flows_.size();
  net_.set_deliver([this](const Packet& p) { on_delivery(p); });
}

void FlowReplayer::start() {
  running_ = true;
  if (cfg_.mode == ReplayConfig::Mode::kOpenLoop) {
    queue_.schedule_in(1, [this] { open_loop_tick(); });
  } else {
    queue_.schedule_in(1, [this] {
      // Fill the window; deliveries then keep it full via on_delivery().
      while (running_ &&
             rounds_injected_ - rounds_completed_ <
                 static_cast<std::uint64_t>(cfg_.max_outstanding_rounds)) {
        inject_round();
      }
    });
  }
}

void FlowReplayer::inject_round() {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& f = flows_[i];
    net_.inject(f.src, f.dst, f.flits, static_cast<std::uint64_t>(i));
  }
  ++rounds_injected_;
}

void FlowReplayer::open_loop_tick() {
  if (!running_) return;
  inject_round();
  queue_.schedule_in(cfg_.period, [this] { open_loop_tick(); });
}

void FlowReplayer::on_delivery(const Packet& p) {
  FlowStats& fs = stats_.at(p.tag);
  ++fs.delivered;
  ++fs.window_delivered;
  const auto lat = static_cast<double>(p.latency());
  fs.latency_sum += lat;
  fs.latency_max = std::max(fs.latency_max, lat);

  // Rounds complete in order (per-flow packets stay FIFO), so tracking how
  // many flows still owe the frontier round keeps each delivery O(1); only
  // an actual round completion pays an O(flows) rescan.
  if (fs.delivered == rounds_completed_ + 1 && --frontier_remaining_ == 0) {
    advance_frontier();
  }

  if (cfg_.mode == ReplayConfig::Mode::kClosedLoop) {
    while (running_ &&
           rounds_injected_ - rounds_completed_ <
               static_cast<std::uint64_t>(cfg_.max_outstanding_rounds)) {
      inject_round();
    }
  }
}

void FlowReplayer::advance_frontier() {
  do {
    ++rounds_completed_;
    frontier_remaining_ = 0;
    for (const FlowStats& s : stats_) {
      if (s.delivered <= rounds_completed_) ++frontier_remaining_;
    }
    // Every flow may already be past the new frontier (they ran ahead while
    // one slow flow held the round open) — keep advancing until one owes.
    // Terminates with frontier_remaining_ >= 1: the minimum-delivery flow
    // always owes the round after its own count.
  } while (frontier_remaining_ == 0);
}

void FlowReplayer::reset_stats() noexcept {
  for (FlowStats& s : stats_) {
    s.window_delivered = 0;
    s.latency_sum = 0.0;
    s.latency_max = 0.0;
  }
}

namespace {

LoadPoint summarize(const Network& net, const TrafficConfig& traffic,
                    sim::Cycle measured_cycles) {
  LoadPoint pt;
  pt.topology = net.topology().name();
  pt.terminals = net.topology().terminal_count();
  pt.offered_flits_per_node_cycle = traffic.injection_rate;
  const double node_cycles = static_cast<double>(measured_cycles) *
                             static_cast<double>(pt.terminals);
  pt.accepted_flits_per_node_cycle =
      static_cast<double>(net.flits_delivered()) / node_cycles;
  const auto& lat = net.latency_samples();
  pt.avg_latency = lat.mean();
  pt.p50_latency = lat.quantile(0.50);
  pt.p95_latency = lat.quantile(0.95);
  pt.p99_latency = lat.quantile(0.99);
  pt.avg_hops = net.hop_stats().mean();
  pt.delivered = net.delivered();
  pt.max_queue_depth = net.max_queue_depth();
  pt.saturated =
      pt.accepted_flits_per_node_cycle < 0.95 * pt.offered_flits_per_node_cycle;
  return pt;
}

}  // namespace

LoadPoint measure_load_point(TopologyKind kind, int terminals,
                             const NetworkConfig& net_cfg,
                             const TrafficConfig& traffic,
                             const MeasureConfig& m) {
  sim::EventQueue queue;
  NetworkConfig cfg = net_cfg;
  cfg.record_latency = true;
  Network net(make_topology(kind, terminals), cfg, queue);
  TrafficGenerator gen(net, traffic, queue);
  gen.start();
  queue.run_until(m.warmup_cycles);
  net.reset_stats();
  queue.run_until(m.warmup_cycles + m.measure_cycles);
  gen.stop();
  return summarize(net, traffic, m.measure_cycles);
}

double find_saturation_rate(TopologyKind kind, int terminals,
                            const NetworkConfig& net_cfg, TrafficConfig traffic,
                            const MeasureConfig& m) {
  double lo = 0.0;
  double hi = 1.0;
  // Expand upper bound in case even rate 1.0 is sustained (crossbar).
  traffic.injection_rate = hi;
  if (!measure_load_point(kind, terminals, net_cfg, traffic, m).saturated) {
    return hi;
  }
  for (int iter = 0; iter < 12; ++iter) {
    const double mid = 0.5 * (lo + hi);
    traffic.injection_rate = mid;
    if (measure_load_point(kind, terminals, net_cfg, traffic, m).saturated) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;
}

double zero_load_latency(TopologyKind kind, int terminals,
                         const NetworkConfig& net_cfg,
                         std::uint32_t packet_flits) {
  TrafficConfig traffic;
  traffic.pattern = TrafficPattern::kUniform;
  traffic.packet_flits = packet_flits;
  // Low enough that packets essentially never queue.
  traffic.injection_rate = 0.001;
  MeasureConfig m;
  m.warmup_cycles = 50'000;
  m.measure_cycles = 400'000;
  return measure_load_point(kind, terminals, net_cfg, traffic, m).avg_latency;
}

}  // namespace soc::noc
