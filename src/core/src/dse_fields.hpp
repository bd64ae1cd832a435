#pragma once

// Module-private: the members of every DSE value type that crosses the
// service wire (dse_wire.cpp) or keys the EvalCache (eval_cache.cpp),
// listed once each, in wire order.
//
// `members(ar, v)` hands v's members to `ar(...)` in that order. `v` is the
// value itself (a reader fills it) or a const view of it (a writer or a key
// builder reads it), so one list serves every direction: a member added
// here is encoded, decoded and keyed at once. A member that only names its
// value goes to `ar.label(...)` instead; it travels on the wire, but cache
// keys skip it (two structurally identical graphs share their mappings).
//
// TaskGraph (rebuilt through add_node/add_edge) and ObjectiveSpace (carried
// as its axis names) have their own decode rules, so they have no member
// list: FieldWriter below and dse_wire.cpp's reader spell them out.

#include <concepts>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "soc/core/dse_wire.hpp"

namespace soc::core::fields {

/// `V` is `T` or `const T`.
template <class V, class T>
concept Of = std::same_as<std::remove_const_t<V>, T>;

template <class Ar, Of<tech::ProcessNode> V>
void members(Ar& ar, V& v) {
  ar(v.name, v.feature_nm, v.year, v.vdd_v, v.fo4_ps);
  ar(v.wire_r_ohm_per_mm, v.wire_c_ff_per_mm, v.density_mtx_mm2);
  ar(v.mask_set_cost_usd, v.sram_bit_um2, v.leakage_rel);
}

template <class Ar, Of<TaskNode> V>
void members(Ar& ar, V& v) {
  ar.label(v.name);
  ar(v.work_ops, v.state_kbytes, v.allowed_fabrics, v.kind, v.demand);
}

template <class Ar, Of<TaskEdge> V>
void members(Ar& ar, V& v) {
  ar(v.src, v.dst, v.words_per_item);
}

template <class Ar, Of<DseCandidate> V>
void members(Ar& ar, V& v) {
  ar(v.num_pes, v.threads_per_pe, v.topology, v.pe_fabric, v.node);
}

template <class Ar, Of<DseSpace> V>
void members(Ar& ar, V& v) {
  ar(v.nodes, v.pe_counts, v.thread_counts, v.topologies, v.fabrics);
}

template <class Ar, Of<AnnealConfig> V>
void members(Ar& ar, V& v) {
  ar(v.iterations, v.t_start, v.t_end, v.seed);
}

template <class Ar, Of<ObjectiveWeights> V>
void members(Ar& ar, V& v) {
  ar(v.load, v.comm, v.energy);
}

template <class Ar, Of<MappingConstraints> V>
void members(Ar& ar, V& v) {
  ar(v.enforce_kinds, v.enforce_capacity);
}

template <class Ar, Of<ConstraintViolation> V>
void members(Ar& ar, V& v) {
  ar(v.kind, v.task, v.pe, v.detail);
}

template <class Ar, Of<MappingCost> V>
void members(Ar& ar, V& v) {
  ar(v.bottleneck_cycles, v.comm_word_hops, v.energy_pj_per_item,
     v.pipeline_latency, v.feasible, v.objective, v.violations);
}

template <class Ar, Of<noc::NetworkConfig> V>
void members(Ar& ar, V& v) {
  ar(v.router_pipeline_cycles, v.link_latency_cycles, v.ni_latency_cycles,
     v.queue_capacity_pkts, v.record_latency);
}

template <class Ar, Of<noc::LinkTimingModel::Config> V>
void members(Ar& ar, V& v) {
  ar(v.fo4_per_cycle, v.critical_paths, v.yield_target, v.apply_guardband);
}

template <class Ar, Of<ValidatorConfig> V>
void members(Ar& ar, V& v) {
  ar(v.mode, v.load_factor, v.max_outstanding_rounds, v.words_per_flit, v.net,
     v.warmup_cycles, v.measure_cycles, v.top_hotspots);
}

template <class Ar, Of<DseConfig> V>
void members(Ar& ar, V& v) {
  ar(v.num_threads, v.mapper, v.validate_pareto, v.validation,
     v.physical_links, v.die_mm2, v.link_timing, v.constraints,
     v.pe_kind_groups, v.pe_capacity, v.mapping_fronts, v.use_eval_cache);
}

template <class Ar, Of<DseProblem> V>
void members(Ar& ar, V& v) {
  ar(v.graph, v.objectives, v.weights, v.node);
}

template <class Ar, Of<platform::PlatformCost> V>
void members(Ar& ar, V& v) {
  ar(v.pe_area_mm2, v.mem_area_mm2, v.noc_area_mm2, v.total_area_mm2,
     v.peak_dynamic_mw, v.leakage_mw, v.mask_nre_usd, v.die_mm2,
     v.noc_wire_mm, v.noc_wire_mw, v.noc_pipeline_mw,
     v.noc_max_extra_latency);
}

template <class Ar, Of<DsePoint> V>
void members(Ar& ar, V& v) {
  ar(v.candidate, v.mapping_cost, v.silicon, v.scenario, v.scenario_name,
     v.mapping, v.mapper, v.throughput_per_kcycle, v.mw_per_throughput,
     v.pareto_optimal, v.validated, v.sim_throughput_per_kcycle,
     v.sim_to_analytic_ratio, v.sim_peak_link_utilization,
     v.sim_avg_packet_latency, v.sim_network_saturated);
}

template <class Ar, Of<SweepRequest> V>
void members(Ar& ar, V& v) {
  ar(v.problem, v.scenarios, v.space, v.anneal, v.config);
}

/// Encodes values through their member lists onto `Sink`: dsoc::WireWriter,
/// or anything with its scalar calls (u32, u64, i32, f64, boolean, str).
/// Enums go as the u32 of their value, containers and strings behind a u64
/// count. Labels are written only when `kLabels` is set.
template <class Sink, bool kLabels>
class FieldWriter {
 public:
  explicit FieldWriter(Sink& sink) : sink_(sink) {}

  /// Writes each argument in order.
  template <class... M>
  void operator()(const M&... m) {
    (put(m), ...);
  }
  /// Writes a naming member (see the file comment).
  void label(std::string_view s) {
    if constexpr (kLabels) sink_.str(s);
  }

 private:
  void put(bool v) { sink_.boolean(v); }
  void put(std::int32_t v) { sink_.i32(v); }
  void put(std::uint32_t v) { sink_.u32(v); }
  void put(std::uint64_t v) { sink_.u64(v); }
  void put(double v) { sink_.f64(v); }
  void put(std::string_view v) { sink_.str(v); }
  void put(const ObjectiveSpace& v) { sink_.str(v.names()); }
  void put(const TaskGraph& v) {
    label(v.name());
    put(v.nodes());
    put(v.edges());
  }
  template <class E>
    requires std::is_enum_v<E>
  void put(E v) {
    sink_.u32(static_cast<std::uint32_t>(v));
  }
  template <class T>
  void put(const std::vector<T>& v) {
    sink_.u64(v.size());
    for (const T& e : v) put(e);
  }
  template <class T>
    requires requires(FieldWriter& w, const T& t) { members(w, t); }
  void put(const T& v) {
    members(*this, v);
  }

  Sink& sink_;
};

}  // namespace soc::core::fields
