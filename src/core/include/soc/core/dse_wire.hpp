#pragma once

/// \file
/// Canonical wire codecs for served DSE sweeps: every value that crosses
/// the dsoc transport between a soc::svc::DseClient and the DseService it
/// submits to — the full sweep specification (SweepRequest) and the
/// evaluated DsePoint stream — serialized over the typed 32-bit word
/// streams of soc::dsoc::WireWriter/WireReader.
///
/// The encoding follows the injective discipline of EvalCache's canonical
/// keys: fixed-width scalars (doubles as IEEE-754 bit patterns), u64
/// length-prefixed strings and containers, enums as the u32 of their
/// underlying value (range-checked on decode). Equal values encode to equal
/// word streams and decode back field-for-field bit-identical — the
/// property a served sweep's byte-identity to a local DseSession rests on.
///
/// Every wire_get overload throws std::invalid_argument on a truncated or
/// malformed stream (out-of-range enum, axis name unknown to the
/// ObjectiveSpace registry) and never reads out of bounds.

#include <cstdint>
#include <span>
#include <vector>

#include "soc/core/dse.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/dsoc/marshal.hpp"

namespace soc::core {

/// Serializes all 11 ProcessNode parameters (same field set as
/// EvalCache::platform_key).
void wire_put(dsoc::WireWriter& w, const tech::ProcessNode& v);
/// Decodes a ProcessNode.
void wire_get(dsoc::WireReader& r, tech::ProcessNode& v);

/// Serializes one task (name included — unlike the name-blind
/// EvalCache::graph_key, the wire form must reconstruct the graph exactly).
void wire_put(dsoc::WireWriter& w, const TaskNode& v);
/// Decodes a TaskNode.
void wire_get(dsoc::WireReader& r, TaskNode& v);

/// Serializes one edge.
void wire_put(dsoc::WireWriter& w, const TaskEdge& v);
/// Decodes a TaskEdge.
void wire_get(dsoc::WireReader& r, TaskEdge& v);

/// Serializes a task graph: name, nodes, edges.
void wire_put(dsoc::WireWriter& w, const TaskGraph& v);
/// Decodes a TaskGraph (rebuilt through add_node/add_edge, so adjacency is
/// reconstructed and edge endpoints are validated).
void wire_get(dsoc::WireReader& r, TaskGraph& v);

/// Serializes a candidate (axes + full process node).
void wire_put(dsoc::WireWriter& w, const DseCandidate& v);
/// Decodes a DseCandidate.
void wire_get(dsoc::WireReader& r, DseCandidate& v);

/// Serializes the swept space (all five axes).
void wire_put(dsoc::WireWriter& w, const DseSpace& v);
/// Decodes a DseSpace.
void wire_get(dsoc::WireReader& r, DseSpace& v);

/// Serializes the anneal knobs.
void wire_put(dsoc::WireWriter& w, const AnnealConfig& v);
/// Decodes an AnnealConfig.
void wire_get(dsoc::WireReader& r, AnnealConfig& v);

/// Serializes the scalarization weights.
void wire_put(dsoc::WireWriter& w, const ObjectiveWeights& v);
/// Decodes ObjectiveWeights.
void wire_get(dsoc::WireReader& r, ObjectiveWeights& v);

/// Serializes the constraint policy.
void wire_put(dsoc::WireWriter& w, const MappingConstraints& v);
/// Decodes MappingConstraints.
void wire_get(dsoc::WireReader& r, MappingConstraints& v);

/// Serializes one typed constraint violation.
void wire_put(dsoc::WireWriter& w, const ConstraintViolation& v);
/// Decodes a ConstraintViolation.
void wire_get(dsoc::WireReader& r, ConstraintViolation& v);

/// Serializes a mapping cost breakdown (violations included).
void wire_put(dsoc::WireWriter& w, const MappingCost& v);
/// Decodes a MappingCost.
void wire_get(dsoc::WireReader& r, MappingCost& v);

/// Serializes the simulated-fabric knobs.
void wire_put(dsoc::WireWriter& w, const noc::NetworkConfig& v);
/// Decodes a NetworkConfig.
void wire_get(dsoc::WireReader& r, noc::NetworkConfig& v);

/// Serializes the wire-to-cycles conversion knobs.
void wire_put(dsoc::WireWriter& w, const noc::LinkTimingModel::Config& v);
/// Decodes a LinkTimingModel::Config.
void wire_get(dsoc::WireReader& r, noc::LinkTimingModel::Config& v);

/// Serializes the stage-2 replay knobs.
void wire_put(dsoc::WireWriter& w, const ValidatorConfig& v);
/// Decodes a ValidatorConfig.
void wire_get(dsoc::WireReader& r, ValidatorConfig& v);

/// Serializes every DseConfig knob.
void wire_put(dsoc::WireWriter& w, const DseConfig& v);
/// Decodes a DseConfig.
void wire_get(dsoc::WireReader& r, DseConfig& v);

/// Serializes an objective space as its comma-joined axis names
/// (ObjectiveSpace::names()). Only registered axes travel — a space built
/// from unregistered hand-rolled axes cannot cross the wire.
void wire_put(dsoc::WireWriter& w, const ObjectiveSpace& v);
/// Decodes an ObjectiveSpace via from_names (throws on unknown names).
void wire_get(dsoc::WireReader& r, ObjectiveSpace& v);

/// Serializes a problem (graph, objectives, weights, node).
void wire_put(dsoc::WireWriter& w, const DseProblem& v);
/// Decodes a DseProblem.
void wire_get(dsoc::WireReader& r, DseProblem& v);

/// Serializes the silicon estimate (all 12 figures).
void wire_put(dsoc::WireWriter& w, const platform::PlatformCost& v);
/// Decodes a PlatformCost.
void wire_get(dsoc::WireReader& r, platform::PlatformCost& v);

/// Serializes every DsePoint field — analytic, bookkeeping, and sim_* —
/// so a merged stream is indistinguishable from a locally evaluated one.
void wire_put(dsoc::WireWriter& w, const DsePoint& v);
/// Decodes a DsePoint.
void wire_get(dsoc::WireReader& r, DsePoint& v);

/// The complete specification of one sweep, shipped once per submission:
/// everything a ShardEvaluator constructor consumes.
struct SweepRequest {
  /// The problem under exploration. (TaskGraph has no default constructor,
  /// hence the explicit empty-named placeholder graph.)
  DseProblem problem{TaskGraph("")};
  /// The scenario set (one graph per scenario; never empty on the wire).
  ScenarioSet scenarios;
  /// The swept candidate space.
  DseSpace space;
  /// Mapper knobs.
  AnnealConfig anneal;
  /// Execution knobs. num_threads governs only a local DseSession run of
  /// the request — a DseService evaluates it on its own pool.
  DseConfig config;
};

/// Serializes a SweepRequest.
void wire_put(dsoc::WireWriter& w, const SweepRequest& v);
/// Decodes a SweepRequest.
void wire_get(dsoc::WireReader& r, SweepRequest& v);

/// One-shot encode of a SweepRequest into a word payload.
std::vector<std::uint32_t> marshal_sweep_request(const SweepRequest& req);
/// One-shot decode of marshal_sweep_request's payload; throws
/// std::invalid_argument on truncation or trailing garbage.
SweepRequest unmarshal_sweep_request(std::span<const std::uint32_t> words);

/// One-shot encode of a DsePoint into a word payload.
std::vector<std::uint32_t> marshal_point(const DsePoint& pt);
/// One-shot decode of marshal_point's payload; throws std::invalid_argument
/// on truncation or trailing garbage.
DsePoint unmarshal_point(std::span<const std::uint32_t> words);

}  // namespace soc::core
