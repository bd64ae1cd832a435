#pragma once

/// \file
/// Canonical wire codecs for served DSE sweeps: every value that crosses
/// the dsoc transport between a soc::svc::DseClient and the DseService it
/// submits to — the full sweep specification (SweepRequest) and the
/// evaluated DsePoint stream — serialized over the typed 32-bit word
/// streams of soc::dsoc::WireWriter/WireReader.
///
/// Each value type's members are listed once, in wire order, in a
/// module-private header that the writer, the reader, and EvalCache's key
/// builders all walk. The encoding is injective: fixed-width scalars
/// (doubles as IEEE-754 bit patterns), u64 length-prefixed strings and
/// containers, enums as the u32 of their underlying value (range-checked
/// on decode). Equal values encode to equal word streams and decode back
/// field-for-field bit-identical — the property a served sweep's
/// byte-identity to a local DseSession rests on.
///
/// Every wire_get overload throws std::invalid_argument on a truncated or
/// malformed stream (out-of-range enum, a count the remaining words cannot
/// hold, a non-canonical scalar, a name outside ObjectiveSpace's four
/// axes, bad edge endpoints) and never reads out of bounds.

#include <cstdint>
#include <span>
#include <vector>

#include "soc/core/dse.hpp"
#include "soc/core/dse_session.hpp"
#include "soc/dsoc/marshal.hpp"

namespace soc::core {

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

/// Serializes every DsePoint field — analytic, bookkeeping, and sim_* —
/// so a merged stream is indistinguishable from a locally evaluated one.
void wire_put(dsoc::WireWriter& w, const DsePoint& v);
/// Decodes a DsePoint.
void wire_get(dsoc::WireReader& r, DsePoint& v);
/// The number of words wire_put(w, v) appends, so a message carrying
/// points can be sized before it is written.
std::size_t wire_words(const DsePoint& v);

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
