#pragma once

/// \file
/// Client side of the always-on DSE service.
///
/// DseClient is an endpoint that speaks the DseService protocol
/// (soc/svc/dse_service.hpp): it submits SweepRequests, receives the
/// streamed per-point results on its own terminal, invokes a streaming
/// observer as each point lands, and assembles the finished sweep through
/// core::lay_out_sweep into the exact layout a single-machine DseSession
/// produces — pareto flags from the service's front marking, validated
/// points overlaid. Waiting is explicit: submit() returns once the service
/// accepts (or refuses) the sweep, wait() blocks until its completion
/// message arrives.
///
/// Nothing read off the wire is trusted: the accepted grid size must match
/// the request, every point and front index is range-checked before it is
/// used, and a validated point must overlay a front member, once; a
/// violation fails the sweep (wait() throws a std::runtime_error naming the
/// field).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "soc/svc/dse_service.hpp"

namespace soc::svc {

/// Thrown by DseClient::submit when the service refuses admission (its
/// active and queue slots are full). Carries the capacity snapshot from
/// the kBusy reply so callers can back off intelligently.
class ServiceBusy : public std::runtime_error {
 public:
  /// Builds the "service busy: N active / M queued" message.
  ServiceBusy(std::uint32_t active, std::uint32_t queued,
              std::uint32_t max_active, std::uint32_t max_queued);

  std::uint32_t active = 0;      ///< sweeps running at refusal time
  std::uint32_t queued = 0;      ///< sweeps queued at refusal time
  std::uint32_t max_active = 0;  ///< service active-slot capacity
  std::uint32_t max_queued = 0;  ///< service queue capacity
};

/// A finished (or cancelled) sweep as assembled by DseClient::wait: the
/// core::SweepLayout a DseSession run of the same request produces, byte
/// for byte, plus the stream's own figures. A cancelled sweep carries only
/// the grid points that streamed, ascending flat order, and no fronts.
struct SweepResult : core::SweepLayout {
  /// The sweep was cancelled before completion.
  bool cancelled = false;
  /// Evaluations the service completed (equals the grid unless cancelled).
  std::uint64_t points_evaluated = 0;
  /// Points received over the stream (grid + extras + validated).
  std::uint64_t points_streamed = 0;
  /// Milliseconds from submit to the first streamed point.
  double time_to_first_point_ms = 0.0;
  /// Milliseconds from submit to completion.
  double wall_ms = 0.0;
};

/// Streaming observer: one call per streamed point (grid point, extra, or
/// validated overlay), from the client's dispatcher thread. `index` is
/// the final-layout position for grid and validated points and the
/// parent's flat index for extras; `validated` distinguishes the stage-2
/// overlay stream.
using PointObserverFn = std::function<void(
    std::uint64_t index, const core::DsePoint& point, bool validated)>;

/// The service's client stub (see file comment). One DseClient owns one
/// terminal and can run many sweeps, sequentially or concurrently.
class DseClient final : public tlm::Endpoint {
 public:
  /// Attaches the client to `terminal` of `bus`; the service is expected
  /// at `service_terminal` (by default the well-known kServiceTerminal).
  DseClient(tlm::MessageBus& bus, noc::TerminalId terminal,
            noc::TerminalId service_terminal = kServiceTerminal);

  DseClient(const DseClient&) = delete;             ///< non-copyable
  DseClient& operator=(const DseClient&) = delete;  ///< non-copyable

  /// Submits a sweep and blocks until the service answers. Returns the
  /// service-assigned sweep id on admission (running or queued). Throws
  /// ServiceBusy on a kBusy refusal and std::runtime_error on a kError
  /// reply (e.g. an invalid request). `on_point`, when set, fires for
  /// every streamed point of this sweep.
  std::uint32_t submit(const core::SweepRequest& request,
                       PointObserverFn on_point = nullptr);

  /// Blocks until sweep `id` completes, is cancelled, or fails, then
  /// returns the assembled result (throws std::runtime_error on failure
  /// or an unknown id).
  SweepResult wait(std::uint32_t id);

  /// Requests cancellation of sweep `id` (oneway; the service confirms
  /// with kCancelled, which wait() surfaces as SweepResult::cancelled).
  void cancel(std::uint32_t id);

  /// Decodes one protocol message (invoked by the bus dispatcher).
  void handle(const tlm::Transaction& request, tlm::CompletionFn done) override;

  /// This client's terminal.
  noc::TerminalId terminal() const noexcept { return terminal_; }

 private:
  /// A submit() waiting for its kAccepted / kBusy / kError.
  struct PendingSubmit {
    bool resolved = false;
    bool busy = false;
    std::uint32_t sweep_id = 0;
    std::uint64_t request_grid = 0;  ///< the grid kAccepted must report
    std::uint32_t busy_active = 0, busy_queued = 0;
    std::uint32_t busy_max_active = 0, busy_max_queued = 0;
    std::string error;
    PointObserverFn on_point;
    std::chrono::steady_clock::time_point t_submit;
  };

  /// An admitted sweep accumulating its stream.
  struct SweepState {
    std::uint64_t grid = 0;
    /// Stage-1 stream in arrival order (flat indices checked on arrival).
    core::SweepArrivals arrivals;
    /// Stage-2 overlays: (final-layout index, point), arrival order.
    std::vector<std::pair<std::uint64_t, core::DsePoint>> validated;
    /// The index sets kDone reported (checked when laid out).
    core::SweepFronts fronts;
    bool done = false;
    bool cancelled = false;
    std::string error;
    std::uint64_t evaluated = 0;
    std::uint64_t streamed = 0;
    PointObserverFn on_point;
    std::chrono::steady_clock::time_point t_submit;
    std::chrono::steady_clock::time_point t_first;
    std::chrono::steady_clock::time_point t_done;
    bool first_seen = false;
  };

  void on_accepted(std::vector<std::uint32_t> args);
  void on_busy(std::vector<std::uint32_t> args);
  void on_point_msg(std::vector<std::uint32_t> args);
  void on_done(std::vector<std::uint32_t> args);
  void on_cancelled(std::vector<std::uint32_t> args);
  void on_error(std::vector<std::uint32_t> args);
  /// Finishes `st` with `what` as its failure (the first failure wins) and
  /// wakes its waiter.
  void fail_locked(SweepState& st, std::string what);
  void send(dsoc::MethodId method, std::vector<std::uint32_t> args);

  tlm::MessageBus& bus_;
  noc::TerminalId terminal_;
  noc::TerminalId service_terminal_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint32_t next_tag_ = 1;
  std::map<std::uint32_t, PendingSubmit> pending_;     ///< by tag
  std::map<std::uint32_t, SweepState> sweeps_;         ///< by sweep id
};

}  // namespace soc::svc
