#pragma once

/// \file
/// Always-on DSE service: one daemon, many concurrent sweep clients.
///
/// DseService is the one scheduler sweeps run on outside a local
/// DseSession: it listens at a well-known terminal, accepts serialized
/// SweepRequests from any number of clients, multiplexes the accepted
/// sweeps onto one shared evaluation pool with per-client round-robin
/// fairness (one flat index per pool claim), streams every evaluated point
/// back to its owner as it lands, and reports the marked fronts in a final
/// completion message. The same class serves a TCP daemon (dse_serve) and
/// an in-process pool (`platform_dse --workers N`) on a loopback bus.
/// Admission is bounded: at most `max_active` sweeps run
/// concurrently, at most `max_queued` wait behind them, and anything
/// beyond that is refused with a typed busy reply the client surfaces as
/// ServiceBusy. A cancelled sweep stops being scheduled immediately and
/// its pool slot admits the next queued sweep without waiting for
/// in-flight evaluations to finish.
///
/// Every sweep's result is byte-identical to a single-machine DseSession
/// run of the same problem: points come from the same ShardEvaluator
/// kernel, are laid out by the same core::lay_out_sweep, fronts come from
/// the same marker (ShardEvaluator::mark_fronts), and stage-2 validation
/// replays the same deterministic topologies.
///
/// Protocol (all oneway dsoc calls; payload layouts in svc_method):
///
///   client -> service (object kServiceObjectId at the service terminal)
///     kSubmit     [client terminal][tag][SweepRequest]
///     kCancel     [client terminal][sweep id]
///
///   service -> client (object 0 at the client's terminal)
///     kAccepted   [tag][sweep id][grid u64][queued bool]
///     kBusy       [tag][active][queued][max_active][max_queued]
///     kPoint      [sweep id][stage][index u64][DsePoint]
///                 [n extras u64][DsePoint...]
///     kDone       [sweep id][front][scenario fronts][evaluated u64]
///                 [validated u64]
///     kCancelled  [sweep id][points evaluated u64]
///     kError      [tag][sweep id][message]
///
/// A kSubmit whose request does not decode or is invalid gets kError with
/// sweep id 0; one whose terminal and tag do not decode is dropped, since
/// it has no reply address.
///
/// Every client-bound message is appended, under the scheduling mutex, to
/// that client's FIFO outbox (a pool thread marshals its kPoint before it
/// takes the mutex). The first thread to find a client's outbox idle after
/// appending becomes its only sender and drains it through the bus outside
/// the mutex; other threads only append. So the outbox holds a client's
/// messages in scheduling order, the bus receives them one call after
/// another in that order, and transports deliver per-sender FIFO: a client
/// sees its kAccepted before any kPoint and every kPoint before kDone.
///
/// A send that fails (a detached terminal, a dead connection) retires all
/// of that client's active and queued sweeps as a cancel would, and the
/// client is sent nothing further; the freed slots admit queued sweeps.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "soc/core/dse_session.hpp"
#include "soc/core/dse_wire.hpp"
#include "soc/dsoc/marshal.hpp"
#include "soc/tlm/transport.hpp"

namespace soc::svc {

/// dsoc object id the service answers to.
inline constexpr dsoc::ObjectId kServiceObjectId = 1;
/// Well-known terminal the service listens on (clients attach elsewhere).
inline constexpr noc::TerminalId kServiceTerminal = 0;

/// Method ids of the service protocol (see file comment for payloads).
namespace svc_method {
inline constexpr dsoc::MethodId kSubmit = 1;      ///< client -> service
inline constexpr dsoc::MethodId kCancel = 2;      ///< client -> service
inline constexpr dsoc::MethodId kAccepted = 10;   ///< service -> client
inline constexpr dsoc::MethodId kBusy = 11;       ///< service -> client
inline constexpr dsoc::MethodId kPoint = 12;      ///< service -> client
inline constexpr dsoc::MethodId kDone = 13;       ///< service -> client
inline constexpr dsoc::MethodId kCancelled = 14;  ///< service -> client
inline constexpr dsoc::MethodId kError = 15;      ///< service -> client
}  // namespace svc_method

/// kPoint stage values.
inline constexpr std::uint32_t kStageEvaluated = 0;
inline constexpr std::uint32_t kStageValidated = 1;

/// Capacity knobs of a DseService.
struct DseServiceConfig {
  /// Shared evaluation pool width; 0 means hardware_concurrency.
  int pool_threads = 0;
  /// Sweeps evaluated concurrently; submissions beyond this queue.
  int max_active = 2;
  /// Admission queue depth; submissions beyond active+queued get kBusy.
  int max_queued = 4;
};

/// Monotonic service counters (snapshot via DseService::stats()).
struct ServiceStats {
  std::uint64_t submitted = 0;      ///< kSubmit calls with a reply address
  std::uint64_t accepted = 0;       ///< sweeps admitted (active or queued)
  std::uint64_t rejected_busy = 0;  ///< kBusy replies sent
  std::uint64_t completed = 0;      ///< kDone sent
  std::uint64_t cancelled = 0;      ///< kCancelled sent, or client gone
  std::uint64_t errors = 0;         ///< kError sent
  std::uint64_t points_streamed = 0;  ///< kPoint messages queued to send
};

/// The multiplexing DSE daemon (see file comment). Attach it to any
/// MessageBus — LoopbackTransport for in-process tests, SocketTransport
/// for a real TCP deployment — and it serves until stop().
class DseService final : public tlm::Endpoint {
 public:
  /// Attaches the service to `terminal` of `bus` and starts the pool.
  DseService(tlm::MessageBus& bus, noc::TerminalId terminal,
             DseServiceConfig cfg = {});
  /// Calls stop().
  ~DseService() override;

  DseService(const DseService&) = delete;             ///< non-copyable
  DseService& operator=(const DseService&) = delete;  ///< non-copyable

  /// Decodes one protocol message (invoked by the bus dispatcher).
  void handle(const tlm::Transaction& request, tlm::CompletionFn done) override;

  /// Stops scheduling, joins the pool, abandons unfinished sweeps.
  /// Idempotent; the service sends nothing after stop() returns.
  void stop();

  /// Counter snapshot.
  ServiceStats stats() const;
  /// Sweeps currently evaluating or validating.
  std::size_t active_sweeps() const;
  /// Sweeps waiting for a pool slot.
  std::size_t queued_sweeps() const;

 private:
  /// One admitted sweep: its kernel, its owner, and its progress through
  /// phase 0 (evaluate every flat index) and phase 1 (validate the front).
  struct Job {
    std::uint32_t id = 0;
    noc::TerminalId client = 0;
    std::uint32_t tag = 0;
    std::shared_ptr<core::ShardEvaluator> shard;
    std::size_t total = 0;  ///< grid point count

    int phase = 0;  ///< 0 evaluating, 1 validating
    bool cancelled = false;
    bool failed = false;
    std::size_t next = 0;       ///< next flat index to hand out
    std::size_t completed = 0;  ///< evaluations recorded

    /// Phase-0 results in completion order (no grid is built up front).
    core::SweepArrivals arrivals;
    /// Laid out and front-marked at the phase-0 -> phase-1 transition;
    /// phase 1 validates layout.front.
    core::SweepLayout layout;
    std::size_t vnext = 0;  ///< next layout.front entry to hand out
    std::size_t vdone = 0;  ///< validations recorded

    /// True while the sweep has an unclaimed evaluation or validation.
    bool has_unit() const {
      if (cancelled || failed) return false;
      return phase == 0 ? next < total : vnext < layout.front.size();
    }
  };

  /// One unit of pool work: an evaluation or a validation of one index.
  struct WorkItem {
    std::shared_ptr<Job> job;
    int phase = 0;
    std::size_t index = 0;   ///< flat index (phase 0) / point index (1)
    std::size_t parent = 0;  ///< replay pair for phase 1
  };

  void pool_loop();
  bool have_work_locked() const;
  bool take_work_locked(WorkItem& out);
  bool claim_unit_locked(const std::shared_ptr<Job>& job, WorkItem& out);
  void record_eval_locked(const std::shared_ptr<Job>& job, std::size_t flat,
                          core::FlatPointEval ev);
  void record_validated_locked(const std::shared_ptr<Job>& job,
                               std::size_t index, core::DsePoint pt);
  void finish_phase0_locked(const std::shared_ptr<Job>& job);
  void complete_locked(const std::shared_ptr<Job>& job);
  void fail_locked(const std::shared_ptr<Job>& job, const std::string& what);
  void retire_locked(std::uint32_t job_id);
  void admit_queued_locked();
  void activate_locked(const std::shared_ptr<Job>& job);
  void on_submit(std::vector<std::uint32_t> args);
  void submit_locked(noc::TerminalId client, std::uint32_t tag,
                     const std::shared_ptr<Job>& job, const std::string& error);
  void on_cancel(std::vector<std::uint32_t> args);
  void cancel_locked(noc::TerminalId client, std::uint32_t id);

  /// Appends a marshalled message to `client`'s outbox.
  void post_locked(noc::TerminalId client, std::vector<std::uint32_t> body);
  /// Ends a critical section that may have posted to `client`: unless
  /// another thread is already sending to it, this thread drains the
  /// client's outbox through the bus, releasing `lock` while it sends.
  /// Returns with `lock` held.
  void flush(std::unique_lock<std::mutex>& lock, noc::TerminalId client);
  /// A send to `client` failed: retires its active and queued sweeps as a
  /// cancel does, without a kCancelled.
  void retire_client_locked(noc::TerminalId client);
  /// True while some thread drains an outbox.
  bool sending_locked() const;

  tlm::MessageBus& bus_;
  noc::TerminalId terminal_ = kServiceTerminal;
  DseServiceConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< pool: work available / stop
  std::condition_variable idle_cv_;  ///< stop(): no outbox is draining
  bool stop_ = false;
  std::uint32_t next_sweep_id_ = 1;

  std::map<std::uint32_t, std::shared_ptr<Job>> active_;
  std::deque<std::shared_ptr<Job>> queued_;
  /// Round-robin state: clients in rotation order, each with its active
  /// job ids in rotation order. take_work advances both rotations so pool
  /// capacity is shared fairly across clients first, then across one
  /// client's sweeps.
  std::deque<noc::TerminalId> client_rr_;
  std::map<noc::TerminalId, std::deque<std::uint32_t>> client_jobs_;

  /// One client's marshalled messages, in the order they were posted.
  struct Outbox {
    std::deque<std::vector<std::uint32_t>> queue;
    bool sending = false;  ///< a thread drains it (see flush)
  };
  /// Outboxes of the clients that have sweeps or messages in flight.
  std::map<noc::TerminalId, Outbox> outboxes_;

  ServiceStats stats_;
  std::vector<std::thread> pool_;
};

}  // namespace soc::svc
