#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "soc/noc/network.hpp"
#include "soc/sim/event_queue.hpp"
#include "soc/sim/stats.hpp"
#include "soc/tlm/transaction.hpp"

namespace soc::tlm {

/// Completion callback for a split transaction: receives the finished
/// transaction (reads: payload holds returned data).
using CompletionFn = std::function<void(const Transaction&)>;

/// A slave endpoint attached to a NoC terminal. Implementations model
/// memories, hardware IP blocks, I/O controllers and DSOC skeletons.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Handles an incoming request. The endpoint must eventually call
  /// `respond` exactly once for kRead/kWrite transactions (with data for
  /// reads) and must not call it for kMessage transactions.
  virtual void handle(const Transaction& request, CompletionFn respond) = 0;
};

/// The minimal message-passing surface the DSOC layer (broker, skeletons,
/// proxies, the DSE service) is written against: endpoint attachment plus
/// one-way kMessage delivery. Two implementations exist — the simulated
/// Transport below (messages ride NoC packets on the event queue) and
/// tlm::LoopbackTransport (loopback.hpp: messages cross real host threads)
/// — so the same marshalled bytes drive either a simulated platform or an
/// in-process distributed service without the DSOC code changing.
class MessageBus {
 public:
  virtual ~MessageBus() = default;

  /// Attaches `ep` (not owned) to `terminal`. One endpoint per terminal.
  virtual void attach(noc::TerminalId terminal, Endpoint& ep) = 0;

  /// One-way message: the endpoint at `target` receives `body` in its
  /// handle() (with a null `respond`), after every earlier message from
  /// the same sender to it. Nothing completes back to the sender.
  virtual void message(noc::TerminalId initiator, noc::TerminalId target,
                       std::vector<std::uint32_t> body) = 0;
};

/// Message-passing transport over the NoC: packetizes split transactions,
/// matches responses to outstanding requests and dispatches requests to
/// registered endpoints. One instance per platform.
class Transport : public MessageBus {
 public:
  Transport(noc::Network& network, sim::EventQueue& queue);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Attaches `ep` (not owned) to `terminal`. One endpoint per terminal.
  void attach(noc::TerminalId terminal, Endpoint& ep) override;

  /// Issues a split read of `words` 32-bit words. `done` fires when the
  /// response packet arrives back at `initiator`.
  std::uint64_t read(noc::TerminalId initiator, noc::TerminalId target,
                     std::uint32_t address, std::uint32_t words,
                     CompletionFn done);

  /// Issues a posted-then-acked write (ack keeps write latency observable).
  std::uint64_t write(noc::TerminalId initiator, noc::TerminalId target,
                      std::uint32_t address, std::vector<std::uint32_t> data,
                      CompletionFn done);

  /// One-way message (no response packet): the target endpoint's handle()
  /// runs when the packet is delivered, in simulated time.
  void message(noc::TerminalId initiator, noc::TerminalId target,
               std::vector<std::uint32_t> body) override;

  noc::Network& network() noexcept { return net_; }
  sim::EventQueue& queue() noexcept { return queue_; }

  // --- statistics ---
  std::uint64_t transactions_issued() const noexcept { return issued_; }
  std::uint64_t transactions_completed() const noexcept { return completed_; }
  const sim::SampleSet& round_trip_samples() const noexcept { return rtt_; }
  std::size_t outstanding() const noexcept { return pending_.size(); }

 private:
  /// In-flight bookkeeping: request payloads are kept here, NoC packets
  /// carry only (tag -> entry) references plus their true flit size.
  struct PendingEntry {
    Transaction txn;
    CompletionFn done;
    bool response_leg = false;  ///< true once the response packet is in flight
  };

  void on_delivery(const noc::Packet& pkt);
  std::uint64_t launch(Transaction txn, CompletionFn done);

  noc::Network& net_;
  sim::EventQueue& queue_;
  std::unordered_map<noc::TerminalId, Endpoint*> endpoints_;
  std::unordered_map<std::uint64_t, PendingEntry> pending_;
  std::uint64_t next_id_ = 1;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  sim::SampleSet rtt_;
};

}  // namespace soc::tlm
