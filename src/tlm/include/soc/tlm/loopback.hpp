#pragma once

/// \file
/// In-process loopback MessageBus over real host threads.
///
/// The DSE service (soc/svc/dse_service.hpp) marshals its traffic exactly
/// as a TCP deployment would, but an in-process client and service are host
/// threads of one process. LoopbackTransport is the bus that makes that
/// real: each attached terminal owns a FIFO mailbox drained by a
/// dedicated dispatcher thread, so endpoints at different terminals handle
/// messages genuinely concurrently while each single endpoint sees a
/// serialized, sender-ordered stream (the same per-terminal ordering the
/// simulated Transport provides). Word counters meter bytes-on-wire.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "soc/tlm/transport.hpp"

namespace soc::tlm {

/// Threaded in-process MessageBus: kMessage payloads cross a per-terminal
/// mailbox + dispatcher thread instead of a simulated NoC. Messages from
/// one sender to one terminal are delivered in send order; endpoints at
/// distinct terminals run concurrently (their handle() calls are invoked
/// from different dispatcher threads, so shared endpoint state needs its
/// own synchronization). The destructor drains every mailbox and joins the
/// dispatchers.
class LoopbackTransport final : public MessageBus {
 public:
  LoopbackTransport() = default;
  /// Drains and joins every dispatcher (see shutdown()).
  ~LoopbackTransport() override;

  LoopbackTransport(const LoopbackTransport&) = delete;             ///< non-copyable
  LoopbackTransport& operator=(const LoopbackTransport&) = delete;  ///< non-copyable

  /// Attaches `ep` (not owned) to `terminal` and starts its dispatcher
  /// thread. Throws std::logic_error when the terminal is already attached
  /// or the bus has been shut down.
  void attach(noc::TerminalId terminal, Endpoint& ep) override;

  /// Enqueues a one-way message into `target`'s mailbox; the target's
  /// dispatcher thread invokes Endpoint::handle and then `delivered` (on
  /// that thread). Throws std::invalid_argument when no endpoint is
  /// attached at `target`. Safe to call from any thread, including from
  /// inside another endpoint's handle().
  std::uint64_t message(noc::TerminalId initiator, noc::TerminalId target,
                        std::vector<std::uint32_t> body,
                        CompletionFn delivered = nullptr) override;

  /// Delivers every queued message — including messages endpoints send
  /// *while draining* (an endpoint relaying from inside handle() keeps the
  /// bus open until the whole cascade is delivered) — then stops and joins
  /// all dispatcher threads. Idempotent; concurrent callers block until the
  /// first finishes; attach() during the drain and message()/attach() after
  /// shutdown throw. Callers that need a quiescent bus before tearing down
  /// endpoints call this explicitly (the destructor calls it otherwise).
  void shutdown();

  /// Messages delivered to endpoints so far.
  std::uint64_t messages_delivered() const noexcept;
  /// Sum of payload body sizes over all accepted messages, 32-bit words.
  std::uint64_t words_on_wire() const noexcept;
  /// Number of attached terminals.
  std::size_t endpoint_count() const;

 private:
  /// One terminal's FIFO mailbox and the thread that drains it.
  struct Mailbox {
    Endpoint* ep = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Transaction> queue;
    bool stop = false;  ///< drain remaining, then exit
    bool busy = false;  ///< dispatcher currently inside handle()
    std::thread dispatcher;
  };

  void dispatch_loop(Mailbox& box);
  /// Blocks until `box` has an empty queue and an idle dispatcher.
  static void wait_idle(Mailbox& box);

  mutable std::mutex mu_;  ///< guards boxes_ / next_id_ / state flags
  std::condition_variable state_cv_;  ///< concurrent shutdown() callers
  std::map<noc::TerminalId, std::unique_ptr<Mailbox>> boxes_;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;   ///< shutdown drain in progress: sends still legal
  bool shut_down_ = false;  ///< fully quiesced: sends/attaches throw
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> words_{0};
  std::atomic<std::uint64_t> enqueued_{0};  ///< quiescence-pass change detector
};

}  // namespace soc::tlm
