#pragma once

/// \file
/// Real TCP MessageBus: the loopback's semantics over an actual socket.
///
/// SocketTransport lets the endpoints of a message protocol live in
/// different processes (or machines) while presenting the exact
/// MessageBus interface the in-process transports do. Each side embeds a
/// private LoopbackTransport for its *local* terminals — attach() and
/// local delivery reuse the per-terminal FIFO mailbox + dispatcher-thread
/// machinery verbatim — and every message addressed to a non-local
/// terminal is packed into a length-prefixed frame and shipped over TCP.
///
/// Frame layout (little-endian 32-bit words on the wire):
///
///   [magic/version][initiator][target][nwords][payload word 0..n-1]
///
/// A server (`listen`) accepts any number of client connections, each
/// with its own reader and writer thread, and learns its outbound route
/// table from the initiator field of inbound frames: after a client at
/// terminal T sends anything, messages addressed to T go back down that
/// connection. A client (`connect`) has exactly one connection and sends
/// every non-local message down it. A connection whose reader sees EOF or
/// a read error, or whose write fails, is dead from then on: sends routed
/// to it throw at once rather than queue frames nobody will read. Its
/// reader then reaps it: the writer flushes what was queued and exits,
/// the socket is closed, the connection leaves the connection list and
/// the route table, and the reader ends (its handle is joined at the next
/// accept or at shutdown), so a long-running server holds threads and
/// file descriptors only for its live peers. Word metering matches
/// LoopbackTransport: every accepted message's payload size is counted
/// once on the sending side (local sends by the embedded loopback, remote
/// sends by the frame writer).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "soc/tlm/loopback.hpp"
#include "soc/tlm/transport.hpp"

namespace soc::tlm {

/// TCP-backed MessageBus. Construct with listen() (server side) or
/// connect() (client side); both sides then attach local endpoints and
/// exchange one-way messages exactly as over a LoopbackTransport. Frames
/// from one connection are decoded serially by that connection's reader
/// thread, so the per-sender FIFO ordering guarantee survives the wire.
class SocketTransport final : public MessageBus {
 public:
  /// Binds and listens on `port` (0 picks an ephemeral port — read it
  /// back with port()) and starts the accept thread. Throws
  /// std::runtime_error when the socket cannot be bound.
  static std::unique_ptr<SocketTransport> listen(std::uint16_t port);

  /// Connects to a listening SocketTransport, retrying refused
  /// connections until `timeout_ms` elapses (covers the daemon-still-
  /// starting race in scripted runs). Throws std::runtime_error on
  /// timeout or resolution failure.
  static std::unique_ptr<SocketTransport> connect(const std::string& host,
                                                  std::uint16_t port,
                                                  int timeout_ms = 5000);

  /// Calls shutdown().
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;             ///< non-copyable
  SocketTransport& operator=(const SocketTransport&) = delete;  ///< non-copyable

  /// Attaches `ep` (not owned) at `terminal` on *this* side of the wire
  /// and starts its dispatcher thread. Terminal numbers are a single
  /// shared namespace across the whole deployment: the protocol layer
  /// assigns them so no two processes claim the same terminal.
  void attach(noc::TerminalId terminal, Endpoint& ep) override;

  /// Sends a one-way message. Local targets go through the embedded
  /// loopback; remote targets are framed and enqueued to the connection's
  /// writer thread (server: the connection that terminal was learned
  /// from; client: the single connection). Throws std::invalid_argument
  /// when the target is neither local nor routable (a server's route goes
  /// once its connection is reaped), std::logic_error after shutdown, and
  /// std::runtime_error when the target's connection is dead: its reader
  /// saw EOF (the peer closed) or a read or write on it failed.
  void message(noc::TerminalId initiator, noc::TerminalId target,
               std::vector<std::uint32_t> body) override;

  /// Flushes every connection's outbox, closes the sockets, joins the
  /// accept/reader/writer threads, then drains the embedded loopback
  /// (see LoopbackTransport::shutdown). Idempotent.
  void shutdown();

  /// The locally bound TCP port (useful after listen(0)).
  std::uint16_t port() const noexcept { return port_; }

  /// Payload words accepted for delivery on this side (local + framed).
  std::uint64_t words_on_wire() const noexcept;
  /// Messages dispatched into local endpoints on this side.
  std::uint64_t messages_delivered() const noexcept;
  /// Frames written to TCP connections.
  std::uint64_t frames_sent() const noexcept;
  /// Frames decoded off TCP connections.
  std::uint64_t frames_received() const noexcept;
  /// Live TCP connections: accepted and not yet reaped (client: 0 or 1).
  std::size_t connection_count() const;
  /// First protocol/socket error observed, empty when none.
  std::string last_error() const;

 private:
  /// One TCP peer: the socket plus its reader/writer threads. The writer
  /// drains `outbox` in order and exits only once it is empty and `stop`
  /// is set, so shutdown never truncates queued frames. The reader joins
  /// the writer when it exits. Held by shared_ptr so a message() that
  /// looked the connection up keeps it alive while it is reaped.
  struct Connection {
    int fd = -1;
    std::thread reader;
    std::thread writer;
    std::mutex mu;
    std::condition_variable cv;
    /// Whole frames, header words first.
    std::deque<std::vector<std::uint32_t>> outbox;
    bool stop = false;
    /// The peer closed (reader EOF) or the socket failed (read or write
    /// error); sends to it now throw.
    bool dead = false;
  };

  SocketTransport() = default;

  void start_connection(int fd);
  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void writer_loop(Connection& conn);
  void record_error(const std::string& what);
  void enqueue_frame(Connection& conn, std::vector<std::uint32_t> frame);

  LoopbackTransport local_;  ///< local terminals: mailbox + dispatcher

  /// Guards terminals_, routes_, conns_, reaped_readers_ and the state.
  mutable std::mutex mu_;
  std::set<noc::TerminalId> local_terminals_;
  /// Server-side outbound routes, learned from inbound frame initiators.
  std::map<noc::TerminalId, std::shared_ptr<Connection>> routes_;
  std::vector<std::shared_ptr<Connection>> conns_;
  /// Readers of reaped connections, which have ended or are ending;
  /// joined by the next start_connection() and by shutdown().
  std::vector<std::thread> reaped_readers_;
  bool shut_down_ = false;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::uint16_t port_ = 0;
  bool is_server_ = false;

  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> remote_words_{0};

  mutable std::mutex err_mu_;
  std::string last_error_;
};

}  // namespace soc::tlm
