#include "soc/tlm/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace soc::tlm {
namespace {

// Frames are sent and read as host words, which are the little-endian wire
// words only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "SocketTransport frames assume a little-endian host");

/// Frame word 0: 'S' 'O' 'C' + protocol version 1.
constexpr std::uint32_t kFrameMagic = 0x534F4301u;
/// Header: magic, initiator, target, nwords.
constexpr std::size_t kHeaderWords = 4;
/// Refuse absurd frames before allocating (16 Mi words = 64 MiB payload).
constexpr std::uint32_t kMaxFrameWords = 1u << 24;

/// Reads exactly `n` bytes; false on EOF or error.
bool read_full(int fd, void* buf, std::size_t n) {
  auto* bytes = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, bytes + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;  // peer closed (r == 0) or hard error
  }
  return true;
}

/// Writes exactly `n` bytes; false on error.
bool write_full(int fd, const void* buf, std::size_t n) {
  const auto* bytes = static_cast<const char*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, bytes + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

std::unique_ptr<SocketTransport> SocketTransport::listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("SocketTransport: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("SocketTransport: bind failed: ") +
                             std::strerror(err));
  }
  if (::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("SocketTransport: listen failed: ") +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);

  auto bus = std::unique_ptr<SocketTransport>(new SocketTransport());
  bus->listen_fd_ = fd;
  bus->port_ = ntohs(bound.sin_port);
  bus->is_server_ = true;
  bus->accept_thread_ = std::thread([raw = bus.get()] { raw->accept_loop(); });
  return bus;
}

std::unique_ptr<SocketTransport> SocketTransport::connect(
    const std::string& host, std::uint16_t port, int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    throw std::runtime_error("SocketTransport: cannot resolve host " + host);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int fd = -1;
  for (;;) {
    fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
    if (fd < 0) {
      ::freeaddrinfo(res);
      throw std::runtime_error("SocketTransport: socket() failed");
    }
    if (::connect(fd, res->ai_addr, res->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::freeaddrinfo(res);
      throw std::runtime_error("SocketTransport: connect to " + host + ":" +
                               service + " timed out");
    }
    // The daemon may still be binding its port; back off briefly and retry.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::freeaddrinfo(res);
  set_nodelay(fd);

  auto bus = std::unique_ptr<SocketTransport>(new SocketTransport());
  bus->is_server_ = false;
  bus->start_connection(fd);
  return bus;
}

SocketTransport::~SocketTransport() { shutdown(); }

void SocketTransport::start_connection(int fd) {
  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  // The reader joins the writer, so the writer's handle is set first; the
  // reader hands its own handle over under mu_, so that one is set under
  // mu_.
  conn->writer = std::thread([this, raw = conn.get()] { writer_loop(*raw); });
  std::vector<std::thread> reaped;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
    conns_.push_back(std::move(conn));
    reaped.swap(reaped_readers_);
  }
  for (std::thread& reader : reaped) reader.join();
}

void SocketTransport::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down
    }
    set_nodelay(fd);
    start_connection(fd);
  }
}

void SocketTransport::reader_loop(const std::shared_ptr<Connection>& conn) {
  std::uint32_t header[kHeaderWords];
  for (;;) {
    if (!read_full(conn->fd, header, sizeof header)) break;  // peer closed
    const auto [magic, initiator, target, nwords] = header;
    if (magic != kFrameMagic) {
      record_error("bad frame magic from peer");
      break;
    }
    if (nwords > kMaxFrameWords) {
      record_error("oversized frame from peer");
      break;
    }
    std::vector<std::uint32_t> body(nwords);
    if (!read_full(conn->fd, body.data(), nwords * sizeof(std::uint32_t))) {
      record_error("truncated frame from peer");
      break;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    {
      // Learn the return route: anything this peer sends tells us its
      // terminal lives behind this connection.
      const std::lock_guard<std::mutex> lock(mu_);
      routes_[initiator] = conn;
    }
    try {
      // Serial decode per connection + the loopback's FIFO mailbox keep
      // per-sender ordering intact end to end.
      local_.message(initiator, target, std::move(body));
    } catch (const std::exception& e) {
      record_error(std::string("inbound frame dropped: ") + e.what());
    }
  }
  // The peer closed or broke the stream, or the writer shut the socket
  // down: sends to it throw from now on, and the writer exits once it has
  // flushed what is queued.
  {
    const std::lock_guard<std::mutex> lock(conn->mu);
    conn->dead = true;
    conn->stop = true;
  }
  conn->cv.notify_all();
  conn->writer.join();
  // Reap the connection unless shutdown() is tearing everything down (it
  // joins this thread and closes the socket itself). A message() that
  // already holds the connection finds it dead. This thread ends right
  // after; the next start_connection() or shutdown() joins it.
  const std::lock_guard<std::mutex> lock(mu_);
  if (shut_down_) return;
  std::erase(conns_, conn);
  std::erase_if(routes_, [&conn](const auto& route) {
    return route.second == conn;
  });
  ::close(conn->fd);
  reaped_readers_.push_back(std::move(conn->reader));
}

void SocketTransport::writer_loop(Connection& conn) {
  for (;;) {
    std::vector<std::uint32_t> frame;
    {
      std::unique_lock<std::mutex> lock(conn.mu);
      conn.cv.wait(lock, [&conn] { return conn.stop || !conn.outbox.empty(); });
      if (conn.outbox.empty()) break;  // stop requested and fully flushed
      frame = std::move(conn.outbox.front());
      conn.outbox.pop_front();
    }
    if (!write_full(conn.fd, frame.data(),
                    frame.size() * sizeof(std::uint32_t))) {
      record_error("frame write failed");
      const std::lock_guard<std::mutex> lock(conn.mu);
      conn.dead = true;
      conn.outbox.clear();
      break;
    }
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  // Done sending: the peer's reader sees EOF, and the cut read side ends
  // this connection's reader.
  ::shutdown(conn.fd, SHUT_RDWR);
}

void SocketTransport::attach(noc::TerminalId terminal, Endpoint& ep) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) {
      throw std::logic_error("SocketTransport: attach after shutdown");
    }
    if (local_terminals_.count(terminal) != 0) {
      throw std::logic_error("SocketTransport: terminal " +
                             std::to_string(terminal) + " already attached");
    }
    local_terminals_.insert(terminal);
  }
  local_.attach(terminal, ep);
}

void SocketTransport::message(noc::TerminalId initiator,
                              noc::TerminalId target,
                              std::vector<std::uint32_t> body) {
  std::shared_ptr<Connection> conn;
  bool local = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) {
      throw std::logic_error("SocketTransport: message after shutdown");
    }
    if (local_terminals_.count(target) != 0) {
      local = true;
    } else if (const auto it = routes_.find(target); it != routes_.end()) {
      conn = it->second;
    } else if (!is_server_) {
      // Client default route: everything non-local goes to the server.
      if (conns_.empty()) {
        throw std::runtime_error("SocketTransport: connection is down");
      }
      conn = conns_.front();
    } else {
      throw std::invalid_argument("SocketTransport: no route to terminal " +
                                  std::to_string(target));
    }
  }
  if (local) return local_.message(initiator, target, std::move(body));

  std::vector<std::uint32_t> frame;
  frame.reserve(kHeaderWords + body.size());
  frame.insert(frame.end(), {kFrameMagic, initiator, target,
                             static_cast<std::uint32_t>(body.size())});
  frame.insert(frame.end(), body.begin(), body.end());
  remote_words_.fetch_add(body.size(), std::memory_order_relaxed);
  enqueue_frame(*conn, std::move(frame));
}

void SocketTransport::enqueue_frame(Connection& conn,
                                    std::vector<std::uint32_t> frame) {
  {
    const std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.dead) {
      throw std::runtime_error("SocketTransport: connection is down");
    }
    conn.outbox.push_back(std::move(frame));
  }
  conn.cv.notify_one();
}

void SocketTransport::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Stop accepting first so conns_ is stable below: readers stop reaping
  // once shut_down_ is set. On Linux a shutdown() of the listening socket
  // unblocks accept() with an error.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (std::thread& reader : reaped_readers_) reader.join();
  // Each writer flushes its outbox and shuts its socket down, which ends
  // the reader, and the reader joins the writer.
  for (const auto& conn : conns_) {
    {
      const std::lock_guard<std::mutex> lock(conn->mu);
      conn->stop = true;
    }
    conn->cv.notify_all();
  }
  for (const auto& conn : conns_) {
    conn->reader.join();
    ::close(conn->fd);
  }
  // Drain locally queued messages last (loopback semantics: nothing is
  // dropped, relays mid-drain included).
  local_.shutdown();
}

std::uint64_t SocketTransport::words_on_wire() const noexcept {
  return local_.words_on_wire() +
         remote_words_.load(std::memory_order_relaxed);
}

std::uint64_t SocketTransport::messages_delivered() const noexcept {
  return local_.messages_delivered();
}

std::uint64_t SocketTransport::frames_sent() const noexcept {
  return frames_sent_.load(std::memory_order_relaxed);
}

std::uint64_t SocketTransport::frames_received() const noexcept {
  return frames_received_.load(std::memory_order_relaxed);
}

std::size_t SocketTransport::connection_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return conns_.size();
}

std::string SocketTransport::last_error() const {
  const std::lock_guard<std::mutex> lock(err_mu_);
  return last_error_;
}

void SocketTransport::record_error(const std::string& what) {
  const std::lock_guard<std::mutex> lock(err_mu_);
  if (last_error_.empty()) last_error_ = what;
}

}  // namespace soc::tlm
