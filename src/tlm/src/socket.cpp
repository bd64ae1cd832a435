#include "soc/tlm/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace soc::tlm {
namespace {

/// Frame word 0: 'S' 'O' 'C' + protocol version 1.
constexpr std::uint32_t kFrameMagic = 0x534F4301u;
/// Header: magic, initiator, target, nwords.
constexpr std::size_t kHeaderBytes = 16;
/// Refuse absurd frames before allocating (16 Mi words = 64 MiB payload).
constexpr std::uint32_t kMaxFrameWords = 1u << 24;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFFu));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFFu));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFFu));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFFu));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Reads exactly `n` bytes; false on EOF or error.
bool read_full(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
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
bool write_full(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
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
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  Connection* raw = conn.get();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    conns_.push_back(std::move(conn));
  }
  raw->reader = std::thread([this, raw] { reader_loop(*raw); });
  raw->writer = std::thread([this, raw] { writer_loop(*raw); });
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

void SocketTransport::reader_loop(Connection& conn) {
  std::uint8_t header[kHeaderBytes];
  for (;;) {
    if (!read_full(conn.fd, header, kHeaderBytes)) break;  // peer closed
    const std::uint32_t magic = get_u32(header);
    const noc::TerminalId initiator = get_u32(header + 4);
    const noc::TerminalId target = get_u32(header + 8);
    const std::uint32_t nwords = get_u32(header + 12);
    if (magic != kFrameMagic) {
      record_error("bad frame magic from peer");
      break;
    }
    if (nwords > kMaxFrameWords) {
      record_error("oversized frame from peer");
      break;
    }
    std::vector<std::uint8_t> raw(static_cast<std::size_t>(nwords) * 4);
    if (!read_full(conn.fd, raw.data(), raw.size())) {
      record_error("truncated frame from peer");
      break;
    }
    std::vector<std::uint32_t> body(nwords);
    for (std::uint32_t i = 0; i < nwords; ++i) body[i] = get_u32(&raw[i * 4]);
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    {
      // Learn the return route: anything this peer sends tells us its
      // terminal lives behind this connection.
      const std::lock_guard<std::mutex> lock(mu_);
      routes_[initiator] = &conn;
    }
    try {
      // Serial decode per connection + the loopback's FIFO mailbox keep
      // per-sender ordering intact end to end.
      local_.message(initiator, target, std::move(body));
    } catch (const std::exception& e) {
      record_error(std::string("inbound frame dropped: ") + e.what());
    }
  }
  // The peer closed or broke the stream: it is gone, so sends to it now
  // throw instead of queueing frames nobody will read.
  const std::lock_guard<std::mutex> lock(conn.mu);
  conn.dead = true;
}

void SocketTransport::writer_loop(Connection& conn) {
  for (;;) {
    std::vector<std::uint8_t> bytes;
    {
      std::unique_lock<std::mutex> lock(conn.mu);
      conn.cv.wait(lock, [&conn] { return conn.stop || !conn.outbox.empty(); });
      if (conn.outbox.empty()) break;  // stop requested and fully flushed
      bytes = std::move(conn.outbox.front());
      conn.outbox.pop_front();
    }
    if (!write_full(conn.fd, bytes.data(), bytes.size())) {
      record_error("frame write failed");
      const std::lock_guard<std::mutex> lock(conn.mu);
      conn.dead = true;
      conn.outbox.clear();
      break;
    }
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  // Half-close tells the peer's reader we are done sending.
  ::shutdown(conn.fd, SHUT_WR);
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

std::uint64_t SocketTransport::message(noc::TerminalId initiator,
                                       noc::TerminalId target,
                                       std::vector<std::uint32_t> body,
                                       CompletionFn delivered) {
  Connection* conn = nullptr;
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
    } else if (!is_server_ && !conns_.empty()) {
      // Client default route: everything non-local goes to the server.
      conn = conns_.front().get();
    } else {
      throw std::invalid_argument("SocketTransport: no route to terminal " +
                                  std::to_string(target));
    }
  }
  if (local) return local_.message(initiator, target, std::move(body), delivered);

  std::vector<std::uint8_t> bytes;
  bytes.reserve(kHeaderBytes + body.size() * 4);
  put_u32(bytes, kFrameMagic);
  put_u32(bytes, initiator);
  put_u32(bytes, target);
  put_u32(bytes, static_cast<std::uint32_t>(body.size()));
  for (const std::uint32_t w : body) put_u32(bytes, w);
  remote_words_.fetch_add(body.size(), std::memory_order_relaxed);
  enqueue_frame(*conn, std::move(bytes));
  if (delivered) {
    // Same contract as LoopbackTransport: the callback reports acceptance
    // on the sending thread, not remote receipt.
    Transaction done;
    done.type = TransactionType::kMessage;
    done.initiator = initiator;
    done.target = target;
    delivered(done);
  }
  return 0;
}

void SocketTransport::enqueue_frame(Connection& conn,
                                    std::vector<std::uint8_t> bytes) {
  {
    const std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.dead) {
      throw std::runtime_error("SocketTransport: connection is down");
    }
    conn.outbox.push_back(std::move(bytes));
  }
  conn.cv.notify_one();
}

void SocketTransport::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Stop accepting first so conns_ is stable below. On Linux a shutdown()
  // of the listening socket unblocks accept() with an error.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& conn : conns_) {
    {
      const std::lock_guard<std::mutex> lock(conn->mu);
      conn->stop = true;
    }
    conn->cv.notify_all();
    if (conn->writer.joinable()) conn->writer.join();  // flushes outbox
    // Writer already half-closed SHUT_WR; cut the read side so the reader
    // unblocks even if the peer keeps its end open.
    ::shutdown(conn->fd, SHUT_RD);
    if (conn->reader.joinable()) conn->reader.join();
    ::close(conn->fd);
    conn->fd = -1;
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
