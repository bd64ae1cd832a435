#include "soc/tlm/loopback.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace soc::tlm {

LoopbackTransport::~LoopbackTransport() { shutdown(); }

void LoopbackTransport::attach(noc::TerminalId terminal, Endpoint& ep) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shut_down_ || draining_) {
    throw std::logic_error("LoopbackTransport: attach after shutdown");
  }
  if (boxes_.count(terminal) != 0) {
    throw std::logic_error("LoopbackTransport: terminal " +
                           std::to_string(terminal) + " already attached");
  }
  auto box = std::make_unique<Mailbox>();
  box->ep = &ep;
  Mailbox* raw = box.get();
  boxes_.emplace(terminal, std::move(box));
  lock.unlock();
  // Started outside the registry lock: the thread only touches its own
  // mailbox, which is fully constructed and pinned (unique_ptr in a map
  // node) by now.
  raw->dispatcher = std::thread([this, raw] { dispatch_loop(*raw); });
}

std::uint64_t LoopbackTransport::message(noc::TerminalId initiator,
                                         noc::TerminalId target,
                                         std::vector<std::uint32_t> body,
                                         CompletionFn delivered) {
  Mailbox* box = nullptr;
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) {
      throw std::logic_error("LoopbackTransport: message after shutdown");
    }
    const auto it = boxes_.find(target);
    if (it == boxes_.end()) {
      throw std::invalid_argument(
          "LoopbackTransport: no endpoint at terminal " +
          std::to_string(target));
    }
    box = it->second.get();
    id = next_id_++;
  }
  words_.fetch_add(body.size(), std::memory_order_relaxed);
  Transaction txn;
  txn.id = id;
  txn.type = TransactionType::kMessage;
  txn.initiator = initiator;
  txn.target = target;
  txn.payload = std::move(body);
  {
    const std::lock_guard<std::mutex> lock(box->mu);
    // `delivered` rides along by wrapping the queue entry: the dispatcher
    // invokes handle() then the callback, both outside the mailbox lock.
    box->queue.push_back(std::move(txn));
  }
  enqueued_.fetch_add(1, std::memory_order_release);
  box->cv.notify_one();
  if (delivered) {
    // Completion callbacks are rare on this bus (the DSE service protocol
    // is fully one-way); keep the common path allocation-free by invoking the
    // callback on the *sending* thread with the post-enqueue view. The
    // simulated Transport fires on true delivery instead; callers that
    // need that ordering poll their own protocol-level acks.
    Transaction done;
    done.id = id;
    done.type = TransactionType::kMessage;
    done.initiator = initiator;
    done.target = target;
    delivered(done);
  }
  return id;
}

void LoopbackTransport::dispatch_loop(Mailbox& box) {
  for (;;) {
    Transaction txn;
    {
      std::unique_lock<std::mutex> lock(box.mu);
      box.cv.wait(lock, [&box] { return box.stop || !box.queue.empty(); });
      if (box.queue.empty()) return;  // stop requested and fully drained
      txn = std::move(box.queue.front());
      box.queue.pop_front();
      box.busy = true;
    }
    // handle() runs outside the mailbox lock so an endpoint may send
    // messages (even to itself) without deadlocking.
    box.ep->handle(txn, nullptr);
    delivered_.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(box.mu);
      box.busy = false;
    }
    // Wakes shutdown()'s quiescence pass as well as this loop's own wait.
    box.cv.notify_all();
  }
}

void LoopbackTransport::wait_idle(Mailbox& box) {
  std::unique_lock<std::mutex> lock(box.mu);
  box.cv.wait(lock, [&box] { return box.queue.empty() && !box.busy; });
}

void LoopbackTransport::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shut_down_) return;
    if (draining_) {
      // Another thread is already draining; block until it finishes so
      // "shutdown returned" always means "bus quiesced".
      state_cv_.wait(lock, [this] { return shut_down_; });
      return;
    }
    draining_ = true;  // message() stays legal: in-flight relays must land
  }
  // Quiescence loop: a pass waits for every mailbox to be empty and idle;
  // an endpoint relaying mid-drain bumps enqueued_, which restarts the
  // pass until a full sweep observes no new traffic. Only then is it safe
  // to stop the dispatchers — nothing queued can be left behind.
  for (;;) {
    const std::uint64_t mark = enqueued_.load(std::memory_order_acquire);
    for (auto& [terminal, box] : boxes_) {
      (void)terminal;
      wait_idle(*box);
    }
    if (enqueued_.load(std::memory_order_acquire) == mark) break;
  }
  for (auto& [terminal, box] : boxes_) {
    (void)terminal;
    {
      const std::lock_guard<std::mutex> box_lock(box->mu);
      box->stop = true;
    }
    box->cv.notify_all();
    if (box->dispatcher.joinable()) box->dispatcher.join();
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shut_down_ = true;
    draining_ = false;
  }
  state_cv_.notify_all();
}

std::uint64_t LoopbackTransport::messages_delivered() const noexcept {
  return delivered_.load(std::memory_order_relaxed);
}

std::uint64_t LoopbackTransport::words_on_wire() const noexcept {
  return words_.load(std::memory_order_relaxed);
}

std::size_t LoopbackTransport::endpoint_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return boxes_.size();
}

}  // namespace soc::tlm
