#include "soc/tlm/transport.hpp"

#include <stdexcept>

namespace soc::tlm {

Transport::Transport(noc::Network& network, sim::EventQueue& queue)
    : net_(network), queue_(queue) {
  net_.set_deliver([this](const noc::Packet& pkt) { on_delivery(pkt); });
}

void Transport::attach(noc::TerminalId terminal, Endpoint& ep) {
  if (!endpoints_.emplace(terminal, &ep).second) {
    throw std::logic_error("Transport::attach: terminal already has an endpoint");
  }
}

std::uint64_t Transport::launch(Transaction txn, CompletionFn done) {
  txn.id = next_id_++;
  txn.issued_at = queue_.now();
  const std::uint32_t req_words =
      txn.type == TransactionType::kRead
          ? 1  // read request carries only the address word
          : static_cast<std::uint32_t>(txn.payload.size());
  const std::uint64_t tag = txn.id;
  const auto src = txn.initiator;
  const auto dst = txn.target;
  ++issued_;
  pending_.emplace(tag, PendingEntry{std::move(txn), std::move(done), false});
  net_.inject(src, dst, packet_flits_for(req_words), tag);
  return tag;
}

std::uint64_t Transport::read(noc::TerminalId initiator, noc::TerminalId target,
                              std::uint32_t address, std::uint32_t words,
                              CompletionFn done) {
  if (words == 0) throw std::invalid_argument("Transport::read: zero words");
  Transaction txn;
  txn.type = TransactionType::kRead;
  txn.initiator = initiator;
  txn.target = target;
  txn.address = address;
  txn.read_words = words;
  return launch(std::move(txn), std::move(done));
}

std::uint64_t Transport::write(noc::TerminalId initiator, noc::TerminalId target,
                               std::uint32_t address,
                               std::vector<std::uint32_t> data,
                               CompletionFn done) {
  Transaction txn;
  txn.type = TransactionType::kWrite;
  txn.initiator = initiator;
  txn.target = target;
  txn.address = address;
  txn.payload = std::move(data);
  return launch(std::move(txn), std::move(done));
}

void Transport::message(noc::TerminalId initiator, noc::TerminalId target,
                        std::vector<std::uint32_t> body) {
  Transaction txn;
  txn.type = TransactionType::kMessage;
  txn.initiator = initiator;
  txn.target = target;
  txn.payload = std::move(body);
  launch(std::move(txn), nullptr);
}

void Transport::on_delivery(const noc::Packet& pkt) {
  const auto it = pending_.find(pkt.tag);
  if (it == pending_.end()) {
    throw std::logic_error("Transport: delivery for unknown transaction tag");
  }
  PendingEntry& entry = it->second;

  if (!entry.response_leg) {
    // Request packet arrived at the target endpoint.
    const auto ep_it = endpoints_.find(entry.txn.target);
    if (ep_it == endpoints_.end()) {
      throw std::logic_error("Transport: request to terminal with no endpoint");
    }
    if (entry.txn.type == TransactionType::kMessage) {
      // One-way: complete immediately at delivery.
      Transaction txn = std::move(entry.txn);
      pending_.erase(it);
      txn.completed_at = queue_.now();
      ++completed_;
      rtt_.push(static_cast<double>(txn.round_trip()));
      ep_it->second->handle(txn, nullptr);
      return;
    }
    entry.response_leg = true;
    const std::uint64_t tag = pkt.tag;
    // The endpoint services the request (taking however many cycles its
    // model requires) and then the response packet is injected back.
    ep_it->second->handle(
        entry.txn, [this, tag](const Transaction& serviced) {
          const auto pit = pending_.find(tag);
          if (pit == pending_.end()) {
            throw std::logic_error("Transport: response for vanished transaction");
          }
          PendingEntry& pe = pit->second;
          // Endpoints may fill payload for reads.
          pe.txn.payload = serviced.payload;
          const std::uint32_t resp_words =
              pe.txn.type == TransactionType::kRead
                  ? pe.txn.read_words
                  : 0;  // write ack is header-only
          net_.inject(pe.txn.target, pe.txn.initiator,
                      packet_flits_for(resp_words), tag);
        });
    return;
  }

  // Response packet arrived back at the initiator.
  Transaction txn = std::move(entry.txn);
  CompletionFn done = std::move(entry.done);
  pending_.erase(it);
  txn.completed_at = queue_.now();
  ++completed_;
  rtt_.push(static_cast<double>(txn.round_trip()));
  if (done) done(txn);
}

}  // namespace soc::tlm
