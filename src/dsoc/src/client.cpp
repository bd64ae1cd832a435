#include "soc/dsoc/client.hpp"

#include <stdexcept>

namespace soc::dsoc {

ClientPort::ClientPort(noc::TerminalId terminal, tlm::MessageBus& transport)
    : terminal_(terminal), transport_(transport) {
  transport_.attach(terminal_, *this);
}

void ClientPort::handle(const tlm::Transaction& request,
                        tlm::CompletionFn respond) {
  if (request.type != tlm::TransactionType::kMessage) {
    if (respond) respond(request);
    return;
  }
  std::vector<std::uint32_t> results;
  const CallId call = unmarshal_reply(request.payload, results);
  const auto it = pending_.find(call);
  if (it == pending_.end()) {
    throw std::logic_error("ClientPort: reply for unknown call id");
  }
  auto cb = std::move(it->second);
  pending_.erase(it);
  ++replies_;
  if (cb) cb(std::move(results));
}

CallId ClientPort::register_call(
    std::function<void(std::vector<std::uint32_t>)> cb) {
  const CallId id = next_call_++;
  pending_.emplace(id, std::move(cb));
  return id;
}

Proxy::Proxy(ObjectRef ref, ClientPort& port, tlm::MessageBus& transport)
    : ref_(ref), port_(port), transport_(transport) {}

void Proxy::oneway(MethodId method, std::vector<std::uint32_t> args) {
  CallHeader hdr{ref_.id, method, 0, kNoReply};
  ++issued_;
  transport_.message(port_.terminal(), ref_.terminal,
                     marshal_call(hdr, args));
}

void Proxy::call(MethodId method, std::vector<std::uint32_t> args,
                 std::function<void(std::vector<std::uint32_t>)> on_result) {
  const CallId id = port_.register_call(std::move(on_result));
  CallHeader hdr{ref_.id, method, id, port_.terminal()};
  ++issued_;
  transport_.message(port_.terminal(), ref_.terminal,
                     marshal_call(hdr, args));
}

}  // namespace soc::dsoc
