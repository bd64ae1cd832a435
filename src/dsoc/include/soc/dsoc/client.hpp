#pragma once

#include <functional>
#include <unordered_map>

#include "soc/dsoc/broker.hpp"
#include "soc/dsoc/marshal.hpp"

namespace soc::dsoc {

/// Client-side reply receiver: an endpoint that dispatches reply messages
/// to per-call callbacks. One per client terminal (I/O controller, host
/// bridge, test driver).
class ClientPort final : public tlm::Endpoint {
 public:
  ClientPort(noc::TerminalId terminal, tlm::MessageBus& transport);

  void handle(const tlm::Transaction& request,
              tlm::CompletionFn respond) override;

  noc::TerminalId terminal() const noexcept { return terminal_; }
  std::uint64_t replies_received() const noexcept { return replies_; }
  std::size_t outstanding_calls() const noexcept { return pending_.size(); }

 private:
  friend class Proxy;
  CallId register_call(std::function<void(std::vector<std::uint32_t>)> cb);

  noc::TerminalId terminal_;
  tlm::MessageBus& transport_;
  std::unordered_map<CallId, std::function<void(std::vector<std::uint32_t>)>>
      pending_;
  CallId next_call_ = 1;
  std::uint64_t replies_ = 0;
};

/// Client stub for one DSOC object. Marshals invocations and injects them
/// from the client's terminal; the skeleton at the other side unmarshals
/// and schedules them on its server pool.
class Proxy {
 public:
  /// Two-way-capable proxy (replies come back to `port`).
  Proxy(ObjectRef ref, ClientPort& port, tlm::MessageBus& transport);

  /// Fire-and-forget invocation.
  void oneway(MethodId method, std::vector<std::uint32_t> args);

  /// Asynchronous two-way invocation; `on_result` fires with the method's
  /// results when the reply message arrives.
  void call(MethodId method, std::vector<std::uint32_t> args,
            std::function<void(std::vector<std::uint32_t>)> on_result);

  const ObjectRef& ref() const noexcept { return ref_; }
  std::uint64_t calls_issued() const noexcept { return issued_; }

 private:
  ObjectRef ref_;
  ClientPort& port_;
  tlm::MessageBus& transport_;
  std::uint64_t issued_ = 0;
};

}  // namespace soc::dsoc
