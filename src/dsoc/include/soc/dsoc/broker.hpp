#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "soc/dsoc/skeleton.hpp"

namespace soc::dsoc {

/// Location of a DSOC object: which NoC terminal its skeleton listens on.
/// Because clients resolve objects by name, remapping an object to a
/// different processor pool changes only broker registration — the
/// application is "largely decoupled from the details of a particular
/// FPPA target mapping" (Section 7.2).
struct ObjectRef {
  ObjectId id = 0;
  noc::TerminalId terminal = 0;
  std::string interface_name;
};

/// Thrown by Broker::resolve for a name with no registration. Derives from
/// std::out_of_range (the historical throw type) and lists every registered
/// object name, the same registry-listing style make_mapper uses — so a
/// typo'd lookup tells you what *is* there.
class UnknownObjectError : public std::out_of_range {
 public:
  /// Builds the "unknown object 'x'; registered: a, b" message.
  UnknownObjectError(const std::string& name,
                     const std::vector<std::string>& registered);
};

/// Object request broker directory. Owns the name -> ObjectRef map and
/// performs transport attachment of skeletons (or any endpoint — e.g. the
/// DSE service). Runs over any tlm::MessageBus: the
/// simulated Transport or the threaded in-process LoopbackTransport.
class Broker {
 public:
  /// Directory over `bus` (not owned; must outlive the broker).
  explicit Broker(tlm::MessageBus& bus) : bus_(bus) {}

  /// Registers `skeleton` under `name` and attaches it to its terminal.
  ObjectRef register_object(const std::string& name, Skeleton& skeleton);

  /// Generic registration: attaches any endpoint (a service, a test
  /// double) at `terminal` under `name` with the given object id and
  /// interface name. Throws std::logic_error on a duplicate name.
  ObjectRef register_object(const std::string& name, tlm::Endpoint& endpoint,
                            ObjectId id, noc::TerminalId terminal,
                            std::string interface_name);

  /// Resolves a name; throws UnknownObjectError (an std::out_of_range
  /// listing the registered names) if unknown.
  ObjectRef resolve(const std::string& name) const;

  /// Nothrow lookup.
  std::optional<ObjectRef> try_resolve(const std::string& name) const;

  /// Sorted names of every registered object.
  std::vector<std::string> registered_names() const;

  std::size_t object_count() const noexcept { return directory_.size(); }

 private:
  tlm::MessageBus& bus_;
  std::map<std::string, ObjectRef> directory_;
};

}  // namespace soc::dsoc
