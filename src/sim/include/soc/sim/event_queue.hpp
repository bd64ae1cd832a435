#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "soc/sim/types.hpp"

namespace soc::sim {

/// Discrete-event scheduler. Events at the same cycle fire in the order they
/// were scheduled (FIFO tie-break via sequence numbers), which makes runs
/// fully deterministic — a hard requirement for regression-testing the
/// platform simulator.
///
/// The binary heap orders plain (time, seq, slot) keys; each action waits
/// in a slot of a recycled table, so sifting moves 24-byte keys and never
/// an action, and a steady-state simulation schedules without allocating
/// (an action small enough for std::function's inline buffer needs none).
class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `fn` to run at absolute cycle `at`. Precondition: at >= now().
  void schedule_at(Cycle at, Action fn);

  /// Schedules `fn` to run `delay` cycles from now.
  void schedule_in(Cycle delay, Action fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Runs the earliest pending event; returns false if the queue is empty.
  bool step();

  /// Runs events until the queue is empty or `limit` is reached (events
  /// scheduled at exactly `limit` still run). Returns number of events run.
  std::uint64_t run_until(Cycle limit);

  /// Drains the queue completely. Returns number of events run.
  std::uint64_t run_all();

  /// Current simulation cycle.
  Cycle now() const noexcept { return now_; }
  /// True when no events are pending.
  bool empty() const noexcept { return heap_.empty(); }
  /// Number of pending events.
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Discards every pending event (destroying its action) and rewinds the
  /// clock to cycle 0, so one queue can be reused across independent
  /// simulation runs (the mapping validator re-runs many short simulations
  /// on a single queue and keeps the heap's and the table's capacity).
  /// Sequence numbers keep advancing, which preserves FIFO determinism
  /// across the reuse boundary.
  void reset() noexcept;

 private:
  struct Key {
    Cycle time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index of the action in actions_
  };
  /// Heap comparator: the earliest (time, seq) key sits at the front.
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;            ///< binary min-heap under Later
  std::vector<Action> actions_;      ///< pending actions by slot
  std::vector<std::uint32_t> free_;  ///< slots of actions_ free for reuse
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace soc::sim
