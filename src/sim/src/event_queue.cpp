#include "soc/sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace soc::sim {

void EventQueue::schedule_at(Cycle at, Action fn) {
  if (at < now_) {
    throw std::logic_error("EventQueue::schedule_at: event scheduled in the past");
  }
  auto slot = static_cast<std::uint32_t>(actions_.size());
  if (free_.empty()) {
    actions_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    actions_[slot] = std::move(fn);
  }
  heap_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key k = heap_.back();
  heap_.pop_back();
  now_ = k.time;
  // Take the action out before running it: it may schedule more events,
  // which can reuse its slot or grow (and so move) the table. The swap
  // leaves the slot empty, so the captures die with `fn` when it returns.
  Action fn;
  fn.swap(actions_[k.slot]);
  free_.push_back(k.slot);
  fn();
  return true;
}

std::uint64_t EventQueue::run_until(Cycle limit) {
  std::uint64_t ran = 0;
  while (!heap_.empty() && heap_.front().time <= limit) {
    step();
    ++ran;
  }
  if (now_ < limit) now_ = limit;
  return ran;
}

std::uint64_t EventQueue::run_all() {
  std::uint64_t ran = 0;
  while (step()) ++ran;
  return ran;
}

void EventQueue::reset() noexcept {
  heap_.clear();
  actions_.clear();
  free_.clear();
  now_ = 0;
}

}  // namespace soc::sim
