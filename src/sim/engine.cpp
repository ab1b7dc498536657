#include "sim/engine.h"

#include <algorithm>

namespace ute {

void Engine::scheduleAt(Tick t, Action action) {
  if (t < now_) {
    throw UsageError("Engine: cannot schedule an event in the past");
  }
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(action));
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(action);
  }
  heap_.push_back({t, nextSeq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Engine::run(Tick maxTime) {
  stop_ = false;
  while (!heap_.empty() && !stop_) {
    const Key next = heap_.front();
    if (next.time > maxTime) {
      throw UsageError("Engine: simulation exceeded its time limit");
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    // Move the action out and free its slot first: the action may
    // schedule new events, which can reuse the slot or grow the slab.
    Action action = std::move(slots_[next.slot]);
    free_.push_back(next.slot);
    now_ = next.time;
    ++processed_;
    action();
  }
}

}  // namespace ute
