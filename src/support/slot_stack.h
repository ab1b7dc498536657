// SlotStack: a stack whose popped slots keep their storage.
//
// The per-thread open-state stacks of the converter and the stream
// merger push and pop an element per call or state, and each element
// owns byte buffers. Popping only lowers the depth, so the next push
// hands back the old slot with its buffers' capacity intact and the
// stack allocates nothing once it has reached its deepest nesting.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ute {

template <typename T>
class SlotStack {
 public:
  /// Opens the next slot and returns it. A reused slot still holds the
  /// value it was popped with; the caller resets what it uses.
  T& push() {
    if (depth_ == slots_.size()) slots_.emplace_back();
    return slots_[depth_++];
  }

  /// The innermost open slot. The stack must not be empty.
  T& top() { return slots_[depth_ - 1]; }
  const T& top() const { return slots_[depth_ - 1]; }

  /// Closes the innermost slot, keeping its storage for the next push.
  void pop() { --depth_; }

  std::size_t size() const { return depth_; }
  bool empty() const { return depth_ == 0; }

  /// The open slots, outermost first.
  std::span<const T> live() const { return {slots_.data(), depth_}; }

 private:
  std::vector<T> slots_;
  std::size_t depth_ = 0;
};

}  // namespace ute
