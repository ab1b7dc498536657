// Discrete-event simulation core.
//
// A single min-heap of (time, sequence) ordered events; ties break in
// scheduling order, which makes whole-cluster runs bit-for-bit
// reproducible. Everything in the simulated cluster — dispatches, quantum
// expiries, message deliveries, clock-daemon ticks — is an event here.
//
// The queue makes no heap allocation per event once it has grown to the
// run's peak depth. Actions live in a slab (a vector of slots plus a free
// list of slot indexes) and are never moved while queued; the heap orders
// 24-byte {time, seq, slot} keys. An Action keeps its callable inline in
// fixed storage, so a capture that does not fit is a compile error, not a
// hidden allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/errors.h"
#include "support/types.h"

namespace ute {

class Engine {
 public:
  /// A move-only `void()` callable held in fixed inline storage.
  class Action {
   public:
    /// Bytes of capture an action can hold: the largest in the simulator
    /// is a message delivery, `[this, msg]` at 40 bytes.
    static constexpr std::size_t kInlineBytes = 48;

    Action() = default;
    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<Fn, Action>>>
    Action(F&& f) {
      static_assert(sizeof(Fn) <= kInlineBytes,
                    "Engine::Action capture exceeds its inline storage");
      static_assert(alignof(Fn) <= alignof(std::max_align_t),
                    "Engine::Action capture is over-aligned");
      static_assert(std::is_nothrow_move_constructible_v<Fn>,
                    "Engine::Action capture must move without throwing");
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kOps<Fn>;
    }
    Action(Action&& other) noexcept { takeFrom(other); }
    Action& operator=(Action&& other) noexcept {
      if (this != &other) {
        reset();
        takeFrom(other);
      }
      return *this;
    }
    Action(const Action&) = delete;
    Action& operator=(const Action&) = delete;
    ~Action() { reset(); }

    void operator()() { ops_->invoke(storage_); }

   private:
    struct Ops {
      void (*invoke)(void*);
      /// Move-constructs into `dst` and destroys the source.
      void (*relocate)(void* dst, void* src);
      void (*destroy)(void*);
    };
    template <typename Fn>
    static Fn* as(void* p) {
      return std::launder(static_cast<Fn*>(p));
    }
    template <typename Fn>
    static constexpr Ops kOps = {
        [](void* p) { (*as<Fn>(p))(); },
        [](void* dst, void* src) {
          ::new (dst) Fn(std::move(*as<Fn>(src)));
          as<Fn>(src)->~Fn();
        },
        [](void* p) { as<Fn>(p)->~Fn(); },
    };

    void takeFrom(Action& other) noexcept {
      if (other.ops_ == nullptr) return;
      other.ops_->relocate(storage_, other.storage_);
      ops_ = std::exchange(other.ops_, nullptr);
    }
    void reset() noexcept {
      if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    const Ops* ops_ = nullptr;
  };

  /// Current simulated true time, ns.
  Tick now() const { return now_; }

  /// Schedules `action` at absolute time `t` (>= now()).
  void scheduleAt(Tick t, Action action);

  /// Schedules `action` `delay` ns from now.
  void scheduleAfter(Tick delay, Action action) {
    scheduleAt(now_ + delay, std::move(action));
  }

  /// Runs until the event queue drains, requestStop() is called, or
  /// `maxTime` is exceeded (guarding against runaway simulations).
  void run(Tick maxTime = ~Tick{0});

  /// Makes run() return after the current event completes. Remaining
  /// events stay queued (the caller is abandoning the simulation).
  void requestStop() { stop_ = true; }

  std::uint64_t eventsProcessed() const { return processed_; }
  bool empty() const { return heap_.empty(); }

 private:
  struct Key {
    Tick time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into slots_
  };
  /// Heap order: the earliest time, then the earliest scheduled, on top.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  Tick now_ = 0;
  bool stop_ = false;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Key> heap_;
  std::vector<Action> slots_;        ///< queued actions, by slot
  std::vector<std::uint32_t> free_;  ///< slots whose action has run
};

}  // namespace ute
