// Park/wake handshake: the seq_cst RMW flag protocol between a parking
// consumer and its producers.
//
// Extracted from the executors (the lost-wakeup fix) into a checkable
// unit: MnMachine instantiates it with `StdAtomics` (same flag, same
// exchanges, same orders as the inline code it replaced) and
// hal-mc instantiates it with model atomics to exhaustively explore the
// producer/consumer interleavings (docs/model-checking.md).
//
// Protocol (full happens-before argument at MnMachine::wake_worker):
//
//   consumer                         producer (after its queue push)
//   --------                         -------------------------------
//   loop:
//     arm()        exchange(true)    claim_wake()   exchange(false)
//     if work: break                   -> true: lock mutex, notify
//     cv.wait                          -> false: consumer is awake
//   disarm()       exchange(false)
//
// Every access is a seq_cst exchange, so all touches of the flag form a
// single modification-order chain in which each RMW reads the write
// immediately before it and every link synchronizes-with the next. The
// consumer must arm() before EVERY predicate evaluation — not once before
// the loop — because a Vyukov MPSC push can be transiently unreachable
// behind another producer's half-finished one (mpsc_queue.hpp, empty());
// the gap-closing producer must either read true and notify, or have its
// RMW precede the arm, making its push visible to the predicate. The
// arm-per-evaluation loop shape is pinned by hal-lint HL006, the orders by
// HL007, the interleavings by hal-mc's park scenarios, and the whole thing
// by the TSan soak — four independent ways to lose if this regresses.
#pragma once

#include <atomic>

#include "common/atomic_policy.hpp"
#include "common/lint_markers.hpp"

namespace hal::am {

/// `Policy` supplies the atomic flag cell (common/atomic_policy.hpp).
template <typename Policy = StdAtomics>
class ParkHandshake {
  // Binds this class to hal-lint HL007's `park_handshake` policy: the flag
  // is ONLY ever touched through seq_cst exchanges (the HL006 RMW chain) —
  // plus the explicitly-advisory relaxed peek for thief wakes.
  HAL_MEMORY_PROTOCOL("park_handshake");

 public:
  /// Consumer side: raise the flag. Must run before EVERY wait-predicate
  /// evaluation (see the header comment). Returns the previous value
  /// (true on a redundant re-arm — harmless, and it keeps the RMW chain).
  bool arm() noexcept {
    return flag_.exchange(true, std::memory_order_seq_cst);
  }

  /// Consumer side: lower the flag after leaving the park loop, so senders
  /// stop paying the mutex+notify while the consumer is awake.
  void disarm() noexcept {
    flag_.exchange(false, std::memory_order_seq_cst);
  }

  /// Producer side, after the queue push: lower the flag and learn whether
  /// the consumer may be parked. True means the caller MUST notify under
  /// the consumer's mutex (the lock is what keeps the notify from landing
  /// between the predicate check and the wait).
  bool claim_wake() noexcept {
    return flag_.exchange(false, std::memory_order_seq_cst);
  }

  /// Advisory relaxed peek (MnMachine::maybe_wake_thief): a stale read
  /// costs a missed throughput wake, never correctness — every token in a
  /// deque is consumed by its owner if nobody steals it.
  bool armed_hint() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

 private:
  typename Policy::template Atomic<bool> flag_{false};
};

}  // namespace hal::am
