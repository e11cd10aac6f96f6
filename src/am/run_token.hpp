// Run-token state machine: the per-node cell that guarantees each node has
// at most one run token machine-wide and exactly one running worker.
//
// Extracted from MnMachine into a checkable unit: the executor instantiates
// it with `StdAtomics` (behavior unchanged — same enum, same CAS loop, same
// seq_cst orders) and hal-mc instantiates it with model atomics to explore
// the sender/runner interleavings (docs/model-checking.md).
//
// Protocol:
//
//            publish() wins CAS            begin_quantum()
//    kIdle ----------------------> kQueued ---------------> kRunning
//      ^                              ^                     |   |
//      |   retire_or_requeue() CAS    |      requeue()      |   | publish()
//      +------------------------------+---------------------+   | mid-quantum
//                                     |                         v
//                                     +----------------- kRunningNotified
//                                      retire_or_requeue() sees the flag
//
// Every transition is a seq_cst RMW, so successive owners of the token are
// linked by a happens-before chain through the cell: the plain per-node
// fields (the kernel, probes, buffer pool, link endpoint — everything
// single-writer) are handed over race-free. The two safety properties
// hal-mc checks:
//
//   * exactly-one-runner: between a begin_quantum() and its matching
//     retire/requeue, no other thread's begin_quantum() can run (publish()
//     can only reach kQueued/kRunningNotified, never a second kRunning).
//   * no lost unit: a publish() that runs after a unit of work became
//     visible either wins Idle→Queued (a fresh token exists), joins a
//     pending token (kQueued/kRunningNotified — its quantum will look), or
//     flags the in-progress quantum (kRunning→kRunningNotified — the
//     runner's retire CAS fails and requeues). No interleaving strands the
//     unit in an unscheduled mailbox.
//
// "Its quantum will look" needs the deposit to happen-before that quantum's
// mailbox read, and the mailbox read is a plain acquire load (the MPSC
// queue's next pointer), not an RMW. So publish() must write the cell even
// when a token is already pending — a same-value CAS — and the runner's
// Queued transitions are exchanges, not stores: every transition is then
// an RMW, each one continues the release sequence of the one before, and
// begin_quantum() synchronizes with every publish() it must cover. A
// publish() that only loaded kQueued gave no such edge: the sender's
// deposit could still sit in its store buffer while the runner's
// begin_quantum and drain ran, found the mailbox empty, and retired the
// node Idle over the unit (hal-mc scenario run_token_load_drain; the
// pre-fix shape is its expect-violation twin run_token_load_publish).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/assert.hpp"
#include "common/atomic_policy.hpp"
#include "common/lint_markers.hpp"

namespace hal::am {

/// `Policy` supplies the atomic state cell (common/atomic_policy.hpp).
template <typename Policy = StdAtomics>
class RunTokenCell {
  // Binds this class to hal-lint HL007's `run_tokens` policy: every state
  // transition stays seq_cst (the happens-before chain between successive
  // token owners rides these RMWs).
  HAL_MEMORY_PROTOCOL("run_tokens");

 public:
  enum class State : std::uint8_t {
    kIdle,             ///< no token anywhere; next sender publishes one
    kQueued,           ///< token in some run queue, awaiting a worker
    kRunning,          ///< a worker is executing a quantum
    kRunningNotified,  ///< running, and work arrived: runner must requeue
  };

  /// A unit of work became visible on this node. Returns true when the
  /// caller won the Idle→Queued race and MUST publish the node's one run
  /// token (count it, push it into a run queue); false when a token is
  /// already pending or the in-progress quantum has been flagged.
  bool publish() noexcept {
    State cur = state_.load(std::memory_order_seq_cst);
    for (;;) {
      switch (cur) {
        case State::kIdle:
          // Win the CAS → this thread publishes the node's one run token.
          if (state_.compare_exchange_weak(cur, State::kQueued,
                                           std::memory_order_seq_cst)) {
            return true;
          }
          break;  // cur reloaded; retry
        case State::kRunning:
          // A quantum is in progress. Flag it: the runner's retire CAS
          // (Running→Idle) fails and requeues, so the unit we just made
          // visible cannot be stranded in an unscheduled mailbox.
          if (state_.compare_exchange_weak(cur, State::kRunningNotified,
                                           std::memory_order_seq_cst)) {
            return false;
          }
          break;
        case State::kQueued:
        case State::kRunningNotified:
          // A token is already pending; join the RMW chain so the quantum
          // that covers our unit synchronizes with our deposit (header).
          if (state_.compare_exchange_weak(cur, cur,
                                           std::memory_order_seq_cst)) {
            return false;
          }
          break;
      }
    }
  }

  /// The worker that popped this node's token starts its quantum.
  void begin_quantum() noexcept {
    [[maybe_unused]] const State prev =
        state_.exchange(State::kRunning, std::memory_order_seq_cst);
    HAL_DASSERT(prev == State::kQueued);
  }

  /// End of quantum with work remaining: the runner keeps the token and
  /// re-publishes it itself (round-robin fairness among runnable nodes).
  void requeue() noexcept {
    state_.exchange(State::kQueued, std::memory_order_seq_cst);
  }

  /// End of quantum with no work observed. Returns false when the node went
  /// Idle; true when a sender flagged new work mid-quantum (the CAS lost to
  /// kRunningNotified — between the runner's mailbox check and this CAS the
  /// state can only move Running→RunningNotified, so the racing unit is
  /// covered): the cell is back to kQueued and the caller MUST re-publish
  /// the token.
  bool retire_or_requeue() noexcept {
    State expected = State::kRunning;
    if (state_.compare_exchange_strong(expected, State::kIdle,
                                       std::memory_order_seq_cst)) {
      return false;
    }
    HAL_DASSERT(expected == State::kRunningNotified);
    state_.exchange(State::kQueued, std::memory_order_seq_cst);
    return true;
  }

  /// Snapshot for the home-node sweep: true iff no token is pending.
  bool idle() const noexcept {
    return state_.load(std::memory_order_seq_cst) == State::kIdle;
  }

 private:
  typename Policy::template Atomic<State> state_{State::kIdle};
};

}  // namespace hal::am
