// Scenario: the run-token state machine (am/run_token.hpp) with inline
// runners — the thread that wins publish() executes the node's quantum
// itself, exactly like an MnMachine worker that popped the token.
//
// The mailbox is modeled by a bit-mask Atomic with release deposits and an
// acquire drain (the real MPSC queue carries its payloads the same way),
// so the WORK cells always ride the mailbox edge. The `quantum_log` Cell
// is different: it models the node's single-writer plain state (kernel,
// probes, buffer pool) that is read and written by every quantum and is
// handed between successive token owners ONLY through the cell's seq_cst
// RMW chain (run_token.hpp header). The run-token mutants sever exactly
// that chain — begin_quantum() losing its acquire half, retire losing its
// release half — and show up as a data race on quantum_log.
//
// Checked properties:
//   * exactly-one-runner: the runners counter is 0 at every quantum start;
//   * no lost unit: at the end every deposited bit was drained, the mask
//     is empty and the token is idle;
//   * race-free owner handoff of quantum_log.
#include <array>
#include <cstdint>
#include <memory>

#include "am/run_token.hpp"
#include "mc/atomic.hpp"
#include "mc/explore.hpp"
#include "mc/sync.hpp"

namespace hal::mc {
namespace {

struct TokenState {
  am::RunTokenCell<ModelAtomics> token;
  Atomic<std::uint64_t> mask{0};  ///< the node's mailbox, one bit per unit
  std::array<Cell<std::uint64_t>, 2> work;
  Cell<std::uint64_t> quantum_log{0};  ///< runner-only plain state
  Atomic<std::uint64_t> runners{0};
  Atomic<std::uint64_t> processed{0};
};

void run_node(const std::shared_ptr<TokenState>& st) {
  MC_ASSERT(st->runners.fetch_add(1, std::memory_order_relaxed) == 0,
            "run_token: two quanta running concurrently");
  st->token.begin_quantum();
  for (;;) {
    // Single-writer state handed over by the token cell's RMW chain.
    st->quantum_log.set(st->quantum_log.get() + 1);
    for (std::uint64_t m =
             st->mask.exchange(0, std::memory_order_acq_rel);
         m != 0; m = st->mask.exchange(0, std::memory_order_acq_rel)) {
      if ((m & 1) != 0) {
        MC_ASSERT(st->work[0].get() == 10, "run_token: unit 0 payload lost");
        st->processed.fetch_add(1, std::memory_order_relaxed);
      }
      if ((m & 2) != 0) {
        MC_ASSERT(st->work[1].get() == 20, "run_token: unit 1 payload lost");
        st->processed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    st->runners.fetch_sub(1, std::memory_order_relaxed);
    if (!st->token.retire_or_requeue()) return;  // node went idle
    // A sender flagged new work mid-quantum: the token is back to kQueued
    // and this worker runs the next quantum itself.
    MC_ASSERT(st->runners.fetch_add(1, std::memory_order_relaxed) == 0,
              "run_token: two quanta running concurrently (requeue)");
    st->token.begin_quantum();
  }
}

void run_token_exclusive(Sim& sim) {
  auto st = std::make_shared<TokenState>();

  sim.thread([st] {  // sender 1: deposit unit 0, publish, maybe run
    st->work[0].set(10);
    st->mask.fetch_add(1, std::memory_order_release);
    if (st->token.publish()) run_node(st);
  });
  sim.thread([st] {  // sender 2: deposit unit 1, publish, maybe run
    st->work[1].set(20);
    st->mask.fetch_add(2, std::memory_order_release);
    if (st->token.publish()) run_node(st);
  });

  sim.finish([st] {
    MC_ASSERT(st->mask.load() == 0,
              "run_token: unit stranded in an unscheduled mailbox");
    MC_ASSERT(st->token.idle(), "run_token: token leaked (not idle)");
    MC_ASSERT(st->processed.load() == 2,
              "run_token: deposited unit never processed");
    MC_ASSERT(st->runners.load() == 0, "run_token: runner count leaked");
  });
}

const Register reg{Scenario{
    .name = "run_token_exclusive",
    .description = "run-token cell: 2 senders with inline runners; exactly "
                   "one quantum at a time, no stranded unit, race-free "
                   "owner handoff of plain node state",
    .body = run_token_exclusive,
    .expect_violation = false,
    .preemption_bound = 3,
    .max_executions = 600000,
    .max_steps = 20000,
}};

// --- Load-drained mailbox ---------------------------------------------------
//
// The real node mailbox is found by the runner with a plain acquire LOAD
// (the MPSC queue's next pointer), not an RMW like `mask` above, so only the
// token cell's RMW chain can order a deposit before the drain that must
// find it. run_token_load_drain is that production shape; its twin runs
// the publish() that shipped before the fix — a sender that finds a token
// already pending returns after a plain load — and the checker must find
// the stranded unit (deposit still invisible when the runner drained).

/// The pre-fix cell: publish() only loads a pending kQueued /
/// kRunningNotified, and the runner's Queued transition is a store.
template <typename Policy>
class LoadPublishTokenCell {
 public:
  using State = typename am::RunTokenCell<Policy>::State;

  bool publish() noexcept {
    State cur = state_.load(std::memory_order_seq_cst);
    for (;;) {
      switch (cur) {
        case State::kIdle:
          if (state_.compare_exchange_weak(cur, State::kQueued,
                                           std::memory_order_seq_cst)) {
            return true;
          }
          break;
        case State::kRunning:
          if (state_.compare_exchange_weak(cur, State::kRunningNotified,
                                           std::memory_order_seq_cst)) {
            return false;
          }
          break;
        case State::kQueued:
        case State::kRunningNotified:
          return false;
      }
    }
  }
  void begin_quantum() noexcept {
    state_.exchange(State::kRunning, std::memory_order_seq_cst);
  }
  bool retire_or_requeue() noexcept {
    State expected = State::kRunning;
    if (state_.compare_exchange_strong(expected, State::kIdle,
                                       std::memory_order_seq_cst)) {
      return false;
    }
    state_.store(State::kQueued, std::memory_order_seq_cst);
    return true;
  }
  bool idle() const noexcept {
    return state_.load(std::memory_order_seq_cst) == State::kIdle;
  }

 private:
  typename Policy::template Atomic<State> state_{State::kIdle};
};

template <typename TokenCell>
struct LoadDrainState {
  TokenCell token;
  std::array<Atomic<std::uint64_t>, 2> deposited{0, 0};  ///< release-stored
  std::array<Cell<std::uint64_t>, 2> work;
  std::array<Cell<std::uint64_t>, 2> consumed;  ///< runner-only plain state
  Atomic<std::uint64_t> processed{0};
};

template <typename TokenCell>
void run_load_drain(const std::shared_ptr<LoadDrainState<TokenCell>>& st) {
  st->token.begin_quantum();
  for (;;) {
    for (std::size_t i = 0; i < 2; ++i) {
      if (st->consumed[i].get() == 0 &&
          st->deposited[i].load(std::memory_order_acquire) != 0) {
        MC_ASSERT(st->work[i].get() == 10 * (i + 1),
                  "run_token: unit payload lost");
        st->consumed[i].set(1);
        st->processed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!st->token.retire_or_requeue()) return;
    st->token.begin_quantum();
  }
}

template <typename TokenCell>
void load_drain_body(Sim& sim) {
  auto st = std::make_shared<LoadDrainState<TokenCell>>();
  for (std::size_t i = 0; i < 2; ++i) {
    sim.thread([st, i] {  // sender i: deposit unit i, publish, maybe run
      st->work[i].set(10 * (i + 1));
      st->deposited[i].store(1, std::memory_order_release);
      if (st->token.publish()) run_load_drain(st);
    });
  }
  sim.finish([st] {
    MC_ASSERT(st->processed.load() == 2,
              "run_token: unit stranded behind an idle token");
    MC_ASSERT(st->token.idle(), "run_token: token leaked (not idle)");
  });
}

const Register reg_load_drain{Scenario{
    .name = "run_token_load_drain",
    .description = "run-token cell over a load-drained mailbox (the real "
                   "MPSC consumer): a sender that joins a pending token is "
                   "still covered by that token's quantum",
    .body = load_drain_body<am::RunTokenCell<ModelAtomics>>,
    .expect_violation = false,
    .preemption_bound = 3,
    .max_executions = 600000,
    .max_steps = 20000,
}};

const Register reg_load_publish{Scenario{
    .name = "run_token_load_publish",
    .description = "regression: publish() that only loads a pending token; "
                   "the checker must find the unit stranded behind an idle "
                   "token",
    .body = load_drain_body<LoadPublishTokenCell<ModelAtomics>>,
    .expect_violation = true,
    .preemption_bound = 3,
    .max_executions = 600000,
    .max_steps = 20000,
}};

}  // namespace
}  // namespace hal::mc
