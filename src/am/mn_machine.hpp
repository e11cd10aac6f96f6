// M:N machine: many nodes multiplexed onto a worker-thread pool.
//
// This is the one wall-clock executor. SimMachine is one sequential event
// queue; this machine runs M nodes on N workers (CAF-style actor
// multiplexing over the hardware_manager M:N shape):
//
//   * Packets cross workers through per-node MPSC mailboxes.
//   * A *runnable node* is a unit of scheduling. Each node carries an atomic
//     state machine {Idle, Queued, Running, RunningNotified}; a sender whose
//     CAS wins Idle→Queued publishes exactly one run token for the node, so
//     a node is never in two run queues and never runs on two workers at
//     once (the single-writer discipline every per-node structure — kernel,
//     probes, buffer pool, link endpoint — relies on).
//   * Run tokens live in per-worker Chase–Lev deques (common/ws_deque.hpp):
//     the owning worker pushes and pops at the bottom, idle workers steal
//     from the top. Tokens published off-pool (bootstrap sends before run())
//     go through a per-worker MPSC inject queue to the node's home worker.
//   * A token runs as a bounded quantum: drain the mailbox through the link
//     demux, run NodeClient::step up to a budget, fire due link
//     retransmission timers, then requeue if work remains — round-robin
//     fairness among runnable nodes at P >> N.
//   * Termination reuses the TerminationDetector double scan with the N
//     workers as participants. The sent/handled epochs count *both* physical
//     packets and run tokens, so sent == handled proves no packet hides in
//     any mailbox AND no runnable node hides in any queue; in-progress
//     quanta are covered by the running worker being active.
//   * Under fault injection, nodes holding unacked retransmit masters
//     publish their next deadline into a shared DeadlineTable; a worker that
//     would otherwise deactivate instead stays *active* and parks with that
//     deadline: pending wire work keeps the machine non-quiescent, so loss
//     cannot fake termination.
//
// Selection: RuntimeConfig{.machine = MachineKind::kMn, .mn_workers = N}
// through make_machine, or HAL_MACHINE=mn / HAL_MN_WORKERS=N in the bench
// harness. MachineKind::kThread is the same class at one worker per node
// (the paper's one execution stream per node). See docs/machines.md.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "am/machine.hpp"
#include "am/park_handshake.hpp"
#include "am/run_token.hpp"
#include "am/wire_batch.hpp"
#include "common/fast_clock.hpp"
#include "common/lint_markers.hpp"
#include "common/mpsc_queue.hpp"
#include "common/rng.hpp"
#include "common/termination.hpp"
#include "common/ws_deque.hpp"

namespace hal::am {

class MnMachine final : public Machine, private LinkSink {
  // Memory-order contract checked by hal-lint HL007. The run-token state
  // machine itself lives in RunTokenCell (am/run_token.hpp, protocol
  // `run_tokens`) and the park flag in ParkHandshake (am/park_handshake.hpp,
  // protocol `park_handshake`); what remains here is the scheduler fabric:
  // wake_epoch_ publishes seq_cst / reads acquire, and the steal/sleeper
  // diagnostics are advisory relaxed counters.
  HAL_MEMORY_PROTOCOL("mn_scheduler");

 public:
  /// `workers` = 0 picks min(hardware threads, nodes); any value is capped
  /// at the node count.
  MnMachine(NodeId nodes, CostModel costs, std::uint32_t workers = 0);
  ~MnMachine() override;

  void send(Packet p) override;
  void charge(NodeId node, SimTime ns) override;  // no-op: time is real
  SimTime now(NodeId node) const override;
  void run() override;
  std::uint32_t worker_count() const noexcept override { return workers_n_; }
  /// Delay injection is Sim-only (real queues already reorder, and a wall
  /// clock sleep would only slow the soak): the knob is scrubbed here.
  void configure_faults(const FaultConfig& cfg) override;

  // --- Wire batching (destination-coalesced frames, am/wire_batch.hpp) -----
  // Configured once, after clients are attached and before run(), like the
  // fault plane. Enabled, eligible small sends accumulate in
  // per-(source, destination) FrameBuilders and ship as single wire frames;
  // disabled (or on a 1-node machine) sends take the one-packet-per-message
  // path. SimMachine has no counterpart: the simulated CM-5 sends one packet
  // per message (DESIGN.md §1).
  void configure_batching(const BatchConfig& cfg);

  /// Aggregation counters for one node; nullptr when batching is off.
  const WireStats* wire_stats(NodeId node) const noexcept {
    return wire_.empty() ? nullptr : &wire_[node]->stats();
  }

  /// Release every still-open frame buffer back to the owning pools
  /// without shipping it. Called at shutdown drain, after run() returned.
  void drain_wire();

  /// Buffer-audit walk over open frame buffers (the aggregation layer's
  /// share of the report's in-flight count).
  void for_each_wire_payload(const std::function<void(const Bytes&)>& fn) const;

  /// Epoch counters (stress tests, stats). These count packets *and* run
  /// tokens — see the termination note above.
  std::uint64_t units_sent() const noexcept { return detector_.sent(); }
  std::uint64_t units_handled() const noexcept { return detector_.handled(); }
  /// Run tokens taken from another worker's deque (scheduling diagnostics).
  std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

 protected:
  void wake_hook() noexcept override;

 private:
  /// Per-node scheduling state. The RunTokenCell is the cross-thread
  /// handoff point; the plain fields are owned by whichever worker holds the
  /// node's run token (the cell's seq_cst RMWs carry the happens-before
  /// edge between successive owners).
  struct alignas(64) NodeSlot {
    RunTokenCell<> token;
    NodeId id = 0;
    std::uint32_t home = 0;       // home worker for off-pool injection
    bool idle_notified = false;   // on_idle already ran for this idle spell
    std::uint64_t idle_epoch = 0; // wake epoch that on_idle last observed
    bool service_published = false;  // entry live in service_timers_
  };

  /// Node → deadline (ns on clock_) shared by the workers; 0 = no entry.
  /// Touched only off the message fast path (end of quantum, worker idle
  /// transitions), so one mutex per table is cheap enough.
  class DeadlineTable {
   public:
    /// Publish `node`'s deadline; 0 erases its entry.
    void set(NodeId node, SimTime deadline);
    /// Earliest published deadline; 0 = none.
    SimTime earliest();
    /// The nodes whose deadline is at or before `t`.
    std::vector<NodeId> due(SimTime t);
    void clear();

   private:
    std::mutex mutex_;
    std::map<NodeId, SimTime> deadlines_;
  };

  struct WorkerRec {
    explicit WorkerRec(std::uint32_t index_, std::size_t deque_capacity,
                       std::uint64_t rng_seed)
        : index(index_), local(deque_capacity), rng(rng_seed) {}

    const std::uint32_t index;
    // Run tokens are epoch-counted units (HAL_EPOCH_COUNTED → hal-lint
    // HL009): every push into either queue must follow a note_sent or a
    // pop from a sibling queue (a hand-off), so sent == handled keeps
    // proving no token hides in any run queue.
    WsDeque<NodeSlot> local HAL_EPOCH_COUNTED;   // owner bottom, thieves top
    MpscQueue<NodeId> inject HAL_EPOCH_COUNTED;  // off-pool token handoff
    Xoshiro256 rng;               // steal-victim selection
    std::uint64_t sweep_epoch = ~std::uint64_t{0};  // forces the first sweep
    bool primed = false;          // first sweep schedules every home node
    std::mutex mutex;
    std::condition_variable cv;
    std::uint64_t wake_gen = 0;   // guarded by mutex; bumped by wake_hook
    // Armed only while this worker is parked in cv.wait; producers skip
    // the mutex+notify entirely when it is awake (proof at wake_worker).
    // HAL_PARK_FLAG → hal-lint HL006 pins the arm-per-predicate loop shape.
    ParkHandshake<> sleeping HAL_PARK_FLAG;
  };

  void worker_loop(std::uint32_t w);
  /// Block until the inject queue looks non-empty, stop is requested, a wake
  /// generation lands, or `deadline` (ns since epoch_, 0 = none) passes.
  /// Re-arms `sleeping` before every predicate evaluation — required for
  /// correctness against the MPSC queue's unreachable-suffix window (proof
  /// at wake_worker).
  void park(WorkerRec& rec, std::uint64_t gen, SimTime deadline);
  /// Execute one quantum for the node whose token we hold.
  void run_node(NodeSlot& slot);
  /// A unit of work became visible on `node`: publish a run token if none
  /// is pending (Idle→Queued), or flag the current quantum to requeue.
  void schedule(NodeId node);
  /// Publish `slot`'s run token (state already Queued): count the token in
  /// the sent epoch, then push it where the calling thread may.
  void enqueue(NodeSlot& slot);
  /// Next token for worker `rec`: inject queue, own deque, then stealing.
  NodeSlot* next_runnable(WorkerRec& rec);
  /// Count `p` in the sent epoch, push it into its destination mailbox,
  /// then schedule the destination node.
  void post_and_schedule(Packet p);
  /// Pop and run up to `max` packets from `node`'s mailbox through the
  /// arrival demux; returns the number popped.
  std::size_t drain(NodeId node, std::size_t max);
  /// Producer half of the park handshake, after a push into `rec.inject`.
  void wake_worker(WorkerRec& rec) noexcept;
  /// Best-effort: rouse one parked worker to come steal (pure throughput —
  /// correctness never depends on a thief wake).
  void maybe_wake_thief() noexcept;
  /// Schedule every home node of `rec` that should re-observe global state:
  /// all of them on the priming pass, idle ones on later wake epochs.
  void sweep_home_nodes(WorkerRec& rec);
  /// Schedule every node whose deadline in `table` has passed; its own
  /// quantum does the due work and refreshes its entry.
  void schedule_due(DeadlineTable& table);

  // --- Batching internals (the send path and the node quantum) -----------
  bool batching_active() const noexcept { return !wire_.empty(); }
  /// Can `p` ride a frame? Small non-bulk, non-loopback, non-link-control,
  /// non-urgent payloads whose record fits an empty frame qualify.
  bool batch_eligible(const Packet& p) const noexcept;
  /// Append an eligible packet to src's frame toward dst. Emits the
  /// previous frame first if the record would overflow it, and the new
  /// frame immediately if the append filled it. `now` is the source node's
  /// clock, arming the holdoff deadline.
  void batch_append(Packet p, SimTime now);
  /// FIFO barrier: flush the open frame toward dst before an unbatchable
  /// packet uses the same channel (bulk chunks, oversized payloads, urgent
  /// control) so per-channel order holds across the batched/unbatched
  /// boundary.
  void batch_barrier(NodeId src, NodeId dst);
  /// Flush every open frame held by src (busy->idle transition).
  void flush_frames(NodeId src, FlushCause cause);
  /// Flush src's frames whose holdoff deadline has expired.
  void flush_due_frames(NodeId src, SimTime now);
  /// Close fb (held by src toward dst), account the flush, and ship the
  /// frame through send() (frames are never batch_eligible, so this cannot
  /// recurse).
  void emit_frame(WireAggregator& agg, FrameBuilder& fb, NodeId src,
                  NodeId dst, FlushCause cause);

  // LinkSink: the fault plane's physical copies, and every arrival's
  // delivery (Machine::arrive). Frames decode here, on the receiving
  // node's stream.
  void link_transmit(Packet p, SimTime extra_delay_ns) override;
  void link_deliver(Packet p) override;

  std::uint32_t workers_n_;
  std::vector<NodeSlot> slots_;
  std::vector<std::unique_ptr<WorkerRec>> workers_;
  // One participant per worker. The sent/handled epochs count physical
  // packets and run tokens (see the termination note above).
  TerminationDetector detector_;
  // Physical packets in flight are epoch-counted units (HAL_EPOCH_COUNTED →
  // hal-lint HL009): post_and_schedule bumps the sent epoch before every
  // push, drain bumps handled after every pop, so the detector's double scan
  // stays exact.
  std::vector<std::unique_ptr<MpscQueue<Packet>>> mailboxes_ HAL_EPOCH_COUNTED;
  // now() reads clock_ (calibrated TSC, ~7 ns); epoch_ anchors the cv
  // wait_until deadlines in steady_clock terms. The two clocks' sub-µs
  // offset/drift only shifts when a timed park *wakes*; due-ness is always
  // re-checked against clock_, so timers never fire early.
  FastClock clock_;
  std::chrono::steady_clock::time_point epoch_;
  // Bumped by wake_hook: idle nodes re-run on_idle once per epoch so the
  // load balancer re-polls when the work hint turns positive.
  std::atomic<std::uint64_t> wake_epoch_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint32_t> sleepers_{0};  // gate for maybe_wake_thief
  // Retransmission deadlines of nodes with unacked masters. A pending entry
  // keeps a worker out of the idle set: the machine still owes wire work.
  DeadlineTable link_timers_;
  // Deadlines at which idle clients want on_idle re-run
  // (NodeClient::service_deadline, e.g. the balancer's backed-off repoll).
  // An entry only bounds a worker's park; it never blocks quiescence.
  DeadlineTable service_timers_;
  // One aggregator per node while batching is on; empty otherwise. Each is
  // touched only from its node's execution stream.
  std::vector<std::unique_ptr<WireAggregator>> wire_;

  static thread_local int tl_worker_;  // index into workers_, -1 off-pool

  // Quantum budgets: big enough to amortize token churn, small enough that
  // a flooded node cannot starve its worker's other nodes.
  static constexpr std::size_t kDrainQuantum = 64;
  static constexpr std::size_t kStepQuantum = 64;
};

}  // namespace hal::am
