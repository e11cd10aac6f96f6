#include "am/mn_machine.hpp"

#include <bit>
#include <thread>
#include <utility>
#include <vector>

#include "check/affinity.hpp"

namespace hal::am {

thread_local int MnMachine::tl_worker_ = -1;

namespace {

std::uint32_t clamp_workers(std::uint32_t requested, NodeId nodes) {
  std::uint32_t w = requested;
  if (w == 0) {
    w = std::thread::hardware_concurrency();
    if (w == 0) w = 2;  // hardware_concurrency may be unknown
  }
  if (w > nodes) w = nodes;
  return w == 0 ? 1 : w;
}

}  // namespace

MnMachine::MnMachine(NodeId nodes, CostModel costs, std::uint32_t workers)
    : Machine(nodes, costs),
      workers_n_(clamp_workers(workers, nodes)),
      slots_(nodes),
      detector_(workers_n_),
      epoch_(std::chrono::steady_clock::now()) {
  mailboxes_.reserve(nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    slots_[n].id = n;
    slots_[n].home = n % workers_n_;
    mailboxes_.push_back(std::make_unique<MpscQueue<Packet>>());
  }
  // Each node holds at most one run token machine-wide, so a deque sized to
  // the node count can never overflow even if every token lands on one
  // worker.
  const std::size_t cap =
      std::bit_ceil(static_cast<std::size_t>(nodes) + 1);
  workers_.reserve(workers_n_);
  for (std::uint32_t w = 0; w < workers_n_; ++w) {
    workers_.push_back(std::make_unique<WorkerRec>(
        w, cap, 0x6d6e5eedULL ^ (static_cast<std::uint64_t>(w) << 32)));
  }
}

MnMachine::~MnMachine() = default;

void MnMachine::configure_faults(const FaultConfig& cfg) {
  FaultConfig scrubbed = cfg;
  scrubbed.delay = 0.0;
  Machine::configure_faults(scrubbed);
  link_timers_.clear();
}

void MnMachine::send(Packet p) {
  check_packet(p);
  p.stamp = now(p.src);
  if (batch_eligible(p)) {
    // Coalesced path: accumulate in the per-destination frame. Runs on the
    // source node's execution stream (its current worker, or the bootstrap
    // thread before run()), so the aggregator needs no locking; the node's
    // own quantum flushes on fill, holdoff expiry and the busy->idle
    // transition (run_node).
    const SimTime t = p.stamp;
    batch_append(std::move(p), t);
    return;
  }
  // Unbatchable traffic flushes the channel's open frame first so
  // per-channel FIFO order holds across the batched/unbatched boundary.
  if (batching_active() && p.src != p.dst) batch_barrier(p.src, p.dst);
  if (links_active() && p.src != p.dst) {
    // Faulty wire: sequence + file a retransmit master; the link calls back
    // into link_transmit for every physical copy that survives the
    // injector. Runs on the source node's execution stream (its current
    // worker), so the endpoint needs no locking. The node's retransmission
    // deadline is published at the end of its quantum (link_timers_);
    // bootstrap masters are covered by the priming sweep in run().
    const NodeId src = p.src;
    link(src).send_data(std::move(p), now(src), *this);
    return;
  }
  post_and_schedule(std::move(p));
}

void MnMachine::link_transmit(Packet p,
                              [[maybe_unused]] SimTime extra_delay_ns) {
  HAL_DASSERT(extra_delay_ns == 0);  // delay scrubbed in configure_faults
  post_and_schedule(std::move(p));
}

void MnMachine::link_deliver(Packet p) {
  const NodeId node = p.dst;
  NodeClient& c = client(node);
  if (!p.frame) {
    c.handle(std::move(p));
    return;
  }
  // Frames only exist while the aggregation layer is configured; decode on
  // the receiving node's stream, one handler call per record (one wake, one
  // mailbox drain, many messages), and retire the frame buffer into the
  // receiving node's pool (the same cross-node recycling loop packet
  // payloads use).
  HAL_ASSERT(!wire_.empty());
  BufferPool& pool = wire_[node]->pool();
  FrameReader reader(p);
  // One clock read for the whole burst: every record in the frame arrived
  // in the same physical packet, so they share a delivery timestamp.
  c.on_frame_begin(now(node), reader.expected());
  Packet record;
  while (reader.next(record, pool)) c.handle(std::move(record));
  c.on_frame_end();
  pool.release(std::move(p.payload));
}

// --- Wire batching -----------------------------------------------------------

void MnMachine::configure_batching(const BatchConfig& cfg) {
  wire_.clear();
  // A single node has no remote channel to coalesce (loopback never
  // batches), so leave the layer inert rather than instantiating it.
  if (!cfg.enabled || node_count() < 2) return;
  wire_.reserve(node_count());
  for (NodeId n = 0; n < node_count(); ++n) {
    wire_.push_back(std::make_unique<WireAggregator>(client(n).link_pool()));
  }
}

bool MnMachine::batch_eligible(const Packet& p) const noexcept {
  if (wire_.empty()) return false;
  // Frames and link-control traffic are the layer's own output; loopback
  // bypasses the wire entirely; bulk chunks and oversized payloads must
  // keep the direct path (their records would not fit a frame).
  if (p.frame || p.link_ack || p.link_seq != 0) return false;
  // Latency-critical control packets keep the direct path (see Packet).
  if (p.urgent) return false;
  if (p.src == p.dst) return false;
  if (p.payload.size() > kMaxInlinePayload) return false;
  return frame_record_size(p) <= BatchConfig::max_frame_bytes;
}

void MnMachine::emit_frame(WireAggregator& agg, FrameBuilder& fb, NodeId src,
                           NodeId dst, FlushCause cause) {
  WireStats& ws = agg.stats();
  switch (cause) {
    case FlushCause::kFill:
      ++ws.flush_fill;
      break;
    case FlushCause::kTimer:
      ++ws.flush_timer;
      break;
    case FlushCause::kIdle:
      ++ws.flush_idle;
      break;
    case FlushCause::kBarrier:
      ++ws.flush_barrier;
      break;
  }
  ++ws.frames_sent;
  send(fb.close(src, dst, cause));
}

void MnMachine::batch_append(Packet p, SimTime now) {
  HAL_DASSERT(batch_eligible(p));
  WireAggregator& agg = *wire_[p.src];
  const NodeId src = p.src;
  const NodeId dst = p.dst;
  FrameBuilder& fb = agg.builder(dst);
  if (fb.open() && !fb.fits(p)) {
    emit_frame(agg, fb, src, dst, FlushCause::kFill);
  }
  ++agg.stats().msgs_coalesced;
  fb.add(std::move(p), now, agg.pool());
  if (fb.count() >= BatchConfig::max_msgs) {
    emit_frame(agg, fb, src, dst, FlushCause::kFill);
  }
}

void MnMachine::batch_barrier(NodeId src, NodeId dst) {
  WireAggregator& agg = *wire_[src];
  FrameBuilder* fb = agg.find(dst);
  if (fb != nullptr && fb->open()) {
    emit_frame(agg, *fb, src, dst, FlushCause::kBarrier);
  }
}

void MnMachine::flush_frames(NodeId src, FlushCause cause) {
  WireAggregator& agg = *wire_[src];
  for (auto& [dst, fb] : agg.frames()) {
    if (fb.open()) emit_frame(agg, fb, src, dst, cause);
  }
}

void MnMachine::flush_due_frames(NodeId src, SimTime now) {
  WireAggregator& agg = *wire_[src];
  for (auto& [dst, fb] : agg.frames()) {
    if (fb.open() && fb.deadline() <= now) {
      emit_frame(agg, fb, src, dst, FlushCause::kTimer);
    }
  }
}

void MnMachine::drain_wire() {
  for (NodeId n = 0; n < static_cast<NodeId>(wire_.size()); ++n) {
    // Same affinity adoption as drain_links: the node streams are gone at
    // shutdown drain, and pool releases assert execution affinity.
    check::ScopedExecutionNode scope(n);
    for (auto& [dst, fb] : wire_[n]->frames()) fb.abandon(wire_[n]->pool());
  }
}

void MnMachine::for_each_wire_payload(
    const std::function<void(const Bytes&)>& fn) const {
  for (const auto& agg : wire_) {
    for (const auto& [dst, fb] : agg->frames()) {
      if (fb.open()) fn(fb.pending_payload());
    }
  }
}

void MnMachine::post_and_schedule(Packet p) {
  const NodeId dst = p.dst;
  // Epoch order matters for termination detection: the send must be counted
  // before the packet becomes visible, so a checker that reads
  // sent == handled knows no packet is hiding in a queue.
  detector_.note_sent();
  mailboxes_[dst]->push(std::move(p));
  // Mailbox push first, then the run token: a consumer that acquires the
  // token is guaranteed to see the packet.
  schedule(dst);
}

std::size_t MnMachine::drain(NodeId node, std::size_t max) {
  MpscQueue<Packet>& q = *mailboxes_[node];
  std::size_t done = 0;
  while (done < max) {
    auto p = q.pop();
    if (!p.has_value()) break;
    arrive(node, std::move(*p), *this);
    // The handled epoch counts the *physical* packet regardless of whether
    // the link layer suppressed it as a duplicate — symmetric with the
    // note_sent in post_and_schedule.
    detector_.note_handled();
    ++done;
  }
  return done;
}

void MnMachine::charge(NodeId node, SimTime /*ns*/) {
  HAL_ASSERT(node < node_count());
}

SimTime MnMachine::now(NodeId node) const {
  HAL_ASSERT(node < node_count());
  return static_cast<SimTime>(clock_.now_ns());
}

void MnMachine::schedule(NodeId node) {
  // The Idle/Queued/Running/RunningNotified transition logic lives in
  // RunTokenCell::publish (am/run_token.hpp); a true return means this
  // thread won the Idle→Queued race and owes the machine one enqueue.
  NodeSlot& s = slots_[node];
  if (s.token.publish()) enqueue(s);
}

void MnMachine::enqueue(NodeSlot& s) {
  // Run tokens are epoch-counted units exactly like packets: note_sent
  // before the token becomes visible, note_handled when its quantum ends
  // (run_node). sent == handled therefore proves no token hides in any run
  // queue — the detector's double scan stays exact at P >> N.
  detector_.note_sent();
  const int self = tl_worker_;
  if (self >= 0) {
    // On-pool: keep the node where its traffic originates (locality);
    // thieves rebalance from the top of the deque.
    workers_[static_cast<std::size_t>(self)]->local.push_bottom(&s);
    maybe_wake_thief();
  } else {
    // Off-pool (bootstrap sends before run()): hand the token to the node's
    // home worker through its MPSC inject queue.
    WorkerRec& rec = *workers_[s.home];
    rec.inject.push(s.id);
    wake_worker(rec);
  }
}

void MnMachine::wake_worker(WorkerRec& rec) noexcept {
  // Wakeup handshake (am/park_handshake.hpp). Every access to `sleeping`
  // (here and in park()) is a seq_cst read-modify-write, so they form a
  // single modification-order chain in which each RMW reads the write
  // immediately before it and every link synchronizes-with the next. The
  // worker re-arms `sleeping` (an RMW writing true) before EVERY
  // wait-predicate evaluation; take any such arm C and this producer's RMW
  // S (after its push into rec.inject):
  //   - S precedes C: the RMW chain from S to C carries happens-before, so
  //     the predicate (sequenced after C) sees the push — no park.
  //   - C precedes S: the first producer RMW after C reads true and
  //     notifies while holding the worker's mutex, so the notify cannot
  //     land between the predicate check and the park; the roused worker
  //     re-arms before it re-checks, restarting the argument, and later
  //     producers that read false are covered by that pending notify.
  // Either way the wakeup cannot be lost. Awake workers keep this path
  // lock-free (one uncontended RMW). RMWs instead of a seq_cst fence keep
  // the protocol visible to ThreadSanitizer, which does not model
  // atomic_thread_fence.
  //
  // The re-arm-per-evaluation is load-bearing, not belt-and-braces: the
  // inject queue is a Vyukov MPSC queue, so a COMPLETED push can be
  // transiently invisible behind another producer's half-finished one
  // (mpsc_queue.hpp, empty()). With a single pre-park arm, a worker woken
  // by producer A could read "empty" over producer B's gap and re-wait with
  // `sleeping` false (A's exchange cleared it) — then B, closing the gap
  // after A, reads false, skips the notify, and the worker sleeps forever
  // over B's token. Arming afresh guarantees the gap-closing producer either
  // reads true and notifies, or its RMW precedes the arm, in which case its
  // next-pointer store (sequenced before its RMW) is visible to the
  // predicate.
  if (rec.sleeping.claim_wake()) {
    std::lock_guard lock(rec.mutex);
    rec.cv.notify_one();
  }
}

void MnMachine::maybe_wake_thief() noexcept {
  // Advisory only: a parked worker is roused to come steal. Correctness
  // never depends on this wake — a token in our own deque is consumed by us
  // if nobody steals it — so a missed flag read costs throughput, nothing
  // else.
  if (sleepers_.load(std::memory_order_relaxed) == 0) return;
  for (auto& rec : workers_) {
    if (rec->sleeping.armed_hint()) {
      {
        std::lock_guard lock(rec->mutex);
        ++rec->wake_gen;
      }
      rec->cv.notify_one();
      return;
    }
  }
}

void MnMachine::wake_hook() noexcept {
  // The global run state changed (stop, or the work hint went positive).
  // Bump the wake epoch so idle nodes re-run on_idle (the balancer
  // re-polls), then wake every worker.
  wake_epoch_.fetch_add(1, std::memory_order_seq_cst);
  for (auto& rec : workers_) {
    {
      std::lock_guard lock(rec->mutex);
      ++rec->wake_gen;
    }
    rec->cv.notify_all();
  }
}

MnMachine::NodeSlot* MnMachine::next_runnable(WorkerRec& rec) {
  // Tokens injected off-pool surface into the owner's deque first so they
  // become stealable like everything else.
  while (auto n = rec.inject.pop()) {
    rec.local.push_bottom(&slots_[*n]);
  }
  if (NodeSlot* s = rec.local.pop_bottom()) return s;
  if (workers_n_ > 1) {
    // Random victims first (Kumar-style), then one deterministic sweep so
    // an available token is never missed by bad luck alone.
    for (std::uint32_t i = 0; i < workers_n_; ++i) {
      const auto v =
          static_cast<std::uint32_t>(rec.rng.below(workers_n_));
      if (v == rec.index) continue;
      if (NodeSlot* s = workers_[v]->local.steal_top()) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        return s;
      }
    }
    for (std::uint32_t v = 0; v < workers_n_; ++v) {
      if (v == rec.index) continue;
      if (NodeSlot* s = workers_[v]->local.steal_top()) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        return s;
      }
    }
  }
  return nullptr;
}

void MnMachine::run_node(NodeSlot& s) {
  const NodeId n = s.id;
  s.token.begin_quantum();
  bool more;
  {
    // This worker IS node n for the duration of the quantum (one execution
    // stream per node); the seq_cst state RMWs carry the happens-before
    // edge from the previous owner, so every per-node structure is handed
    // over race-free.
    check::ScopedExecutionNode scope(n);
    NodeClient& c = client(n);
    const std::size_t drained = drain(n, kDrainQuantum);
    std::size_t stepped = 0;
    while (stepped < kStepQuantum && c.step()) ++stepped;
    if (drained + stepped > 0) s.idle_notified = false;
    // Holdoff expiry rides the node's own quantum (the frame owner's
    // stream), like the link retransmission timer below; a frame never
    // outlives its deadline by more than one quantum of its runnable node.
    // Gated on an open frame existing: a busy receiver with nothing batched
    // must not pay a clock read per quantum.
    if (batching_active() && wire_[n]->earliest_deadline() != 0) {
      flush_due_frames(n, now(n));
    }
    // A due service deadline re-arms on_idle: the client asked to be
    // serviced at that time (e.g. the balancer's backed-off repoll).
    if (s.idle_notified) {
      const SimTime sd = c.service_deadline();
      if (sd != 0 && sd <= now(n)) s.idle_notified = false;
    }
    more = !mailboxes_[n]->empty() || c.has_work();
    if (!more) {
      // Busy→idle: ship held frames before the node's run token is retired,
      // so a receiver never waits out a holdoff that outlived the sender's
      // burst — and so no idle node ever holds a frame (termination).
      if (batching_active()) flush_frames(n, FlushCause::kIdle);
      // Run on_idle once per idle spell, and once more per wake epoch
      // (work-hint edge) so the balancer re-polls.
      const std::uint64_t e = wake_epoch_.load(std::memory_order_acquire);
      if (!s.idle_notified || s.idle_epoch != e) {
        s.idle_notified = true;
        s.idle_epoch = e;
        c.on_idle();  // may send packets (load-balancer poll)
        // on_idle's own sends (a steal poll, say) must not sit in a frame
        // on an idle node either.
        if (batching_active()) flush_frames(n, FlushCause::kIdle);
        more = !mailboxes_[n]->empty() || c.has_work();
      }
    }
    if (links_active()) {
      // Fire this node's retransmission timer if due (on its own stream, so
      // endpoint state stays single-writer), then publish the next deadline
      // so idle workers know how long the machine still owes wire work.
      // Only with the mailbox drained: acks still queued behind the drain
      // quantum may retire the very masters that look overdue, and
      // resending them anyway draws a fresh ack each — a node with many
      // masters then takes in acks faster than it drains them, and the
      // storm outlasts max_retries. A non-empty mailbox requeues the node
      // (`more`), so the timer fires on the first quantum that catches up.
      LinkEndpoint& ep = link(n);
      const SimTime due = ep.next_deadline();
      if (due != 0 && due <= now(n) && mailboxes_[n]->empty()) {
        ep.on_timer(now(n), *this);
      }
      link_timers_.set(n, ep.next_deadline());
    }
    // Publish/retire the node's service deadline so idle workers know when
    // an otherwise-idle client wants its on_idle re-run (backed-off repoll).
    // The published flag is owned by the token holder, so quanta for
    // clients that never request servicing (the common case) skip the
    // table's mutex entirely.
    const SimTime sd = c.service_deadline();
    if (sd != 0 || s.service_published) {
      service_timers_.set(n, sd);
      s.service_published = sd != 0;
    }
  }
  if (more) {
    s.token.requeue();
    enqueue(s);
  } else if (s.token.retire_or_requeue()) {
    // A sender saw us running and flagged new work mid-quantum (the retire
    // CAS lost to kRunningNotified — see RunTokenCell): re-publish.
    enqueue(s);
  }
  detector_.note_handled();  // the run token this quantum consumed
}

void MnMachine::sweep_home_nodes(WorkerRec& rec) {
  const bool prime = !rec.primed;
  rec.primed = true;
  // After priming, a sweep only matters while the work hint is positive
  // (idle nodes poll only then — their on_idle is a no-op otherwise, so
  // skipping the quanta entirely is behavior-equivalent and O(P) cheaper).
  if (!prime && work_hint() <= 0) return;
  for (NodeId n = rec.index; n < node_count();
       n += static_cast<NodeId>(workers_n_)) {
    if (prime || slots_[n].token.idle()) {
      schedule(n);
    }
  }
}

void MnMachine::DeadlineTable::set(NodeId node, SimTime deadline) {
  std::lock_guard lock(mutex_);
  if (deadline == 0) {
    deadlines_.erase(node);
  } else {
    deadlines_[node] = deadline;
  }
}

SimTime MnMachine::DeadlineTable::earliest() {
  std::lock_guard lock(mutex_);
  SimTime best = 0;
  for (const auto& [node, deadline] : deadlines_) {
    if (best == 0 || deadline < best) best = deadline;
  }
  return best;
}

std::vector<NodeId> MnMachine::DeadlineTable::due(SimTime t) {
  std::lock_guard lock(mutex_);
  std::vector<NodeId> out;
  for (const auto& [node, deadline] : deadlines_) {
    if (deadline <= t) out.push_back(node);
  }
  return out;
}

void MnMachine::DeadlineTable::clear() {
  std::lock_guard lock(mutex_);
  deadlines_.clear();
}

void MnMachine::schedule_due(DeadlineTable& table) {
  // schedule() is idempotent while a token is pending; it runs outside the
  // table's mutex.
  for (const NodeId n : table.due(now(0))) schedule(n);
}

void MnMachine::worker_loop(std::uint32_t w) {
  WorkerRec& rec = *workers_[w];
  tl_worker_ = static_cast<int>(w);
  while (!stop_requested()) {
    const std::uint64_t epoch = wake_epoch_.load(std::memory_order_acquire);
    if (epoch != rec.sweep_epoch) {
      rec.sweep_epoch = epoch;
      sweep_home_nodes(rec);
    }
    if (NodeSlot* s = next_runnable(rec)) {
      run_node(*s);
      continue;
    }

    // Idle transition. Snapshot the wake generation first: any wake that
    // fires from here on is caught by the wait predicates below.
    std::uint64_t gen;
    {
      std::lock_guard lock(rec.mutex);
      gen = rec.wake_gen;
    }
    if (!rec.inject.empty()) continue;
    if (wake_epoch_.load(std::memory_order_acquire) != rec.sweep_epoch) {
      continue;  // a wake epoch landed after our sweep: re-sweep, don't park
    }

    SimTime deadline = links_active() ? link_timers_.earliest() : 0;
    // A pending service deadline (backed-off repoll) bounds the park too, so
    // an idle node's deferred on_idle fires on time even under faults.
    const SimTime svc = service_timers_.earliest();
    if (deadline != 0) {
      if (svc != 0 && svc < deadline) deadline = svc;
      // Unacked retransmit masters somewhere: the machine still owes wire
      // work, so this worker must NOT join the idle set — staying active
      // keeps the detector's double scan returning kBusy, which is what
      // makes loss unable to fake quiescence. Park with the earliest
      // deadline; on timeout, reschedule the due nodes so their quanta fire
      // the retransmission timers on their own streams.
      sleepers_.fetch_add(1, std::memory_order_relaxed);
      park(rec, gen, deadline);
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      if (!stop_requested()) {
        schedule_due(link_timers_);
        schedule_due(service_timers_);
      }
      continue;
    }

    // Leave the active set, then ask the detector whether the whole machine
    // is done (the proof in termination.hpp: the last worker to deactivate
    // is guaranteed a passing double scan). kBusy is always safe: a token
    // or packet push wakes us through the inject/thief handshakes.
    detector_.deactivate(w);
    switch (detector_.check([this] { return tokens(); })) {
      case TerminationDetector::Verdict::kQuiescent:
        stop();  // wake_hook rouses every parked worker; they see stop
        return;
      case TerminationDetector::Verdict::kStalled:
        HAL_PANIC(
            "MnMachine: all workers idle with work tokens outstanding "
            "(protocol deadlock?)");
      case TerminationDetector::Verdict::kBusy:
        break;
    }
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    // Timed park when a service deadline is pending (backed-off balancer
    // repoll fires even with no other traffic), untimed otherwise.
    park(rec, gen, svc);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    detector_.activate(w);
    if (!stop_requested()) schedule_due(service_timers_);
  }
}

void MnMachine::park(WorkerRec& rec, std::uint64_t gen, SimTime deadline) {
  std::unique_lock lock(rec.mutex);
  for (;;) {
    // Re-arm before EVERY predicate evaluation — not once before the first
    // wait. A completed push can be unreachable behind another producer's
    // half-finished one (mpsc_queue.hpp, empty()), so a single check after a
    // wakeup could read "empty" with `sleeping` already cleared; the
    // producer that closes the gap would then skip its notify and this
    // worker would sleep over a live run token. With the arm here, every
    // producer RMW after it reads true and notifies under our mutex, and
    // every producer RMW before it synchronizes-with the arm, making its
    // push visible to the check below. Full proof at wake_worker.
    rec.sleeping.arm();
    if (!rec.inject.empty() || stop_requested() || rec.wake_gen != gen) break;
    if (deadline != 0) {
      if (rec.cv.wait_until(lock,
                            epoch_ + std::chrono::nanoseconds(deadline)) ==
          std::cv_status::timeout) {
        break;  // deadline work (link timer, service poll) is due
      }
    } else {
      rec.cv.wait(lock);
    }
  }
  rec.sleeping.disarm();
}

void MnMachine::run() {
  std::vector<std::jthread> threads;
  threads.reserve(workers_n_);
  for (std::uint32_t w = 0; w < workers_n_; ++w) {
    threads.emplace_back([this, w] { worker_loop(w); });
  }
  // jthread joins on destruction; run() returns once every worker exits.
}

}  // namespace hal::am
