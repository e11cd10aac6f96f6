// Wire-batching semantics: destination-coalesced frames must be invisible
// to everything above the wire. The simulator never batches (same-seed Sim
// runs stay byte-identical and put no frame on the wire); on the wall-clock
// executor batched results equal unbatched results, frames ride the link
// whole (exactly-once, in-order under loss), held frames force-flush at the
// busy->idle transition instead of waiting out the holdoff, and the
// adaptive holdoff follows the rules of the fixed policy.
//
// Suite names contain "Fault" where the CI sanitizer jobs should pick them
// up (-R 'Stress|ThreadMachine|MnMachine|Bulk|Fault'). "ThreadMachine" in a
// test name means the thread kind: MnMachine at one worker per node.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "am/mn_machine.hpp"
#include "am/wire_batch.hpp"
#include "runtime/api.hpp"

namespace hal {
namespace {

// --- Runtime-level workload -----------------------------------------------------

/// Flood sink: sums everything (the exact-result check).
class Sink : public ActorBase {
 public:
  void on_add(Context&, std::uint64_t v) { sum += v; }
  HAL_BEHAVIOR(Sink, &Sink::on_add)
  std::uint64_t sum = 0;
};

/// Self-paced flood source (one chunk per dispatch).
class Source : public ActorBase {
 public:
  void on_init(Context&, MailAddress dst, std::uint64_t base) {
    dst_ = dst;
    next_ = base;
  }
  void on_flood(Context& ctx, std::uint64_t left) {
    const std::uint64_t chunk = left < 128 ? left : 128;
    for (std::uint64_t i = 0; i < chunk; ++i) {
      ctx.send<&Sink::on_add>(dst_, next_++);
    }
    if (left > chunk) ctx.send<&Source::on_flood>(ctx.self(), left - chunk);
  }
  HAL_BEHAVIOR(Source, &Source::on_init, &Source::on_flood)

 private:
  MailAddress dst_;
  std::uint64_t next_ = 0;
};

struct StormResult {
  std::uint64_t sum = 0;
  std::uint64_t dead = 0;
  obs::RunReport report;
};

/// 3:1 remote flood into node 0 under `cfg` (seeded Sim by default).
StormResult run_flood(RuntimeConfig cfg, std::uint64_t per_sender = 600) {
  cfg.nodes = 4;
  Runtime rt(cfg);
  rt.load<Sink>();
  rt.load<Source>();
  const MailAddress sink = rt.spawn<Sink>(0);
  for (NodeId s = 1; s < cfg.nodes; ++s) {
    const MailAddress f = rt.spawn<Source>(s);
    rt.inject<&Source::on_init>(f, sink, per_sender * s);
    rt.inject<&Source::on_flood>(f, per_sender);
  }
  rt.run();
  StormResult out;
  const auto* c = rt.find_behavior<Sink>(sink);
  out.sum = c != nullptr ? c->sum : 0;
  out.dead = rt.dead_letters();
  out.report = rt.report();
  return out;
}

std::uint64_t flood_expect(NodeId nodes, std::uint64_t per_sender) {
  std::uint64_t want = 0;
  for (NodeId s = 1; s < nodes; ++s) {
    const std::uint64_t base = per_sender * s;
    want += per_sender * base + per_sender * (per_sender - 1) / 2;
  }
  return want;
}

TEST(WireBatchFault, SimSameSeedReportsAreByteIdentical) {
  RuntimeConfig cfg;  // seeded Sim; batching on in the config
  const StormResult a = run_flood(cfg);
  const StormResult b = run_flood(cfg);
  EXPECT_EQ(a.sum, flood_expect(4, 600));
  EXPECT_EQ(a.dead, 0u);
  // The simulator ignores the batching switch and sends one packet per
  // message, as CMAM did; the whole structured report replays
  // byte-for-byte.
  EXPECT_EQ(a.report.total.get(Stat::kWireFramesSent), 0u);
  EXPECT_EQ(a.report.total.get(Stat::kWireMsgsCoalesced), 0u);
  EXPECT_EQ(a.report.to_json(), b.report.to_json());
}

TEST(WireBatchFault, ThreadMachineBatchedMatchesUnbatchedResults) {
  RuntimeConfig on;
  on.machine = MachineKind::kThread;
  RuntimeConfig off = on;
  off.batching.enabled = false;
  const StormResult rb = run_flood(on);
  const StormResult ru = run_flood(off);
  EXPECT_EQ(rb.sum, flood_expect(4, 600));
  EXPECT_EQ(ru.sum, flood_expect(4, 600));
  EXPECT_EQ(rb.dead, 0u);
  EXPECT_EQ(ru.dead, 0u);
  // Every message arrived either way, and only the batched run put frames
  // on the wire.
  EXPECT_EQ(rb.report.total.get(Stat::kMessagesDelivered),
            ru.report.total.get(Stat::kMessagesDelivered));
  EXPECT_GT(rb.report.total.get(Stat::kWireFramesSent), 0u);
  EXPECT_EQ(ru.report.total.get(Stat::kWireFramesSent), 0u);
  // The receiver samples each frame's fill once, at decode: one sample per
  // frame sent, and the samples add up to the coalesced messages.
  const obs::Log2Histogram& fill =
      rb.report.probes.histogram(obs::Probe::kFrameFill);
  EXPECT_EQ(fill.count(), rb.report.total.get(Stat::kWireFramesSent));
  EXPECT_EQ(fill.sum(), rb.report.total.get(Stat::kWireMsgsCoalesced));
  EXPECT_TRUE(ru.report.probes.histogram(obs::Probe::kFrameFill).empty());
}

// --- Machine-level: frames on the faulty wire -----------------------------------

class RecordingClient : public am::NodeClient {
 public:
  std::vector<am::Packet> received;
  void handle(am::Packet p) override { received.push_back(std::move(p)); }
  bool step() override { return false; }
  bool has_work() const override { return false; }
};

am::Packet tagged(NodeId src, NodeId dst, std::uint64_t tag) {
  am::Packet p;
  p.src = src;
  p.dst = dst;
  p.handler = 1;
  p.words[0] = tag;
  return p;
}

void expect_exactly_once_in_order(const RecordingClient& c,
                                  std::uint64_t count) {
  ASSERT_EQ(c.received.size(), count);
  for (std::uint64_t i = 0; i < count; ++i) {
    EXPECT_EQ(c.received[i].words[0], i) << "at position " << i;
  }
}

TEST(WireBatchFault, ThreadMachineCoalescedFramesSurviveLoss) {
  am::MnMachine machine(2, am::CostModel::cm5(), /*workers=*/2u);
  RecordingClient clients[2];
  machine.attach(0, &clients[0]);
  machine.attach(1, &clients[1]);
  machine.configure_batching(am::BatchConfig{});
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop = 0.05;
  fc.seed = 23;
  fc.rto_ns = 500'000;  // soak-friendly recovery
  machine.configure_faults(fc);
  constexpr std::uint64_t kCount = 400;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    machine.send(tagged(0, 1, i));
  }
  machine.run();
  expect_exactly_once_in_order(clients[1], kCount);
}

TEST(WireBatchFault, BarrierFlushKeepsChannelFifo) {
  // Unbatchable packets (an oversized payload, an urgent control packet)
  // bypass the frame, so each must first flush the channel's open frame or
  // it would overtake the small sends queued before it. All sends happen
  // before run(), so no timer or idle flush can close a frame early.
  am::MnMachine machine(2, am::CostModel::cm5(), /*workers=*/1u);
  RecordingClient clients[2];
  machine.attach(0, &clients[0]);
  machine.attach(1, &clients[1]);
  machine.configure_batching(am::BatchConfig{});
  std::uint64_t tag = 0;
  const auto smalls = [&](int n) {
    for (int i = 0; i < n; ++i) machine.send(tagged(0, 1, tag++));
  };
  smalls(4);
  am::Packet big = tagged(0, 1, tag++);
  big.payload.resize(600);
  ASSERT_GT(big.payload.size(), am::kMaxInlinePayload);
  machine.send(std::move(big));
  smalls(3);
  am::Packet urgent = tagged(0, 1, tag++);
  urgent.urgent = true;
  machine.send(std::move(urgent));
  smalls(4);
  machine.run();

  expect_exactly_once_in_order(clients[1], tag);
  EXPECT_EQ(machine.wire_stats(0)->flush_barrier, 2u);
}

// --- Forced flush at quiescence -------------------------------------------------

/// Sends one eligible packet from its first step, then has no more work.
/// Records how many frames its node had shipped when on_idle first ran.
class OneShotClient : public RecordingClient {
 public:
  OneShotClient(am::MnMachine& m, am::Packet p)
      : m_(m), node_(p.src), p_(std::move(p)) {}
  bool step() override {
    if (sent_) return false;
    sent_ = true;
    m_.send(std::move(p_));
    return true;
  }
  bool has_work() const override { return !sent_; }
  void on_idle() override {
    if (sent_ && frames_at_idle < 0) {
      frames_at_idle =
          static_cast<std::int64_t>(m_.wire_stats(node_)->frames_sent);
    }
  }
  std::int64_t frames_at_idle = -1;

 private:
  am::MnMachine& m_;
  NodeId node_;
  am::Packet p_;
  bool sent_ = false;
};

TEST(WireBatchFault, IdleTransitionFlushKeepsTerminationPrompt) {
  // The sender's node goes idle right after one eligible send: the
  // busy->idle flush must ship the held frame at once, before the node's
  // on_idle runs (a balancer poll, say), instead of leaving it to the
  // holdoff timer. The holdoff is 2 us of wall time, and a slow send (the
  // first frame buffer a cold process allocates, a sanitizer build) can
  // outlast it, so the frame may close on the timer instead; either way it
  // has left before on_idle. Fresh machines, repeated: once the process is
  // warm a release-build send takes well under the holdoff, so a missing
  // idle flush shows as a frame still held when on_idle runs.
  for (int round = 0; round < 8; ++round) {
    am::MnMachine machine(2, am::CostModel::cm5(), /*workers=*/1u);
    OneShotClient sender(machine, tagged(0, 1, 7));
    RecordingClient receiver;
    machine.attach(0, &sender);
    machine.attach(1, &receiver);
    machine.configure_batching(am::BatchConfig{});
    machine.run();

    ASSERT_EQ(receiver.received.size(), 1u) << "round " << round;
    const am::WireStats& ws = *machine.wire_stats(0);
    EXPECT_EQ(ws.frames_sent, 1u) << "round " << round;
    EXPECT_EQ(ws.flush_idle + ws.flush_timer, 1u) << "round " << round;
    EXPECT_EQ(sender.frames_at_idle, 1) << "round " << round;
  }
}

TEST(WireBatchFault, ThreadMachineIdleFlushTerminatesWithHugeHoldoff) {
  // Each sender's node goes idle once its flood is out; a frame stranded at
  // quiescence would lose messages from the exact sum below.
  RuntimeConfig cfg;
  cfg.machine = MachineKind::kThread;
  const StormResult r = run_flood(cfg, /*per_sender=*/40);
  EXPECT_EQ(r.sum, flood_expect(4, 40));
  EXPECT_EQ(r.dead, 0u);
}

// --- Adaptive holdoff -----------------------------------------------------------

/// Append `n` records to `fb` at time `now`.
void fill(am::FrameBuilder& fb, std::uint32_t n, SimTime now,
          BufferPool& pool) {
  for (std::uint32_t i = 0; i < n; ++i) fb.add(tagged(0, 1, i), now, pool);
}

/// Close `fb` with `cause` and return the frame buffer to `pool`.
void close_into(am::FrameBuilder& fb, am::FlushCause cause,
                BufferPool& pool) {
  am::Packet f = fb.close(0, 1, cause);
  pool.release(std::move(f.payload));
}

/// The holdoff the next frame will wait: the deadline its first record arms.
SimTime next_holdoff(am::FrameBuilder& fb, BufferPool& pool) {
  constexpr SimTime kNow = 1'000'000;
  fill(fb, 1, kNow, pool);
  const SimTime h = fb.deadline() - kNow;
  fb.abandon(pool);
  return h;
}

TEST(WireBatch, AdaptiveHoldoffFollowsTimerCloses) {
  using Policy = am::BatchConfig;
  constexpr std::uint32_t kFull = Policy::max_msgs / 2;    // >= doubles
  constexpr std::uint32_t kSparse = Policy::max_msgs / 4;  // < halves
  BufferPool pool;
  am::FrameBuilder fb;

  // The first record arms the deadline one initial holdoff (2 us) out.
  fill(fb, 1, 5'000, pool);
  EXPECT_EQ(fb.deadline(), 5'000 + Policy::holdoff_ns);
  EXPECT_EQ(Policy::holdoff_ns, 2'000u);
  fb.abandon(pool);

  // Timer closes in the middle band leave it where it is, and so do fill,
  // idle and barrier closes whatever the frame's occupancy (checked away
  // from the clamp, where doubling or halving would both show).
  for (const std::uint32_t n : {kSparse, kFull - 1}) {
    fill(fb, n, 0, pool);
    close_into(fb, am::FlushCause::kTimer, pool);
    EXPECT_EQ(next_holdoff(fb, pool), Policy::holdoff_ns) << n;
  }
  for (const am::FlushCause cause : {am::FlushCause::kFill,
                                     am::FlushCause::kIdle,
                                     am::FlushCause::kBarrier}) {
    for (const std::uint32_t n : {1u, kFull, Policy::max_msgs}) {
      fill(fb, n, 0, pool);
      close_into(fb, cause, pool);
      EXPECT_EQ(next_holdoff(fb, pool), Policy::holdoff_ns) << n;
    }
  }

  // Timer closes of at least half-full frames double it, up to the cap.
  SimTime want = Policy::holdoff_ns;
  for (int i = 0; i < 8; ++i) {
    fill(fb, kFull, 0, pool);
    close_into(fb, am::FlushCause::kTimer, pool);
    want = std::min<SimTime>(want * 2, Policy::holdoff_max_ns);
    EXPECT_EQ(next_holdoff(fb, pool), want) << "after doubling " << i;
  }
  EXPECT_EQ(want, Policy::holdoff_max_ns);
  EXPECT_EQ(Policy::holdoff_max_ns, 100'000u);

  // Timer closes of sparse frames halve it, down to the floor.
  want = Policy::holdoff_max_ns;
  for (int i = 0; i < 10; ++i) {
    fill(fb, kSparse - 1, 0, pool);
    close_into(fb, am::FlushCause::kTimer, pool);
    want = std::max<SimTime>(want / 2, Policy::holdoff_min_ns);
    EXPECT_EQ(next_holdoff(fb, pool), want) << "after halving " << i;
  }
  EXPECT_EQ(want, Policy::holdoff_min_ns);
  EXPECT_EQ(Policy::holdoff_min_ns, 1'000u);
}

}  // namespace
}  // namespace hal
