// storm: the CAF n:1 mailbox storm on ThreadMachine (3 nodes).
//
// Two flooders on nodes 1-2 stream counted messages with inline
// arguments at one counter on node 0. Each flooder keeps kWindow chunks in
// flight: after a chunk it requests an acknowledgement from the counter,
// and the reply releases the next chunk. The window is wide enough that
// the counter never runs dry, so throughput is set by the message path and
// not by how fast a parked flooder thread wakes. The acknowledgement
// carries the number of this flooder's messages the counter has seen,
// which per-channel FIFO order makes exact, and the counter's total and
// sum are checked at the end. Frames fill and close on fill, the name
// layer only hits its cache, and there is no balancer and no migration.
// ThreadMachine runs one thread per node; three nodes leave a vCPU of a
// 4-vCPU host free, so host preemption does not set the latency tail.
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr hal::NodeId kNodes = 3;
constexpr std::uint64_t kFlooders = kNodes - 1;
constexpr std::uint64_t kChunk = 128;
constexpr std::uint64_t kWindow = 16;  ///< chunks in flight per flooder
constexpr std::uint64_t kChunksPerFlooder = 1600;

class Counter : public hal::ActorBase {
 public:
  void on_add(hal::Context& ctx, std::uint64_t value, std::uint64_t flooder,
              std::uint64_t req, std::uint64_t cause) {
    ScopedSpan h(ctx, SpanName::kHandler, req, cause);
    NodeRec& r = rec(ctx.node());
    r.sum += value;
    ++r.count;
    ++seen_[flooder];
  }
  void on_ack(hal::Context& ctx, std::uint64_t flooder, std::uint64_t req,
              std::uint64_t cause) {
    ScopedSpan h(ctx, SpanName::kHandler, req, cause);
    ScopedSpan s(ctx, SpanName::kReplyCall, req, h.id());
    ctx.reply(seen_[flooder]);
  }
  HAL_BEHAVIOR(Counter, &Counter::on_add, &Counter::on_ack)

 private:
  std::uint64_t seen_[kFlooders] = {};
};

class Flooder : public hal::ActorBase {
 public:
  void on_init(hal::Context&, hal::MailAddress counter, std::uint64_t index,
               std::uint64_t base) {
    counter_ = counter;
    index_ = index;
    next_ = base;
  }
  void on_chunk(hal::Context& ctx) {
    if (chunks_ == kChunksPerFlooder) return;
    const std::uint64_t req = Tracer::root();
    ScopedSpan h(ctx, SpanName::kHandler, req, 0);
    NodeRec& r = rec(ctx.node());
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      ScopedSpan s(ctx, SpanName::kSendCall, req, h.id());
      ctx.send<&Counter::on_add>(counter_, next_++, index_, req, s.id());
    }
    ++chunks_;
    r.attempted += kChunk + 1;
    const std::uint64_t expect = chunks_ * kChunk;
    const hal::SimTime t0 = ctx.now();
    ScopedSpan s(ctx, SpanName::kRequestCall, req, h.id());
    ctx.request<&Counter::on_ack>(
        counter_,
        [self = ctx.self(), t0, expect, req](hal::Context& jc,
                                             const hal::JoinView& v) {
          ScopedSpan c(jc, SpanName::kContinuation, req, 0);
          const hal::SimTime t1 = jc.now();
          NodeRec& nr = rec(jc.node());
          nr.rtt_ns.push_back(t1 - t0);
          ++nr.requests;
          if (v.word(0) != expect) ++nr.failed;
          if (req != 0) {
            Tracer::record({req, 0, req, static_cast<std::int64_t>(t0),
                            static_cast<std::int64_t>(t1), SpanName::kRequest});
          }
          jc.send<&Flooder::on_chunk>(self);
        },
        index_, req, s.id());
  }
  HAL_BEHAVIOR(Flooder, &Flooder::on_init, &Flooder::on_chunk)

 private:
  hal::MailAddress counter_;
  std::uint64_t index_ = 0;
  std::uint64_t next_ = 0;
  std::uint64_t chunks_ = 0;
};

}  // namespace

Sample run_storm(const SampleSpec& spec) {
  Sample out;
  hal::RuntimeConfig cfg;
  cfg.nodes = kNodes;
  cfg.machine = hal::MachineKind::kThread;
  cfg.seed = mix(spec.seed);
  reset_recorders(kNodes, kChunksPerFlooder);

  std::uint64_t bases[kFlooders];
  std::uint64_t expect_sum = 0;
  const std::uint64_t per_flooder = kChunk * kChunksPerFlooder;
  for (std::uint64_t f = 0; f < kFlooders; ++f) {
    bases[f] = mix(spec.seed * kFlooders + f) >> 20;
    // Sum of bases[f] .. bases[f] + per_flooder - 1 (mod 2^64).
    expect_sum += per_flooder * bases[f] + per_flooder * (per_flooder - 1) / 2;
  }
  run_runtime(
      out, cfg,
      [&](hal::Runtime& rt) {
        rt.load<Counter>();
        rt.load<Flooder>();
        const hal::MailAddress counter = rt.spawn<Counter>(0);
        for (std::uint64_t f = 0; f < kFlooders; ++f) {
          const hal::MailAddress a =
              rt.spawn<Flooder>(static_cast<hal::NodeId>(f + 1));
          rt.inject<&Flooder::on_init>(a, counter, f, bases[f]);
          for (std::uint64_t w = 0; w < kWindow; ++w) {
            rt.inject<&Flooder::on_chunk>(a);
          }
        }
      },
      [&](hal::Runtime&) {
        const NodeRec& sink = rec(0);
        const std::uint64_t total = kFlooders * per_flooder;
        if (sink.count != total || sink.sum != expect_sum) {
          out.failed += total;
        }
        std::uint64_t acks = 0;
        for (const NodeRec& r : recorders()) acks += r.requests;
        out.failed += kFlooders * kChunksPerFlooder - acks;
      });
  collect_recorders(out);
  return out;
}

}  // namespace perfbench
