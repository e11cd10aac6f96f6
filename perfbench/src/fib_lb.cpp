// fib_lb: load-balanced actor Fibonacci on MnMachine (1024 nodes).
//
// The same recursion, cutoff and receiver-initiated load balancing as
// apps::run_fib, written as the benchmark's own behaviour so that its
// calls can be traced. The tree is seeded on node 0 and spread by idle
// nodes polling random victims; each call above the cutoff is an actor
// whose two children reply into a join continuation. Run time goes to
// scheduling many mostly idle nodes, balancer polls, steals, migrations and
// join continuations. The value is checked against fib_seq.
#include "baseline/seq_kernels.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr hal::NodeId kNodes = 1024;
constexpr std::uint64_t kN = 32;
constexpr std::uint64_t kCutoff = 13;

std::uint64_t fib_inline(std::uint64_t n) {
  return n < 2 ? n : fib_inline(n - 1) + fib_inline(n - 2);
}

class FibActor : public hal::ActorBase {
 public:
  void on_compute(hal::Context& ctx, std::uint64_t n, std::uint64_t cutoff,
                  hal::ContRef reply, std::uint64_t req, std::uint64_t cause) {
    ScopedSpan h(ctx, SpanName::kHandler, req, cause);
    ++rec(ctx.node()).attempted;
    if (n < cutoff) {
      const std::uint64_t value = fib_inline(n);
      ScopedSpan r(ctx, SpanName::kReplyCall, req, h.id());
      ctx.reply_to(reply, value);
      ctx.terminate();
      return;
    }
    // This call's two child calls form one new request.
    const std::uint64_t sub = Tracer::root();
    const hal::SimTime t0 = ctx.now();
    const hal::ContRef join = ctx.make_join(
        2, [reply, t0, req, sub](hal::Context& jc, const hal::JoinView& v) {
          ScopedSpan c(jc, SpanName::kContinuation, sub, 0);
          const hal::SimTime t1 = jc.now();
          NodeRec& nr = rec(jc.node());
          nr.rtt_ns.push_back(t1 - t0);
          nr.requests += 2;
          if (sub != 0) {
            Tracer::record({sub, 0, sub, static_cast<std::int64_t>(t0),
                            static_cast<std::int64_t>(t1), SpanName::kRequest});
          }
          ScopedSpan r(jc, SpanName::kReplyCall, req, c.id());
          jc.reply_to(reply, v.word(0) + v.word(1));
        });
    hal::MailAddress kids[2];
    for (hal::MailAddress& kid : kids) {
      ScopedSpan s(ctx, SpanName::kCreateCall, sub, h.id());
      kid = ctx.create<FibActor>();
    }
    // Unprocessed children are the stealable work units.
    ctx.set_relocatable(kids[0], true);
    ctx.set_relocatable(kids[1], true);
    for (std::uint64_t i = 0; i < 2; ++i) {
      ScopedSpan s(ctx, SpanName::kSendCall, sub, h.id());
      ctx.send<&FibActor::on_compute>(kids[i], n - 1 - i, cutoff,
                                      join.at(static_cast<std::uint32_t>(i)),
                                      sub, s.id());
    }
    ctx.terminate();
  }
  HAL_BEHAVIOR(FibActor, &FibActor::on_compute)

  bool migratable() const override { return true; }
  void pack_state(hal::ByteWriter&) const override {}  // stateless
  void unpack_state(hal::ByteReader&) override {}
};

class FibRoot : public hal::ActorBase {
 public:
  void on_start(hal::Context& ctx, std::uint64_t n, std::uint64_t cutoff) {
    const hal::ContRef join = ctx.make_join(
        1, [self = ctx.self()](hal::Context& jc, const hal::JoinView& v) {
          jc.send<&FibRoot::on_done>(self, v.word(0));
        });
    const hal::MailAddress top = ctx.create<FibActor>();
    ctx.set_relocatable(top, true);
    ctx.send<&FibActor::on_compute>(top, n, cutoff, join.at(0),
                                    std::uint64_t{0}, std::uint64_t{0});
  }
  void on_done(hal::Context& ctx, std::uint64_t value) {
    rec(ctx.node()).sum = value;
    ++rec(ctx.node()).count;
  }
  HAL_BEHAVIOR(FibRoot, &FibRoot::on_start, &FibRoot::on_done)
};

}  // namespace

Sample run_fib_lb(const SampleSpec& spec) {
  Sample out;
  hal::RuntimeConfig cfg;
  cfg.nodes = kNodes;
  cfg.machine = hal::MachineKind::kMn;
  // Two workers, not nproc: with every vCPU of a shared host busy, the host
  // preempting one worker stalls all the nodes it runs. fib_lb's makespan
  // was the same at 2 and 4 workers on a quiet 4-vCPU host.
  cfg.mn_workers = std::min(usable_cpus(), 2u);
  cfg.load_balancing = true;
  cfg.seed = mix(spec.seed);
  reset_recorders(kNodes, 0);
  run_runtime(
      out, cfg,
      [&](hal::Runtime& rt) {
        rt.load<FibActor>();
        rt.load<FibRoot>();
        rt.inject<&FibRoot::on_start>(rt.spawn<FibRoot>(0), kN, kCutoff);
      },
      [&](hal::Runtime&) {
        const NodeRec& root = rec(0);
        std::uint64_t calls = 0;
        for (const NodeRec& r : recorders()) calls += r.attempted;
        if (root.count != 1 ||
            root.sum != hal::baseline::fib_seq(static_cast<unsigned>(kN))) {
          out.failed += calls;
        }
      });
  collect_recorders(out);
  return out;
}

}  // namespace perfbench
