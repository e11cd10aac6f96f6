// Table 3 — comparison of comparable method-invocation costs.
//
// Paper: "The comparison of comparable method invocation costs. All numbers
// are minimum values. [Ours and ABCL/onAP1000's] are the sum of the time
// for locality check and the time for function invocation." The paper's
// point (§6.3): the compiler-visible fast path — locality check + static
// dispatch on the caller's stack — costs a small multiple of a plain
// function call, while the generic buffered send is an order of magnitude
// more; an encapsulated runtime (ABCL-style) that always buffers local
// messages pays the generic price every time.
//
// Rows: plain C++ virtual call / compiled static dispatch (locality check +
// invocation) / generic buffered local send / remote send. Simulated µs on
// the CM-5 cost model, then host-ns microbenchmarks of the same paths.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "runtime/api.hpp"

namespace {

using namespace hal;

class Server : public ActorBase {
 public:
  void on_call(Context&, std::int64_t v) { acc += v; }
  void on_ask(Context& ctx) { ctx.reply(acc); }
  HAL_BEHAVIOR(Server, &Server::on_call, &Server::on_ask)
  std::int64_t acc = 0;
};

/// The remote send's receiver: Server::on_call's one-argument shape, plus
/// the virtual time its body starts — where the end-to-end row stops.
class RemoteServer : public ActorBase {
 public:
  void on_call(Context& ctx, std::int64_t v) {
    started_at = ctx.now();
    acc += v;
  }
  HAL_BEHAVIOR(RemoteServer, &RemoteServer::on_call)
  std::int64_t acc = 0;
  SimTime started_at = 0;
};

/// Side traffic for the structured report: a caller on a third node doing a
/// full request/reply to the node-0 server, so the emitted histogram set
/// also covers the join round-trip path. Node 1 stays free for the remote
/// send, so this traffic never lands in the end-to-end span.
class Caller : public ActorBase {
 public:
  void on_go(Context& ctx, MailAddress server, std::int64_t count) {
    for (std::int64_t i = 0; i < count; ++i) {
      ctx.send<&Server::on_call>(server, std::int64_t{1});
    }
    ctx.request<&Server::on_ask>(server, [](Context&, const JoinView&) {});
  }
  HAL_BEHAVIOR(Caller, &Caller::on_go)
};

RuntimeConfig sim_cfg(NodeId nodes) {
  RuntimeConfig cfg;
  cfg.nodes = nodes;
  cfg.machine = hal::bench::env_machine(cfg.machine);
  cfg.mn_workers = hal::bench::env_mn_workers();
  return cfg;
}

obs::RunReport print_sim_table() {
  Runtime rt(sim_cfg(3));
  rt.load<Server>();
  rt.load<RemoteServer>();
  rt.load<Caller>();
  const MailAddress local = rt.spawn<Server>(0);
  const MailAddress remote = rt.spawn<RemoteServer>(1);
  // Queued on node 2 for the drain phase; does not perturb the single-shot
  // measurements below.
  const MailAddress caller = rt.spawn<Caller>(2);
  rt.inject<&Caller::on_go>(caller, local, std::int64_t{16});
  Kernel& k0 = rt.kernel(0);
  am::Machine& m = rt.machine();

  std::printf("%-44s %14s\n", "invocation mechanism", "min cost (µs)");

  // Plain function call reference: the cost model's static dispatch charge
  // alone (what the inlined call costs the 33 MHz node).
  std::printf("%-44s %14.2f\n", "C++ call (reference)",
              static_cast<double>(m.costs().static_dispatch_ns) / 1e3);

  {
    Context ctx(k0, SlotId{}, local, nullptr);
    const SimTime t0 = m.now(0);
    (void)compiled::try_invoke_local<&Server::on_call>(ctx, local,
                                                       std::int64_t{1});
    std::printf("%-44s %14.2f\n",
                "locality check + static dispatch (ours)",
                hal::bench::us(m.now(0) - t0));
  }
  {
    Message msg;
    msg.dest = local;
    msg.selector = sel<&Server::on_call>();
    codec::encode_args(msg, std::int64_t{1});
    const SimTime t0 = m.now(0);
    k0.send_message(msg);
    (void)k0.step();
    std::printf("%-44s %14.2f\n",
                "generic buffered send (ABCL-style local)",
                hal::bench::us(m.now(0) - t0));
  }
  {
    Message msg;
    msg.dest = remote;
    msg.selector = sel<&RemoteServer::on_call>();
    codec::encode_args(msg, std::int64_t{1});
    const SimTime t0 = m.now(0);
    k0.send_message(msg);
    const SimTime sender_side = m.now(0) - t0;
    std::printf("%-44s %14.2f\n", "remote send (sender side)",
                hal::bench::us(sender_side));
    rt.run();  // drain
    std::printf("%-44s %14.2f\n", "remote send (end to end)",
                hal::bench::us(rt.find_behavior<RemoteServer>(remote)
                                   ->started_at -
                               t0));
  }
  return rt.report();
}

// --- Host microbenchmarks -----------------------------------------------------

struct Fixture {
  Runtime rt{sim_cfg(1)};
  MailAddress target;
  Server* raw = nullptr;
  Fixture() {
    rt.load<Server>();
    target = rt.spawn<Server>(0);
    raw = rt.find_behavior<Server>(target);
  }
  static Fixture& instance() {
    static Fixture f;
    return f;
  }
};

void BM_CppVirtualCall(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  ActorBase* base = f.raw;
  Kernel& k = f.rt.kernel(0);
  Context ctx(k, SlotId{}, f.target, nullptr);
  Message msg;
  msg.dest = f.target;
  msg.selector = sel<&Server::on_call>();
  codec::encode_args(msg, std::int64_t{1});
  for (auto _ : state) {
    base->dispatch_message(ctx, msg);  // virtual dispatch + arg decode
    benchmark::DoNotOptimize(f.raw->acc);
  }
}
BENCHMARK(BM_CppVirtualCall);

void BM_StaticDispatchFastPath(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  Kernel& k = f.rt.kernel(0);
  Context ctx(k, SlotId{}, f.target, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled::try_invoke_local<&Server::on_call>(
        ctx, f.target, std::int64_t{1}));
  }
}
BENCHMARK(BM_StaticDispatchFastPath);

void BM_GenericBufferedSend(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  Kernel& k = f.rt.kernel(0);
  Message msg;
  msg.dest = f.target;
  msg.selector = sel<&Server::on_call>();
  codec::encode_args(msg, std::int64_t{1});
  for (auto _ : state) {
    k.send_message(msg);
    benchmark::DoNotOptimize(k.step());
  }
}
BENCHMARK(BM_GenericBufferedSend);

}  // namespace

int main(int argc, char** argv) {
  hal::bench::header(
      "Table 3: comparable method-invocation costs (simulated µs)",
      "paper §7.1 Table 3 — static dispatch vs generic send");
  hal::bench::report_json(print_sim_table(), "table3_dispatch");
  std::printf(
      "\nshape check: static dispatch should sit within a few C++ calls;\n"
      "the generic buffered send should cost several times more.\n\n");
  std::printf("host-nanosecond microbenchmarks of the same paths:\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
