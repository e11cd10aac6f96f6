// Table 2 — execution time of the runtime primitives.
//
// Paper: "the use of aliases allows the local execution of a remote actor
// creation [to take] 5.83 µs whereas the actual latency is 20.83 µs. The
// locality check is done using only locally available information and
// completes within 1 µs for the locally created actors."
//
// The first table reports the primitives in simulated microseconds on the
// CM-5-calibrated cost model — these are the Table 2 numbers. On the
// simulator (the default machine) the table is also a fidelity gate: the
// binary exits 1 when a row with a numeric paper value is more than 15% off
// it, or the locality check is not under 1 µs. The google-benchmark section
// that follows measures the same code paths in host nanoseconds (the
// protocol logic itself, unscaled).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>

#include "bench_util.hpp"
#include "runtime/api.hpp"

namespace {

using namespace hal;

class Target : public ActorBase {
 public:
  void on_ping(Context& ctx) {
    if (message_received_at == 0) message_received_at = ctx.now();
  }
  void on_nop(Context&) {}
  HAL_BEHAVIOR(Target, &Target::on_ping, &Target::on_nop)
  inline static SimTime message_received_at = 0;
};

RuntimeConfig sim_cfg(NodeId nodes) {
  RuntimeConfig cfg;
  cfg.nodes = nodes;
  cfg.machine = hal::bench::env_machine(cfg.machine);
  cfg.mn_workers = hal::bench::env_mn_workers();
  return cfg;
}

struct Measurement {
  const char* name;
  double sim_us;
  const char* paper_us;  // "-" (no paper value), "< X", or a number
};

/// Largest relative error a row with a numeric paper value may show.
constexpr double kPaperTolerance = 0.15;

/// Does `m` agree with the paper? Rows without a paper value always do; a
/// "< X" row must be strictly under X; a numeric row within kPaperTolerance.
bool matches_paper(const Measurement& m) {
  const char* s = m.paper_us;
  const bool upper_bound = s[0] == '<';
  if (upper_bound) ++s;
  char* end = nullptr;
  const double paper = std::strtod(s, &end);
  if (end == s) return true;  // "-": nothing to compare against
  if (upper_bound) return m.sim_us < paper;
  return std::fabs(m.sim_us - paper) <= kPaperTolerance * paper;
}

std::vector<Measurement> measure_primitives() {
  std::vector<Measurement> out;

  // --- Requester-side costs: direct kernel calls, clock deltas. ----------
  {
    Runtime rt(sim_cfg(2));
    rt.load<Target>();
    Kernel& k0 = rt.kernel(0);
    am::Machine& m = rt.machine();
    const BehaviorId bid = 0;

    SimTime t0 = m.now(0);
    const MailAddress local = k0.create_local(bid);
    out.push_back({"actor creation (local)", hal::bench::us(m.now(0) - t0), "-"});

    t0 = m.now(0);
    (void)k0.create(bid, 1);
    out.push_back({"remote creation, initiation (alias, §5)",
                   hal::bench::us(m.now(0) - t0), "5.83"});

    t0 = m.now(0);
    benchmark::DoNotOptimize(k0.locality_check(local));
    out.push_back({"locality check (local actor)",
                   hal::bench::us(m.now(0) - t0), "< 1"});

    // Buffered local send: name translation + enqueue + scheduling.
    Message msg;
    msg.dest = local;
    msg.selector = sel<&Target::on_nop>();
    t0 = m.now(0);
    k0.send_message(msg);
    out.push_back({"message send (local, buffered)",
                   hal::bench::us(m.now(0) - t0), "-"});

    // Dispatch of that buffered message.
    t0 = m.now(0);
    (void)k0.step();
    out.push_back({"method dispatch (generic)", hal::bench::us(m.now(0) - t0),
                   "-"});

    // Compiled fast path: locality check + direct invocation.
    Context ctx(k0, SlotId{}, local, nullptr);
    t0 = m.now(0);
    (void)compiled::try_invoke_local<&Target::on_nop>(ctx, local);
    out.push_back({"static dispatch (compiled fast path, §6.3)",
                   hal::bench::us(m.now(0) - t0), "-"});

    // Join continuation: allocation and one reply fill.
    t0 = m.now(0);
    const ContRef jc = k0.make_join(
        1, [](Context&, const JoinView&) {}, local);
    out.push_back({"join continuation allocation (§6.2)",
                   hal::bench::us(m.now(0) - t0), "-"});
    t0 = m.now(0);
    k0.fill_join(jc, 1, {});
    out.push_back({"reply fill + continuation fire",
                   hal::bench::us(m.now(0) - t0), "-"});

    // Remote send, sender side: name translation + packet injection.
    Message rmsg;
    rmsg.dest = MailAddress{};  // fill with a foreign target below
    const MailAddress remote = k0.create(bid, 1);
    rmsg.dest = remote;
    rmsg.selector = sel<&Target::on_nop>();
    t0 = m.now(0);
    k0.send_message(rmsg);
    out.push_back({"message send (remote, sender side)",
                   hal::bench::us(m.now(0) - t0), "-"});
    rt.run();  // drain the machine so tokens/quiescence stay clean
  }

  // --- End-to-end remote creation: completion at the target node. ---------
  {
    Runtime rt(sim_cfg(2));
    rt.load<Target>();
    Kernel& k0 = rt.kernel(0);
    const SimTime t0 = rt.machine().now(0);
    (void)k0.create(0, 1);
    rt.run();
    // Makespan covers request delivery + actual creation + the background
    // descriptor-caching ack.
    out.push_back({"remote creation, completed at target",
                   hal::bench::us(rt.report().makespan_ns - t0), "20.83"});
  }

  // --- End-to-end remote message latency. ---------------------------------
  {
    Target::message_received_at = 0;
    Runtime rt(sim_cfg(2));
    rt.load<Target>();
    const MailAddress t = rt.spawn<Target>(1);
    const SimTime t0 = rt.machine().now(0);
    rt.inject<&Target::on_ping>(t);
    rt.run();
    out.push_back({"message send → dispatch (remote, end to end)",
                   hal::bench::us(Target::message_received_at - t0), "-"});
  }

  return out;
}

// --- Probe distribution workload ---------------------------------------------
// The table above gives single-shot costs; the observability layer records
// full distributions. This mixed scenario exercises most of the probe set at
// once: a stateful actor tours the ring (migration + bulk transfer) while a
// chaser on every node keeps sending to its fixed address (remote delivery,
// park-and-chase FIR traffic) and finally requests a report (join
// round-trip). The resulting per-probe histograms are printed as quantiles
// and emitted to BENCH_table2_primitives.json.

class Rover : public ActorBase {
 public:
  void on_work(Context& ctx, std::int64_t amount) {
    sum_ += amount;
    ctx.charge_ns(200);  // a little modeled work per deposit
  }
  void on_tour(Context& ctx, NodeId next, std::int64_t remaining) {
    if (remaining > 0) {
      const auto after =
          static_cast<NodeId>((next + 1) % ctx.node_count());
      // Queue the next hop to ourselves before moving: it travels with us.
      ctx.send<&Rover::on_tour>(ctx.self(), after, remaining - 1);
      ctx.migrate_to(next);
    }
  }
  void on_query(Context& ctx) { ctx.reply(sum_); }
  HAL_BEHAVIOR(Rover, &Rover::on_work, &Rover::on_tour, &Rover::on_query)

  bool migratable() const override { return true; }
  void pack_state(ByteWriter& w) const override { w.write(sum_); }
  void unpack_state(ByteReader& r) override { sum_ = r.read<std::int64_t>(); }

 private:
  std::int64_t sum_ = 0;
};

class Chaser : public ActorBase {
 public:
  void on_go(Context& ctx, MailAddress rover, std::int64_t count,
             std::int64_t gap_ns) {
    for (std::int64_t i = 0; i < count; ++i) {
      ctx.charge_ns(static_cast<SimTime>(gap_ns));
      ctx.send<&Rover::on_work>(rover, std::int64_t{1});
    }
    ctx.request<&Rover::on_query>(rover, [](Context&, const JoinView&) {});
  }
  HAL_BEHAVIOR(Chaser, &Chaser::on_go)
};

obs::RunReport measure_probe_distribution(NodeId nodes) {
  Runtime rt(sim_cfg(nodes));
  rt.load<Rover>();
  rt.load<Chaser>();
  const MailAddress rover = rt.spawn<Rover>(0);
  rt.inject<&Rover::on_tour>(rover, NodeId{1},
                             static_cast<std::int64_t>(nodes) * 4);
  for (NodeId n = 0; n < nodes; ++n) {
    const MailAddress c = rt.spawn<Chaser>(n);
    // Stagger the send gaps so deposits land throughout the tour.
    rt.inject<&Chaser::on_go>(c, rover, std::int64_t{48},
                              std::int64_t{40000 + 7000 * n});
  }
  rt.run();
  return rt.report();
}

void print_probe_distribution(const obs::RunReport& r) {
  std::printf("\nprobe distributions (mixed migration/chase workload, "
              "%llu nodes):\n",
              static_cast<unsigned long long>(r.nodes));
  std::printf("%-24s %9s %12s %12s %12s %12s\n", "probe", "count", "p50",
              "p90", "p99", "max");
  for (std::size_t i = 0; i < obs::kProbeCount; ++i) {
    const auto& h = r.probes.histogram(static_cast<obs::Probe>(i));
    if (h.empty()) continue;
    std::printf("%-24s %9llu %12llu %12llu %12llu %12llu\n",
                std::string(obs::kProbeNames[i]).c_str(),
                static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(h.quantile(0.5)),
                static_cast<unsigned long long>(h.quantile(0.9)),
                static_cast<unsigned long long>(h.quantile(0.99)),
                static_cast<unsigned long long>(h.max()));
  }
}

// --- Host-nanosecond microbenchmarks of the same code paths ------------------

struct HostFixture {
  Runtime rt{sim_cfg(2)};
  MailAddress target;
  HostFixture() {
    rt.load<Target>();
    target = rt.spawn<Target>(0);
  }
  static HostFixture& instance() {
    static HostFixture f;
    return f;
  }
};

void BM_LocalityCheck(benchmark::State& state) {
  HostFixture& f = HostFixture::instance();
  Kernel& k = f.rt.kernel(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.locality_check(f.target));
  }
}
BENCHMARK(BM_LocalityCheck);

void BM_LocalSendAndDispatch(benchmark::State& state) {
  HostFixture& f = HostFixture::instance();
  Kernel& k = f.rt.kernel(0);
  Message msg;
  msg.dest = f.target;
  msg.selector = sel<&Target::on_nop>();
  for (auto _ : state) {
    k.send_message(msg);
    benchmark::DoNotOptimize(k.step());
  }
}
BENCHMARK(BM_LocalSendAndDispatch);

void BM_StaticDispatch(benchmark::State& state) {
  HostFixture& f = HostFixture::instance();
  Kernel& k = f.rt.kernel(0);
  Context ctx(k, SlotId{}, f.target, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compiled::try_invoke_local<&Target::on_nop>(ctx, f.target));
  }
}
BENCHMARK(BM_StaticDispatch);

void BM_JoinAllocFill(benchmark::State& state) {
  HostFixture& f = HostFixture::instance();
  Kernel& k = f.rt.kernel(0);
  for (auto _ : state) {
    const ContRef jc = k.make_join(
        1, [](Context&, const JoinView&) {}, f.target);
    k.fill_join(jc, 7, {});
  }
}
BENCHMARK(BM_JoinAllocFill);

}  // namespace

int main(int argc, char** argv) {
  hal::bench::header(
      "Table 2: execution time of runtime primitives (simulated µs)",
      "paper §7.1 Table 2 — primitive operation costs");
  std::printf("%-52s %12s %10s\n", "primitive", "this repro", "paper");
  // Only the simulator runs on the CM-5 cost model; wall-clock executors
  // print the table without gating it.
  const bool gated =
      hal::bench::env_machine(hal::MachineKind::kSim) == hal::MachineKind::kSim;
  int off_paper = 0;
  for (const Measurement& m : measure_primitives()) {
    const bool ok = !gated || matches_paper(m);
    std::printf("%-52s %12.2f %10s%s\n", m.name, m.sim_us, m.paper_us,
                ok ? "" : "  <-- off the paper");
    if (!ok) ++off_paper;
  }
  const hal::obs::RunReport dist = measure_probe_distribution(
      static_cast<hal::NodeId>(hal::bench::env_unsigned("HAL_BENCH_NODES", 8)));
  print_probe_distribution(dist);
  hal::bench::report_json(dist, "table2_primitives");
  std::printf("\nhost-nanosecond microbenchmarks of the same code paths:\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (off_paper > 0) {
    std::fprintf(stderr,
                 "table2_primitives: %d row(s) off the paper (numeric rows "
                 "must be within %.0f%%, bounded rows under their bound)\n",
                 off_paper, kPaperTolerance * 100);
    return 1;
  }
  return 0;
}
