// sim_paper: the paper-scale reproduction on SimMachine, one host thread.
//
// fib with load balancing, Cholesky CP (pipelined, cyclic columns) and
// systolic matmul at P = 16 through apps::run_*, the Table 2 remote-creation
// pair, the mixed migration/chase scenario of bench/table2_primitives, and
// the rpc_chase shape at 16 nodes. The host speed of this set bounds how
// fast paper-scale numbers can be regenerated; its virtual numbers are the
// reproduction and must not drift unexplained.
#include "apps/cholesky.hpp"
#include "apps/fib.hpp"
#include "apps/matmul.hpp"
#include "baseline/seq_kernels.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr hal::NodeId kP = 16;
constexpr hal::NodeId kMixedNodes = 8;
constexpr std::int64_t kDeposits = 48;  ///< per chaser

class Rover : public hal::ActorBase {
 public:
  void on_work(hal::Context& ctx, std::int64_t amount) {
    sum_ += amount;
    rec(ctx.node()).sum += static_cast<std::uint64_t>(amount);
    ctx.charge_ns(200);
  }
  void on_tour(hal::Context& ctx, hal::NodeId next, std::int64_t remaining) {
    if (remaining > 0) {
      const auto after =
          static_cast<hal::NodeId>((next + 1) % ctx.node_count());
      ctx.send<&Rover::on_tour>(ctx.self(), after, remaining - 1);
      ctx.migrate_to(next);
    }
  }
  void on_query(hal::Context& ctx) { ctx.reply(sum_); }
  HAL_BEHAVIOR(Rover, &Rover::on_work, &Rover::on_tour, &Rover::on_query)

  bool migratable() const override { return true; }
  void pack_state(hal::ByteWriter& w) const override { w.write(sum_); }
  void unpack_state(hal::ByteReader& r) override {
    sum_ = r.read<std::int64_t>();
  }

 private:
  std::int64_t sum_ = 0;
};

class Chaser : public hal::ActorBase {
 public:
  void on_go(hal::Context& ctx, hal::MailAddress rover, std::int64_t count,
             std::int64_t gap_ns) {
    for (std::int64_t i = 0; i < count; ++i) {
      ctx.charge_ns(static_cast<hal::SimTime>(gap_ns));
      ctx.send<&Rover::on_work>(rover, std::int64_t{1});
    }
    ctx.request<&Rover::on_query>(
        rover, [](hal::Context& jc, const hal::JoinView&) {
          ++rec(jc.node()).count;
        });
  }
  HAL_BEHAVIOR(Chaser, &Chaser::on_go)
};

double ms(hal::SimTime ns) { return static_cast<double>(ns) / 1e6; }

/// Time an apps::run_* call as run time (its set-up is internal to it) and
/// fold its report into `out`.
template <typename Result, typename Run>
Result timed_app(Sample& out, const char* label, Run&& run) {
  const auto t0 = std::chrono::steady_clock::now();
  Result r = run();
  out.run_s += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  out.msgs += r.report.total.get(hal::Stat::kMessagesDelivered);
  out.failed += r.report.dead_letters;
  ++out.attempted;
  out.config_echo.push_back(std::string("{\"run\": \"") + label +
                            "\", \"executor\": \"" + r.report.machine +
                            "\", \"nodes\": " +
                            std::to_string(r.report.nodes) + "}");
  out.fidelity.push_back({std::string("sim.virtual_makespan_ms.") + label,
                          ms(r.report.makespan_ns), "ms"});
  std::vector<hal::StatBlock>().swap(r.report.per_node);
  std::vector<hal::obs::ProbeRecorder>().swap(r.report.per_node_probes);
  out.reports.push_back(r.report);
  return r;
}

void merge(Sample& into, Sample&& from) {
  into.setup_s += from.setup_s;
  into.ctor_s += from.ctor_s;
  into.run_s += from.run_s;
  into.cpu_s += from.cpu_s;
  into.vol_switches += from.vol_switches;
  into.invol_switches += from.invol_switches;
  into.allocs += from.allocs;
  into.msgs += from.msgs;
  into.requests += from.requests;
  into.rtt_ns.insert(into.rtt_ns.end(), from.rtt_ns.begin(), from.rtt_ns.end());
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (auto& r : from.reports) into.reports.push_back(std::move(r));
  for (auto& e : from.config_echo) into.config_echo.push_back(std::move(e));
}

}  // namespace

Sample run_sim_paper(const SampleSpec& spec) {
  Sample out;
  // The paper-table runs keep the apps' own seeds (and the mixed scenario
  // the default runtime seed, as bench/table2_primitives does), so their
  // virtual numbers are a fixed fidelity record comparable across runs and
  // with the table benches; the request stream below follows --seed.
  hal::apps::FibParams fib;
  fib.n = 20;
  fib.nodes = kP;
  fib.load_balancing = true;
  const auto f = timed_app<hal::apps::FibResult>(
      out, "fib16", [&] { return hal::apps::run_fib(fib); });
  if (f.value != hal::baseline::fib_seq(fib.n)) ++out.failed;

  hal::apps::CholeskyParams chol;
  chol.n = 96;
  chol.nodes = kP;
  chol.variant = hal::apps::CholVariant::kPipelined;
  chol.mapping = hal::apps::ColMapping::kCyclic;
  const auto c = timed_app<hal::apps::CholeskyResult>(
      out, "cholesky_cp16", [&] { return hal::apps::run_cholesky(chol); });
  if (!(c.max_error < 1e-8)) ++out.failed;

  hal::apps::MatmulParams mm;
  mm.n = 128;
  mm.grid = 4;
  const auto m = timed_app<hal::apps::MatmulResult>(
      out, "matmul16", [&] { return hal::apps::run_matmul(mm); });
  if (!(m.max_error < 1e-8)) ++out.failed;

  // Table 2 rows and the stamped remote send (tiny; counted as run time).
  {
    const auto t0 = std::chrono::steady_clock::now();
    const PaperRows rows = measure_paper_rows();
    out.run_s += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    out.fidelity.push_back(
        {"sim.remote_create_init_us", rows.remote_create_init_us, "us"});
    out.fidelity.push_back(
        {"sim.remote_create_done_us", rows.remote_create_done_us, "us"});
    out.fidelity.push_back(
        {"sim.remote_send_e2e_us", rows.remote_send_e2e_us, "us"});
  }

  // Mixed migration/chase scenario.
  {
    hal::RuntimeConfig cfg;
    cfg.nodes = kMixedNodes;
    reset_recorders(kMixedNodes, 0);
    run_runtime(
        out, cfg,
        [&](hal::Runtime& rt) {
          rt.load<Rover>();
          rt.load<Chaser>();
          const hal::MailAddress rover = rt.spawn<Rover>(0);
          rt.inject<&Rover::on_tour>(rover, hal::NodeId{1},
                                     std::int64_t{kMixedNodes} * 4);
          for (hal::NodeId n = 0; n < kMixedNodes; ++n) {
            rt.inject<&Chaser::on_go>(rt.spawn<Chaser>(n), rover, kDeposits,
                                      std::int64_t{40000 + 7000 * n});
          }
        },
        [&](hal::Runtime&) {
          std::uint64_t deposits = 0;
          std::uint64_t replies = 0;
          for (const NodeRec& r : recorders()) {
            deposits += r.sum;
            replies += r.count;
          }
          out.attempted += kMixedNodes;
          if (deposits != std::uint64_t{kMixedNodes} * kDeposits ||
              replies != kMixedNodes) {
            out.failed += kMixedNodes;
          }
        });
    const auto& delivery = out.reports.back().probes.histogram(
        hal::obs::Probe::kRemoteDelivery);
    out.fidelity.push_back({"sim.mixed_delivery_p50_ns",
                            static_cast<double>(delivery.quantile(0.5)),
                            "ns"});
  }

  // Messages of the fixed-seed runs above (the Table 2 rows run outside).
  out.fidelity.push_back(
      {"sim.msgs_delivered", static_cast<double>(out.msgs), "count"});

  // The rpc_chase shape in virtual time.
  RpcShape rpc;
  rpc.machine = hal::MachineKind::kSim;
  rpc.nodes = kP;
  rpc.requests_per_caller = 200;
  rpc.migrate_every = 16;
  merge(out, run_rpc_shape(spec, rpc));
  return out;
}

}  // namespace perfbench
