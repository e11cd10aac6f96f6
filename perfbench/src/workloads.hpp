// The benchmark's workloads and the sample each one produces.
//
// A sample is one complete, checked execution of a workload: build the
// runtime(s), seed the actors, run to quiescence, verify every output. The
// driver (main.cpp) repeats samples for the requested time and reports
// medians over them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/api.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

/// One reported figure.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Sample {
  double setup_s = 0.0;  ///< Runtime ctor + load + spawn/inject
  double ctor_s = 0.0;   ///< of which Runtime construction
  double run_s = 0.0;    ///< wall (host) seconds inside Runtime::run()
  double cpu_s = 0.0;    ///< process CPU seconds inside run()
  std::int64_t vol_switches = 0;    ///< voluntary context switches in run()
  std::int64_t invol_switches = 0;  ///< involuntary context switches in run()
  std::uint64_t allocs = 0;  ///< global operator new calls in run() (traced)
  std::uint64_t msgs = 0;    ///< RunReport messages_delivered, summed
  std::uint64_t requests = 0;          ///< completed request/reply pairs
  std::vector<std::uint64_t> rtt_ns;   ///< request -> continuation start
  /// Summary of rtt_ns (summarize_latency), which is then released so that
  /// a run's memory does not grow with its sample count.
  std::uint64_t rtt_p50_ns = 0;
  std::uint64_t rtt_p90_ns = 0;
  std::uint64_t rtt_p99_ns = 0;
  TopPercentile rtt_top;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<hal::obs::RunReport> reports;
  std::vector<std::string> config_echo;  ///< one JSON object per runtime
  LayerSamples layers;                   ///< traced samples only
  std::uint64_t spans = 0;               ///< spans analysed (traced)
  std::uint64_t span_drops = 0;
  std::vector<Metric> fidelity;           ///< sim.* records (sim_paper)
};

/// A sample's inputs. Tracing itself is switched by the caller
/// (Tracer::begin_sample) before the sample runs.
struct SampleSpec {
  std::uint64_t seed = 0;
};

Sample run_storm(const SampleSpec& spec);
Sample run_rpc_chase(const SampleSpec& spec);
Sample run_fib_lb(const SampleSpec& spec);
Sample run_sim_paper(const SampleSpec& spec);

/// The rpc_chase shape, parameterised so that sim_paper and the tiling
/// self-test can run it on SimMachine.
struct RpcShape {
  hal::MachineKind machine = hal::MachineKind::kMn;
  hal::NodeId nodes = 16;
  std::uint32_t servers = 8;
  std::uint32_t requests_per_caller = 6000;  ///< one caller per node
  std::uint32_t migrate_every = 64;  ///< a server moves every K-th request
};
Sample run_rpc_shape(const SampleSpec& spec, const RpcShape& shape);

/// Table 2 rows the paper states a value for, measured on a 2-node
/// SimMachine through the public API (virtual µs), plus the remote send
/// measured from the send call to the receiving handler's start.
struct PaperRows {
  double remote_create_init_us = 0.0;  ///< paper 5.83
  double remote_create_done_us = 0.0;  ///< paper 20.83
  double locality_check_us = 0.0;      ///< paper "< 1"
  double remote_send_e2e_us = 0.0;
  /// Largest relative error over the three stated rows, in percent; a
  /// "< 1" row counts as exact while it holds.
  double max_err_pct() const;
};
PaperRows measure_paper_rows();

// --- shared plumbing (workloads.cpp) ---------------------------------------

/// Per-node result slots the benchmark's behaviours write into. A node's
/// slot is written only by code running on that node (one runner at a
/// time), and read by the main thread after Runtime::run() returned.
struct alignas(64) NodeRec {
  std::vector<std::uint64_t> rtt_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests = 0;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};
void reset_recorders(hal::NodeId nodes, std::size_t rtt_reserve);
NodeRec& rec(hal::NodeId node);
std::vector<NodeRec>& recorders();

/// Count operator new calls while on (traced samples only).
void count_allocs(bool on);
std::uint64_t allocs_counted();

struct Usage {
  double cpu_s = 0.0;
  std::int64_t vol_switches = 0;
  std::int64_t invol_switches = 0;
};
Usage usage_now();

/// Folds the per-node recorders into `out` (attempted/failed/requests/rtt).
void collect_recorders(Sample& out);

/// JSON echo of the configuration a runtime actually ran with.
std::string config_echo(const hal::RuntimeConfig& cfg,
                        const hal::obs::RunReport& report);

/// Fill the rtt_* summaries from rtt_ns and release rtt_ns.
void summarize_latency(Sample& out);

/// CPU threads this process may use (the affinity mask, as nproc reports).
unsigned usable_cpus();

/// splitmix64 finaliser: derives independent streams from the seed.
std::uint64_t mix(std::uint64_t x);

/// Build one runtime, time its set-up (`setup(rt)` loads, spawns and
/// injects), run it to quiescence and fold its timings, usage and report
/// into `out`. `check(rt)` verifies the outputs afterwards; dead letters
/// count as failed operations.
template <typename Setup, typename Check>
void run_runtime(Sample& out, const hal::RuntimeConfig& cfg, Setup&& setup,
                 Check&& check) {
  using Clock = std::chrono::steady_clock;
  const auto secs = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  const auto t0 = Clock::now();
  hal::Runtime rt(cfg);
  const auto t1 = Clock::now();
  setup(rt);
  const auto t2 = Clock::now();
  const Usage u0 = usage_now();
  count_allocs(Tracer::enabled());
  rt.run();
  count_allocs(false);
  const auto t3 = Clock::now();
  const Usage u1 = usage_now();
  out.ctor_s += secs(t1 - t0);
  out.setup_s += secs(t2 - t0);
  out.run_s += secs(t3 - t2);
  out.cpu_s += u1.cpu_s - u0.cpu_s;
  out.vol_switches += u1.vol_switches - u0.vol_switches;
  out.invol_switches += u1.invol_switches - u0.invol_switches;
  out.allocs += allocs_counted();
  out.reports.push_back(rt.report());
  hal::obs::RunReport& r = out.reports.back();
  // Only the aggregates are read later; per-node blocks of a 1024-node run
  // would otherwise pile up across samples.
  std::vector<hal::StatBlock>().swap(r.per_node);
  std::vector<hal::obs::ProbeRecorder>().swap(r.per_node_probes);
  out.msgs += r.total.get(hal::Stat::kMessagesDelivered);
  out.failed += r.dead_letters;
  out.config_echo.push_back(config_echo(cfg, r));
  check(rt);
}

}  // namespace perfbench
