#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// --- allocation counting ---------------------------------------------------
// Global operator new replacement: counts calls while a traced run() is in
// progress (runtime.allocs_per_msg). Untraced runs pay one relaxed load.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void count_allocs(bool on) {
  if (on) g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t allocs_counted() {
  return g_allocs.load(std::memory_order_relaxed);
}

// --- per-node recorders ----------------------------------------------------

namespace {
std::vector<NodeRec> g_recs;
}

void reset_recorders(hal::NodeId nodes, std::size_t rtt_reserve) {
  g_recs.assign(nodes, NodeRec{});
  for (NodeRec& r : g_recs) r.rtt_ns.reserve(rtt_reserve);
}

NodeRec& rec(hal::NodeId node) { return g_recs[node]; }
std::vector<NodeRec>& recorders() { return g_recs; }

void collect_recorders(Sample& out) {
  for (const NodeRec& r : g_recs) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.requests += r.requests;
    out.rtt_ns.insert(out.rtt_ns.end(), r.rtt_ns.begin(), r.rtt_ns.end());
  }
}

// --- usage, config echo, helpers -------------------------------------------

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.vol_switches = ru.ru_nvcsw;
  u.invol_switches = ru.ru_nivcsw;
  return u;
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n < 1 ? 1u : static_cast<unsigned>(n);
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string config_echo(const hal::RuntimeConfig& cfg,
                        const hal::obs::RunReport& report) {
  const hal::am::BatchConfig& b = cfg.batching;
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"executor\": \"%s\", \"nodes\": %llu, \"workers\": %llu, "
      "\"batching\": {\"enabled\": %s, \"max_frame_bytes\": %u, "
      "\"max_msgs\": %u, \"holdoff_ns\": %llu, \"holdoff_min_ns\": %llu, "
      "\"holdoff_max_ns\": %llu, \"adaptive\": %s}, \"faults\": \"%s\", "
      "\"load_balancing\": %s, \"seed\": %llu, \"build_type\": \"%s\", "
      "\"nproc\": %u}",
      report.machine.c_str(), static_cast<unsigned long long>(report.nodes),
      static_cast<unsigned long long>(report.workers),
      b.enabled ? "true" : "false", b.max_frame_bytes, b.max_msgs,
      static_cast<unsigned long long>(b.holdoff_ns),
      static_cast<unsigned long long>(b.holdoff_min_ns),
      static_cast<unsigned long long>(b.holdoff_max_ns),
      b.adaptive ? "true" : "false", cfg.faults.enabled ? "on" : "off",
      cfg.load_balancing ? "true" : "false",
      static_cast<unsigned long long>(report.seed), PERFBENCH_BUILD_TYPE,
      usable_cpus());
  return buf;
}

void summarize_latency(Sample& out) {
  std::sort(out.rtt_ns.begin(), out.rtt_ns.end());
  out.rtt_p50_ns = nearest_rank(out.rtt_ns, 1, 2);
  out.rtt_p90_ns = nearest_rank(out.rtt_ns, 9, 10);
  out.rtt_p99_ns = nearest_rank(out.rtt_ns, 99, 100);
  out.rtt_top = top_percentile(out.rtt_ns);
  std::vector<std::uint64_t>().swap(out.rtt_ns);
}

// --- Table 2 rows ----------------------------------------------------------

namespace {

class Target : public hal::ActorBase {
 public:
  void on_nop(hal::Context&) {}
  void on_stamp(hal::Context& ctx, hal::SimTime sent_at) {
    g_send_e2e = ctx.now() - sent_at;
  }
  HAL_BEHAVIOR(Target, &Target::on_nop, &Target::on_stamp)
  inline static hal::SimTime g_send_e2e = 0;
};

/// Measures the requester-side primitives with clock deltas around the
/// calls, as Table 2 does.
class Prober : public hal::ActorBase {
 public:
  void on_primitives(hal::Context& ctx) {
    const hal::MailAddress local = ctx.create<Target>();
    hal::SimTime t = ctx.now();
    (void)ctx.create_on<Target>(1);
    g_create_init = ctx.now() - t;
    // The locality check has no Context wrapper; it is the kernel's name
    // lookup that every send starts with.
    t = ctx.now();
    (void)ctx.kernel().locality_check(local);
    g_locality = ctx.now() - t;
  }
  /// Start of an isolated remote creation; the run's makespan marks its
  /// completion (creation at the target plus the descriptor ack).
  void on_create(hal::Context& ctx) {
    g_create_start = ctx.now();
    (void)ctx.create_on<Target>(1);
  }
  void on_send(hal::Context& ctx, hal::MailAddress target) {
    ctx.send<&Target::on_stamp>(target, ctx.now());
  }
  HAL_BEHAVIOR(Prober, &Prober::on_primitives, &Prober::on_create,
               &Prober::on_send)
  inline static hal::SimTime g_create_init = 0;
  inline static hal::SimTime g_locality = 0;
  inline static hal::SimTime g_create_start = 0;
};

hal::RuntimeConfig sim2() {
  hal::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.machine = hal::MachineKind::kSim;
  return cfg;
}

double us(hal::SimTime ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

double PaperRows::max_err_pct() const {
  const double init = std::abs(remote_create_init_us - 5.83) / 5.83;
  const double done = std::abs(remote_create_done_us - 20.83) / 20.83;
  const double local = std::max(0.0, locality_check_us - 1.0) / 1.0;
  return 100.0 * std::max({init, done, local});
}

PaperRows measure_paper_rows() {
  PaperRows out;
  {
    hal::Runtime rt(sim2());
    rt.load<Target>();
    rt.load<Prober>();
    rt.inject<&Prober::on_primitives>(rt.spawn<Prober>(0));
    rt.run();
    out.remote_create_init_us = us(Prober::g_create_init);
    out.locality_check_us = us(Prober::g_locality);
  }
  {
    hal::Runtime rt(sim2());
    rt.load<Target>();
    rt.load<Prober>();
    rt.inject<&Prober::on_create>(rt.spawn<Prober>(0));
    rt.run();
    out.remote_create_done_us =
        us(rt.report().makespan_ns - Prober::g_create_start);
  }
  {
    hal::Runtime rt(sim2());
    rt.load<Target>();
    rt.load<Prober>();
    const hal::MailAddress target = rt.spawn<Target>(1);
    rt.inject<&Prober::on_send>(rt.spawn<Prober>(0), target);
    rt.run();
    out.remote_send_e2e_us = us(Target::g_send_e2e);
  }
  return out;
}

}  // namespace perfbench
